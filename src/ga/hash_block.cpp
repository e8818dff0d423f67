#include "ga/hash_block.h"

#include "support/error.h"

namespace mp::ga {

BlockEntry HashBlockIndex::add(uint64_t key, int64_t size) {
  MP_REQUIRE(size >= 0, "HashBlockIndex: negative block size");
  MP_REQUIRE(map_.find(key) == map_.end(),
             "HashBlockIndex: duplicate block key");
  const BlockEntry e{next_offset_, size};
  map_.emplace(key, e);
  keys_.push_back(key);
  next_offset_ += size;
  return e;
}

std::optional<BlockEntry> HashBlockIndex::find(uint64_t key) const {
  const auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

namespace {

BlockEntry lookup_or_throw(const HashBlockIndex& index, uint64_t key) {
  const auto e = index.find(key);
  if (!e) throw mp::DataError("hash block lookup failed: unknown key");
  return *e;
}

}  // namespace

void get_hash_block(const GlobalArray& ga, const HashBlockIndex& index,
                    uint64_t key, double* buf) {
  const BlockEntry e = lookup_or_throw(index, key);
  ga.get(e.offset, e.size, buf);
}

DataBuf view_hash_block(const GlobalArray& ga, const HashBlockIndex& index,
                        uint64_t key) {
  const BlockEntry e = lookup_or_throw(index, key);
  return ga.view(e.offset, e.size);
}

void add_hash_block(GlobalArray& ga, const HashBlockIndex& index,
                    uint64_t key, const double* buf, double alpha) {
  const BlockEntry e = lookup_or_throw(index, key);
  ga.acc(e.offset, e.size, buf, alpha);
}

void put_hash_block(GlobalArray& ga, const HashBlockIndex& index,
                    uint64_t key, const double* buf) {
  const BlockEntry e = lookup_or_throw(index, key);
  ga.put(e.offset, e.size, buf);
}

}  // namespace mp::ga
