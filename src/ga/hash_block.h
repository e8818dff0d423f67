// The TCE hash-block layout: NWChem stores each block-sparse tensor in a
// flat Global Array and locates blocks through a hash table keyed by the
// tile indices. GET_HASH_BLOCK / ADD_HASH_BLOCK are the two primitives the
// generated FORTRAN calls around every GEMM chain; we reproduce both.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ga/global_array.h"

namespace mp::ga {

struct BlockEntry {
  int64_t offset = 0;  ///< element offset of the block in the flat array
  int64_t size = 0;    ///< elements in the block
};

/// Immutable-after-build index from block key to (offset, size).
class HashBlockIndex {
 public:
  /// Encode up to four tile indices (each < 2^16) into one key.
  static uint64_t key4(int a, int b, int c, int d) {
    return (static_cast<uint64_t>(static_cast<uint16_t>(a)) << 48) |
           (static_cast<uint64_t>(static_cast<uint16_t>(b)) << 32) |
           (static_cast<uint64_t>(static_cast<uint16_t>(c)) << 16) |
           static_cast<uint64_t>(static_cast<uint16_t>(d));
  }

  /// Register a block; offsets are assigned densely in registration order.
  /// Returns the assigned entry. A key may be registered only once.
  BlockEntry add(uint64_t key, int64_t size);

  std::optional<BlockEntry> find(uint64_t key) const;

  /// Total elements across all registered blocks — the GA size to allocate.
  int64_t total_size() const { return next_offset_; }

  size_t num_blocks() const { return map_.size(); }

  /// All registered keys in registration (= offset) order.
  const std::vector<uint64_t>& keys() const { return keys_; }

 private:
  std::unordered_map<uint64_t, BlockEntry> map_;
  std::vector<uint64_t> keys_;
  int64_t next_offset_ = 0;
};

/// GET_HASH_BLOCK: fetch a block into a local buffer. Throws DataError if
/// the key is unknown. buf must have room for the block's size.
void get_hash_block(const GlobalArray& ga, const HashBlockIndex& index,
                    uint64_t key, double* buf);

/// GET_HASH_BLOCK without the copy: a read-only view of the block in
/// place (GlobalArray::view), as the paper's READ tasks hand ga_access
/// pointers to PaRSEC. Throws DataError if the key is unknown.
DataBuf view_hash_block(const GlobalArray& ga, const HashBlockIndex& index,
                        uint64_t key);

/// ADD_HASH_BLOCK: atomically accumulate a local buffer into the block.
void add_hash_block(GlobalArray& ga, const HashBlockIndex& index,
                    uint64_t key, const double* buf, double alpha = 1.0);

/// PUT flavour used to initialize input tensors before a run.
void put_hash_block(GlobalArray& ga, const HashBlockIndex& index,
                    uint64_t key, const double* buf);

}  // namespace mp::ga
