#include "tce/variants.h"

#include "support/error.h"

namespace mp::tce {

std::vector<VariantConfig> VariantConfig::all() {
  return {v1(), v2(), v3(), v4(), v5()};
}

void VariantConfig::validate() const {
  MP_REQUIRE(!name.empty(), "VariantConfig: empty name");
  MP_REQUIRE(segment_height >= 0, "VariantConfig: negative segment height");
  MP_REQUIRE(!parallel_writes || parallel_sorts,
             "VariantConfig: parallel writes require parallel sorts");
}

}  // namespace mp::tce
