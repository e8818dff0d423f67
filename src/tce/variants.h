// The five algorithmic variants of Section V of the paper.
//
//  | variant | GEMMs (h)        | SORT     | WRITE    | priorities |
//  |---------|------------------|----------|----------|------------|
//  | v1      | serial chain (0) | parallel | parallel | yes        |
//  | v2      | parallel (1)     | parallel | single   | no         |
//  | v3      | parallel (1)     | parallel | parallel | yes        |
//  | v4      | parallel (1)     | parallel | single   | yes        |
//  | v5      | parallel (1)     | single   | single   | yes        |
//
// The GEMM column is the chain segment height h of Section IV-A, which
// "can vary from one to the height of the original chain"; any variant
// may set any h.
#pragma once

#include <string>
#include <vector>

namespace mp::tce {

struct VariantConfig {
  std::string name;
  /// GEMMs per chain segment. 0: the whole chain is one serial segment
  /// with a DFILL (Fig. 1). 1: every GEMM owns a private C and a
  /// reduction tree sums them (Fig. 2). h >= 2: serial segments of h
  /// GEMMs, each started by a DFILL, with the reduction tree over the
  /// segments' results.
  int segment_height = 1;
  bool parallel_sorts = true;   ///< one SORT_i task per fired guard (Fig. 6)
  bool parallel_writes = false; ///< one WRITE_C_i per SORT_i (Fig. 7)
  bool priorities = true;       ///< decreasing function of chain number

  static VariantConfig v1() { return {"v1", 0, true, true, true}; }
  static VariantConfig v2() { return {"v2", 1, true, false, false}; }
  static VariantConfig v3() { return {"v3", 1, true, true, true}; }
  static VariantConfig v4() { return {"v4", 1, true, false, true}; }
  static VariantConfig v5() { return {"v5", 1, false, false, true}; }
  static std::vector<VariantConfig> all();

  /// Throws InvalidArgument on inconsistent combinations (a negative
  /// segment height; parallel writes without parallel sorts).
  void validate() const;
};

/// The paper's priority expression: max_L1 - L1 + offset * P, with offset
/// +5 for reader tasks, +1 for GEMMs, 0 otherwise (Section IV-C). The +5
/// reader offset creates the 5*P-deep prefetch pipeline.
struct PriorityScheme {
  static constexpr int kReaderOffset = 5;
  static constexpr int kGemmOffset = 1;

  int max_l1 = 0;  ///< total number of chains
  int nranks = 1;  ///< P

  double reader(int l1) const { return value(l1, kReaderOffset); }
  double gemm(int l1) const { return value(l1, kGemmOffset); }
  double other(int l1) const { return value(l1, 0); }

  /// The expression at any offset (the simulator's TAB-A ablation).
  double value(int l1, int offset) const {
    return static_cast<double>(max_l1 - l1 + offset * nranks);
  }
};

}  // namespace mp::tce
