// Machine-readable benchmark reporting: collects per-case sample sets,
// reduces them to median/p10/p90, and emits a stable JSON document
// (schema "mp-bench-kernels-v1") so successive commits can be diffed by
// tooling. Validation rejects NaN and non-positive throughput so the
// perf-smoke ctest target fails loudly on a broken kernel or timer.
//
// Document layout:
//   {
//     "schema": "mp-bench-kernels-v1",
//     "git_sha": "<40 hex or 'unknown'>",
//     "config": { "<key>": "<value>", ... },   // compiler, ISA, flags
//     "cases": [
//       {
//         "name":   "dgemm_128_NN",
//         "kind":   "dgemm" | "sort4" | "sched",
//         "metric": "gflops" | "gbytes" | "mops",
//         "median": 10.5, "p10": 10.1, "p90": 10.9,   // of `metric`
//         "reps":   9,
//         "ref_median": 2.9,        // naive-reference throughput (0 = n/a)
//         "speedup":    3.6,        // median / ref_median (0 = n/a)
//         "params": { "m": 128, ... }                 // integer knobs
//       }, ...
//     ]
//   }
#pragma once

#include <map>
#include <string>
#include <vector>

namespace mp::bench {

struct BenchCase {
  std::string name;
  std::string kind;
  std::string metric;
  std::vector<double> samples;      ///< one throughput value per repetition
  double ref_median = 0.0;          ///< naive-reference median, 0 if n/a
  std::map<std::string, long> params;
};

class BenchReport {
 public:
  /// Override the document's schema tag (default "mp-bench-kernels-v1");
  /// other benchmark families (e.g. "mp-bench-resubmit-v1") reuse the
  /// same case/percentile machinery under their own schema.
  void set_schema(const std::string& schema);
  void set_config(const std::string& key, const std::string& value);
  void add(BenchCase c);

  /// False (with a human-readable reason) when any case has no samples,
  /// a NaN/inf sample, or non-positive median throughput.
  bool validate(std::string* why) const;

  std::string to_json() const;

  /// Writes to_json() to `path`. Returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  std::string schema_ = "mp-bench-kernels-v1";
  std::map<std::string, std::string> config_;
  std::vector<BenchCase> cases_;
};

}  // namespace mp::bench
