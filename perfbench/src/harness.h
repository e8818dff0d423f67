// Measurement plumbing shared by every workload: clocks and percentiles,
// the run report that becomes the benchmark's JSON result line, and the
// benchmark-side spans recorded around each call into a layer.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linearly interpolated percentile (p in [0, 100]); 0 for no samples.
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}

/// max |got - want| / max |want| (absolute when `want` is all zero).
double relative_error(const std::vector<double>& got,
                      const std::vector<double>& want);

/// Peak resident set of this process since the last reset_peak_rss(), MiB.
double peak_rss_mb();
/// Return freed heap memory to the system and restart the peak-RSS mark at
/// the resulting resident set (Linux /proc/self/clear_refs). Without the
/// reset the peak covers the whole process.
void reset_peak_rss();

/// Command-line arguments of one benchmark run.
struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  ///< where spans are written at exit ("" = none)
};

/// One run's result: operation counts, correctness, named metrics.
class Report {
 public:
  /// Count one attempted operation; a false `ok` counts it as failed and
  /// logs `what` to stderr.
  void check(bool ok, const std::string& what);
  /// Count an operation that threw.
  void fail(const std::string& what);

  void set(const std::string& name, double value, const std::string& unit);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// The single-line JSON object the benchmark prints last.
  std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

/// Benchmark-side spans: name, start, end, parent span and the request
/// (operation index) they belong to, kept in memory and written as JSON
/// lines at exit. Recording is on only for traced runs. Single-threaded:
/// every layer call the benchmark wraps is made from the driver thread.
class Spans {
 public:
  class Scope {
   public:
    Scope(Spans* spans, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;  ///< null when recording is off
    size_t index_ = 0;
  };

  void enable(bool on) { enabled_ = on; }
  /// Spans opened from now on belong to request `id`.
  void set_request(uint64_t id) { request_ = id; }
  Scope scope(const char* name) { return Scope(enabled_ ? this : nullptr, name); }

  bool write(const std::string& path) const;

 private:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;  ///< 0 = root
    uint64_t request = 0;
    const char* name = "";
    double t_start = 0.0;
    double t_end = 0.0;
  };
  bool enabled_ = false;
  uint64_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<size_t> open_;  ///< indices of open spans, innermost last
  Clock::time_point epoch_ = Clock::now();
};

/// The process-wide span recorder.
Spans& spans();

}  // namespace perfbench
