#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double relative_error(const std::vector<double>& got,
                      const std::vector<double>& want) {
  double err = 0.0, scale = 0.0;
  for (size_t i = 0; i < want.size(); ++i) {
    err = std::max(err, std::abs(got[i] - want[i]));
    scale = std::max(scale, std::abs(want[i]));
  }
  return scale > 0.0 ? err / scale : err;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void reset_peak_rss() {
  malloc_trim(0);  // hand freed heap pages back first, so they are not counted
  std::ofstream("/proc/self/clear_refs") << "5";
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
  }
}

void Report::fail(const std::string& what) { check(false, what); }

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  char num[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::snprintf(num, sizeof num, "%.17g", m.value);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

Spans::Scope::Scope(Spans* spans, const char* name) : spans_(spans) {
  if (spans_ == nullptr) return;
  Span s;
  s.id = spans_->spans_.size() + 1;
  s.parent = spans_->open_.empty() ? 0 : spans_->spans_[spans_->open_.back()].id;
  s.request = spans_->request_;
  s.name = name;
  s.t_start = seconds_since(spans_->epoch_);
  index_ = spans_->spans_.size();
  spans_->spans_.push_back(s);
  spans_->open_.push_back(index_);
}

Spans::Scope::~Scope() {
  if (spans_ == nullptr) return;
  spans_->spans_[index_].t_end = seconds_since(spans_->epoch_);
  spans_->open_.pop_back();
}

bool Spans::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  char line[256];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof line,
                  "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                  "\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f}\n",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request), s.name,
                  s.t_start, s.t_end);
    os << line;
  }
  return static_cast<bool>(os);
}

Spans& spans() {
  static Spans instance;
  return instance;
}

}  // namespace perfbench
