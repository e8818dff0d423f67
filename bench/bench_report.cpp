#include "bench_report.h"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "support/stats.h"

namespace mp::bench {

void BenchReport::set_schema(const std::string& schema) { schema_ = schema; }

void BenchReport::set_config(const std::string& key,
                             const std::string& value) {
  config_[key] = value;
}

void BenchReport::add(BenchCase c) { cases_.push_back(std::move(c)); }

bool BenchReport::validate(std::string* why) const {
  for (const BenchCase& c : cases_) {
    if (c.samples.empty()) {
      if (why) *why = "case '" + c.name + "' has no samples";
      return false;
    }
    for (double s : c.samples) {
      if (!std::isfinite(s)) {
        if (why) *why = "case '" + c.name + "' has a non-finite sample";
        return false;
      }
    }
    if (percentile(c.samples, 50.0) <= 0.0) {
      if (why) *why = "case '" + c.name + "' has non-positive throughput";
      return false;
    }
  }
  if (cases_.empty()) {
    if (why) *why = "report contains no cases";
    return false;
  }
  return true;
}

namespace {

std::string escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    out.push_back(ch);
  }
  return out;
}

void put_num(std::ostringstream& os, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  os << buf;
}

}  // namespace

std::string BenchReport::to_json() const {
  std::ostringstream os;
  os << "{\n  \"schema\": \"" << escape(schema_) << "\",\n";
  auto sha = config_.find("git_sha");
  os << "  \"git_sha\": \""
     << escape(sha != config_.end() ? sha->second : "unknown") << "\",\n";
  os << "  \"config\": {";
  bool first = true;
  for (const auto& [k, v] : config_) {
    if (k == "git_sha") continue;
    os << (first ? "\n" : ",\n") << "    \"" << escape(k) << "\": \""
       << escape(v) << "\"";
    first = false;
  }
  os << "\n  },\n  \"cases\": [";
  first = true;
  for (const BenchCase& c : cases_) {
    os << (first ? "\n" : ",\n");
    first = false;
    const double med = percentile(c.samples, 50.0);
    os << "    {\"name\": \"" << escape(c.name) << "\", \"kind\": \""
       << escape(c.kind) << "\", \"metric\": \"" << escape(c.metric)
       << "\", \"median\": ";
    put_num(os, med);
    os << ", \"p10\": ";
    put_num(os, percentile(c.samples, 10.0));
    os << ", \"p90\": ";
    put_num(os, percentile(c.samples, 90.0));
    os << ", \"reps\": " << c.samples.size();
    os << ", \"ref_median\": ";
    put_num(os, c.ref_median);
    os << ", \"speedup\": ";
    put_num(os, c.ref_median > 0.0 ? med / c.ref_median : 0.0);
    os << ", \"params\": {";
    bool pfirst = true;
    for (const auto& [k, v] : c.params) {
      if (!pfirst) os << ", ";
      pfirst = false;
      os << "\"" << escape(k) << "\": " << v;
    }
    os << "}}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

bool BenchReport::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::string doc = to_json();
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace mp::bench
