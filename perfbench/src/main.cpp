// perfbench: the repository benchmark. One run measures one workload and
// prints, as its last stdout line, a JSON object with the keys correct,
// attempted, failed and metrics (end-to-end metrics with --trace 0,
// per-layer metrics with --trace 1). See README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
//
// Exit code 0 when every operation was correct, 1 when any failed, 2 on a
// usage error.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload ladder_coarse|ccsd_fine|"
               "ladder_skewed_steal --seed N --seconds S --trace 0|1 "
               "[--spans FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i], val = argv[i + 1];
      if (key == "--workload") {
        args.workload = val;
      } else if (key == "--seed") {
        args.seed = std::stoull(val);
      } else if (key == "--seconds") {
        args.seconds = std::stod(val);
      } else if (key == "--trace") {
        args.trace = std::stoi(val) != 0;
      } else if (key == "--spans") {
        args.spans_path = val;
      } else {
        return usage(argv[0]);
      }
    }
  } catch (const std::exception&) {
    return usage(argv[0]);
  }
  if (argc % 2 == 0 || args.workload.empty() || !(args.seconds > 0.0)) {
    return usage(argv[0]);
  }

  spans().enable(args.trace && !args.spans_path.empty());
  Report rep;
  try {
    if (!run_workload(args, rep)) return usage(argv[0]);
  } catch (const std::exception& e) {
    rep.fail(std::string("workload threw: ") + e.what());
  }
  if (args.trace && !args.spans_path.empty() &&
      !spans().write(args.spans_path)) {
    rep.fail("cannot write spans to " + args.spans_path);
  }
  std::printf("%s\n", rep.json().c_str());
  return rep.failed() == 0 && rep.attempted() > 0 ? 0 : 1;
}
