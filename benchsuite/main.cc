// skeena_bench: the benchmark suite's single binary.
//
//   skeena_bench --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]]
//                [--trace-dir <dir>]
//
// Workloads: micro-mem-cross, micro-mem-single, tpcc-cross, wire-cross.
// Prints "<workload> <metric> <value> <unit>" per metric, "check <workload>
// <name> ok|FAIL [detail]" per validity check and a final "result" line;
// exits 1 when a validity check fails, 2 on bad usage.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "micro.h"
#include "open_loop.h"
#include "tpcc.h"

namespace skeena::benchsuite {
namespace {

// Closed-loop client count, fixed so results do not depend on the host.
constexpr int kClients = 4;

int Usage(const char* msg) {
  std::fprintf(stderr,
               "skeena_bench: %s\nusage: skeena_bench --workload "
               "<micro-mem-cross|micro-mem-single|tpcc-cross|wire-cross> "
               "--seed <n> [--seconds <s>] [--trace [0|1]] "
               "[--trace-dir <dir>]\n",
               msg);
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (i + 1 < argc && argv[i + 1][0] != '-') {
      value = argv[++i];
    }
    char* end = nullptr;
    const char* v = value.c_str();
    if (arg == "--workload") {
      cfg.workload = value;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(v, &end, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(v, &end);
    } else if (arg == "--trace") {
      cfg.trace = value.empty() || value == "1";
      if (!value.empty() && value != "0" && value != "1") {
        return Usage("--trace takes 0 or 1");
      }
    } else if (arg == "--trace-dir") {
      cfg.trace_dir = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
    if (end != nullptr && (end == v || *end != '\0')) {
      return Usage(("bad value for " + arg).c_str());
    }
  }
  if (cfg.seconds <= 0) return Usage("--seconds must be positive");

  Report report;
  if (cfg.workload == "micro-mem-cross" || cfg.workload == "micro-mem-single") {
    const bool cross = cfg.workload == "micro-mem-cross";
    report = RunClosedWorkload(cfg, kClients, [cross](uint64_t seed) {
      return BuildMicro(cross, seed);
    });
  } else if (cfg.workload == "tpcc-cross") {
    report = RunClosedWorkload(cfg, kClients, BuildTpcc);
  } else if (cfg.workload == "wire-cross") {
    report = RunWireCross(cfg);
  } else {
    return Usage(("unknown workload '" + cfg.workload + "'").c_str());
  }

  const char* w = cfg.workload.c_str();
  for (const Metric& m : report.metrics) {
    std::printf("%s %s %.17g %s\n", w, m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const CheckResult& c : report.checks) {
    std::printf("check %s %s %s %s\n", w, c.name.c_str(), c.ok ? "ok" : "FAIL",
                c.detail.c_str());
  }
  std::printf("result %s correct=%d attempted=%llu failed=%llu\n", w,
              report.correct() ? 1 : 0,
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace skeena::benchsuite

int main(int argc, char** argv) { return skeena::benchsuite::Main(argc, argv); }
