// Benchmark entry point: runs one workload and prints its metrics.
//
//   perfbench --workload <flow_suite|signoff_mc|serve_mixed> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-dir <dir>]
//             [--print-digests]
//
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// holding every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1), each as {"value": x, "unit": u}. Lines before it describe the
// build, the host and the workload's own figures. A traced run writes its
// spans to <trace-dir>/<workload>-seed<n>.jsonl at exit. Exit status is 0
// when a result was printed, whether or not every check passed.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "service/json.h"
#include "workload.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <flow_suite|signoff_mc|"
               "serve_mixed> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-dir <dir>] [--print-digests]\n";
  std::exit(2);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int Main(int argc, char** argv) {
  BenchArgs args;
  std::string trace_dir = ".";
  bool print_digests = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-digests") {
      print_digests = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--trace-dir") {
        trace_dir = value;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (!(args.seconds > 0)) Usage("--seconds must be positive");

  std::cout << "# build_type=" << PERFBENCH_BUILD_TYPE
            << " compiler=\"" << PERFBENCH_COMPILER << "\""
            << " nproc=" << sysconf(_SC_NPROCESSORS_ONLN)
            << " workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace << "\n";

  Tracer tracer(args.trace);
  Report report;
  if (args.workload == "flow_suite") {
    RunFlowSuite(args, tracer, report);
  } else if (args.workload == "signoff_mc") {
    RunSignoffMc(args, tracer, report);
  } else if (args.workload == "serve_mixed") {
    RunServeMixed(args, tracer, report);
  } else {
    Usage("unknown workload '" + args.workload + "'");
  }
  report.Set("peak_rss_mb", PeakRssMb());

  const std::uint64_t attempted = report.ledger.attempted();
  const std::uint64_t failed = report.ledger.failed();
  for (const auto& s : report.shown) {
    std::cout << "# " << s.name << " = " << sm::JsonNumberToString(s.value)
              << " " << s.unit << "\n";
  }
  std::cout << "# failed_frac = "
            << sm::JsonNumberToString(attempted == 0
                                          ? 1.0
                                          : static_cast<double>(failed) /
                                                static_cast<double>(attempted))
            << " ratio (" << failed << " of " << attempted << " operations)\n";
  std::size_t listed = 0;
  for (const std::string& f : report.ledger.failures()) {
    if (++listed > 20) break;
    std::cerr << "perfbench: check failed: " << f << "\n";
  }
  if (print_digests) {
    for (const auto& [key, digest] : report.digests.computed()) {
      std::cout << "# digest {\"" << key << "\", \"" << digest << "\"},\n";
    }
  }
  if (tracer.enabled()) {
    std::filesystem::create_directories(trace_dir);
    const std::string path = trace_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".jsonl";
    tracer.WriteJsonLines(path);
    std::cout << "# trace: " << tracer.spans().size() << " spans in " << path
              << "\n";
  }

  sm::Json metrics = sm::Json::MakeObject();
  for (const MetricDef& def :
       args.trace ? PerLayerMetrics() : EndToEndMetrics()) {
    const auto it = report.values.find(def.name);
    if (it == report.values.end() && !args.trace) {
      std::cerr << "perfbench: workload did not measure " << def.name << "\n";
      return 1;
    }
    sm::Json m = sm::Json::MakeObject();
    m.Set("value", it == report.values.end() ? 0.0 : it->second);
    m.Set("unit", def.unit);
    metrics.Set(def.name, std::move(m));
  }
  sm::Json result = sm::Json::MakeObject();
  result.Set("correct", attempted > 0 && failed == 0);
  result.Set("attempted", attempted);
  result.Set("failed", failed);
  result.Set("metrics", std::move(metrics));
  std::cout << result.Dump() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
