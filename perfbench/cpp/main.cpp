// perfbench: one workload of the repository benchmark per process.
//
//   perfbench <workload> --seed N --seconds S [--trace] [--quick]
//             [--inject-fault] [--trace-out PATH]
//   perfbench selftest
//
// Workloads: file_rlnc, segment_stream, sim_gtx280, fleet_serve (see
// perfbench/README.md). Human-readable lines go to stderr; stdout carries a
// "stamp" line with the environment and, last, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A run with a failed operation reports no metrics and exits 1.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>

#include "gf256/region.h"
#include "harness.h"
#include "simgpu/exec_engine.h"

namespace perfbench {
namespace {

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench <file_rlnc|segment_stream|sim_gtx280|"
               "fleet_serve> --seed N --seconds S [--trace] [--quick] "
               "[--inject-fault] [--trace-out PATH]\n"
               "       perfbench selftest\n",
               problem.c_str());
  std::exit(2);
}

double parse_number(const char* flag, const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(value >= 0)) {
    usage(std::string(flag) + " expects a non-negative number, got '" +
          text + "'");
  }
  return value;
}

Options parse(int argc, char** argv) {
  Options options;
  if (argc < 2) usage("missing workload");
  options.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(std::string(arg) + " needs a value");
      return argv[++i];
    };
    if (arg == "--seed") {
      options.seed = static_cast<std::uint64_t>(parse_number("--seed", value()));
    } else if (arg == "--seconds") {
      options.seconds = parse_number("--seconds", value());
    } else if (arg == "--trace-out") {
      options.trace_out = value();
    } else if (arg == "--trace") {
      options.trace = true;
    } else if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--inject-fault") {
      options.inject_fault = true;
    } else {
      usage("unknown flag '" + std::string(arg) + "'");
    }
  }
  return options;
}

void print_result(const Result& result) {
  std::printf("stamp {");
  for (std::size_t i = 0; i < result.stamp.size(); ++i) {
    std::printf("%s\"%s\": %s", i == 0 ? "" : ", ",
                result.stamp[i].first.c_str(),
                result.stamp[i].second.c_str());
  }
  std::printf("}\n");
  const bool correct = result.failed == 0 && result.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  if (correct) {
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
      const Metric& m = result.metrics[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int run(int argc, char** argv) {
  if (argc >= 2 && std::string_view(argv[1]) == "selftest") {
    const bool ok = span_selftest();
    std::printf("span self-time selftest: %s\n", ok ? "ok" : "FAILED");
    return ok ? 0 : 1;
  }
  const Options options = parse(argc, argv);
  Result result;
  if (options.workload == "file_rlnc") {
    result = run_file_rlnc(options);
  } else if (options.workload == "segment_stream") {
    result = run_segment_stream(options);
  } else if (options.workload == "sim_gtx280") {
    result = run_sim_gtx280(options);
  } else if (options.workload == "fleet_serve") {
    result = run_fleet_serve(options);
  } else {
    usage("unknown workload '" + options.workload + "'");
  }
  if (options.trace) {
    result.add("trace.span_cost_ns", span_cost_s() * 1e9, "ns");
  } else {
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
  }

  // Environment stamp, read from what the process selected (nothing here
  // forces a backend or an engine).
  result.stamp_text("workload", options.workload);
  result.stamp_number("host_cores", std::thread::hardware_concurrency());
  result.stamp_text("gf256_backend", extnc::gf256::ops().name);
  result.stamp_text("simgpu_engine",
                    extnc::simgpu::engine_name(extnc::simgpu::default_engine()));
  result.stamp_text("simgpu_fast_path",
                    extnc::simgpu::fast_path_enabled() ? "on" : "off");
  result.stamp_text("build_type", PERFBENCH_BUILD_TYPE);
  result.stamp_text("compiler", __VERSION__);
  result.stamp_text("mode", options.quick   ? "quick"
                            : options.trace ? "trace"
                                            : "timed");

  if (options.trace && !options.trace_out.empty() &&
      !tracer().write_chrome_trace(options.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 options.trace_out.c_str());
    return 1;
  }
  print_result(result);
  return result.failed == 0 && result.attempted > 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
