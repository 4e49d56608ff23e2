// svc_bench: wall-clock benchmark of the RVaaS service over loopback TCP.
//
//   svc_bench --workload wire-query|isolation-audit|churn-alert
//             [--seed N] [--seconds S] [--trace 0|1] [--selftest]
//             [--trace-dir DIR]
//
// One run builds the world, measures one workload for S seconds and checks
// every output against ground truth computed apart from the program. The
// last line of stdout is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 records spans around
// every call into the program, writes them to DIR/<workload>-seed<N>.jsonl,
// prints the per-layer table and reports the per-layer metrics.
// --selftest perturbs the ground truth; the run must then read incorrect.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.hpp"

using namespace svcbench;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: svc_bench --workload wire-query|isolation-audit|"
               "churn-alert [--seed N] [--seconds S] [--trace 0|1] "
               "[--selftest] [--trace-dir DIR]\n");
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  return out + "}";
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  Options opt;
  std::string trace_dir = ".bench_build/trace";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--trace-dir" && has_value) {
      trace_dir = argv[++i];
    } else if (arg == "--selftest") {
      opt.selftest = true;
    } else {
      usage();
      return 2;
    }
  }
  if (opt.seconds <= 0) {
    usage();
    return 2;
  }

  Tracer tracer(opt.trace);
  Result result;
  try {
    if (opt.workload == "wire-query") {
      run_wire_query(opt, process_start, tracer, result);
    } else if (opt.workload == "isolation-audit") {
      run_isolation_audit(opt, process_start, tracer, result);
    } else if (opt.workload == "churn-alert") {
      run_churn_alert(opt, process_start, tracer, result);
    } else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "svc_bench: %s\n", e.what());
    return 1;
  }

  std::printf("svc_bench %s seed %llu, %.1f s, trace %d%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0,
              opt.selftest ? ", checker self-test" : "");
  for (const std::string& note : result.notes) {
    std::printf("  %s\n", note.c_str());
  }
  for (const std::string& why : result.reasons()) {
    std::printf("  INCORRECT: %s\n", why.c_str());
  }
  print_metrics(opt.trace ? "end-to-end (traced run, not reported)"
                          : "end-to-end",
                result.end_to_end);
  std::printf("E2E %s\n", metrics_json(result.end_to_end).c_str());
  if (opt.trace) {
    print_metrics("per-layer", result.per_layer);
    std::printf("spans\n%s", tracer.table().c_str());
    std::filesystem::create_directories(trace_dir);
    const std::string path = trace_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".jsonl";
    if (!tracer.write(path)) {
      std::fprintf(stderr, "svc_bench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("spans written to %s\n", path.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      result.correct() ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed),
      metrics_json(opt.trace ? result.per_layer : result.end_to_end).c_str());
  return 0;
}
