// perfbench: the serving benchmark's driver binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>] [--read-rate <per second>]
//
// Prints three lines on stdout: the host fingerprint, the run's detail
// (workload-specific figures, sample counts, any exactness violations),
// and last the result object {correct, attempted, failed, metrics}. Exits
// 1 when an answer was wrong, 2 on bad arguments or a failed set-up.
// perfbench/run.py builds this binary and is the intended entry point.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<perfbench::Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans <path>] [--read-rate <per second>]\n"
               "workloads:");
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--spans") {
      config.spans_path = value;
    } else if (flag == "--read-rate") {
      config.read_rate = std::strtod(value.c_str(), nullptr);
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || config.workload.empty() || !(config.seconds > 0.0)) {
    return Usage();
  }

  std::printf("{\"host\": %s}\n", perfbench::HostFingerprintJson().c_str());
  std::fflush(stdout);

  perfbench::RunReport report;
  std::string error;
  if (!perfbench::RunWorkload(config, &report, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }

  std::string errors = "[";
  for (size_t i = 0; i < report.errors.size() && i < 20; ++i) {
    if (i > 0) errors += ", ";
    errors += JsonString(report.errors[i]);
  }
  errors += "]";
  std::printf(
      "{\"detail\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"errors\": %s, \"metrics\": %s}}\n",
      JsonString(config.workload).c_str(),
      static_cast<unsigned long long>(config.seed),
      JsonNumber(config.seconds).c_str(), config.trace ? 1 : 0, errors.c_str(),
      MetricsJson(report.detail).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed),
      MetricsJson(report.metrics).c_str());
  return report.correct ? 0 : 1;
}
