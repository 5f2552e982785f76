// The three serving workloads of the benchmark and the metrics they report.
//
//   adhoc_n3       Server -> CachedEngine -> Engine, 3 x 100k tuples, a
//                  closed loop of fresh points: the executor's hot path.
//   paged_popular  Server -> CachedEngine -> Engine, 2 x 20k tuples, an
//                  open loop of Zipf-popular points mixing paged sessions,
//                  streams and one-shot queries: the cache, cursor-cache
//                  and session layers.
//   live_rw        Server -> CachedEngine -> LiveEngine over a sharded
//                  base, 2 x 20k tuples, an open-loop reader beside a
//                  writer applying update batches: live merge, gather,
//                  compaction and epoch-keyed invalidation.
//
// Every workload uses dim 2, uniform synthetic relations and the default
// (TBPA) options. An untraced run reports the end-to-end metrics; a traced
// run measures half its time untraced and half with probes between the
// layers (probe.h) and reports the per-layer metrics.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Open-loop reads per second; 0 keeps the workload's own rate. Other
  /// rates serve capacity sweeps, not the gated runs.
  double read_rate = 0.0;
  /// Where the traced run writes its spans (CSV); empty: not written.
  std::string spans_path;
};

struct RunReport {
  /// False when any answer differed from the reference engine.
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< failed plus rejected operations
  /// The metrics of the result line: end-to-end untraced, per-layer traced.
  std::vector<Metric> metrics;
  /// Further figures of the run (workload-specific end-to-end metrics,
  /// sample counts, the percentiles actually reported).
  std::vector<Metric> detail;
  /// Exactness violations, one line each.
  std::vector<std::string> errors;
};

const std::vector<std::string>& WorkloadNames();

/// Runs one workload. Returns false (with `error`) when the stack cannot be
/// built; wrong answers are reported through RunReport::correct instead.
bool RunWorkload(const RunConfig& config, RunReport* report,
                 std::string* error);

/// CPU model, nproc, kernel ISA, compiler and build type, as a JSON object.
std::string HostFingerprintJson();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
