// Statistics and input generators of the serving benchmark.
//
// Everything here is a pure function of its arguments (the generators of
// their seed), so perfbench_test can pin it down: the tail-percentile rule,
// self-time subtraction, and the seeded Zipf, Poisson and update-batch
// generators that make a workload's inputs reproducible from --seed alone.
#ifndef PERFBENCH_HELPERS_H_
#define PERFBENCH_HELPERS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "access/relation.h"
#include "common/random.h"
#include "live/live_engine.h"

namespace perfbench {

/// Linear-interpolation quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);

/// The reported tail of a latency sample: the highest percentile, capped at
/// `cap_percent`, that still has at least `beyond` samples strictly above
/// its rank. With fewer than beyond + 1 samples it falls back to the median.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< the percentile actually reported
  size_t samples = 0;
};
Tail TailPercentile(std::vector<double> values, size_t beyond = 10,
                    double cap_percent = 99.0);

/// A closed time interval [start, end] in nanoseconds.
struct Interval {
  int64_t start = 0;
  int64_t end = 0;
};

/// A span's self time: its duration minus the part of it that the union of
/// its children's intervals covers (children are clipped to the parent and
/// may overlap each other).
int64_t SelfTime(const Interval& parent, std::vector<Interval> children);

/// Zipf(s) over ranks 0..n-1: P(rank r) proportional to 1 / (r + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Sample(prj::Rng* rng) const;
  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// Arrival offsets (seconds from the start) of a Poisson process of
/// `rate` per second over [0, seconds), seeded.
std::vector<double> PoissonSchedule(uint64_t seed, double rate,
                                    double seconds);

/// Deterministic update batches over a seed content: each batch inserts
/// `inserts` fresh tuples (ids never reused) and deletes `deletes`
/// currently live tuples in every relation. New points are uniform in the
/// cube [lo, hi)^dim; scores uniform in [0.05, 0.95).
class UpdateStream {
 public:
  UpdateStream(uint64_t seed, const std::vector<prj::Relation>& content,
               int inserts, int deletes, double lo, double hi);
  prj::UpdateBatch Next();

 private:
  prj::Rng rng_;
  int dim_;
  int inserts_;
  int deletes_;
  double lo_;
  double hi_;
  int64_t next_id_ = int64_t{1} << 40;
  std::vector<std::vector<int64_t>> live_;
};

/// Applies `batches`, in order, to a plain copy of the logical content.
/// Relies on the UpdateStream invariant that ids are never reused, so the
/// result is the content plus every insert minus every delete.
void ApplyBatches(const std::vector<prj::UpdateBatch>& batches,
                  std::vector<prj::Relation>* content);

}  // namespace perfbench

#endif  // PERFBENCH_HELPERS_H_
