#include "helpers.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * (values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - lo) * (values[hi] - values[lo]);
}

Tail TailPercentile(std::vector<double> values, size_t beyond,
                    double cap_percent) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  if (values.size() <= beyond) {
    tail.value = Quantile(std::move(values), 0.5);
    tail.percentile = 50.0;
    return tail;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  // Nearest rank of the capped percentile, then pulled down until `beyond`
  // samples sit strictly above it.
  const size_t cap_rank = static_cast<size_t>(
      std::max(1.0, std::ceil(cap_percent / 100.0 * static_cast<double>(n))));
  const size_t rank = std::min(cap_rank, n - beyond);  // 1-based
  tail.value = values[rank - 1];
  tail.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return tail;
}

int64_t SelfTime(const Interval& parent, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.start = std::max(c.start, parent.start);
    c.end = std::min(c.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  int64_t covered = 0;
  int64_t run_start = 0;
  int64_t run_end = 0;
  bool open = false;
  for (const Interval& c : children) {
    if (c.end <= c.start) continue;
    if (open && c.start <= run_end) {
      run_end = std::max(run_end, c.end);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = c.start;
    run_end = c.end;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return (parent.end - parent.start) - covered;
}

ZipfSampler::ZipfSampler(size_t n, double s) {
  cdf_.reserve(n);
  double total = 0.0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Sample(prj::Rng* rng) const {
  const double u = rng->NextDouble();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

std::vector<double> PoissonSchedule(uint64_t seed, double rate,
                                    double seconds) {
  prj::Rng rng(seed);
  std::vector<double> due;
  double t = 0.0;
  while (true) {
    // Exponential gap by inversion; 1 - u lies in (0, 1].
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= seconds) break;
    due.push_back(t);
  }
  return due;
}

UpdateStream::UpdateStream(uint64_t seed,
                           const std::vector<prj::Relation>& content,
                           int inserts, int deletes, double lo, double hi)
    : rng_(seed),
      dim_(content.empty() ? 0 : content[0].dim()),
      inserts_(inserts),
      deletes_(deletes),
      lo_(lo),
      hi_(hi),
      live_(content.size()) {
  for (size_t j = 0; j < content.size(); ++j) {
    for (const prj::Tuple& t : content[j].tuples()) live_[j].push_back(t.id);
  }
}

prj::UpdateBatch UpdateStream::Next() {
  prj::UpdateBatch batch;
  batch.relations.resize(live_.size());
  for (size_t j = 0; j < live_.size(); ++j) {
    prj::RelationUpdate& update = batch.relations[j];
    for (int i = 0; i < deletes_ && !live_[j].empty(); ++i) {
      // Swap-remove: O(1), and the order stays a function of the seed.
      const size_t pick = rng_.NextBounded(live_[j].size());
      update.deletes.push_back(live_[j][pick]);
      live_[j][pick] = live_[j].back();
      live_[j].pop_back();
    }
    for (int i = 0; i < inserts_; ++i) {
      const double score = 0.05 + 0.9 * rng_.NextDouble();
      update.inserts.push_back(
          prj::Tuple{next_id_++, score, rng_.UniformInCube(dim_, lo_, hi_)});
    }
    for (const prj::Tuple& t : update.inserts) live_[j].push_back(t.id);
  }
  return batch;
}

void ApplyBatches(const std::vector<prj::UpdateBatch>& batches,
                  std::vector<prj::Relation>* content) {
  for (size_t j = 0; j < content->size(); ++j) {
    std::unordered_set<int64_t> dead;
    for (const prj::UpdateBatch& b : batches) {
      dead.insert(b.relations[j].deletes.begin(),
                  b.relations[j].deletes.end());
    }
    const prj::Relation& old = (*content)[j];
    prj::Relation next(old.name(), old.dim(), old.sigma_max());
    for (const prj::Tuple& t : old.tuples()) {
      if (dead.count(t.id) == 0) next.Add(t);
    }
    for (const prj::UpdateBatch& b : batches) {
      for (const prj::Tuple& t : b.relations[j].inserts) {
        if (dead.count(t.id) == 0) next.Add(t);
      }
    }
    (*content)[j] = std::move(next);
  }
}

}  // namespace perfbench
