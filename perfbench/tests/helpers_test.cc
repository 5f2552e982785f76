// Unit tests of the benchmark's own helpers: the tail-percentile rule,
// self-time subtraction, and seeded determinism of the Zipf, Poisson and
// update-batch generators. Self-contained (no test framework): prints each
// failed check and exits 1 if any failed.
//
//   cmake --build .bench_build --target perfbench_test
//   .bench_build/perfbench_test
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "helpers.h"
#include "workload/synthetic.h"

namespace {

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void TestTailPercentile() {
  using perfbench::TailPercentile;
  // 2000 samples: p99 is rank 1980, with 20 samples beyond it.
  perfbench::Tail t = TailPercentile(Range(2000));
  Check(t.value == 1980.0 && t.percentile == 99.0 && t.samples == 2000,
        "p99 of 2000 samples is rank 1980");
  // 1010 samples: p99 would be rank 1000 (10 beyond) -- still allowed.
  t = TailPercentile(Range(1010));
  Check(t.value == 1000.0, "p99 of 1010 samples keeps exactly 10 beyond");
  // 500 samples: p99 (rank 495) has only 5 beyond; fall back to rank 490.
  t = TailPercentile(Range(500));
  Check(t.value == 490.0 && std::fabs(t.percentile - 98.0) < 1e-9,
        "500 samples report p98 (rank 490, 10 beyond)");
  // Order of the input does not matter.
  std::vector<double> shuffled = Range(500);
  std::swap(shuffled[0], shuffled[499]);
  Check(TailPercentile(shuffled).value == 490.0, "input order is irrelevant");
  // Too few samples to leave 10 beyond: the median.
  t = TailPercentile(Range(9));
  Check(t.value == 5.0 && t.percentile == 50.0, "9 samples fall back to p50");
  Check(TailPercentile({}).samples == 0, "empty sample");
  Check(perfbench::Quantile(Range(4), 0.5) == 2.5, "interpolated median");
}

void TestSelfTime() {
  using perfbench::Interval;
  using perfbench::SelfTime;
  Check(SelfTime({0, 100}, {}) == 100, "no children: whole span");
  Check(SelfTime({0, 100}, {{10, 30}, {50, 60}}) == 70, "disjoint children");
  Check(SelfTime({0, 100}, {{10, 40}, {30, 60}}) == 50,
        "overlapping children count once");
  Check(SelfTime({0, 100}, {{-20, 10}, {90, 150}}) == 80,
        "children clipped to the parent");
  Check(SelfTime({0, 100}, {{20, 30}, {20, 30}, {25, 28}}) == 90,
        "nested and duplicate children");
  Check(SelfTime({0, 100}, {{0, 100}}) == 0, "fully covered");
}

void TestZipfDeterminism() {
  const perfbench::ZipfSampler zipf(300, 1.0);
  prj::Rng a(42);
  prj::Rng b(42);
  std::vector<size_t> counts(300, 0);
  bool same = true;
  for (int i = 0; i < 20000; ++i) {
    const size_t x = zipf.Sample(&a);
    same = same && x == zipf.Sample(&b);
    if (x < counts.size()) ++counts[x];
  }
  Check(same, "Zipf: same seed, same ranks");
  Check(counts[0] > counts[1] && counts[1] > counts[9] && counts[9] > 0,
        "Zipf: popularity falls with rank");
  prj::Rng c(43);
  prj::Rng d(42);
  bool differs = false;
  for (int i = 0; i < 100; ++i) differs |= zipf.Sample(&c) != zipf.Sample(&d);
  Check(differs, "Zipf: another seed, other ranks");
}

void TestPoissonDeterminism() {
  const std::vector<double> a = perfbench::PoissonSchedule(7, 500.0, 4.0);
  const std::vector<double> b = perfbench::PoissonSchedule(7, 500.0, 4.0);
  const std::vector<double> c = perfbench::PoissonSchedule(8, 500.0, 4.0);
  Check(a == b, "Poisson: same seed, identical schedule");
  Check(a != c, "Poisson: another seed, another schedule");
  bool sorted = true;
  for (size_t i = 1; i < a.size(); ++i) sorted = sorted && a[i] > a[i - 1];
  Check(sorted && !a.empty() && a.back() < 4.0,
        "Poisson: increasing, in range");
  Check(std::fabs(static_cast<double>(a.size()) - 2000.0) < 200.0,
        "Poisson: about rate x seconds arrivals");
}

bool SameBatch(const prj::UpdateBatch& x, const prj::UpdateBatch& y) {
  if (x.relations.size() != y.relations.size()) return false;
  for (size_t j = 0; j < x.relations.size(); ++j) {
    const prj::RelationUpdate& u = x.relations[j];
    const prj::RelationUpdate& v = y.relations[j];
    if (u.deletes != v.deletes || u.inserts.size() != v.inserts.size()) {
      return false;
    }
    for (size_t i = 0; i < u.inserts.size(); ++i) {
      if (u.inserts[i].id != v.inserts[i].id ||
          u.inserts[i].score != v.inserts[i].score ||
          !(u.inserts[i].x == v.inserts[i].x)) {
        return false;
      }
    }
  }
  return true;
}

void TestUpdateStreamDeterminism() {
  prj::SyntheticSpec spec;
  spec.count = 200;
  const std::vector<prj::Relation> seed_content = prj::GenerateProblem(2, spec);
  perfbench::UpdateStream a(5, seed_content, 4, 3, -1.0, 1.0);
  perfbench::UpdateStream b(5, seed_content, 4, 3, -1.0, 1.0);
  perfbench::UpdateStream c(6, seed_content, 4, 3, -1.0, 1.0);
  std::vector<prj::UpdateBatch> batches;
  bool same = true;
  bool differs = false;
  for (int i = 0; i < 50; ++i) {
    prj::UpdateBatch x = a.Next();
    same = same && SameBatch(x, b.Next());
    differs = differs || !SameBatch(x, c.Next());
    batches.push_back(std::move(x));
  }
  Check(same, "updates: same seed, identical batches");
  Check(differs, "updates: another seed, other batches");
  // Every batch deletes only live ids; the final content is the seed plus
  // all inserts minus all deletes.
  std::vector<prj::Relation> content = seed_content;
  perfbench::ApplyBatches(batches, &content);
  Check(content[0].size() == 200 + 50 * (4 - 3) &&
            content[1].size() == 200 + 50 * (4 - 3),
        "updates: final content size");
  Check(content[0].Validate().ok() && content[1].Validate().ok(),
        "updates: final content is a valid relation");
}

}  // namespace

int main() {
  TestTailPercentile();
  TestSelfTime();
  TestZipfDeterminism();
  TestPoissonDeterminism();
  TestUpdateStreamDeterminism();
  if (g_failures == 0) std::printf("perfbench helper tests passed\n");
  return g_failures == 0 ? 0 : 1;
}
