#include "workloads.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <thread>
#include <unordered_map>
#include <utility>

#include "access/source.h"
#include "cache/cached_engine.h"
#include "common/random.h"
#include "core/engine.h"
#include "core/query_engine.h"
#include "core/result_cursor.h"
#include "core/scoring.h"
#include "helpers.h"
#include "index/mbr_kernels.h"
#include "index/rtree.h"
#include "live/live_engine.h"
#include "probe.h"
#include "server/server.h"
#include "shard/sharded_engine.h"
#include "workload/synthetic.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double SecondsSince(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

/// Independent stream seeds derived from the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  return seed * 0x9E3779B97F4A7C15ULL + tag * 0xBF58476D1CE4E5B9ULL + 1;
}

const prj::ScoringFunction& Scoring() {
  static const prj::SumLogEuclideanScoring scoring(1.0, 1.0, 1.0);
  return scoring;
}

/// Default options (TBPA) with the given k.
prj::ProxRJOptions Options(int k) {
  prj::ProxRJOptions options;
  options.k = k;
  return options;
}

constexpr int kOneShotKs[] = {5, 10, 20};
constexpr int kPageK = 10;

/// Lets the calling thread's timed sleeps end on time: the default 50 us
/// timer slack would add itself to every open-loop request's latency.
void TightenTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

struct WorkloadSpec {
  const char* name;
  int relations;
  int tuples;        ///< per relation
  int workers;       ///< server worker threads
  int clients;       ///< closed-loop clients; 0 runs the open loop
  double read_rate;  ///< open-loop arrivals per second
  double apply_rate; ///< writer batches per second; 0: no writer
  int setup_reps;    ///< stack builds timed per run (median reported)
};

// The open-loop rates are about 30% (paged_popular) and 15% (live_rw) of
// the rate at which each stack saturated on a 4-vCPU Xeon host (sweep with
// --read-rate; perfbench/README.md gives the figures).
// Threads per workload, at most 4 busy ones on a 4-core host:
// adhoc_n3 2 clients + 2 workers; paged_popular 1 generator + 3 workers;
// live_rw 1 generator + 1 writer + 2 workers. Open loops also keep a few
// waiter threads that sleep on reply futures.
constexpr WorkloadSpec kSpecs[] = {
    {"adhoc_n3", 3, 100000, 2, 2, 0.0, 0.0, 5},
    {"paged_popular", 2, 20000, 3, 0, 600.0, 0.0, 15},
    {"live_rw", 2, 20000, 2, 0, 200.0, 20.0, 11},
};

// The relations and paged_popular's pool of popular points are the
// service's fixed catalog, the same for every run; --seed draws the
// traffic: arrival times, request mix, fresh points and update batches.
// (With the catalog drawn per seed too, which 300 points are popular moved
// depths_per_request by about 10% from seed to seed.)
constexpr uint64_t kDataSeed = 1;
constexpr size_t kPopularPool = 300;  ///< distinct points of paged_popular
/// YCSB's default request distribution: Zipfian with constant 0.99 (Cooper
/// et al., "Benchmarking Cloud Serving Systems with YCSB", SoCC 2010).
constexpr double kZipfS = 0.99;
constexpr double kThinkMeanS = 0.4;   ///< between pages of a session
constexpr size_t kRecentPoints = 8;   ///< live_rw repeats one of these
constexpr int kBatchInserts = 8;      ///< per relation per batch
constexpr int kBatchDeletes = 8;
constexpr int kWaiters = 8;
constexpr double kWarmupS = 2.0;      ///< traffic before measuring starts
constexpr size_t kLiveChecks = 40;    ///< post-run sampled live queries
constexpr size_t kPullReplays = 400;  ///< traced queries replayed on R-trees

struct Problem {
  std::vector<prj::Relation> relations;
  double half = 0.0;  ///< queries are uniform in [-half, half)^2
};

Problem MakeProblem(const WorkloadSpec& spec) {
  prj::SyntheticSpec synth;
  synth.dim = 2;
  synth.count = spec.tuples;
  synth.seed = SubSeed(kDataSeed, 1);
  Problem problem;
  problem.relations = prj::GenerateProblem(spec.relations, synth);
  problem.half = prj::CubeSide(synth) / 2.0;
  return problem;
}

/// Forwards to its inner cursor and adds the sumDepths each Next pays to a
/// shared counter.
class MeteredCursor : public prj::ResultCursor {
 public:
  MeteredCursor(std::unique_ptr<prj::ResultCursor> inner,
                std::atomic<uint64_t>* depths)
      : inner_(std::move(inner)), depths_(depths) {}
  ~MeteredCursor() override { Settle(); }

  prj::Result<std::optional<prj::ResultCombination>> Next() override {
    auto next = inner_->Next();
    Settle();
    return next;
  }
  prj::ExecStats stats() const override { return inner_->stats(); }
  uint64_t emitted() const override { return inner_->emitted(); }

 private:
  void Settle() {
    const uint64_t now = inner_->stats().sum_depths;
    depths_->fetch_add(now - seen_, std::memory_order_relaxed);
    seen_ = now;
  }

  std::unique_ptr<prj::ResultCursor> inner_;
  std::atomic<uint64_t>* depths_;
  uint64_t seen_ = 0;
};

/// Sits under the cache and counts the sumDepths actually paid: every TopK
/// that reaches it and every Next pulled from a cursor it opened. Cache
/// hits, coalesced lookups and cursor-cache replays never get here, so
/// they pay 0, and a page pays only the pulls it adds.
class DepthMeter : public prj::QueryEngine {
 public:
  explicit DepthMeter(const prj::QueryEngine* inner) : inner_(inner) {}

  uint64_t depths() const { return depths_.load(std::memory_order_relaxed); }

  prj::Result<std::vector<prj::ResultCombination>> TopK(
      const prj::Vec& query, const prj::ProxRJOptions& options,
      prj::ExecStats* stats_out = nullptr) const override {
    prj::ExecStats local;
    prj::ExecStats* stats = stats_out != nullptr ? stats_out : &local;
    auto result = inner_->TopK(query, options, stats);
    depths_.fetch_add(stats->sum_depths, std::memory_order_relaxed);
    return result;
  }
  prj::Result<std::unique_ptr<prj::ResultCursor>> OpenCursor(
      const prj::QueryRequest& request) const override {
    auto cursor = inner_->OpenCursor(request);
    if (!cursor.ok()) return cursor.status();
    return std::unique_ptr<prj::ResultCursor>(
        std::make_unique<MeteredCursor>(std::move(cursor).value(), &depths_));
  }

  prj::AccessKind kind() const override { return inner_->kind(); }
  int dim() const override { return inner_->dim(); }
  size_t num_relations() const override { return inner_->num_relations(); }
  size_t fan_out() const override { return inner_->fan_out(); }
  prj::CacheCounters cache_counters() const override {
    return inner_->cache_counters();
  }
  prj::LiveCounters live_counters() const override {
    return inner_->live_counters();
  }

 private:
  const prj::QueryEngine* inner_;
  mutable std::atomic<uint64_t> depths_{0};
};

/// The layers one phase serves through, innermost first. Probes exist only
/// in the traced phase. Destroyed in reverse, the server first; never
/// move-assigned, which would release the engine first.
struct Stack {
  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  std::unique_ptr<prj::Engine> engine;
  std::unique_ptr<prj::LiveEngine> live;
  std::unique_ptr<ProbeEngine> inner_probe;
  std::unique_ptr<DepthMeter> meter;
  std::unique_ptr<prj::CachedEngine> cached;
  std::unique_ptr<ProbeEngine> top_probe;
  std::unique_ptr<prj::Server> server;
  const prj::QueryEngine* top = nullptr;
};

bool BuildStack(const WorkloadSpec& spec, const Problem& problem,
                TraceRecorder* recorder, Stack* stack, std::string* error) {
  const prj::QueryEngine* below = nullptr;
  if (spec.apply_rate > 0.0) {
    prj::ShardedEngineOptions shard;
    shard.partitions_per_relation = 2;
    shard.scheme = prj::PartitionScheme::kStrTile;
    prj::BaseEngineFactory factory = prj::LiveEngine::ShardedFactory(
        prj::AccessKind::kDistance, &Scoring(), shard);
    if (recorder != nullptr) {
      factory = ProbeFactory(std::move(factory), recorder);
    }
    auto live = prj::LiveEngine::Create(problem.relations,
                                        prj::AccessKind::kDistance, &Scoring(),
                                        std::move(factory));
    if (!live.ok()) {
      *error = "LiveEngine::Create: " + live.status().ToString();
      return false;
    }
    stack->live = std::move(live).value();
    below = stack->live.get();
  } else {
    auto engine = prj::Engine::Create(problem.relations,
                                      prj::AccessKind::kDistance, &Scoring());
    if (!engine.ok()) {
      *error = "Engine::Create: " + engine.status().ToString();
      return false;
    }
    stack->engine = std::make_unique<prj::Engine>(std::move(engine).value());
    below = stack->engine.get();
  }
  if (recorder != nullptr) {
    stack->inner_probe = std::make_unique<ProbeEngine>(
        below, stack->live ? Layer::kLive : Layer::kCore, recorder, false);
    below = stack->inner_probe.get();
  }
  stack->meter = std::make_unique<DepthMeter>(below);
  stack->cached = std::make_unique<prj::CachedEngine>(stack->meter.get());
  stack->top = stack->cached.get();
  if (recorder != nullptr) {
    stack->top_probe = std::make_unique<ProbeEngine>(
        stack->cached.get(), Layer::kCache, recorder, true);
    stack->top = stack->top_probe.get();
  }
  prj::ServerOptions server_options;
  server_options.num_workers = spec.workers;
  stack->server = std::make_unique<prj::Server>(stack->top, server_options);
  return true;
}

/// One answer the exactness gate replays: `combos` must equal a one-shot
/// TopK(k) of `query` on a bare engine.
struct Answer {
  prj::Vec query;
  int k = 0;
  std::vector<prj::ResultCombination> combos;
};

struct PhaseResult {
  std::vector<double> oneshot_ms;  ///< Submit (or due time) to result
  std::vector<double> page_ms;     ///< pages after the first
  std::vector<double> first_ms;    ///< due time to first stream callback
  std::vector<double> apply_ms;    ///< LiveEngine::Apply
  std::vector<double> late_ms;     ///< open-loop generator lateness
  uint64_t reads_done = 0;         ///< successful read requests
  uint64_t attempted = 0;          ///< reads and applies attempted
  uint64_t failed = 0;             ///< failed or rejected
  uint64_t depths_paid = 0;        ///< sumDepths paid below the cache
  double cpu_s = 0.0;              ///< process CPU time (user + system)
  double peak_rss_mb = 0.0;        ///< before any exactness check
  uint64_t opens_sent = 0;         ///< first pages and streams
  uint64_t followups_sent = 0;     ///< later pages
  double elapsed_s = 0.0;
  std::vector<Answer> answers;
  prj::CacheCounters cache_delta;
  uint64_t compactions = 0;
  size_t queue_high_water = 0;
  int64_t window_start_ns = 0;     ///< recorder clock, traced phase only
  int64_t window_end_ns = 0;
  std::vector<std::string> errors;
};

/// A phase's timeline: traffic from `start`, measured from `measure_from`
/// (after kWarmupS of warm-up traffic), no new request after `deadline`.
struct Window {
  Clock::time_point start;
  Clock::time_point measure_from;
  Clock::time_point deadline;
};

/// Concurrent recording into a PhaseResult. Every operation counts as
/// attempted (and failed, if so) and, when the workload's gate replays
/// them, every answer is kept; latencies and reads only count for
/// operations due from `measure_from` on, after the warm-up.
class Sink {
 public:
  Sink(PhaseResult* out, Clock::time_point measure_from, bool keep_answers)
      : out_(out), measure_from_(measure_from), keep_answers_(keep_answers) {}

  void Read(std::vector<double> PhaseResult::*series, Clock::time_point due,
            double ms, const prj::Status& status, Answer answer) {
    std::lock_guard<std::mutex> lock(mu_);
    ++out_->attempted;
    if (!status.ok()) {
      ++out_->failed;
      return;
    }
    if (keep_answers_ && answer.k > 0) {
      out_->answers.push_back(std::move(answer));
    }
    if (due < measure_from_) return;
    if (series != nullptr) (out_->*series).push_back(ms);
    ++out_->reads_done;
  }
  /// A later page: its latency; the session records its answer.
  void Page(Clock::time_point due, double ms, const prj::Status& status) {
    Read(&PhaseResult::page_ms, due, ms, status, Answer{});
  }
  void Apply(Clock::time_point due, double ms, const prj::Status& status) {
    std::lock_guard<std::mutex> lock(mu_);
    ++out_->attempted;
    if (!status.ok()) {
      ++out_->failed;
      return;
    }
    if (due >= measure_from_) out_->apply_ms.push_back(ms);
  }
  void Answered(Answer answer) {
    if (!keep_answers_) return;
    std::lock_guard<std::mutex> lock(mu_);
    out_->answers.push_back(std::move(answer));
  }
  void Count(Clock::time_point due, uint64_t PhaseResult::*field) {
    if (due < measure_from_) return;
    std::lock_guard<std::mutex> lock(mu_);
    ++(out_->*field);
  }
  bool Measured(Clock::time_point due) const { return due >= measure_from_; }

 private:
  std::mutex mu_;
  PhaseResult* out_;
  const Clock::time_point measure_from_;
  const bool keep_answers_;
};

/// Threads that block on reply futures, so each reply is timed when it
/// arrives rather than when a single collector gets round to it.
class WaiterPool {
 public:
  explicit WaiterPool(int threads) {
    for (int i = 0; i < threads; ++i) threads_.emplace_back([this] { Loop(); });
  }
  ~WaiterPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
  WaiterPool(const WaiterPool&) = delete;
  WaiterPool& operator=(const WaiterPool&) = delete;

  void Post(std::function<void()> job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      jobs_.push_back(std::move(job));
      ++pending_;
    }
    cv_.notify_one();
  }
  /// Blocks until every posted job has finished.
  void Drain() {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return pending_ == 0; });
  }

 private:
  void Loop() {
    while (true) {
      std::function<void()> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
        if (jobs_.empty()) return;
        job = std::move(jobs_.front());
        jobs_.pop_front();
      }
      job();
      {
        std::lock_guard<std::mutex> lock(mu_);
        --pending_;
      }
      idle_cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> jobs_;
  size_t pending_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

// ------------------------------- traffic --------------------------------- //

/// adhoc_n3: closed loop, one fresh point per request, k from {5, 10, 20}.
void RunClosedLoop(const WorkloadSpec& spec, const Problem& problem,
                   uint64_t seed, const Window& window, TraceRecorder* recorder,
                   const Stack& stack, PhaseResult* out) {
  Sink sink(out, window.measure_from, true);
  std::vector<std::thread> clients;
  for (int c = 0; c < spec.clients; ++c) {
    clients.emplace_back([&, c] {
      prj::Rng rng(SubSeed(seed, 100 + static_cast<uint64_t>(c)));
      while (Clock::now() < window.deadline) {
        prj::QueryRequest request{
            rng.UniformInCube(2, -problem.half, problem.half),
            Options(kOneShotKs[rng.NextBounded(3)])};
        if (recorder != nullptr) {
          recorder->ExpectArrival(
              Arrival::kOneShot,
              prj::CanonicalEnumerationKey(request.query, request.options));
        }
        const Clock::time_point sent = Clock::now();
        prj::QueryResult result = stack.server->Submit(request).get();
        const double ms = MsBetween(sent, Clock::now());
        sink.Read(&PhaseResult::oneshot_ms, sent, ms, result.status,
                  Answer{request.query, request.options.k,
                         std::move(result.combinations)});
      }
    });
  }
  for (std::thread& t : clients) t.join();
}

enum class ReadKind { kOneShot, kPage, kStream };

struct ScheduledRead {
  double due_s = 0.0;
  ReadKind kind = ReadKind::kOneShot;
  prj::Vec query;
  int k = kPageK;
  /// Paged sessions: the user's think time before each later page.
  std::vector<double> think_s;
};

/// paged_popular: Zipf-popular points; 40% one-shot, 30% paged sessions of
/// 1 to 4 pages, 30% streams. Users think for an exponential time (mean
/// kThinkMeanS) before each later page, long enough for other sessions to
/// push theirs out of the server's session registry.
std::vector<ScheduledRead> PlanPopular(const Problem& problem, double rate,
                                       uint64_t seed, double seconds) {
  prj::Rng pool_rng(SubSeed(kDataSeed, 4));
  std::vector<prj::Vec> pool;
  for (size_t i = 0; i < kPopularPool; ++i) {
    pool.push_back(pool_rng.UniformInCube(2, -problem.half, problem.half));
  }
  const ZipfSampler zipf(kPopularPool, kZipfS);
  prj::Rng rng(SubSeed(seed, 3));
  std::vector<ScheduledRead> plan;
  for (double due : PoissonSchedule(SubSeed(seed, 2), rate, seconds)) {
    ScheduledRead read;
    read.due_s = due;
    const double u = rng.NextDouble();
    read.kind = u < 0.4   ? ReadKind::kOneShot
                : u < 0.7 ? ReadKind::kPage
                          : ReadKind::kStream;
    read.query = pool[zipf.Sample(&rng)];
    if (read.kind == ReadKind::kOneShot) {
      read.k = kOneShotKs[rng.NextBounded(3)];
    } else if (read.kind == ReadKind::kPage) {
      const uint64_t follow_ups = rng.NextBounded(4);
      for (uint64_t f = 0; f < follow_ups; ++f) {
        read.think_s.push_back(-std::log(1.0 - rng.NextDouble()) * kThinkMeanS);
      }
    }
    plan.push_back(std::move(read));
  }
  return plan;
}

/// live_rw reader: one-shot k = 10; half the requests repeat one of the
/// last few fresh points.
std::vector<ScheduledRead> PlanLiveReads(const Problem& problem,
                                         double rate, uint64_t seed,
                                         double seconds) {
  prj::Rng rng(SubSeed(seed, 3));
  std::deque<prj::Vec> recent;
  std::vector<ScheduledRead> plan;
  for (double due : PoissonSchedule(SubSeed(seed, 2), rate, seconds)) {
    ScheduledRead read;
    read.due_s = due;
    read.k = 10;
    if (!recent.empty() && rng.NextDouble() < 0.5) {
      read.query = recent[rng.NextBounded(recent.size())];
    } else {
      read.query = rng.UniformInCube(2, -problem.half, problem.half);
      recent.push_back(read.query);
      if (recent.size() > kRecentPoints) recent.pop_front();
    }
    plan.push_back(std::move(read));
  }
  return plan;
}

/// One paged session in flight: what its later pages need.
struct Session {
  prj::QueryRequest request;
  std::string key;  ///< enumeration key, traced runs only
  std::vector<double> think_s;
  size_t pages_done = 0;  ///< pages received
  std::string token;
  Answer answer;
};

/// Later pages waiting for their due time, ordered earliest first; waiters
/// add to it, the generator takes from it.
struct FollowUps {
  struct Due {
    Clock::time_point due;
    std::shared_ptr<Session> session;
    bool operator>(const Due& o) const { return due > o.due; }
  };
  std::mutex mu;
  std::condition_variable cv;
  std::priority_queue<Due, std::vector<Due>, std::greater<Due>> heap;
  size_t open_sessions = 0;  ///< sessions that may still add a page
};

/// Sends `plan` on its schedule, and the later pages of paged sessions
/// after their think time, from the calling thread (the generator). No
/// page is sent after `deadline`. Replies are timed from their due time.
void RunOpenLoop(const std::vector<ScheduledRead>& plan,
                 TraceRecorder* recorder, const Stack& stack,
                 const Window& window, bool keep_answers, PhaseResult* out) {
  TightenTimerSlack();
  Sink sink(out, window.measure_from, keep_answers);
  FollowUps follow_ups;
  WaiterPool waiters(kWaiters);
  prj::Server* server = stack.server.get();
  std::vector<double> late;
  late.reserve(plan.size());

  // Runs on a waiter with each page's reply: records it, then schedules the
  // session's next page or closes the session.
  auto on_page = [&](std::shared_ptr<Session> session, prj::PageResult page,
                     Clock::time_point due, double ms) {
    const bool later = session->pages_done++ > 0;
    if (later) {
      sink.Page(due, ms, page.result.status);
    } else {
      sink.Read(nullptr, due, 0.0, page.result.status, Answer{});
    }
    bool more = page.result.ok() && !page.next_page_token.empty() &&
                session->pages_done <= session->think_s.size();
    if (page.result.ok()) {
      for (prj::ResultCombination& c : page.result.combinations) {
        session->answer.combos.push_back(std::move(c));
      }
    }
    const Clock::time_point next_due =
        Clock::now() +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(
                more ? session->think_s[session->pages_done - 1] : 0.0));
    more = more && next_due < window.deadline;
    if (!more && page.result.ok() && !session->answer.combos.empty()) {
      session->answer.k = static_cast<int>(session->answer.combos.size());
      sink.Answered(std::move(session->answer));
    }
    {
      std::lock_guard<std::mutex> lock(follow_ups.mu);
      if (more) {
        session->token = std::move(page.next_page_token);
        follow_ups.heap.push({next_due, std::move(session)});
      } else {
        --follow_ups.open_sessions;
      }
    }
    follow_ups.cv.notify_one();
  };

  auto send_page = [&](std::shared_ptr<Session> session,
                       Clock::time_point due) {
    if (session->pages_done > 0) {
      if (recorder != nullptr) {
        recorder->ExpectArrival(Arrival::kFollow, session->key,
                                session->answer.combos.size());
      }
      sink.Count(due, &PhaseResult::followups_sent);
    } else {
      if (recorder != nullptr) {
        recorder->ExpectArrival(Arrival::kOpen, session->key);
      }
      sink.Count(due, &PhaseResult::opens_sent);
    }
    auto reply = std::make_shared<std::future<prj::PageResult>>(
        server->SubmitPage(session->request, session->token));
    waiters.Post([reply, session, due, &on_page] {
      prj::PageResult page = reply->get();
      const double ms = MsBetween(due, Clock::now());
      on_page(session, std::move(page), due, ms);
    });
  };

  auto send_scheduled = [&](const ScheduledRead& read, Clock::time_point due) {
    prj::QueryRequest request{read.query, Options(read.k)};
    const std::string key =
        recorder != nullptr
            ? prj::CanonicalEnumerationKey(request.query, request.options)
            : std::string();
    switch (read.kind) {
      case ReadKind::kOneShot: {
        if (recorder != nullptr) {
          recorder->ExpectArrival(Arrival::kOneShot, key);
        }
        auto reply = std::make_shared<std::future<prj::QueryResult>>(
            server->Submit(request));
        waiters.Post([reply, due, request, &sink] {
          prj::QueryResult result = reply->get();
          const double ms = MsBetween(due, Clock::now());
          sink.Read(&PhaseResult::oneshot_ms, due, ms, result.status,
                    Answer{request.query, request.options.k,
                           std::move(result.combinations)});
        });
        break;
      }
      case ReadKind::kPage: {
        auto session = std::make_shared<Session>();
        session->request = request;
        session->key = key;
        session->think_s = read.think_s;
        session->answer.query = request.query;
        {
          std::lock_guard<std::mutex> lock(follow_ups.mu);
          ++follow_ups.open_sessions;
        }
        send_page(std::move(session), due);
        break;
      }
      case ReadKind::kStream: {
        if (recorder != nullptr) recorder->ExpectArrival(Arrival::kOpen, key);
        sink.Count(due, &PhaseResult::opens_sent);
        struct Streamed {
          Clock::time_point first{};
          std::vector<prj::ResultCombination> combos;
        };
        auto streamed = std::make_shared<Streamed>();
        auto reply = std::make_shared<std::future<prj::QueryResult>>(
            server->SubmitStream(
                request, [streamed](uint64_t rank,
                                    const prj::ResultCombination& c) {
                  if (rank == 0) streamed->first = Clock::now();
                  streamed->combos.push_back(c);
                }));
        waiters.Post([reply, streamed, due, request, &sink] {
          prj::QueryResult result = reply->get();
          const bool delivered = !streamed->combos.empty();
          sink.Read(delivered ? &PhaseResult::first_ms : nullptr, due,
                    delivered ? MsBetween(due, streamed->first) : 0.0,
                    result.status,
                    Answer{request.query, request.options.k,
                           std::move(streamed->combos)});
        });
        break;
      }
    }
  };

  size_t next = 0;
  std::unique_lock<std::mutex> lock(follow_ups.mu);
  while (true) {
    const Clock::time_point scheduled_due =
        next < plan.size()
            ? window.start +
                  std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(plan[next].due_s))
            : Clock::time_point::max();
    const Clock::time_point follow_due = follow_ups.heap.empty()
                                             ? Clock::time_point::max()
                                             : follow_ups.heap.top().due;
    const Clock::time_point due = std::min(scheduled_due, follow_due);
    if (due == Clock::time_point::max()) {
      if (follow_ups.open_sessions == 0) break;
      follow_ups.cv.wait(lock);
      continue;
    }
    if (Clock::now() < due) {
      // Woken early by a new later page: re-evaluate the earliest due.
      follow_ups.cv.wait_until(lock, due);
      continue;
    }
    if (follow_due <= scheduled_due) {
      std::shared_ptr<Session> session = follow_ups.heap.top().session;
      follow_ups.heap.pop();
      lock.unlock();
      if (sink.Measured(due)) late.push_back(MsBetween(due, Clock::now()));
      send_page(std::move(session), due);
    } else {
      lock.unlock();
      if (sink.Measured(due)) late.push_back(MsBetween(due, Clock::now()));
      send_scheduled(plan[next++], due);
    }
    lock.lock();
  }
  lock.unlock();
  waiters.Drain();
  out->late_ms = std::move(late);
}

/// live_rw writer: one update batch every 1/apply_rate seconds until the
/// deadline. Returns the batches that were applied, in order.
std::vector<prj::UpdateBatch> RunWriter(const WorkloadSpec& spec,
                                        const Problem& problem, uint64_t seed,
                                        prj::LiveEngine* live,
                                        const Window& window, Sink* sink) {
  UpdateStream updates(SubSeed(seed, 5), problem.relations, kBatchInserts,
                       kBatchDeletes, -problem.half, problem.half);
  std::vector<prj::UpdateBatch> applied;
  TightenTimerSlack();
  for (uint64_t b = 0;; ++b) {
    const Clock::time_point due =
        window.start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(b / spec.apply_rate));
    if (due >= window.deadline) break;
    prj::UpdateBatch batch = updates.Next();
    std::this_thread::sleep_until(due);
    const Clock::time_point t0 = Clock::now();
    const prj::Status status = live->Apply(batch);
    sink->Apply(due, MsBetween(t0, Clock::now()), status);
    if (status.ok()) applied.push_back(std::move(batch));
  }
  return applied;
}

// ----------------------------- exactness --------------------------------- //

bool SameAsReference(const prj::Engine& reference, const Answer& answer,
                     std::string* why) {
  auto expected = reference.TopK(answer.query, Options(answer.k));
  if (!expected.ok()) {
    *why = "reference TopK failed: " + expected.status().ToString();
    return false;
  }
  return prj::BitIdenticalResults(answer.combos, *expected, why);
}

/// Replays every distinct (query, k) answer on `reference` (4 threads) and
/// compares every answer to it.
void ReplayAnswers(const prj::Engine& reference,
                   const std::vector<const Answer*>& answers,
                   std::vector<std::string>* errors) {
  std::unordered_map<std::string, std::vector<const Answer*>> groups;
  for (const Answer* a : answers) {
    groups[prj::CanonicalRequestKey(a->query, Options(a->k))].push_back(a);
  }
  std::vector<const std::vector<const Answer*>*> work;
  for (const auto& [key, group] : groups) work.push_back(&group);
  std::atomic<size_t> next{0};
  std::mutex mu;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < work.size();
           i = next.fetch_add(1)) {
        const std::vector<const Answer*>& group = *work[i];
        auto expected =
            reference.TopK(group[0]->query, Options(group[0]->k));
        for (const Answer* a : group) {
          std::string why;
          if (expected.ok() &&
              prj::BitIdenticalResults(a->combos, *expected, &why)) {
            continue;
          }
          if (!expected.ok()) why = expected.status().ToString();
          std::lock_guard<std::mutex> lock(mu);
          errors->push_back("k=" + std::to_string(a->k) + ": " + why);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

/// live_rw gate: the final epoch counts every applied batch, and sampled
/// queries through the server equal a fresh engine over the final content.
void CheckLive(const Problem& problem, uint64_t seed,
               const std::vector<prj::UpdateBatch>& applied,
               const std::vector<ScheduledRead>& plan, const Stack& stack,
               std::vector<std::string>* errors) {
  const uint64_t epoch = stack.top->live_counters().epoch;
  if (epoch != 1 + applied.size()) {
    errors->push_back("final epoch " + std::to_string(epoch) + ", expected " +
                      std::to_string(1 + applied.size()));
  }
  std::vector<prj::Relation> content = problem.relations;
  ApplyBatches(applied, &content);
  auto fresh =
      prj::Engine::Create(content, prj::AccessKind::kDistance, &Scoring());
  if (!fresh.ok()) {
    errors->push_back("fresh Engine::Create: " + fresh.status().ToString());
    return;
  }
  prj::Rng rng(SubSeed(seed, 6));
  for (size_t i = 0; i < kLiveChecks; ++i) {
    prj::Vec query = (i % 2 == 0 && !plan.empty())
                         ? plan[rng.NextBounded(plan.size())].query
                         : rng.UniformInCube(2, -problem.half, problem.half);
    prj::QueryResult result =
        stack.server->Submit(prj::QueryRequest{query, Options(10)}).get();
    std::string why;
    if (!result.ok()) {
      errors->push_back("live check query failed: " +
                        result.status.ToString());
    } else if (!SameAsReference(*fresh, Answer{query, 10, result.combinations},
                                &why)) {
      errors->push_back("live check: " + why);
    }
  }
}

// ------------------------------- phases ---------------------------------- //

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// User plus system CPU seconds the process has used so far.
double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + t.tv_usec * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Serves one phase of traffic through `stack` and, for live_rw, runs the
/// post-run live gate against the same stack.
void RunPhase(const WorkloadSpec& spec, const Problem& problem, uint64_t seed,
              double seconds, TraceRecorder* recorder, const Stack& stack,
              PhaseResult* out) {
  auto after = [](Clock::time_point t, double s) {
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(s));
  };
  Window window;
  window.start = Clock::now();
  window.measure_from = after(window.start, kWarmupS);
  window.deadline = after(window.measure_from, seconds);

  // At the end of the warm-up: the counters' baselines and the trace window.
  prj::CacheCounters cache_before;
  uint64_t compactions_before = 0;
  uint64_t depths_before = 0;
  double cpu_before = 0.0;
  std::thread marker([&] {
    std::this_thread::sleep_until(window.measure_from);
    cpu_before = CpuSeconds();
    depths_before = stack.meter->depths();
    cache_before = stack.top->cache_counters();
    compactions_before = stack.top->live_counters().compactions;
    if (recorder != nullptr) {
      out->window_start_ns = recorder->Now();
      recorder->MarkWindowStart();
    }
  });

  std::vector<ScheduledRead> plan;
  std::vector<prj::UpdateBatch> applied;
  if (spec.clients > 0) {
    RunClosedLoop(spec, problem, seed, window, recorder, stack, out);
  } else {
    plan = spec.apply_rate > 0.0
               ? PlanLiveReads(problem, spec.read_rate, seed,
                               kWarmupS + seconds)
               : PlanPopular(problem, spec.read_rate, seed,
                             kWarmupS + seconds);
    std::thread writer;
    PhaseResult writes;
    Sink write_sink(&writes, window.measure_from, false);
    if (spec.apply_rate > 0.0) {
      writer = std::thread([&] {
        applied = RunWriter(spec, problem, seed, stack.live.get(), window,
                            &write_sink);
      });
    }
    // live_rw's gate queries the stack afresh; it replays no answer.
    RunOpenLoop(plan, recorder, stack, window, spec.apply_rate == 0.0, out);
    if (writer.joinable()) writer.join();
    out->apply_ms = std::move(writes.apply_ms);
    out->attempted += writes.attempted;
    out->failed += writes.failed;
  }
  marker.join();
  out->elapsed_s =
      std::chrono::duration<double>(Clock::now() - window.measure_from)
          .count();
  out->cpu_s = CpuSeconds() - cpu_before;
  out->depths_paid = stack.meter->depths() - depths_before;
  out->peak_rss_mb = PeakRssMb();
  if (recorder != nullptr) out->window_end_ns = recorder->Now();
  const prj::CacheCounters cache_after = stack.top->cache_counters();
  out->cache_delta = prj::CacheCounters{
      cache_after.hits - cache_before.hits,
      cache_after.misses - cache_before.misses,
      cache_after.evictions - cache_before.evictions,
      cache_after.coalesced - cache_before.coalesced};
  out->compactions =
      stack.top->live_counters().compactions - compactions_before;
  out->queue_high_water = stack.server->Stats().queue_high_water;
  if (spec.apply_rate > 0.0) {
    CheckLive(problem, seed, applied, plan, stack, &out->errors);
  }
}

// ------------------------------- metrics --------------------------------- //

void AddTail(const std::string& name, const std::vector<double>& values,
             std::vector<Metric>* out, std::vector<Metric>* detail) {
  const Tail tail = TailPercentile(values);
  out->push_back({name, tail.value, "ms"});
  detail->push_back({name + ".percentile", tail.percentile, "%"});
  detail->push_back({name + ".samples", static_cast<double>(tail.samples),
                     "count"});
}

void EndToEndMetrics(const PhaseResult& phase, double setup_s,
                     RunReport* report) {
  std::vector<Metric>& m = report->metrics;
  std::vector<Metric>& d = report->detail;
  const double reads =
      static_cast<double>(std::max<uint64_t>(1, phase.reads_done));
  const double requests = static_cast<double>(
      std::max<uint64_t>(1, phase.reads_done + phase.apply_ms.size()));
  // The result line carries the metrics that hold steady from run to run
  // on a shared host; latencies, which host stalls can double there, go to
  // the detail line (perfbench/metrics.json gives their bounds). Under an
  // open loop qps follows the offered rate, so cpu_ms_per_request is the
  // gated figure of serving cost there.
  m.push_back({"setup_s", setup_s, "s"});
  m.push_back({"qps", phase.reads_done / phase.elapsed_s, "1/s"});
  m.push_back({"cpu_ms_per_request", phase.cpu_s * 1e3 / requests, "ms"});
  m.push_back({"depths_per_request", phase.depths_paid / reads, "count"});
  m.push_back({"peak_rss_mb", phase.peak_rss_mb, "MB"});

  d.push_back({"latency_p50_ms", Quantile(phase.oneshot_ms, 0.5), "ms"});
  AddTail("latency_p99_ms", phase.oneshot_ms, &d, &d);
  d.push_back({"failed_ratio",
               phase.attempted == 0
                   ? 0.0
                   : static_cast<double>(phase.failed) / phase.attempted,
               "ratio"});
  if (!phase.page_ms.empty()) {
    d.push_back({"page_p50_ms", Quantile(phase.page_ms, 0.5), "ms"});
    AddTail("page_p99_ms", phase.page_ms, &d, &d);
  }
  if (!phase.first_ms.empty()) {
    d.push_back({"first_result_p50_ms", Quantile(phase.first_ms, 0.5), "ms"});
  }
  if (!phase.apply_ms.empty()) {
    d.push_back({"apply_p50_ms", Quantile(phase.apply_ms, 0.5), "ms"});
    AddTail("apply_p99_ms", phase.apply_ms, &d, &d);
  }
  d.push_back({"cpu_s", phase.cpu_s, "s"});
  if (!phase.late_ms.empty()) {
    d.push_back({"loadgen_late_p50_ms", Quantile(phase.late_ms, 0.5), "ms"});
    d.push_back({"loadgen_late_p99_ms", TailPercentile(phase.late_ms).value,
                 "ms"});
  }
}

struct IndexReplay {
  double build_s = 0.0;     ///< median IndexedRelation::Build per relation
  double pull_ns = 0.0;     ///< per R-tree pull, replayed
  double share_of_core = 0.0;
};

/// Times IndexedRelation::Build on every relation, then replays each
/// sampled core call's pulls (its recorded depths) on the built R-trees.
IndexReplay ReplayIndex(const Problem& problem,
                        const std::vector<CoreCall>& calls,
                        const std::unordered_map<uint64_t, int64_t>& span_ns) {
  IndexReplay out;
  std::vector<std::shared_ptr<const prj::IndexedRelation>> indexes;
  std::vector<double> builds;
  for (const prj::Relation& r : problem.relations) {
    const Clock::time_point t0 = Clock::now();
    indexes.push_back(prj::IndexedRelation::Build(r));
    builds.push_back(SecondsSince(t0));
  }
  out.build_s = Quantile(builds, 0.5);
  if (calls.empty()) return out;
  const size_t step = std::max<size_t>(1, calls.size() / kPullReplays);
  double replay_ns = 0.0;
  double core_ns = 0.0;
  uint64_t pulls = 0;
  for (size_t i = 0; i < calls.size(); i += step) {
    const CoreCall& call = calls[i];
    auto it = span_ns.find(call.span_id);
    if (it == span_ns.end() || call.depths.size() != indexes.size()) continue;
    const Clock::time_point t0 = Clock::now();
    for (size_t j = 0; j < indexes.size(); ++j) {
      auto browse = indexes[j]->tree().NearestBrowse(call.query);
      for (size_t p = 0; p < call.depths[j]; ++p) {
        const prj::RTree::Item* item = browse.NextRef();
        if (item == nullptr) break;
        ++pulls;
      }
    }
    replay_ns += std::chrono::duration<double, std::nano>(Clock::now() - t0)
                     .count();
    core_ns += static_cast<double>(it->second);
  }
  out.pull_ns = pulls == 0 ? 0.0 : replay_ns / pulls;
  out.share_of_core = core_ns == 0.0 ? 0.0 : replay_ns / core_ns;
  return out;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans,
                const std::vector<int64_t>& self_ns) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 path.c_str());
    return;
  }
  out << "id,parent,layer,op,start_ns,end_ns,self_ns\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << s.id << ',' << s.parent << ',' << LayerName(s.layer) << ','
        << OpName(s.op) << ',' << s.start_ns << ',' << s.end_ns << ','
        << self_ns[i] << '\n';
  }
}

void PerLayerMetrics(const Problem& problem,
                     const TraceRecorder& recorder, const PhaseResult& plain,
                     const PhaseResult& traced, const RunConfig& config,
                     RunReport* report) {
  const std::vector<Span> all = recorder.spans();
  // Self times over every span; metrics over spans begun in the window.
  std::unordered_map<uint64_t, size_t> by_id;
  for (size_t i = 0; i < all.size(); ++i) by_id[all[i].id] = i;
  std::vector<std::vector<Interval>> children(all.size());
  for (const Span& s : all) {
    auto parent = by_id.find(s.parent);
    if (parent != by_id.end()) {
      children[parent->second].push_back({s.start_ns, s.end_ns});
    }
  }
  std::vector<int64_t> self_ns(all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    self_ns[i] = SelfTime({all[i].start_ns, all[i].end_ns}, children[i]);
  }
  if (!config.spans_path.empty()) WriteSpans(config.spans_path, all, self_ns);

  std::vector<double> cache_self_us, live_self_us, shard_us, core_us,
      rebuild_s;
  std::unordered_map<uint64_t, int64_t> core_span_ns;
  uint64_t below_cache_calls = 0;
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (s.start_ns < traced.window_start_ns ||
        s.start_ns > traced.window_end_ns) {
      continue;
    }
    const double dur_ns = static_cast<double>(s.end_ns - s.start_ns);
    auto parent = by_id.find(s.parent);
    if (parent != by_id.end() && all[parent->second].layer == Layer::kCache &&
        s.layer != Layer::kCache) {
      ++below_cache_calls;
    }
    if (s.op == Op::kBuild) {
      rebuild_s.push_back(dur_ns * 1e-9);
      continue;
    }
    if (s.op != Op::kTopK) continue;
    switch (s.layer) {
      case Layer::kCache: cache_self_us.push_back(self_ns[i] * 1e-3); break;
      case Layer::kLive: live_self_us.push_back(self_ns[i] * 1e-3); break;
      case Layer::kShard: shard_us.push_back(dur_ns * 1e-3); break;
      case Layer::kCore:
        core_us.push_back(dur_ns * 1e-3);
        core_span_ns[s.id] = s.end_ns - s.start_ns;
        break;
    }
  }

  std::vector<CoreCall> calls;
  for (CoreCall& c : recorder.core_calls()) {
    if (core_span_ns.count(c.span_id) != 0) calls.push_back(std::move(c));
  }
  double formed = 0, results = 0, depths = 0, bound_s = 0, dominance_s = 0,
         core_ns = 0;
  for (const CoreCall& c : calls) {
    formed += static_cast<double>(c.formed);
    results += static_cast<double>(c.results);
    depths += static_cast<double>(c.sum_depths);
    bound_s += c.bound_seconds;
    dominance_s += c.dominance_seconds;
    core_ns += static_cast<double>(core_span_ns[c.span_id]);
  }
  const double n_calls = static_cast<double>(std::max<size_t>(1, calls.size()));
  const IndexReplay index = ReplayIndex(problem, calls, core_span_ns);

  const std::vector<double> waits = recorder.queue_waits_ms();
  const prj::CacheCounters& cache = traced.cache_delta;
  const double lookups = static_cast<double>(cache.hits + cache.misses);
  const double top_opens = static_cast<double>(recorder.top_opens());
  const double reopens =
      std::max(0.0, top_opens - static_cast<double>(traced.opens_sent));
  const double requests =
      static_cast<double>(std::max<uint64_t>(1, traced.reads_done));
  const double plain_p50 = Quantile(plain.oneshot_ms, 0.5);

  std::vector<Metric>& m = report->metrics;
  m.push_back({"server.queue_wait_p50_ms", Quantile(waits, 0.5), "ms"});
  m.push_back({"server.queue_wait_p99_ms", TailPercentile(waits).value, "ms"});
  m.push_back({"server.queue_high_water",
               static_cast<double>(traced.queue_high_water), "count"});
  m.push_back({"server.page_reopen_ratio",
               traced.followups_sent == 0 ? 0.0
                                          : reopens / traced.followups_sent,
               "ratio"});
  m.push_back({"cache.hit_ratio", lookups == 0 ? 0.0 : cache.hits / lookups,
               "ratio"});
  m.push_back({"cache.coalesced", static_cast<double>(cache.coalesced),
               "count"});
  m.push_back({"cache.evictions", static_cast<double>(cache.evictions),
               "count"});
  m.push_back({"cache.inner_calls_per_request", below_cache_calls / requests,
               "count"});
  m.push_back({"cache.self_p50_us", Quantile(cache_self_us, 0.5), "us"});
  m.push_back({"live.self_p50_us", Quantile(live_self_us, 0.5), "us"});
  m.push_back({"live.delta_tuples_mean", recorder.live_delta_mean(), "count"});
  m.push_back({"live.compactions", static_cast<double>(traced.compactions),
               "count"});
  m.push_back({"live.rebuild_s", Quantile(rebuild_s, 0.5), "s"});
  m.push_back({"shard.base_p50_us", Quantile(shard_us, 0.5), "us"});
  m.push_back({"shard.fan_out", recorder.live_fan_out_mean(), "count"});
  m.push_back({"core.engine_p50_us", Quantile(core_us, 0.5), "us"});
  m.push_back({"core.engine_p99_us", TailPercentile(core_us).value, "us"});
  m.push_back({"core.formed_per_query", formed / n_calls, "count"});
  m.push_back({"core.ns_per_formed", formed == 0 ? 0.0 : core_ns / formed,
               "ns"});
  m.push_back({"core.results_per_formed", formed == 0 ? 0.0 : results / formed,
               "ratio"});
  m.push_back({"core.bound_share", core_ns == 0 ? 0.0 : bound_s * 1e9 / core_ns,
               "ratio"});
  m.push_back({"core.dominance_share",
               core_ns == 0 ? 0.0 : dominance_s * 1e9 / core_ns, "ratio"});
  m.push_back({"core.depths_per_query", depths / n_calls, "count"});
  m.push_back({"index.build_s", index.build_s, "s"});
  m.push_back({"index.pull_ns", index.pull_ns, "ns"});
  m.push_back({"index.share_of_core", index.share_of_core, "ratio"});
  m.push_back({"loadgen.late_p99_ms",
               plain.late_ms.empty() ? 0.0
                                     : TailPercentile(plain.late_ms).value,
               "ms"});
  const double traced_p50 = Quantile(traced.oneshot_ms, 0.5);
  m.push_back({"trace.overhead_ratio",
               plain_p50 == 0.0 ? 0.0 : traced_p50 / plain_p50, "ratio"});

  std::vector<Metric>& d = report->detail;
  d.push_back({"trace.spans", static_cast<double>(all.size()), "count"});
  d.push_back({"trace.queue_waits", static_cast<double>(waits.size()),
               "count"});
  d.push_back({"trace.core_calls", static_cast<double>(calls.size()),
               "count"});
  d.push_back({"trace.untraced_latency_p50_ms", plain_p50, "ms"});
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const WorkloadSpec& spec : kSpecs) out.push_back(spec.name);
    return out;
  }();
  return names;
}

bool RunWorkload(const RunConfig& config, RunReport* report,
                 std::string* error) {
  const WorkloadSpec* found = nullptr;
  for (const WorkloadSpec& s : kSpecs) {
    if (config.workload == s.name) found = &s;
  }
  if (found == nullptr) {
    *error = "unknown workload " + config.workload;
    return false;
  }
  WorkloadSpec rated = *found;
  if (config.read_rate > 0.0) {
    if (rated.clients > 0) {
      *error = config.workload + " is a closed loop; it takes no read rate";
      return false;
    }
    rated.read_rate = config.read_rate;
  }
  const WorkloadSpec* spec = &rated;
  const Problem problem = MakeProblem(*spec);

  // Set-up: build the whole stack several times, keep the last.
  const int reps = config.trace ? 1 : spec->setup_reps;
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int r = 0; r < reps; ++r) {
    stack.reset();
    stack = std::make_unique<Stack>();
    const Clock::time_point t0 = Clock::now();
    if (!BuildStack(*spec, problem, nullptr, stack.get(), error)) return false;
    setup_s.push_back(SecondsSince(t0));
  }

  const double plain_seconds =
      config.trace ? config.seconds / 2 : config.seconds;
  PhaseResult plain;
  RunPhase(*spec, problem, config.seed, plain_seconds, nullptr, *stack, &plain);
  stack.reset();

  std::unique_ptr<TraceRecorder> recorder;
  PhaseResult traced;
  if (config.trace) {
    recorder = std::make_unique<TraceRecorder>();
    stack = std::make_unique<Stack>();
    if (!BuildStack(*spec, problem, recorder.get(), stack.get(), error)) {
      return false;
    }
    RunPhase(*spec, problem, config.seed, config.seconds / 2, recorder.get(),
             *stack, &traced);
    stack.reset();
  }
  // Exactness gates. live_rw checked its own stack at the end of each phase.
  report->errors = plain.errors;
  report->errors.insert(report->errors.end(), traced.errors.begin(),
                        traced.errors.end());
  if (spec->apply_rate == 0.0) {
    auto reference = prj::Engine::Create(
        problem.relations, prj::AccessKind::kDistance, &Scoring());
    if (!reference.ok()) {
      *error = "reference Engine::Create: " + reference.status().ToString();
      return false;
    }
    std::vector<const Answer*> answers;
    for (const Answer& a : plain.answers) answers.push_back(&a);
    for (const Answer& a : traced.answers) answers.push_back(&a);
    ReplayAnswers(*reference, answers, &report->errors);
    report->detail.push_back(
        {"exactness.answers_checked", static_cast<double>(answers.size()),
         "count"});
  }
  if (spec->clients == 0) {
    report->detail.push_back({"offered_rate", spec->read_rate, "1/s"});
  }
  report->correct = report->errors.empty();
  report->attempted = plain.attempted + traced.attempted;
  report->failed = plain.failed + traced.failed;

  if (config.trace) {
    PerLayerMetrics(problem, *recorder, plain, traced, config, report);
  } else {
    EndToEndMetrics(plain, Quantile(setup_s, 0.5), report);
  }
  return true;
}

std::string HostFingerprintJson() {
  // The CPU's brand string, read with cpuid: no file outside the checkout.
  std::string cpu = "unknown";
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000000, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002 + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    char brand[sizeof(regs) + 1] = {};
    std::memcpy(brand, regs, sizeof(regs));
    cpu = brand;
    cpu.erase(0, cpu.find_first_not_of(' '));
  }
#endif
  std::string escaped;
  for (char c : cpu) {
    if (c == '"' || c == '\\') escaped += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) escaped += c;
  }
  return std::string("{\"cpu\": \"") + escaped + "\", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"kernel_isa\": \"" + prj::MbrKernelIsa() +
         "\", \"compiler\": \"" PERFBENCH_COMPILER
         "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"}";
}

}  // namespace perfbench
