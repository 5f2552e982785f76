// Span recording for the traced run: pass-through probes the benchmark
// inserts between the layers it assembles.
//
// A ProbeEngine is a QueryEngine decorator that forwards every call to its
// inner engine and records a span around TopK and OpenCursor; the cursors
// it returns are ProbeCursors, which record a span around every Next.
// ProbeFactory wraps a LiveEngine BaseEngineFactory the same way, timing
// each (re)build and wrapping the engine it returns in a probe. Spans nest
// through a per-thread stack, so a span's parent is the probe span that was
// open on the same thread when it began; spans stay in memory until the
// run ends.
//
// The probes also match server requests to the moment they reach the top
// of the engine stack (the queue wait): the client announces each request
// with ExpectArrival just before submitting it, and the top probe claims
// the oldest matching announcement when it is entered.
#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/query_engine.h"
#include "core/result_cursor.h"
#include "live/live_engine.h"

namespace perfbench {

enum class Layer : uint8_t { kCache, kLive, kShard, kCore };
enum class Op : uint8_t { kTopK, kOpenCursor, kNext, kBuild };
const char* LayerName(Layer layer);
const char* OpName(Op op);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0: no probe span was open on this thread
  Layer layer = Layer::kCore;
  Op op = Op::kTopK;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// The paper's accounting of one TopK call that reached the engine.
struct CoreCall {
  uint64_t span_id = 0;
  prj::Vec query;
  std::vector<size_t> depths;
  uint64_t sum_depths = 0;
  uint64_t formed = 0;
  uint64_t results = 0;
  double bound_seconds = 0.0;
  double dominance_seconds = 0.0;
};

/// How a server request is expected to enter the top of the stack.
enum class Arrival : uint8_t {
  kOneShot,  ///< Submit: the top TopK
  kOpen,     ///< first page or stream: the top OpenCursor
  kFollow,   ///< a later page: a reopen (top OpenCursor) or the first Next
             ///< of the page on the session's cursor
};

class TraceRecorder {
 public:
  TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Nanoseconds since the recorder was created (steady clock).
  int64_t Now() const;

  uint64_t Begin();
  void End(uint64_t id, Layer layer, Op op, int64_t start_ns);
  void AddCoreCall(CoreCall call);
  void SampleLive(uint64_t delta_tuples, uint64_t fan_out);

  /// Announces a request about to be submitted. `offset` is the global
  /// rank of a follow-up page's first result.
  void ExpectArrival(Arrival kind, const std::string& enum_key,
                     uint64_t offset = 0);
  /// Claims the oldest announcement of one of `kinds` for `enum_key` and
  /// records its queue wait. Returns false when none is pending.
  bool ClaimArrival(std::initializer_list<Arrival> kinds,
                    const std::string& enum_key, Arrival* claimed,
                    uint64_t* offset);

  /// Snapshots, safe once every probed call has returned.
  std::vector<Span> spans() const;
  std::vector<CoreCall> core_calls() const;
  std::vector<double> queue_waits_ms() const;
  double live_delta_mean() const;
  double live_fan_out_mean() const;
  uint64_t top_opens() const { return top_opens_.load(); }
  void CountTopOpen();
  /// From now on queue waits and top-level opens count (the end of the
  /// warm-up); spans are recorded throughout.
  void MarkWindowStart();

 private:
  struct Pending {
    int64_t submit_ns = 0;
    uint64_t offset = 0;
  };
  static std::string PendingKey(Arrival kind, const std::string& enum_key);

  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> top_opens_{0};
  std::atomic<bool> in_window_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<CoreCall> core_calls_;
  std::unordered_map<std::string, std::deque<Pending>> pending_;
  std::vector<double> queue_waits_ms_;
  uint64_t live_samples_ = 0;
  double live_delta_sum_ = 0.0;
  double live_fan_out_sum_ = 0.0;
};

/// RAII span: begins on construction, ends on destruction.
class ScopedSpan {
 public:
  ScopedSpan(TraceRecorder* recorder, Layer layer, Op op);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  TraceRecorder* recorder_;
  Layer layer_;
  Op op_;
  uint64_t id_;
  int64_t start_ns_;
};

/// Pass-through QueryEngine that records spans. `top` marks the probe the
/// server calls directly: it claims arrivals. A probe may own its inner
/// engine (the factory wrapper's case) or borrow it.
class ProbeEngine : public prj::QueryEngine {
 public:
  ProbeEngine(const prj::QueryEngine* inner, Layer layer,
              TraceRecorder* recorder, bool top);
  ProbeEngine(std::unique_ptr<const prj::QueryEngine> owned, Layer layer,
              TraceRecorder* recorder);

  prj::Result<std::vector<prj::ResultCombination>> TopK(
      const prj::Vec& query, const prj::ProxRJOptions& options,
      prj::ExecStats* stats_out = nullptr) const override;
  prj::Result<std::unique_ptr<prj::ResultCursor>> OpenCursor(
      const prj::QueryRequest& request) const override;

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
  std::unique_ptr<const prj::QueryEngine> owned_;
  const prj::QueryEngine* inner_;
  Layer layer_;
  TraceRecorder* recorder_;
  bool top_;
};

/// Wraps a LiveEngine base-engine factory: every call is a kBuild span of
/// the shard layer, and the engine it returns is wrapped in a shard probe.
prj::BaseEngineFactory ProbeFactory(prj::BaseEngineFactory inner,
                                    TraceRecorder* recorder);

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
