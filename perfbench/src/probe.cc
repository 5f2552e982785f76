#include "probe.h"

#include <utility>

namespace perfbench {
namespace {

/// Ids of the probe spans open on this thread, innermost last.
thread_local std::vector<uint64_t> t_open_spans;

class ProbeCursor : public prj::ResultCursor {
 public:
  /// A top cursor claims a follow-up page arrival on the first Next of
  /// every page after rank `claim_floor` (pages are `page_k` long).
  ProbeCursor(std::unique_ptr<prj::ResultCursor> inner, Layer layer,
              TraceRecorder* recorder, bool top, std::string enum_key,
              uint64_t page_k, uint64_t claim_floor)
      : inner_(std::move(inner)),
        layer_(layer),
        recorder_(recorder),
        top_(top),
        enum_key_(std::move(enum_key)),
        page_k_(page_k),
        claim_floor_(claim_floor) {}

  prj::Result<std::optional<prj::ResultCombination>> Next() override {
    ScopedSpan span(recorder_, layer_, Op::kNext);
    const uint64_t at = inner_->emitted();
    if (top_ && page_k_ > 0 && at >= claim_floor_ && at % page_k_ == 0) {
      Arrival claimed;
      uint64_t offset = 0;
      recorder_->ClaimArrival({Arrival::kFollow}, enum_key_, &claimed,
                              &offset);
    }
    return inner_->Next();
  }
  prj::ExecStats stats() const override { return inner_->stats(); }
  uint64_t emitted() const override { return inner_->emitted(); }

 private:
  std::unique_ptr<prj::ResultCursor> inner_;
  Layer layer_;
  TraceRecorder* recorder_;
  bool top_;
  std::string enum_key_;
  uint64_t page_k_;
  uint64_t claim_floor_;
};

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kCache: return "cache";
    case Layer::kLive: return "live";
    case Layer::kShard: return "shard";
    case Layer::kCore: return "core";
  }
  return "?";
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kTopK: return "TopK";
    case Op::kOpenCursor: return "OpenCursor";
    case Op::kNext: return "Next";
    case Op::kBuild: return "Build";
  }
  return "?";
}

TraceRecorder::TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}

int64_t TraceRecorder::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

uint64_t TraceRecorder::Begin() {
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  t_open_spans.push_back(id);
  return id;
}

void TraceRecorder::End(uint64_t id, Layer layer, Op op, int64_t start_ns) {
  const int64_t end_ns = Now();
  t_open_spans.pop_back();
  const uint64_t parent = t_open_spans.empty() ? 0 : t_open_spans.back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{id, parent, layer, op, start_ns, end_ns});
}

void TraceRecorder::CountTopOpen() {
  if (in_window_.load()) top_opens_.fetch_add(1);
}

void TraceRecorder::MarkWindowStart() { in_window_.store(true); }

void TraceRecorder::AddCoreCall(CoreCall call) {
  std::lock_guard<std::mutex> lock(mu_);
  core_calls_.push_back(std::move(call));
}

void TraceRecorder::SampleLive(uint64_t delta_tuples, uint64_t fan_out) {
  if (!in_window_.load()) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++live_samples_;
  live_delta_sum_ += static_cast<double>(delta_tuples);
  live_fan_out_sum_ += static_cast<double>(fan_out);
}

std::string TraceRecorder::PendingKey(Arrival kind,
                                      const std::string& enum_key) {
  std::string key(1, static_cast<char>('0' + static_cast<int>(kind)));
  key += enum_key;
  return key;
}

void TraceRecorder::ExpectArrival(Arrival kind, const std::string& enum_key,
                                  uint64_t offset) {
  const int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  pending_[PendingKey(kind, enum_key)].push_back(Pending{now, offset});
}

bool TraceRecorder::ClaimArrival(std::initializer_list<Arrival> kinds,
                                 const std::string& enum_key,
                                 Arrival* claimed, uint64_t* offset) {
  const int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  std::deque<Pending>* best = nullptr;
  for (Arrival kind : kinds) {
    auto it = pending_.find(PendingKey(kind, enum_key));
    if (it == pending_.end() || it->second.empty()) continue;
    if (best == nullptr ||
        it->second.front().submit_ns < best->front().submit_ns) {
      best = &it->second;
      *claimed = kind;
    }
  }
  if (best == nullptr) return false;
  *offset = best->front().offset;
  if (in_window_.load()) {
    queue_waits_ms_.push_back(
        static_cast<double>(now - best->front().submit_ns) * 1e-6);
  }
  best->pop_front();
  return true;
}

std::vector<Span> TraceRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<CoreCall> TraceRecorder::core_calls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return core_calls_;
}

std::vector<double> TraceRecorder::queue_waits_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_waits_ms_;
}

double TraceRecorder::live_delta_mean() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_samples_ == 0 ? 0.0 : live_delta_sum_ / live_samples_;
}

double TraceRecorder::live_fan_out_mean() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_samples_ == 0 ? 0.0 : live_fan_out_sum_ / live_samples_;
}

ScopedSpan::ScopedSpan(TraceRecorder* recorder, Layer layer, Op op)
    : recorder_(recorder),
      layer_(layer),
      op_(op),
      id_(recorder->Begin()),
      start_ns_(recorder->Now()) {}

ScopedSpan::~ScopedSpan() { recorder_->End(id_, layer_, op_, start_ns_); }

ProbeEngine::ProbeEngine(const prj::QueryEngine* inner, Layer layer,
                         TraceRecorder* recorder, bool top)
    : inner_(inner), layer_(layer), recorder_(recorder), top_(top) {}

ProbeEngine::ProbeEngine(std::unique_ptr<const prj::QueryEngine> owned,
                         Layer layer, TraceRecorder* recorder)
    : owned_(std::move(owned)),
      inner_(owned_.get()),
      layer_(layer),
      recorder_(recorder),
      top_(false) {}

prj::Result<std::vector<prj::ResultCombination>> ProbeEngine::TopK(
    const prj::Vec& query, const prj::ProxRJOptions& options,
    prj::ExecStats* stats_out) const {
  ScopedSpan span(recorder_, layer_, Op::kTopK);
  if (top_) {
    Arrival claimed;
    uint64_t offset = 0;
    recorder_->ClaimArrival({Arrival::kOneShot},
                            prj::CanonicalEnumerationKey(query, options),
                            &claimed, &offset);
  }
  if (layer_ == Layer::kLive) {
    recorder_->SampleLive(inner_->live_counters().delta_tuples,
                          inner_->fan_out());
  }
  if (layer_ != Layer::kCore) return inner_->TopK(query, options, stats_out);

  prj::ExecStats local;
  prj::ExecStats* stats = stats_out != nullptr ? stats_out : &local;
  auto result = inner_->TopK(query, options, stats);
  CoreCall call;
  call.span_id = span.id();
  call.query = query;
  call.depths = stats->depths;
  call.sum_depths = stats->sum_depths;
  call.formed = stats->combinations_formed;
  call.results = result.ok() ? result->size() : 0;
  call.bound_seconds = stats->bound_seconds;
  call.dominance_seconds = stats->dominance_seconds;
  recorder_->AddCoreCall(std::move(call));
  return result;
}

prj::Result<std::unique_ptr<prj::ResultCursor>> ProbeEngine::OpenCursor(
    const prj::QueryRequest& request) const {
  ScopedSpan span(recorder_, layer_, Op::kOpenCursor);
  std::string enum_key;
  const uint64_t page_k =
      request.options.k > 0 ? static_cast<uint64_t>(request.options.k) : 0;
  uint64_t claim_floor = page_k;
  if (top_) {
    recorder_->CountTopOpen();
    enum_key = prj::CanonicalEnumerationKey(request.query, request.options);
    Arrival claimed = Arrival::kOpen;
    uint64_t offset = 0;
    if (recorder_->ClaimArrival({Arrival::kOpen, Arrival::kFollow}, enum_key,
                                &claimed, &offset) &&
        claimed == Arrival::kFollow) {
      // A reopen skips to `offset` inside this same request.
      claim_floor = offset + page_k;
    }
  }
  if (layer_ == Layer::kLive) {
    recorder_->SampleLive(inner_->live_counters().delta_tuples,
                          inner_->fan_out());
  }
  auto cursor = inner_->OpenCursor(request);
  if (!cursor.ok()) return cursor.status();
  return std::unique_ptr<prj::ResultCursor>(std::make_unique<ProbeCursor>(
      std::move(cursor).value(), layer_, recorder_, top_, std::move(enum_key),
      page_k, claim_floor));
}

prj::BaseEngineFactory ProbeFactory(prj::BaseEngineFactory inner,
                                    TraceRecorder* recorder) {
  return [inner = std::move(inner), recorder](
             const std::vector<prj::Relation>& relations)
             -> prj::Result<std::unique_ptr<const prj::QueryEngine>> {
    std::unique_ptr<const prj::QueryEngine> built;
    {
      ScopedSpan span(recorder, Layer::kShard, Op::kBuild);
      auto engine = inner(relations);
      if (!engine.ok()) return engine.status();
      built = std::move(engine).value();
    }
    return std::unique_ptr<const prj::QueryEngine>(
        std::make_unique<ProbeEngine>(std::move(built), Layer::kShard,
                                      recorder));
  };
}

}  // namespace perfbench
