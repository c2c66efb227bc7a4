#include "stream/dataflow.h"

#include <algorithm>
#include <limits>

#include "exec/executor.h"

namespace arbd::stream {

Bytes Event::Encode() const {
  BinaryWriter w;
  w.WriteString(key);
  w.WriteString(attribute);
  w.WriteF64(value);
  w.WriteI64(event_time.nanos());
  return w.Take();
}

Expected<Event> Event::Decode(const Bytes& buf) {
  return Decode(buf.data(), buf.size());
}

Expected<Event> Event::Decode(const std::uint8_t* data, std::size_t size) {
  BinaryReader r(data, size);
  Event e;
  auto key = r.ReadString();
  if (!key.ok()) return key.status();
  e.key = std::move(*key);
  auto attr = r.ReadString();
  if (!attr.ok()) return attr.status();
  e.attribute = std::move(*attr);
  auto v = r.ReadF64();
  if (!v.ok()) return v.status();
  e.value = *v;
  auto t = r.ReadI64();
  if (!t.ok()) return t.status();
  e.event_time = TimePoint::FromNanos(*t);
  return e;
}

WindowSpec WindowSpec::Tumbling(Duration size) {
  WindowSpec s;
  s.kind = Kind::kTumbling;
  s.size = size;
  return s;
}

WindowSpec WindowSpec::Sliding(Duration size, Duration slide) {
  WindowSpec s;
  s.kind = Kind::kSliding;
  s.size = size;
  s.slide = slide;
  return s;
}

WindowSpec WindowSpec::Session(Duration gap) {
  WindowSpec s;
  s.kind = Kind::kSession;
  s.gap = gap;
  return s;
}

void WindowAggregateStage::Accum::Add(double v) {
  if (count == 0) {
    min = v;
    max = v;
  } else {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  sum += v;
  ++count;
}

double WindowAggregateStage::Accum::Result(AggKind k) const {
  switch (k) {
    case AggKind::kCount: return static_cast<double>(count);
    case AggKind::kSum: return sum;
    case AggKind::kMean: return count ? sum / static_cast<double>(count) : 0.0;
    case AggKind::kMin: return min;
    case AggKind::kMax: return max;
  }
  return 0.0;
}

WindowAggregateStage::WindowAggregateStage(WindowSpec spec, AggKind agg,
                                           Duration allowed_lateness)
    : spec_(spec), agg_(agg), lateness_(allowed_lateness) {
  ARBD_CHECK(spec_.size > Duration::Zero() || spec_.kind == WindowSpec::Kind::kSession,
             "window size must be positive");
}

std::vector<std::pair<TimePoint, TimePoint>> WindowAggregateStage::WindowsFor(
    TimePoint t) const {
  std::vector<std::pair<TimePoint, TimePoint>> out;
  const std::int64_t ns = t.nanos();
  if (spec_.kind == WindowSpec::Kind::kTumbling) {
    const std::int64_t size = spec_.size.nanos();
    const std::int64_t start = (ns / size) * size - (ns < 0 && ns % size != 0 ? size : 0);
    out.emplace_back(TimePoint::FromNanos(start), TimePoint::FromNanos(start + size));
  } else if (spec_.kind == WindowSpec::Kind::kSliding) {
    const std::int64_t size = spec_.size.nanos();
    const std::int64_t slide = spec_.slide.nanos();
    // All windows [s, s+size) with s = k*slide containing t: walk back
    // from the latest window start at or before t.
    std::int64_t last = (ns / slide) * slide;
    if (ns < 0 && ns % slide != 0) last -= slide;
    for (std::int64_t s = last; s > ns - size; s -= slide) {
      out.emplace_back(TimePoint::FromNanos(s), TimePoint::FromNanos(s + size));
    }
  }
  return out;
}

void WindowAggregateStage::AssignSession(const Event& e) {
  const std::int64_t gap = spec_.gap.nanos();
  std::int64_t start = e.event_time.nanos();
  std::int64_t end = start + gap;
  Accum acc;
  acc.Add(e.value);

  // Merge with every existing session window for this (key, attribute)
  // that overlaps the new [start, end) interval. Those windows form one
  // contiguous run of the map, visited in map order.
  constexpr std::int64_t kLowest = std::numeric_limits<std::int64_t>::min();
  for (auto it = windows_.lower_bound(WindowKey{e.key, e.attribute, kLowest, kLowest});
       it != windows_.end() && it->first.key == e.key && it->first.attribute == e.attribute;) {
    const WindowKey& wk = it->first;
    if (wk.start_ns <= end && start <= wk.end_ns) {
      start = std::min(start, wk.start_ns);
      end = std::max(end, wk.end_ns);
      acc.sum += it->second.sum;
      acc.min = acc.count ? std::min(acc.min, it->second.min) : it->second.min;
      acc.max = acc.count ? std::max(acc.max, it->second.max) : it->second.max;
      acc.count += it->second.count;
      it = windows_.erase(it);
    } else {
      ++it;
    }
  }
  OpenWindow(WindowKey{e.key, e.attribute, start, end}) = acc;
}

WindowAggregateStage::Accum& WindowAggregateStage::OpenWindow(WindowKey wk) {
  next_fire_ns_ = std::min(next_fire_ns_, wk.end_ns);
  return windows_[std::move(wk)];
}

void WindowAggregateStage::Process(const Event& event, StageContext& ctx) {
  (void)ctx;
  if (last_watermark_ > TimePoint::Min() &&
      event.event_time < last_watermark_ - lateness_) {
    ++late_dropped_;
    return;
  }
  if (spec_.kind == WindowSpec::Kind::kSession) {
    AssignSession(event);
    return;
  }
  if (spec_.kind == WindowSpec::Kind::kTumbling) {
    // Same start arithmetic as WindowsFor's tumbling branch; tumbling
    // events land in exactly one window, so the last accumulator can be
    // revalidated with a key compare instead of a map lookup. The memo is
    // a pure lookup cache: hit or miss, the same Accum sees the same Add
    // in the same order.
    const std::int64_t ns = event.event_time.nanos();
    const std::int64_t size = spec_.size.nanos();
    const std::int64_t start = (ns / size) * size - (ns < 0 && ns % size != 0 ? size : 0);
    if (memo_.slot != nullptr && memo_.start_ns == start && memo_.key == event.key &&
        memo_.attribute == event.attribute) {
      memo_.slot->Add(event.value);
      return;
    }
    Accum& acc = OpenWindow(WindowKey{event.key, event.attribute, start, start + size});
    acc.Add(event.value);
    memo_.slot = &acc;
    memo_.key = event.key;
    memo_.attribute = event.attribute;
    memo_.start_ns = start;
    return;
  }
  for (const auto& [ws, we] : WindowsFor(event.event_time)) {
    OpenWindow(WindowKey{event.key, event.attribute, ws.nanos(), we.nanos()}).Add(event.value);
  }
}

void WindowAggregateStage::OnWatermark(TimePoint wm, StageContext& ctx) {
  last_watermark_ = std::max(last_watermark_, wm);
  // Nothing is due before the earliest window end. The empty sentinel is
  // tested before the lateness is added so the sum cannot overflow.
  if (next_fire_ns_ == kNoWindow ||
      TimePoint::FromNanos(next_fire_ns_) + lateness_ > wm) {
    return;
  }
  next_fire_ns_ = kNoWindow;
  for (auto it = windows_.begin(); it != windows_.end();) {
    const WindowKey& wk = it->first;
    // Session windows end `gap` after the last event; the stored end is the
    // fire time in both cases.
    if (TimePoint::FromNanos(wk.end_ns) + lateness_ <= wm) {
      WindowResult r;
      r.key = wk.key;
      r.attribute = wk.attribute;
      r.window_start = TimePoint::FromNanos(wk.start_ns);
      r.window_end = TimePoint::FromNanos(wk.end_ns);
      r.value = it->second.Result(agg_);
      r.count = it->second.count;
      // The memo may point at the entry being erased.
      memo_.slot = nullptr;
      it = windows_.erase(it);
      ctx.EmitResult(std::move(r));
    } else {
      next_fire_ns_ = std::min(next_fire_ns_, wk.end_ns);
      ++it;
    }
  }
}

void WindowAggregateStage::SaveState(BinaryWriter& w) const {
  w.WriteU64(late_dropped_);
  w.WriteI64(last_watermark_.nanos());
  w.WriteU64(windows_.size());
  for (const auto& [wk, acc] : windows_) {
    w.WriteString(wk.key);
    w.WriteString(wk.attribute);
    w.WriteI64(wk.start_ns);
    w.WriteI64(wk.end_ns);
    w.WriteF64(acc.sum);
    w.WriteF64(acc.min);
    w.WriteF64(acc.max);
    w.WriteU64(acc.count);
  }
}

Status WindowAggregateStage::LoadState(BinaryReader& r) {
  memo_.slot = nullptr;
  windows_.clear();
  next_fire_ns_ = kNoWindow;
  auto late = r.ReadU64();
  if (!late.ok()) return late.status();
  late_dropped_ = *late;
  auto wm = r.ReadI64();
  if (!wm.ok()) return wm.status();
  last_watermark_ = TimePoint::FromNanos(*wm);
  auto n = r.ReadU64();
  if (!n.ok()) return n.status();
  for (std::uint64_t i = 0; i < *n; ++i) {
    WindowKey wk{};
    Accum acc;
    auto key = r.ReadString();
    if (!key.ok()) return key.status();
    wk.key = std::move(*key);
    auto attr = r.ReadString();
    if (!attr.ok()) return attr.status();
    wk.attribute = std::move(*attr);
    auto s = r.ReadI64();
    if (!s.ok()) return s.status();
    wk.start_ns = *s;
    auto e = r.ReadI64();
    if (!e.ok()) return e.status();
    wk.end_ns = *e;
    auto sum = r.ReadF64();
    if (!sum.ok()) return sum.status();
    acc.sum = *sum;
    auto mn = r.ReadF64();
    if (!mn.ok()) return mn.status();
    acc.min = *mn;
    auto mx = r.ReadF64();
    if (!mx.ok()) return mx.status();
    acc.max = *mx;
    auto c = r.ReadU64();
    if (!c.ok()) return c.status();
    acc.count = *c;
    OpenWindow(std::move(wk)) = acc;
  }
  return Status::Ok();
}

// Stateless function stages (map / filter / keyBy).
struct Pipeline::FnStage final : Stage {
  enum class Kind { kMap, kFilter } kind;
  std::function<Event(const Event&)> map;
  std::function<bool(const Event&)> filter;

  void Process(const Event& event, StageContext& ctx) override {
    if (kind == Kind::kMap) {
      ctx.Emit(map(event));
    } else if (filter(event)) {
      ctx.Emit(event);
    }
  }
};

Pipeline::Pipeline(Duration max_out_of_orderness) : max_ooo_(max_out_of_orderness) {}

Pipeline& Pipeline::Map(std::function<Event(const Event&)> fn) {
  auto s = std::make_unique<FnStage>();
  s->kind = FnStage::Kind::kMap;
  s->map = std::move(fn);
  stage_span_names_.push_back("pipeline.s" + std::to_string(stages_.size()) + ".map");
  stages_.push_back(std::move(s));
  return *this;
}

Pipeline& Pipeline::Filter(std::function<bool(const Event&)> pred) {
  auto s = std::make_unique<FnStage>();
  s->kind = FnStage::Kind::kFilter;
  s->filter = std::move(pred);
  stage_span_names_.push_back("pipeline.s" + std::to_string(stages_.size()) + ".filter");
  stages_.push_back(std::move(s));
  return *this;
}

Pipeline& Pipeline::KeyBy(std::function<std::string(const Event&)> key_fn) {
  return Map([key_fn = std::move(key_fn)](const Event& e) {
    Event out = e;
    out.key = key_fn(e);
    return out;
  });
}

Pipeline& Pipeline::WindowAggregate(WindowSpec spec, AggKind agg, Duration allowed_lateness) {
  auto s = std::make_unique<WindowAggregateStage>(spec, agg, allowed_lateness);
  window_stages_.push_back(s.get());
  stage_span_names_.push_back("pipeline.s" + std::to_string(stages_.size()) + ".window");
  stages_.push_back(std::move(s));
  return *this;
}

Pipeline& Pipeline::Sink(std::function<void(const WindowResult&)> sink) {
  sinks_.push_back(std::move(sink));
  return *this;
}

Pipeline& Pipeline::EventSink(std::function<void(const Event&)> sink) {
  event_sinks_.push_back(std::move(sink));
  return *this;
}

void Pipeline::Push(const Event& event) {
  // With a bounded inbox in play, a direct Push while earlier events are
  // still queued must not jump the line: that would reorder this event
  // ahead of Offer()ed ones and corrupt event-time bookkeeping for
  // sessions/lateness. Enqueue behind them; DrainPending preserves
  // arrival order. Unbudgeted pipelines keep the inline fast path.
  if (input_budget_ != 0 && !pending_.empty()) {
    pending_.push_back(event);
    return;
  }
  PushNow(event);
}

void Pipeline::PushNow(const Event& event) {
  ++events_in_;
  max_event_time_ = std::max(max_event_time_, event.event_time);
  RunFrom(0, event);
  const TimePoint wm = max_event_time_ - max_ooo_;
  if (wm > watermark_) PropagateWatermark(wm);
}

void Pipeline::Flush() {
  DrainPending(static_cast<std::size_t>(-1));
  PropagateWatermark(TimePoint::Max());
}

Status Pipeline::Offer(Event event) {
  if (input_budget_ == 0) {
    Push(event);
    return Status::Ok();
  }
  if (pending_.size() >= input_budget_) {
    return Status::ResourceExhausted("pipeline inbox full (" +
                                     std::to_string(input_budget_) + " events)");
  }
  pending_.push_back(std::move(event));
  return Status::Ok();
}

std::size_t Pipeline::DrainPending(std::size_t max_events) {
  std::size_t processed = 0;
  while (processed < max_events && !pending_.empty()) {
    Event e = std::move(pending_.front());
    pending_.pop_front();
    PushNow(e);
    ++processed;
  }
  return processed;
}

// Modeled per-stage cost on the causal-trace time axis.
constexpr Duration kStageCost = Duration::Micros(2);

trace::SpanContext Pipeline::TraceStage(std::size_t index, const Event& event) const {
  // Salted by key hash + event time: within one trace, events sharing a
  // parent context stay distinguishable through the same stage.
  return tracer_->Record(stage_span_names_[index], event.trace_ctx, kStageCost, {},
                         Fnv1a(event.key) ^ static_cast<std::uint64_t>(event.event_time.nanos()));
}

void Pipeline::RunFrom(std::size_t index, const Event& event) {
  if (index >= stages_.size()) {
    for (const auto& sink : event_sinks_) sink(event);
    return;
  }
  const std::size_t saved = cursor_;
  cursor_ = index;
  if (tracer_ != nullptr && tracer_->enabled() && event.trace_ctx.valid()) {
    Event traced = event;
    traced.trace_ctx = TraceStage(index, event);
    stages_[index]->Process(traced, *this);
  } else {
    stages_[index]->Process(event, *this);
  }
  cursor_ = saved;
}

void Pipeline::Emit(Event event) { RunFrom(cursor_ + 1, event); }

void Pipeline::EmitResult(WindowResult result) {
  ++results_out_;
  for (const auto& sink : sinks_) sink(result);
  // Continue downstream so window outputs can be further processed.
  if (cursor_ + 1 < stages_.size() || !event_sinks_.empty()) {
    Event e;
    e.key = result.key;
    e.attribute = result.attribute;
    e.value = result.value;
    e.event_time = result.window_end;
    RunFrom(cursor_ + 1, e);
  }
}

// One element of the in-band batch stream. Watermark markers travel with
// the data so every stage observes events and watermark advances in
// exactly the interleave the synchronous pump produced; results pass
// through untouched (they are delivered — and counted — at the terminal
// task so sink order and results_out_ match the serial path).
struct Pipeline::ParItem {
  enum class Kind { kEvent, kResult, kWatermark };
  Kind kind;
  Event event;
  WindowResult result;
  TimePoint wm;

  static ParItem OfEvent(Event e) {
    ParItem it;
    it.kind = Kind::kEvent;
    it.event = std::move(e);
    return it;
  }
  static ParItem OfResult(WindowResult r) {
    ParItem it;
    it.kind = Kind::kResult;
    it.result = std::move(r);
    return it;
  }
  static ParItem OfWatermark(TimePoint wm) {
    ParItem it;
    it.kind = Kind::kWatermark;
    it.wm = wm;
    return it;
  }
};

// Collecting context for one stage task: Emit/EmitResult append to the
// next stage's item list instead of recursing downstream.
class Pipeline::BatchCtx final : public StageContext {
 public:
  BatchCtx(std::size_t stage, std::size_t total_stages, bool has_event_sinks,
           std::vector<ParItem>* out)
      : stage_(stage), total_stages_(total_stages),
        has_event_sinks_(has_event_sinks), out_(out) {}

  void Emit(Event event) override { out_->push_back(ParItem::OfEvent(std::move(event))); }

  void EmitResult(WindowResult result) override {
    // Mirror the synchronous EmitResult: the result reaches the sinks
    // first (in-band, ahead of anything the derived event produces), then
    // the result continues downstream as an event if anything consumes it.
    const bool forward = stage_ + 1 < total_stages_ || has_event_sinks_;
    Event derived;
    if (forward) {
      derived.key = result.key;
      derived.attribute = result.attribute;
      derived.value = result.value;
      derived.event_time = result.window_end;
    }
    out_->push_back(ParItem::OfResult(std::move(result)));
    if (forward) out_->push_back(ParItem::OfEvent(std::move(derived)));
  }

 private:
  std::size_t stage_;
  std::size_t total_stages_;
  bool has_event_sinks_;
  std::vector<ParItem>* out_;
};

std::vector<Pipeline::ParItem> Pipeline::PlanBatch(const std::vector<Event>& batch) {
  // Source bookkeeping runs on the driver, event-for-event as Push would:
  // watermark positions are fixed here, so the item sequence every stage
  // receives is independent of scheduling.
  std::vector<ParItem> items;
  items.reserve(batch.size() * 2);
  for (const Event& e : batch) {
    ++events_in_;
    max_event_time_ = std::max(max_event_time_, e.event_time);
    items.push_back(ParItem::OfEvent(e));
    const TimePoint wm = max_event_time_ - max_ooo_;
    if (wm > watermark_) {
      watermark_ = wm;
      items.push_back(ParItem::OfWatermark(wm));
    }
  }
  return items;
}

void Pipeline::RunStageOnItems(std::size_t stage, std::vector<ParItem>& items,
                               std::vector<ParItem>& next) {
  BatchCtx ctx(stage, stages_.size(), !event_sinks_.empty(), &next);
  for (ParItem& it : items) {
    switch (it.kind) {
      case ParItem::Kind::kEvent:
        // Same traced-context handoff as RunFrom: chain the child
        // context into the event the stage sees, so serial and batch
        // executions record identical span trees.
        if (tracer_ != nullptr && tracer_->enabled() && it.event.trace_ctx.valid()) {
          it.event.trace_ctx = TraceStage(stage, it.event);
        }
        stages_[stage]->Process(it.event, ctx);
        break;
      case ParItem::Kind::kResult:
        next.push_back(std::move(it));
        break;
      case ParItem::Kind::kWatermark:
        stages_[stage]->OnWatermark(it.wm, ctx);
        next.push_back(std::move(it));
        break;
    }
  }
}

void Pipeline::DeliverTerminal(const std::vector<ParItem>& items) {
  // Terminal delivery: results and surviving events reach sinks in order.
  for (const ParItem& it : items) {
    switch (it.kind) {
      case ParItem::Kind::kEvent:
        for (const auto& sink : event_sinks_) sink(it.event);
        break;
      case ParItem::Kind::kResult:
        ++results_out_;
        for (const auto& sink : sinks_) sink(it.result);
        break;
      case ParItem::Kind::kWatermark:
        break;
    }
  }
}

void Pipeline::ProcessBatchParallel(exec::Executor& exec,
                                    const std::vector<Event>& batch,
                                    std::uint64_t shard_base) {
  auto items = std::make_shared<std::vector<ParItem>>(PlanBatch(batch));
  if (items->empty()) return;
  SubmitStage(exec, 0, shard_base, std::move(items));
}

void Pipeline::SubmitStage(exec::Executor& exec, std::size_t stage,
                           std::uint64_t shard_base,
                           std::shared_ptr<std::vector<ParItem>> items) {
  exec.Submit(shard_base + stage, [this, &exec, stage, shard_base,
                                   items = std::move(items)] {
    if (stage >= stages_.size()) {
      DeliverTerminal(*items);
      return;
    }
    auto out = std::make_shared<std::vector<ParItem>>();
    out->reserve(items->size());
    RunStageOnItems(stage, *items, *out);
    if (!out->empty()) SubmitStage(exec, stage + 1, shard_base, std::move(out));
  });
}

void Pipeline::PropagateWatermark(TimePoint wm) {
  watermark_ = std::max(watermark_, wm);
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    const std::size_t saved = cursor_;
    cursor_ = i;
    stages_[i]->OnWatermark(wm, *this);
    cursor_ = saved;
  }
}

Bytes Pipeline::Checkpoint() const {
  BinaryWriter w;
  w.WriteI64(max_event_time_.nanos());
  w.WriteI64(watermark_.nanos());
  w.WriteU64(events_in_);
  w.WriteU64(results_out_);
  w.WriteU64(stages_.size());
  for (const auto& s : stages_) {
    BinaryWriter sw;
    s->SaveState(sw);
    w.WriteBytes(sw.bytes());
  }
  return w.Take();
}

Status Pipeline::Restore(const Bytes& snapshot) {
  BinaryReader r(snapshot);
  auto met = r.ReadI64();
  if (!met.ok()) return met.status();
  auto wm = r.ReadI64();
  if (!wm.ok()) return wm.status();
  auto ein = r.ReadU64();
  if (!ein.ok()) return ein.status();
  auto rout = r.ReadU64();
  if (!rout.ok()) return rout.status();
  auto n = r.ReadU64();
  if (!n.ok()) return n.status();
  if (*n != stages_.size()) {
    return Status::FailedPrecondition(
        "checkpoint stage count mismatch: snapshot has " + std::to_string(*n) +
        ", pipeline has " + std::to_string(stages_.size()));
  }
  for (auto& s : stages_) {
    auto bytes = r.ReadBytes();
    if (!bytes.ok()) return bytes.status();
    BinaryReader sr(*bytes);
    auto st = s->LoadState(sr);
    if (!st.ok()) return st;
  }
  max_event_time_ = TimePoint::FromNanos(*met);
  watermark_ = TimePoint::FromNanos(*wm);
  events_in_ = *ein;
  results_out_ = *rout;
  return Status::Ok();
}

std::uint64_t Pipeline::late_dropped() const {
  std::uint64_t n = 0;
  for (const auto* ws : window_stages_) n += ws->late_dropped();
  return n;
}

}  // namespace arbd::stream
