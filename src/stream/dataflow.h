// Event-time dataflow over the message log — the Flink-shaped half of the
// big-data substrate. Push-based pipelines of stages (map, filter, keyed
// window aggregation, sink) driven by watermarks with configurable
// out-of-orderness and allowed lateness, plus checkpoint/restore of all
// operator state so a pipeline can resume after simulated failure.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/serialize.h"
#include "common/status.h"
#include "trace/tracer.h"

namespace arbd::stream {

// The typed event the dataflow layer works on. Scenario code serializes
// richer structs into Record payloads; the analytics pipelines operate on
// this (key, attribute, value, time) shape, which covers every aggregate
// the paper's use cases need (vitals, purchases, speeds, gaze dwell…).
struct Event {
  std::string key;        // entity: user / vehicle / patient / product id
  std::string attribute;  // which metric this sample is ("heart_rate", …)
  double value = 0.0;
  TimePoint event_time;
  // Causal-tracing header. In-memory only — Encode/Decode ignore it, so
  // serialized bytes (and every digest built on them) are identical with
  // tracing on or off. Stage functions that copy their input event
  // preserve the chain; ones that build a fresh Event end the trace.
  trace::SpanContext trace_ctx;

  Bytes Encode() const;
  static Expected<Event> Decode(const Bytes& buf);
  // Zero-copy form: decode straight out of a polled RecordBatch's payload
  // slice (payload_data/payload_size) without materializing an
  // intermediate Bytes copy. Identical parse to Decode(Bytes).
  static Expected<Event> Decode(const std::uint8_t* data, std::size_t size);
};

struct WindowSpec {
  enum class Kind { kTumbling, kSliding, kSession };
  Kind kind = Kind::kTumbling;
  Duration size = Duration::Seconds(1);
  Duration slide = Duration::Seconds(1);  // sliding only
  Duration gap = Duration::Seconds(1);    // session only

  static WindowSpec Tumbling(Duration size);
  static WindowSpec Sliding(Duration size, Duration slide);
  static WindowSpec Session(Duration gap);
};

enum class AggKind { kCount, kSum, kMean, kMin, kMax };

struct WindowResult {
  std::string key;
  std::string attribute;
  TimePoint window_start;
  TimePoint window_end;
  double value = 0.0;
  std::uint64_t count = 0;
};

class Pipeline;

// Execution context handed to stages: lets a stage push an event to its
// downstream neighbour and surface window results to pipeline sinks.
class StageContext {
 public:
  virtual ~StageContext() = default;
  virtual void Emit(Event event) = 0;
  virtual void EmitResult(WindowResult result) = 0;
};

class Stage {
 public:
  virtual ~Stage() = default;
  virtual void Process(const Event& event, StageContext& ctx) = 0;
  // Watermark advanced to `wm`: fire any windows that are now complete.
  virtual void OnWatermark(TimePoint wm, StageContext& ctx) { (void)wm; (void)ctx; }
  // Operator-state snapshot for checkpointing. Stateless stages write nothing.
  virtual void SaveState(BinaryWriter& w) const { (void)w; }
  virtual Status LoadState(BinaryReader& r) { (void)r; return Status::Ok(); }
};

// Keyed windowed aggregation with event-time semantics. State per
// (key, window): running aggregate. A window fires when the watermark
// passes window_end + allowed_lateness; events older than the watermark
// minus lateness are counted as dropped-late.
class WindowAggregateStage final : public Stage {
 public:
  WindowAggregateStage(WindowSpec spec, AggKind agg, Duration allowed_lateness = Duration::Zero());

  void Process(const Event& event, StageContext& ctx) override;
  void OnWatermark(TimePoint wm, StageContext& ctx) override;
  void SaveState(BinaryWriter& w) const override;
  Status LoadState(BinaryReader& r) override;

  std::uint64_t late_dropped() const { return late_dropped_; }
  std::size_t open_windows() const { return windows_.size(); }

 private:
  struct Accum {
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::uint64_t count = 0;
    void Add(double v);
    double Result(AggKind k) const;
  };

  // Hot-path memo for tumbling windows: consecutive events often hit the
  // same (key, attribute, window) — a sensor's samples arrive in runs —
  // so the last resolved accumulator is cached and re-validated with one
  // key compare instead of a map lookup per event. Pure lookup
  // memoization — the adds hit the same accumulator in the same order, so
  // results (including float bit patterns) are identical with the memo hit
  // or miss. std::map pointers are stable under insert; OnWatermark/
  // LoadState erase entries and must invalidate the memo.
  struct Memo {
    Accum* slot = nullptr;  // null = invalid
    std::string key;
    std::string attribute;
    std::int64_t start_ns = 0;
  };
  struct WindowKey {
    std::string key;
    std::string attribute;
    std::int64_t start_ns;
    std::int64_t end_ns;
    auto operator<=>(const WindowKey&) const = default;
  };

  std::vector<std::pair<TimePoint, TimePoint>> WindowsFor(TimePoint t) const;
  void AssignSession(const Event& e);
  // Accumulator for a window, created if absent; lowers next_fire_ns_.
  Accum& OpenWindow(WindowKey wk);

  WindowSpec spec_;
  AggKind agg_;
  Duration lateness_;
  std::map<WindowKey, Accum> windows_;
  // Lower bound on the smallest end_ns in windows_ (kNoWindow when there
  // is none): OnWatermark walks the map only once that window can fire,
  // so a watermark advance with nothing due costs O(1), not O(open
  // windows). Invariant: never above the true minimum. Creating a window
  // lowers it; a firing walk resets it to the survivors' minimum. Erasing
  // without a walk (a session merge) may leave it low, and a stale low
  // value only costs one walk that fires nothing and tightens it.
  static constexpr std::int64_t kNoWindow = std::numeric_limits<std::int64_t>::max();
  std::int64_t next_fire_ns_ = kNoWindow;
  Memo memo_;
  TimePoint last_watermark_ = TimePoint::Min();
  std::uint64_t late_dropped_ = 0;
};

// A linear pipeline of stages fed from user code or a consumer loop.
// Watermarks are generated as (max event time seen − max_out_of_orderness)
// and propagated through every stage.
class Pipeline final : public StageContext {
 public:
  explicit Pipeline(Duration max_out_of_orderness = Duration::Zero());

  Pipeline& Map(std::function<Event(const Event&)> fn);
  Pipeline& Filter(std::function<bool(const Event&)> pred);
  // Rekey/rename: convenience map that preserves the value.
  Pipeline& KeyBy(std::function<std::string(const Event&)> key_fn);
  Pipeline& WindowAggregate(WindowSpec spec, AggKind agg,
                            Duration allowed_lateness = Duration::Zero());
  Pipeline& Sink(std::function<void(const WindowResult&)> sink);
  Pipeline& EventSink(std::function<void(const Event&)> sink);

  // Feed one event; advances the watermark and may fire windows. If a
  // bounded inbox is active and has queued events, the event joins the
  // queue instead (FIFO with Offer) and is processed by DrainPending.
  void Push(const Event& event);
  // Force all remaining windows closed (end of stream).
  void Flush();

  // Bounded stage hand-off: with an input budget set (0 disables), Offer
  // enqueues into a bounded inbox instead of processing inline, returning
  // kResourceExhausted when the inbox is full. The feeding loop reads
  // input_credit() before fetching from the broker (credit-based
  // backpressure) and calls DrainPending to process queued events.
  void set_input_budget(std::size_t budget) { input_budget_ = budget; }
  std::size_t input_budget() const { return input_budget_; }
  std::size_t input_credit() const {
    return input_budget_ == 0 ? static_cast<std::size_t>(-1)
                              : input_budget_ - std::min(input_budget_, pending_.size());
  }
  Status Offer(Event event);
  // Process up to `max_events` queued events; returns events processed.
  std::size_t DrainPending(std::size_t max_events);
  std::size_t pending() const { return pending_.size(); }

  // Optional tracing hook (not owned). When set and enabled, every stage
  // invocation on an event with a valid context records a
  // "pipeline.s<i>.<kind>" span and chains the child context into the
  // stage's emitted events.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

  TimePoint watermark() const { return watermark_; }
  std::uint64_t events_in() const { return events_in_; }
  std::uint64_t results_out() const { return results_out_; }

  // Snapshot/restore all operator state + watermark (E4/E12 failure tests).
  Bytes Checkpoint() const;
  Status Restore(const Bytes& snapshot);

  // Total late-dropped events across window stages.
  std::uint64_t late_dropped() const;

 private:
  // StageContext for the stage currently executing at index `cursor_`.
  void Emit(Event event) override;
  void EmitResult(WindowResult result) override;
  // Push minus the inbox-ordering check: processes the event right now.
  // DrainPending pops from pending_ and calls this (calling Push would
  // re-enqueue forever).
  void PushNow(const Event& event);
  void RunFrom(std::size_t index, const Event& event);
  void PropagateWatermark(TimePoint wm);

  struct FnStage;
  // Span name for stage `index`, recorded on traced events; returns the
  // updated event context. No-op passthrough when tracing is off.
  trace::SpanContext TraceStage(std::size_t index, const Event& event) const;

  Duration max_ooo_;
  std::vector<std::unique_ptr<Stage>> stages_;
  std::vector<std::string> stage_span_names_;  // parallel to stages_
  trace::Tracer* tracer_ = nullptr;
  std::vector<WindowAggregateStage*> window_stages_;
  std::vector<std::function<void(const WindowResult&)>> sinks_;
  std::vector<std::function<void(const Event&)>> event_sinks_;
  TimePoint max_event_time_ = TimePoint::Min();
  TimePoint watermark_ = TimePoint::Min();
  std::size_t cursor_ = 0;
  std::uint64_t events_in_ = 0;
  std::uint64_t results_out_ = 0;
  std::size_t input_budget_ = 0;
  std::deque<Event> pending_;
};

}  // namespace arbd::stream
