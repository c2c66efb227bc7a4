// Deterministic causal tracing — the Dapper-shaped observability layer
// for the paper's timeliness axis. A trace is a tree of spans covering one
// causal unit of work (a frame, a record's journey through the stream
// stack); spans live on the *modeled* time axis, not wall time, so for a
// given {seed, workers} pair the span set is bit-identical — the same
// contract the deterministic executor gives every other observable.
//
// Design:
//   - SpanContext is the propagated header: {trace id, span id, causal
//     cursor}. The cursor is the virtual completion time of the span the
//     context names; a downstream span starts at its parent's cursor and
//     ends cursor + modeled cost. Contexts piggyback on stream::Record
//     headers through Broker produce/fetch and on stream::Event through
//     Pipeline stages.
//   - Span ids are seeded hashes of (trace, parent, name, start, salt),
//     never allocation order or thread ids, so ids are identical at every
//     worker count.
//   - Completed spans land in fixed-capacity per-thread ring shards
//     (MetricRegistry's striping discipline): no locks shared between
//     workers on the hot path, bounded memory, oldest spans overwritten
//     under overflow (counted in dropped()).
//   - Off-path: when disabled, the only cost at an instrumentation site is
//     one relaxed atomic bool load — no allocation, no locking, no time
//     math. bench_trace (E21) gates this at <1% of modeled makespan.
//
// Determinism caveat: Drain() returns spans in a canonical sort (ring
// insertion order is thread-dependent), so span *sets* — and
// SpanTreeDigest over them — are worker-count independent as long as no
// ring overflowed. Size rings above the workload's span volume when
// asserting digest equality; dropped() says whether a comparison is valid.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"

namespace arbd::trace {

using TraceId = std::uint64_t;
using SpanId = std::uint64_t;

// Propagated causal context. `at` is the virtual-time cursor: when this
// context names a completed span, `at` is that span's end time, i.e. the
// earliest instant causally-downstream work can start.
struct SpanContext {
  TraceId trace_id = 0;
  SpanId span_id = 0;   // 0 at the root: children of the root have parent 0
  TimePoint at;
  bool valid() const { return trace_id != 0; }
};

struct Tag {
  std::string key;
  std::string value;
};

struct Span {
  TraceId trace_id = 0;
  SpanId span_id = 0;
  SpanId parent_id = 0;
  std::string name;
  TimePoint start;
  TimePoint end;
  std::vector<Tag> tags;

  Duration duration() const { return end - start; }
};

struct TracerConfig {
  bool enabled = false;
  // Completed-span ring capacity per thread shard (kShards rings total).
  std::size_t ring_capacity = 16384;
  std::uint64_t seed = 0x7ace5eedULL;
};

class Tracer {
 public:
  explicit Tracer(TracerConfig cfg = {});

  // Process-wide tracer configured from RuntimeConfig::Process() (ARBD_TRACE=1
  // turns the whole platform's instrumentation on without touching call
  // sites — the "always-on with cheap off-path" discipline).
  static Tracer& Global();

  // The off-path check every instrumentation site performs first.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  std::uint64_t seed() const { return cfg_.seed; }

  // Seeded, nonzero trace id for causal unit `key` (frame index, record
  // sequence number…). Same seed + key => same id at any worker count.
  TraceId StartTrace(std::uint64_t key) const;

  // Root context for a trace starting at virtual time `at`.
  SpanContext RootContext(TraceId id, TimePoint at) const {
    return SpanContext{id, 0, at};
  }

  // Record a completed span of modeled duration `cost` starting at the
  // parent's cursor; returns the child context downstream work chains
  // from. `salt` disambiguates same-named siblings recorded under the same
  // parent at the same cursor (pass an index/offset). No-op (returns
  // `parent` unchanged) when disabled or the parent is invalid.
  SpanContext Record(const std::string& name, const SpanContext& parent, Duration cost,
                     std::vector<Tag> tags = {}, std::uint64_t salt = 0);

  // Explicit-interval variant for spans that don't start at the parent
  // cursor (frame roots recorded after their children, overlapping
  // branches). The returned context's cursor is `end`.
  SpanContext RecordAt(const std::string& name, const SpanContext& parent,
                       TimePoint start, TimePoint end, std::vector<Tag> tags = {},
                       std::uint64_t salt = 0);

  // Collect and clear every shard's completed spans, in canonical order:
  // (trace_id, start, name, span_id). Driver-only between Drains of the
  // same shard set; concurrent Record from workers is safe.
  std::vector<Span> Drain();

  std::uint64_t recorded() const { return recorded_.load(std::memory_order_relaxed); }
  // Spans overwritten by ring overflow since construction/Clear.
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  void Clear();

 private:
  static constexpr std::size_t kShards = 8;

  struct Shard {
    mutable std::mutex mu;
    std::vector<Span> ring;   // capacity-bounded, oldest overwritten
    std::size_t next = 0;     // ring cursor
    std::size_t filled = 0;   // live spans (<= capacity)
  };

  static std::size_t ThisThreadShard();
  void Push(Span span);

  TracerConfig cfg_;
  std::atomic<bool> enabled_;
  std::array<Shard, kShards> shards_;
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

// Deterministic id for a span given its causal coordinates (exposed for
// tests asserting cross-worker-count id stability).
SpanId DeriveSpanId(std::uint64_t seed, TraceId trace, SpanId parent,
                    const std::string& name, std::int64_t start_ns, std::uint64_t salt);

// FNV-1a digest over the canonical serialization of a span set (sort it
// first — Drain already does). Equal digests mean equal span trees:
// ids, parents, names, intervals, and tags all match.
std::uint64_t SpanTreeDigest(const std::vector<Span>& spans);

}  // namespace arbd::trace
