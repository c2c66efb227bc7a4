// Statistics and span bookkeeping for the wall-clock benchmark.
//
// Everything here is pure arithmetic over recorded steady_clock times, kept
// apart from the workload code so the rules the benchmark reports by are
// unit-tested on their own (stats_test.cc):
//   * percentiles use the nearest-rank definition, and a p90 or p99 is
//     only reported when at least ten samples lie beyond it (n >= 100,
//     n >= 1000);
//   * a span's self time is its duration minus the union of its children's
//     intervals, so overlapping children (work fanned out to executor
//     workers) are not subtracted twice;
//   * open-loop requests are timed from when they were due, and the
//     generator's own lateness (start - due) is reported beside them.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

// Fewest samples for which a p90 / p99 has ten samples beyond it.
inline constexpr std::size_t kMinSamplesForP90 = 100;
inline constexpr std::size_t kMinSamplesForP99 = 1000;

// Nearest-rank percentile (q in [0, 100]) of `samples`: the smallest value
// with at least q% of the samples at or below it. The median of an even
// count is therefore the lower middle value. Requires a non-empty input.
double Percentile(std::vector<double> samples, double q);

struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  std::optional<double> p90;  // set only when n >= kMinSamplesForP90
  std::optional<double> p99;  // set only when n >= kMinSamplesForP99
  double max = 0.0;
};

// Empty input gives n == 0 and zeros.
Summary Summarize(const std::vector<double>& samples);

// --- spans ------------------------------------------------------------------

struct Span {
  std::uint32_t name = 0;  // index into the caller's name table
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// Self time of every span: its duration minus the part of [start, end) that
// the union of its direct children covers (children clipped to the parent).
std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans);

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// In-memory span recorder for the benchmark's main thread. Spans are
// appended at Begin and closed at End; nothing is written until the caller
// exports them.
class SpanLog {
 public:
  std::int32_t Begin(std::uint32_t name, std::int32_t parent = -1) {
    spans_.push_back(Span{name, parent, NowNs(), 0});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void End(std::int32_t index) { spans_[static_cast<std::size_t>(index)].end_ns = NowNs(); }
  const std::vector<Span>& spans() const { return spans_; }
  void Clear() { spans_.clear(); }

 private:
  std::vector<Span> spans_;
};

// Sum of self time per name (indexed by Span::name, sized `names`).
std::vector<std::int64_t> SelfTimeByName(const std::vector<Span>& spans, std::size_t names);

// --- open loop ----------------------------------------------------------------

struct OpenLoopSample {
  std::int64_t due_ns = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// Latency of an open-loop request: from when it was due to when it ended.
inline double LatencyMs(const OpenLoopSample& s) {
  return static_cast<double>(s.end_ns - s.due_ns) / 1e6;
}

struct OpenLoopSummary {
  Summary latency_ms;   // end - due
  Summary lateness_ms;  // max(0, start - due): how late the generator ran
  double miss_frac = 0.0;  // share with latency above the deadline
};

OpenLoopSummary SummarizeOpenLoop(const std::vector<OpenLoopSample>& samples,
                                  double deadline_ms);

}  // namespace perfbench
