#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace perfbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("Percentile of no samples");
  const std::size_t n = samples.size();
  const double rank = std::ceil(q / 100.0 * static_cast<double>(n));
  const std::size_t index =
      std::min(n - 1, static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

Summary Summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  if (s.n == 0) return s;
  s.p50 = Percentile(samples, 50.0);
  if (s.n >= kMinSamplesForP90) s.p90 = Percentile(samples, 90.0);
  if (s.n >= kMinSamplesForP99) s.p99 = Percentile(samples, 99.0);
  s.max = *std::max_element(samples.begin(), samples.end());
  return s;
}

std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    if (p >= spans.size()) throw std::out_of_range("span parent out of range");
    const std::int64_t lo = std::max(s.start_ns, spans[p].start_ns);
    const std::int64_t hi = std::min(s.end_ns, spans[p].end_ns);
    if (hi > lo) children[p].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = std::max<std::int64_t>(0, spans[i].end_ns - spans[i].start_ns - covered);
  }
  return self;
}

std::vector<std::int64_t> SelfTimeByName(const std::vector<Span>& spans, std::size_t names) {
  std::vector<std::int64_t> by_name(names, 0);
  const std::vector<std::int64_t> self = SelfTimes(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) by_name.at(spans[i].name) += self[i];
  return by_name;
}

OpenLoopSummary SummarizeOpenLoop(const std::vector<OpenLoopSample>& samples,
                                  double deadline_ms) {
  std::vector<double> latency;
  std::vector<double> lateness;
  latency.reserve(samples.size());
  lateness.reserve(samples.size());
  std::size_t missed = 0;
  for (const OpenLoopSample& s : samples) {
    const double ms = LatencyMs(s);
    latency.push_back(ms);
    lateness.push_back(static_cast<double>(std::max<std::int64_t>(0, s.start_ns - s.due_ns)) /
                       1e6);
    if (ms > deadline_ms) ++missed;
  }
  OpenLoopSummary out;
  out.latency_ms = Summarize(latency);
  out.lateness_ms = Summarize(lateness);
  out.miss_frac =
      samples.empty() ? 0.0 : static_cast<double>(missed) / static_cast<double>(samples.size());
  return out;
}

}  // namespace perfbench
