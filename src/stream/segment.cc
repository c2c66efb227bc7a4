#include "stream/segment.h"

#include <algorithm>
#include <atomic>
#include <limits>

#include "common/runtime.h"

namespace arbd::stream {

namespace {

// -1 = no override: the process default applies.
std::atomic<long long> g_segment_bytes_override{-1};

}  // namespace

std::size_t DefaultSegmentBytes() {
  const long long bytes = g_segment_bytes_override.load(std::memory_order_relaxed);
  return bytes < 0 ? RuntimeConfig::Process().segment_bytes : static_cast<std::size_t>(bytes);
}

void SetSegmentBytesTarget(std::size_t bytes) {
  g_segment_bytes_override.store(static_cast<long long>(bytes), std::memory_order_relaxed);
}

Segment::Segment(Offset base_offset, RecordBatch rows)
    : base_(base_offset), data_(std::move(rows)) {
  data_.set_base_offset(base_);
  const std::size_t n = data_.size();
  blocks_.reserve((n + kSegmentBlockRows - 1) / kSegmentBlockRows);
  min_event_ns_ = std::numeric_limits<std::int64_t>::max();
  max_event_ns_ = std::numeric_limits<std::int64_t>::min();
  max_ingest_ns_ = std::numeric_limits<std::int64_t>::min();
  const std::int64_t* event_ns = data_.event_ns_data();
  const std::int64_t* ingest_ns = data_.ingest_ns_data();
  for (std::size_t at = 0; at < n; at += kSegmentBlockRows) {
    SegmentBlock blk;
    blk.first_row = static_cast<std::uint32_t>(at);
    blk.rows = static_cast<std::uint32_t>(std::min(kSegmentBlockRows, n - at));
    blk.min_event_ns = std::numeric_limits<std::int64_t>::max();
    blk.max_event_ns = std::numeric_limits<std::int64_t>::min();
    for (std::size_t i = at; i < at + blk.rows; ++i) {
      blk.min_event_ns = std::min(blk.min_event_ns, event_ns[i]);
      blk.max_event_ns = std::max(blk.max_event_ns, event_ns[i]);
      max_ingest_ns_ = std::max(max_ingest_ns_, ingest_ns[i]);
    }
    min_event_ns_ = std::min(min_event_ns_, blk.min_event_ns);
    max_event_ns_ = std::max(max_event_ns_, blk.max_event_ns);
    blocks_.push_back(blk);
  }
}

std::size_t Segment::LowerBoundEventRow(TimePoint t, std::size_t from_row) const {
  const std::int64_t t_ns = t.nanos();
  const std::int64_t* event_ns = data_.event_ns_data();
  for (std::size_t b = from_row / kSegmentBlockRows; b < blocks_.size(); ++b) {
    const SegmentBlock& blk = blocks_[b];
    if (blk.max_event_ns < t_ns) continue;  // no qualifying row in here
    const std::size_t lo = std::max<std::size_t>(blk.first_row, from_row);
    const std::size_t hi = blk.first_row + blk.rows;
    for (std::size_t i = lo; i < hi; ++i) {
      if (event_ns[i] >= t_ns) return i;
    }
  }
  return rows();
}

}  // namespace arbd::stream
