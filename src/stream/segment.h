// Sealed immutable log segments — the storage tier of the segmented
// partition (ISSUE 8). A Partition is an active head RecordBatch plus a
// run of sealed Segments; once a segment is sealed its rows never change,
// which is what makes the historical read path cheap: queries hold the
// partition lock only long enough to snapshot shared_ptrs to the sealed
// run, then read rows straight from the immutable segment columns
// lock-free (stream/query.h) while the tail keeps appending. The columns
// are already resident, so there is no second, row-shaped copy to cache.
//
// Indexes carried by every sealed segment, built once at seal time:
//   - offset index: offsets are dense, so the index is the pair
//     (base_offset, block table) — row = offset - base_offset in O(1),
//     block = row / kSegmentBlockRows. "Sparse" in the Kafka sense: one
//     index entry per block of rows, not one per record.
//   - time index: per block, the min/max *event* time of its rows (event
//     times need not be monotone, so both bounds are kept), plus
//     segment-level min/max for whole-segment pruning. QueryTime and
//     SeekToTimestamp prune segments and blocks against these bounds and
//     only examine rows inside surviving blocks.
//
// Gating: segmentation is enabled per topic by TopicConfig::segment_bytes
// (the target sealed-segment size in key+payload bytes; 0 = off). With it
// off the partition never seals — a single active batch, byte-identical to
// the pre-segment store — and with it on, the differential suites
// (storage_segment_test, storage_soak_test, bench_storage E25) prove
// every fetch result, fault draw, and scenario/committed digest is
// bit-identical to the flat layout. See docs/storage.md.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "stream/batch.h"
#include "stream/record.h"

namespace arbd::stream {

// The seal target a TopicConfig starts with: RuntimeConfig::segment_bytes
// of the process, unless overridden below.
std::size_t DefaultSegmentBytes();
// Overrides DefaultSegmentBytes for topic configs built after the call.
// Topics that already exist keep the target they were created with.
void SetSegmentBytesTarget(std::size_t bytes);

// Rows per index block. Small enough that a point query touches little
// beyond its answer, large enough that the block table stays ~2% of the
// row count ("sparse").
inline constexpr std::size_t kSegmentBlockRows = 64;

// One sparse-index entry: a block of up to kSegmentBlockRows consecutive
// rows and the event-time bounds of exactly those rows.
struct SegmentBlock {
  std::uint32_t first_row = 0;
  std::uint32_t rows = 0;
  std::int64_t min_event_ns = 0;
  std::int64_t max_event_ns = 0;
};

// An immutable sealed segment: rows [base_offset, base_offset + rows())
// of one partition, plus the indexes above. Thread-safe by immutability —
// every member is const after construction.
class Segment {
 public:
  // Seals `rows` (which must be non-empty) as offsets starting at
  // `base_offset`.
  Segment(Offset base_offset, RecordBatch rows);

  Offset base_offset() const { return base_; }
  Offset end_offset() const { return base_ + static_cast<Offset>(data_.size()); }
  std::size_t rows() const { return data_.size(); }
  // Key+payload bytes — the unit topic byte budgets meter.
  std::size_t bytes() const { return data_.byte_size(); }
  const RecordBatch& data() const { return data_; }

  TimePoint min_event_time() const { return TimePoint::FromNanos(min_event_ns_); }
  TimePoint max_event_time() const { return TimePoint::FromNanos(max_event_ns_); }
  // Newest ingest timestamp in the segment: when this is older than the
  // retention cutoff, the whole segment is droppable in one step.
  TimePoint max_ingest_time() const { return TimePoint::FromNanos(max_ingest_ns_); }

  const std::vector<SegmentBlock>& blocks() const { return blocks_; }
  std::size_t block_count() const { return blocks_.size(); }
  std::size_t block_of_row(std::size_t row) const { return row / kSegmentBlockRows; }

  // Time-index probe: the first row at/after `from_row` whose event time
  // is >= t, or rows() if none. Prunes whole blocks by max_event before
  // scanning rows inside the first surviving block.
  std::size_t LowerBoundEventRow(TimePoint t, std::size_t from_row = 0) const;

 private:
  Offset base_;
  RecordBatch data_;
  std::vector<SegmentBlock> blocks_;
  std::int64_t min_event_ns_;
  std::int64_t max_event_ns_;
  std::int64_t max_ingest_ns_;
};

// What a query sees of a partition at one instant: shared ownership of
// the sealed run (immutable, scanned lock-free) plus a copy of the live
// active rows in the requested window (Partition::Snapshot). `log_start`
// matters because the oldest sealed segment may carry a truncated-away
// dead prefix — rows below log_start exist in the segment but must not be
// served.
struct PartitionSnapshot {
  std::vector<std::shared_ptr<const Segment>> sealed;
  RecordBatch active;  // base_offset() = absolute offset of its row 0
  Offset log_start = 0;
  Offset end = 0;
};

}  // namespace arbd::stream
