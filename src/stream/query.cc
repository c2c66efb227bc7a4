#include "stream/query.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "stream/log.h"

namespace arbd::stream {

void QueryStats::Merge(const QueryStats& o) {
  segments_considered += o.segments_considered;
  segments_pruned += o.segments_pruned;
  blocks_pruned += o.blocks_pruned;
  blocks_scanned += o.blocks_scanned;
  rows_examined += o.rows_examined;
  rows_returned += o.rows_returned;
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
}

QueryResult QueryRange(const Partition& partition, Offset lo, Offset hi) {
  // Snapshot already clamps to [log_start, end) and keeps only overlapping
  // sealed segments plus a copy of the overlapping live active rows.
  PartitionSnapshot snap = partition.Snapshot(lo, hi);
  lo = std::max(lo, snap.log_start);
  hi = std::min(hi, snap.end);
  QueryResult out;
  if (lo >= hi) return out;
  out.rows.reserve(static_cast<std::size_t>(hi - lo));
  for (const auto& seg : snap.sealed) {
    ++out.stats.segments_considered;
    // Dense offsets: the offset index is (base, block table) — the row
    // range is arithmetic, no search.
    const std::size_t r0 =
        lo > seg->base_offset() ? static_cast<std::size_t>(lo - seg->base_offset()) : 0;
    const std::size_t r1 = std::min<std::size_t>(
        seg->rows(), static_cast<std::size_t>(hi - seg->base_offset()));
    if (r0 >= r1) {
      ++out.stats.segments_pruned;
      continue;
    }
    const std::size_t b0 = seg->block_of_row(r0);
    const std::size_t b1 = seg->block_of_row(r1 - 1);
    out.stats.blocks_pruned += b0 + (seg->block_count() - 1 - b1);
    out.stats.blocks_scanned += b1 - b0 + 1;
    out.stats.rows_examined += r1 - r0;
    for (std::size_t i = r0; i < r1; ++i) {
      seg->data().MaterializeStored(i, out.rows.emplace_back());
    }
  }
  out.stats.rows_examined += snap.active.size();
  for (std::size_t i = 0; i < snap.active.size(); ++i) {
    snap.active.MaterializeStored(i, out.rows.emplace_back());
  }
  out.stats.rows_returned = out.rows.size();
  return out;
}

QueryResult QueryTime(const Partition& partition, TimePoint t_lo, TimePoint t_hi) {
  QueryResult out;
  if (t_lo >= t_hi) return out;
  // Time gives no offset bounds up front, so snapshot the whole sealed
  // run and prune it with the time indexes; the active copy is trimmed to
  // the rows between the first and the last inside the window.
  PartitionSnapshot snap =
      partition.Snapshot(0, std::numeric_limits<Offset>::max(), t_lo, t_hi);
  const std::int64_t lo_ns = t_lo.nanos();
  const std::int64_t hi_ns = t_hi.nanos();
  // Plan first, so the answer is sized once: the blocks that survive
  // pruning bound the sealed rows, the active copy the rest.
  std::vector<std::pair<const Segment*, const SegmentBlock*>> scan;
  std::size_t bound = snap.active.size();
  for (const auto& seg : snap.sealed) {
    ++out.stats.segments_considered;
    if (seg->max_event_time().nanos() < lo_ns || seg->min_event_time().nanos() >= hi_ns) {
      ++out.stats.segments_pruned;
      continue;
    }
    for (const SegmentBlock& blk : seg->blocks()) {
      if (blk.max_event_ns < lo_ns || blk.min_event_ns >= hi_ns) {
        ++out.stats.blocks_pruned;
        continue;
      }
      scan.emplace_back(seg.get(), &blk);
      bound += blk.rows;
    }
  }
  out.rows.reserve(bound);
  // Builds the rows [from, to) of `batch` whose event time is inside the
  // window, each in place at the end of the answer.
  const auto append_in_window = [&](const RecordBatch& batch, std::size_t from,
                                    std::size_t to) {
    const std::int64_t* event_ns = batch.event_ns_data();
    for (std::size_t i = from; i < to; ++i) {
      if (event_ns[i] < lo_ns || event_ns[i] >= hi_ns) continue;
      batch.MaterializeStored(i, out.rows.emplace_back());
    }
  };
  for (const auto& [seg, blk] : scan) {
    ++out.stats.blocks_scanned;
    out.stats.rows_examined += blk->rows;
    // Rows below log_start are the truncated-away prefix of the front
    // segment.
    const std::size_t live_from =
        snap.log_start > seg->base_offset()
            ? static_cast<std::size_t>(snap.log_start - seg->base_offset())
            : 0;
    append_in_window(seg->data(), std::max<std::size_t>(blk->first_row, live_from),
                     blk->first_row + blk->rows);
  }
  out.stats.rows_examined += snap.active.size();
  append_in_window(snap.active, 0, snap.active.size());
  out.stats.rows_returned = out.rows.size();
  return out;
}

Offset OffsetForTimestamp(const Partition& partition, TimePoint t) {
  PartitionSnapshot snap =
      partition.Snapshot(0, std::numeric_limits<Offset>::max());
  for (const auto& seg : snap.sealed) {
    if (seg->max_event_time() < t) continue;  // whole-segment time prune
    const std::size_t from_row =
        snap.log_start > seg->base_offset()
            ? static_cast<std::size_t>(snap.log_start - seg->base_offset())
            : 0;
    const std::size_t row = seg->LowerBoundEventRow(t, from_row);
    if (row < seg->rows()) return seg->base_offset() + static_cast<Offset>(row);
  }
  for (std::size_t i = 0; i < snap.active.size(); ++i) {
    if (snap.active.event_time(i) >= t) {
      return snap.active.base_offset() + static_cast<Offset>(i);
    }
  }
  return snap.end;
}

}  // namespace arbd::stream
