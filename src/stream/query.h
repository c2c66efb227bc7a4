// Historical read path over the segmented partition: range and
// time queries plus timestamp seek. stream/segment.h owns the sealed
// storage and its sparse indexes; this header owns query planning and
// execution over them.
//
// Contract with the tail: queries take the partition lock only to
// snapshot shared_ptrs to the sealed run (plus a bounded copy of the live
// active window), then read rows straight from the immutable segment
// columns lock-free — so historical scans never hold the tail's append
// lock across a block. Each returned row is built once, in place in the
// answer, from the column slices. Queries consume no fault-injector
// randomness and are admitted through the same ClusterGate as any fetch
// (Broker::QueryRange / QueryTime / OffsetForTimestamp in stream/log.h),
// so turning them on never perturbs a fault schedule or a scenario
// digest.
#pragma once

#include <cstdint>
#include <vector>

#include "common/clock.h"
#include "stream/record.h"
#include "stream/segment.h"

namespace arbd::stream {

class Partition;

// Work accounting for one query (or a merged run of them): the E25 gates
// assert sublinearity from these rather than from noisy wall clocks —
// blocks_scanned and rows_examined must track the answer size, not the
// segment count.
struct QueryStats {
  std::uint64_t segments_considered = 0;  // sealed segments in the snapshot
  std::uint64_t segments_pruned = 0;      // skipped whole via segment bounds
  std::uint64_t blocks_pruned = 0;        // skipped whole via block bounds
  std::uint64_t blocks_scanned = 0;       // blocks whose rows were examined
  // Sealed rows in scanned blocks (QueryTime: every row of the block;
  // QueryRange: the rows inside [lo, hi)) plus the active rows the
  // snapshot copied.
  std::uint64_t rows_examined = 0;
  std::uint64_t rows_returned = 0;
  // Always 0: there is no block cache; kept because perfbench reads them.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  void Merge(const QueryStats& o);
};

struct QueryResult {
  // Matching rows in offset order. StoredRecord::partition is stamped by
  // the Broker wrapper; the partition-level functions leave it 0.
  std::vector<StoredRecord> rows;
  QueryStats stats;
};

// Rows with offsets in [lo, hi) ∩ [log_start, end), in offset order.
// Sealed rows are read from the segment columns; the live active window
// from the snapshot copy. Out-of-window bounds clamp — a historical query
// asking below the log start gets the surviving suffix, mirroring
// consumer auto-reset rather than erroring.
QueryResult QueryRange(const Partition& partition, Offset lo, Offset hi);

// Rows with event time in [t_lo, t_hi), in offset order. Prunes whole
// segments by their event-time bounds and whole blocks by the sparse
// time index before examining any row, and copies only the active rows
// from the first to the last inside the window.
QueryResult QueryTime(const Partition& partition, TimePoint t_lo, TimePoint t_hi);

// The smallest retained offset whose event time is >= t, or the log end
// when no such record exists — Kafka's offsetsForTimes, the primitive
// Consumer::SeekToTimestamp repositions with.
Offset OffsetForTimestamp(const Partition& partition, TimePoint t);

}  // namespace arbd::stream
