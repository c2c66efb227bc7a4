// Columnar record batches — the partition store and the fetch/poll unit.
//
// A RecordBatch stores N records as contiguous columns instead of N
// row-structs: event/ingest timestamps and checksums in flat int arrays,
// keys and payloads as two flat byte buffers addressed by prefix-offset
// arrays (Arrow's variable-width layout). Rows are read through the
// per-column accessors — string_view / pointer+length slices into the
// columns, no per-row allocation — and only materialized into Record
// structs where a caller asks for rows (Partition::Fetch, Consumer::Poll,
// query results).
//
// The batch is both the Partition's backing store and what a fetch
// returns, so a fetch is a handful of contiguous column-range copies
// under the partition lock rather than N string/vector constructions,
// and slices returned by a fetched batch are zero-copy into its buffers.
// See docs/storage.md for the layout and the zero-copy invariants.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/serialize.h"
#include "stream/record.h"
#include "trace/tracer.h"

namespace arbd::stream {

class RecordBatch {
 public:
  std::size_t size() const { return event_ns_.size(); }
  bool empty() const { return event_ns_.empty(); }
  // Retained key+payload bytes — the unit topic byte budgets meter,
  // matching the per-record accounting in the partition.
  std::size_t byte_size() const { return keys_.size() + payloads_.size(); }

  // --- row append ------------------------------------------------------
  void AppendRow(std::string_view key, const std::uint8_t* payload,
                 std::size_t payload_size, TimePoint event_time,
                 TimePoint ingest_time, std::uint64_t checksum,
                 const trace::SpanContext& ctx = {});
  // Bulk-append rows [from, from + n) of `src`: contiguous column-range
  // copies with the prefix offsets rebased onto this batch.
  void AppendRange(const RecordBatch& src, std::size_t from, std::size_t n);

  // --- row access ------------------------------------------------------
  // Slices borrow from the batch: valid while it is alive and un-mutated.
  std::string_view key(std::size_t i) const {
    return std::string_view(keys_.data() + key_offsets_[i],
                            key_offsets_[i + 1] - key_offsets_[i]);
  }
  const std::uint8_t* payload_data(std::size_t i) const {
    return payloads_.data() + payload_offsets_[i];
  }
  std::size_t payload_size(std::size_t i) const {
    return payload_offsets_[i + 1] - payload_offsets_[i];
  }
  TimePoint event_time(std::size_t i) const { return TimePoint::FromNanos(event_ns_[i]); }
  TimePoint ingest_time(std::size_t i) const { return TimePoint::FromNanos(ingest_ns_[i]); }
  std::uint64_t checksum(std::size_t i) const { return checksums_[i]; }
  // Key + payload bytes of one row (per-row retention/budget accounting).
  std::size_t row_bytes(std::size_t i) const {
    return (key_offsets_[i + 1] - key_offsets_[i]) +
           (payload_offsets_[i + 1] - payload_offsets_[i]);
  }

  // Causal-trace headers ride in a side column, in-memory only — exactly
  // like Record::trace_ctx, they never touch payload bytes or digests.
  const trace::SpanContext& trace_ctx(std::size_t i) const {
    static constexpr trace::SpanContext kUntraced{};
    return trace_.empty() ? kUntraced : trace_[i];
  }

  // Raw timestamp columns for the segment indexes (stream/segment.h).
  const std::int64_t* event_ns_data() const { return event_ns_.data(); }
  const std::int64_t* ingest_ns_data() const { return ingest_ns_.data(); }

  // --- materialization (row-shaped callers) ------------------------------
  // Build row i in place into `out`, normally a freshly emplaced element
  // (`MaterializeStored(i, rows.emplace_back())`): the row is constructed
  // where it will live, its key and payload copied once from the column
  // slices, with no temporary row moved about. Every field is overwritten.
  void MaterializeRecord(std::size_t i, Record& out) const;
  void MaterializeStored(std::size_t i, StoredRecord& out) const;
  std::vector<StoredRecord> Materialize() const;

  // Position metadata stamped by the fetch path: the absolute offset of
  // row 0 and the partition the batch was read from.
  Offset base_offset() const { return base_offset_; }
  void set_base_offset(Offset o) { base_offset_ = o; }
  PartitionId partition() const { return partition_; }
  void set_partition(PartitionId p) { partition_ = p; }

 private:
  // Columns; all row-indexed vectors hold exactly size() entries. The
  // offset arrays are prefix offsets (Arrow layout) with size() + 1
  // entries once a row exists, and stay empty until then, so an empty
  // batch — the common answer to a poll of an idle partition — allocates
  // nothing. The trace column likewise stays empty until a row with a
  // valid context arrives (untraced runs never allocate it).
  std::vector<std::int64_t> event_ns_;
  std::vector<std::int64_t> ingest_ns_;
  std::vector<std::uint64_t> checksums_;
  std::vector<std::uint32_t> key_offsets_;
  std::vector<std::uint32_t> payload_offsets_;
  std::string keys_;
  Bytes payloads_;
  std::vector<trace::SpanContext> trace_;

  Offset base_offset_ = 0;
  PartitionId partition_ = 0;
};

}  // namespace arbd::stream
