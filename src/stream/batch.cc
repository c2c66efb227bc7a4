#include "stream/batch.h"

namespace arbd::stream {

void RecordBatch::AppendRow(std::string_view key, const std::uint8_t* payload,
                            std::size_t payload_size, TimePoint event_time,
                            TimePoint ingest_time, std::uint64_t checksum,
                            const trace::SpanContext& ctx) {
  if (key_offsets_.empty()) {
    key_offsets_.push_back(0);
    payload_offsets_.push_back(0);
  }
  event_ns_.push_back(event_time.nanos());
  ingest_ns_.push_back(ingest_time.nanos());
  checksums_.push_back(checksum);
  keys_.append(key.data(), key.size());
  key_offsets_.push_back(static_cast<std::uint32_t>(keys_.size()));
  if (payload_size > 0) payloads_.insert(payloads_.end(), payload, payload + payload_size);
  payload_offsets_.push_back(static_cast<std::uint32_t>(payloads_.size()));
  if (ctx.valid() || !trace_.empty()) {
    trace_.resize(size() - 1);
    trace_.push_back(ctx);
  }
}

void RecordBatch::AppendRange(const RecordBatch& src, std::size_t from, std::size_t n) {
  if (n == 0) return;
  if (key_offsets_.empty()) {
    key_offsets_.reserve(n + 1);
    payload_offsets_.reserve(n + 1);
    key_offsets_.push_back(0);
    payload_offsets_.push_back(0);
  } else {
    key_offsets_.reserve(key_offsets_.size() + n);
    payload_offsets_.reserve(payload_offsets_.size() + n);
  }
  event_ns_.insert(event_ns_.end(), src.event_ns_.begin() + static_cast<std::ptrdiff_t>(from),
                   src.event_ns_.begin() + static_cast<std::ptrdiff_t>(from + n));
  ingest_ns_.insert(ingest_ns_.end(), src.ingest_ns_.begin() + static_cast<std::ptrdiff_t>(from),
                    src.ingest_ns_.begin() + static_cast<std::ptrdiff_t>(from + n));
  checksums_.insert(checksums_.end(), src.checksums_.begin() + static_cast<std::ptrdiff_t>(from),
                    src.checksums_.begin() + static_cast<std::ptrdiff_t>(from + n));

  // Variable-width columns: copy the byte ranges, then rebase the prefix
  // offsets against this batch's running totals.
  const std::uint32_t src_key_lo = src.key_offsets_[from];
  const std::uint32_t src_key_hi = src.key_offsets_[from + n];
  const std::uint32_t key_base = static_cast<std::uint32_t>(keys_.size());
  keys_.append(src.keys_.data() + src_key_lo, src_key_hi - src_key_lo);
  const std::uint32_t src_pay_lo = src.payload_offsets_[from];
  const std::uint32_t src_pay_hi = src.payload_offsets_[from + n];
  const std::uint32_t pay_base = static_cast<std::uint32_t>(payloads_.size());
  payloads_.insert(payloads_.end(), src.payloads_.begin() + src_pay_lo,
                   src.payloads_.begin() + src_pay_hi);
  for (std::size_t i = 1; i <= n; ++i) {
    key_offsets_.push_back(key_base + (src.key_offsets_[from + i] - src_key_lo));
    payload_offsets_.push_back(pay_base + (src.payload_offsets_[from + i] - src_pay_lo));
  }

  if (!src.trace_.empty()) {
    trace_.resize(size() - n);
    trace_.insert(trace_.end(), src.trace_.begin() + static_cast<std::ptrdiff_t>(from),
                  src.trace_.begin() + static_cast<std::ptrdiff_t>(from + n));
  } else if (!trace_.empty()) {
    trace_.resize(size());
  }
}

void RecordBatch::MaterializeRecord(std::size_t i, Record& out) const {
  out.key.assign(key(i));
  out.payload.assign(payload_data(i), payload_data(i) + payload_size(i));
  out.event_time = event_time(i);
  out.ingest_time = ingest_time(i);
  out.checksum = checksums_[i];
  out.trace_ctx = trace_ctx(i);
}

void RecordBatch::MaterializeStored(std::size_t i, StoredRecord& out) const {
  out.partition = partition_;
  out.offset = base_offset_ + static_cast<Offset>(i);
  MaterializeRecord(i, out.record);
}

std::vector<StoredRecord> RecordBatch::Materialize() const {
  std::vector<StoredRecord> out(size());
  for (std::size_t i = 0; i < size(); ++i) MaterializeStored(i, out[i]);
  return out;
}

}  // namespace arbd::stream
