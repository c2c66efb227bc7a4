#include "trace/tracer.h"

#include <algorithm>
#include <functional>
#include <thread>

#include "common/rng.h"
#include "common/runtime.h"
#include "common/serialize.h"

namespace arbd::trace {

namespace {

std::uint64_t HashName(const std::string& name) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

Tracer::Tracer(TracerConfig cfg) : cfg_(cfg), enabled_(cfg.enabled) {
  if (cfg_.ring_capacity == 0) cfg_.ring_capacity = 1;
}

Tracer& Tracer::Global() {
  static Tracer tracer(TracerConfig{.enabled = RuntimeConfig::Process().trace,
                                    .ring_capacity = RuntimeConfig::Process().trace_ring,
                                    .seed = RuntimeConfig::Process().trace_seed});
  return tracer;
}

TraceId Tracer::StartTrace(std::uint64_t key) const {
  const TraceId id = Mix64(cfg_.seed ^ Mix64(key));
  return id == 0 ? 1 : id;
}

SpanId DeriveSpanId(std::uint64_t seed, TraceId trace, SpanId parent,
                    const std::string& name, std::int64_t start_ns, std::uint64_t salt) {
  std::uint64_t h = Mix64(seed ^ trace);
  h = Mix64(h ^ (parent * 0x9e3779b97f4a7c15ULL));
  h = Mix64(h ^ HashName(name));
  h = Mix64(h ^ static_cast<std::uint64_t>(start_ns));
  h = Mix64(h ^ salt);
  return h == 0 ? 1 : h;
}

std::size_t Tracer::ThisThreadShard() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShards;
}

void Tracer::Push(Span span) {
  Shard& shard = shards_[ThisThreadShard()];
  std::lock_guard<std::mutex> lk(shard.mu);
  if (shard.ring.size() < cfg_.ring_capacity) {
    shard.ring.push_back(std::move(span));
    ++shard.filled;
  } else {
    shard.ring[shard.next] = std::move(span);
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  shard.next = (shard.next + 1) % cfg_.ring_capacity;
  recorded_.fetch_add(1, std::memory_order_relaxed);
}

SpanContext Tracer::Record(const std::string& name, const SpanContext& parent,
                           Duration cost, std::vector<Tag> tags, std::uint64_t salt) {
  if (!enabled() || !parent.valid()) return parent;
  return RecordAt(name, parent, parent.at, parent.at + cost, std::move(tags), salt);
}

SpanContext Tracer::RecordAt(const std::string& name, const SpanContext& parent,
                             TimePoint start, TimePoint end, std::vector<Tag> tags,
                             std::uint64_t salt) {
  if (!enabled() || !parent.valid()) return parent;
  Span s;
  s.trace_id = parent.trace_id;
  s.parent_id = parent.span_id;
  s.span_id = DeriveSpanId(cfg_.seed, parent.trace_id, parent.span_id, name,
                           start.nanos(), salt);
  s.name = name;
  s.start = start;
  s.end = end;
  s.tags = std::move(tags);
  const SpanContext child{parent.trace_id, s.span_id, end};
  Push(std::move(s));
  return child;
}

std::vector<Span> Tracer::Drain() {
  std::vector<Span> out;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard.mu);
    for (Span& s : shard.ring) out.push_back(std::move(s));
    shard.ring.clear();
    shard.next = 0;
    shard.filled = 0;
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    if (a.trace_id != b.trace_id) return a.trace_id < b.trace_id;
    if (a.start != b.start) return a.start < b.start;
    if (a.name != b.name) return a.name < b.name;
    return a.span_id < b.span_id;
  });
  return out;
}

void Tracer::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard.mu);
    shard.ring.clear();
    shard.next = 0;
    shard.filled = 0;
  }
  recorded_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

std::uint64_t SpanTreeDigest(const std::vector<Span>& spans) {
  BinaryWriter w;
  w.WriteU64(spans.size());
  for (const Span& s : spans) {
    w.WriteU64(s.trace_id);
    w.WriteU64(s.span_id);
    w.WriteU64(s.parent_id);
    w.WriteString(s.name);
    w.WriteI64(s.start.nanos());
    w.WriteI64(s.end.nanos());
    w.WriteU64(s.tags.size());
    for (const Tag& t : s.tags) {
      w.WriteString(t.key);
      w.WriteString(t.value);
    }
  }
  return Fnv1a(w.bytes());
}

}  // namespace arbd::trace
