#include "cluster/hedge.h"

#include <algorithm>

#include "common/rng.h"
#include "common/serialize.h"

namespace arbd::cluster {

HedgedReader::HedgedReader(BrokerCluster& cluster, stream::Broker& broker,
                           std::string topic, HedgeConfig cfg, std::uint64_t seed)
    : cluster_(cluster),
      broker_(broker),
      topic_(std::move(topic)),
      cfg_(cfg),
      seed_(seed) {}

Duration HedgedReader::HedgeDelay() const {
  const HealthTracker& h = cluster_.health();
  if (h.observations() < cfg_.warmup_samples) return cfg_.min_delay;
  return std::max(cfg_.min_delay, h.LatencyQuantile(cfg_.quantile));
}

bool HedgedReader::PickSecondary(stream::PartitionId p, std::uint64_t request_id,
                                 BrokerId primary, BrokerId* out_broker) const {
  auto t = broker_.GetTopic(topic_);
  if (!t.ok() || p >= (*t)->partition_count()) return false;
  auto pl = cluster_.Placement(topic_);
  if (!pl.ok()) return false;
  // ISR members are listed in slot order, so the candidate list — and the
  // hash pick over it — is identical regardless of caller interleaving.
  std::vector<BrokerId> candidates;
  for (const stream::NodeId slot : (*t)->replication(p).Isr()) {
    const BrokerId b = (*pl)->broker_of(p, slot);
    if (b == primary || !cluster_.BrokerUp(b)) continue;
    candidates.push_back(b);
  }
  if (candidates.empty()) return false;
  std::uint64_t h = Mix64(seed_ ^ Fnv1a(topic_));
  h = Mix64(h ^ p);
  h = Mix64(h ^ request_id);
  *out_broker = candidates[h % candidates.size()];
  return true;
}

template <typename T>
Expected<T> HedgedReader::HedgedCall(
    stream::PartitionId p, std::uint64_t request_id,
    const std::function<Expected<T>()>& primary_attempt,
    const std::function<Expected<T>(stream::Partition&)>& secondary_attempt,
    Deadline* deadline) {
  ++stats_.issued;
  if (deadline != nullptr && deadline->expired()) {
    ++stats_.deadline_exhausted;
    return Status::DeadlineExceeded("read budget exhausted before the attempt");
  }
  auto leader = cluster_.LeaderBroker(topic_, p);
  const bool have_leader = leader.ok();
  const Duration primary_cost =
      have_leader ? cluster_.OpLatency(*leader) : Duration::Zero();
  Expected<T> primary = primary_attempt();
  if (have_leader) {
    cluster_.health().Observe(*leader, primary_cost, !primary.ok());
  }

  // Hedge when the leader's modeled latency exceeds the delay (a healthy
  // leader wins outright and no secondary ever fires), or when the
  // primary attempt failed outright (leaderless, dropped by a lossy
  // link) — the hedge doubles as a fast failover read.
  const Duration delay = HedgeDelay();
  const bool want_hedge =
      cfg_.enabled && (!primary.ok() || !have_leader || primary_cost > delay);
  BrokerId secondary_broker = 0;
  if (!want_hedge ||
      !PickSecondary(p, request_id, have_leader ? *leader : cluster_.brokers(),
                     &secondary_broker)) {
    if (deadline != nullptr) deadline->Charge(primary_cost);
    if (primary.ok()) ++stats_.primary_wins;
    return primary;
  }

  ++stats_.hedged;
  const Duration secondary_op = cluster_.OpLatency(secondary_broker);
  const Duration secondary_cost = delay + secondary_op;
  // The secondary read bypasses the cluster gate: it reads the partition
  // (the quorum-acked prefix — exactly what the leader serves) directly,
  // queries straight from its sealed segment columns. No gate, no
  // injector randomness, so hedging can never shift a fault schedule.
  Expected<T> secondary = Status::Unavailable("no secondary replica");
  auto t = broker_.GetTopic(topic_);
  if (t.ok() && p < (*t)->partition_count()) {
    secondary = secondary_attempt((*t)->partition(p));
    cluster_.health().Observe(secondary_broker, secondary_op, !secondary.ok());
  }

  // First-response-wins on modeled latency; the losing attempt that had
  // an answer is the "cancelled" RPC.
  if (primary.ok() && (!secondary.ok() || primary_cost <= secondary_cost)) {
    if (secondary.ok()) ++stats_.cancelled;
    ++stats_.primary_wins;
    if (deadline != nullptr) deadline->Charge(primary_cost);
    return primary;
  }
  if (secondary.ok()) {
    if (primary.ok()) ++stats_.cancelled;
    ++stats_.secondary_wins;
    if (deadline != nullptr) deadline->Charge(secondary_cost);
    return secondary;
  }
  if (deadline != nullptr) deadline->Charge(std::max(primary_cost, secondary_cost));
  return primary;  // both failed: surface the primary's status
}

Expected<std::vector<stream::StoredRecord>> HedgedReader::Fetch(
    stream::PartitionId p, stream::Offset from, std::size_t max_records,
    Deadline* deadline) {
  const std::uint64_t request_id =
      Mix64(static_cast<std::uint64_t>(from) ^ (static_cast<std::uint64_t>(p) << 48));
  return HedgedCall<std::vector<stream::StoredRecord>>(
      p, request_id, [&] { return broker_.Fetch(topic_, p, from, max_records); },
      [&](stream::Partition& part) { return part.Fetch(from, max_records); },
      deadline);
}

Expected<stream::QueryResult> HedgedReader::QueryRange(stream::PartitionId p,
                                                       stream::Offset lo,
                                                       stream::Offset hi,
                                                       Deadline* deadline) {
  const std::uint64_t request_id =
      Mix64(static_cast<std::uint64_t>(lo) ^ (static_cast<std::uint64_t>(hi) << 24) ^
            (static_cast<std::uint64_t>(p) << 56));
  return HedgedCall<stream::QueryResult>(
      p, request_id, [&] { return broker_.QueryRange(topic_, p, lo, hi); },
      [&](stream::Partition& part) -> Expected<stream::QueryResult> {
        return stream::QueryRange(part, lo, hi);
      },
      deadline);
}

Expected<stream::QueryResult> HedgedReader::QueryTime(stream::PartitionId p,
                                                      TimePoint t_lo, TimePoint t_hi,
                                                      Deadline* deadline) {
  const std::uint64_t request_id =
      Mix64(static_cast<std::uint64_t>(t_lo.nanos()) ^
            (static_cast<std::uint64_t>(t_hi.nanos()) << 1) ^
            (static_cast<std::uint64_t>(p) << 56));
  return HedgedCall<stream::QueryResult>(
      p, request_id, [&] { return broker_.QueryTime(topic_, p, t_lo, t_hi); },
      [&](stream::Partition& part) -> Expected<stream::QueryResult> {
        return stream::QueryTime(part, t_lo, t_hi);
      },
      deadline);
}

}  // namespace arbd::cluster
