#include "cluster/cluster.h"

#include <algorithm>

#include "common/log.h"
#include "common/rng.h"
#include "common/runtime.h"
#include "common/serialize.h"

namespace arbd::cluster {

BrokerCluster::BrokerCluster(stream::Broker& broker, ClusterConfig cfg)
    : broker_(broker),
      cfg_(cfg),
      ring_(std::max<std::uint32_t>(cfg.brokers, 1), cfg.virtual_nodes, cfg.seed),
      controller_(std::max<std::uint32_t>(cfg.brokers, 1), cfg.metadata_factor,
                  cfg.seed ^ 0xc0417011ULL, cfg.segment_bytes),
      rng_(cfg.seed ^ 0x6b111b6bULL),
      health_(std::max<std::uint32_t>(cfg.brokers, 1), cfg.health, cfg.base_op_latency) {
  cfg_.brokers = std::max<std::uint32_t>(cfg_.brokers, 1);
  if (cfg_.default_restore_ticks == 0) cfg_.default_restore_ticks = 1;
  nodes_.resize(cfg_.brokers);
  // Seed the metadata log with the initial membership so a replay starts
  // from the same universe the live state did.
  for (BrokerId b = 0; b < cfg_.brokers; ++b) {
    controller_.Append({.kind = MetaEventKind::kBrokerUp, .broker = b, .epoch = 1});
  }
  broker_.set_cluster_gate(this);
}

BrokerCluster::~BrokerCluster() {
  if (broker_.cluster_gate() == this) broker_.set_cluster_gate(nullptr);
}

Status BrokerCluster::CreateTopic(const std::string& name, stream::TopicConfig cfg) {
  std::unique_lock<std::shared_mutex> lk(mu_);
  if (placements_.contains(name)) return Status::AlreadyExists("topic '" + name + "'");
  if (cfg.partitions == 0) cfg.partitions = 1;
  // Resolve the factor the way Topic would (process default, [1,8] clamp),
  // so the placement clamp below sees the real request.
  std::uint32_t factor = cfg.replication_factor == 0 ? RuntimeConfig::Process().replicas
                                                     : cfg.replication_factor;
  factor = std::clamp<std::uint32_t>(factor, 1, 8);
  TopicPlacement placement = PlaceTopic(ring_, name, cfg.partitions, factor);
  cfg.replication_factor = placement.factor;
  Status created = broker_.CreateTopic(name, cfg);
  if (!created.ok()) return created;
  MetaEvent placed{.kind = MetaEventKind::kTopicPlaced, .topic = name};
  placed.placement = placement.Encode();
  placements_[name] = std::move(placement);
  return controller_.Append(placed);
}

Status BrokerCluster::AdmitLocked(const std::string& topic,
                                  stream::PartitionId partition) const {
  auto it = placements_.find(topic);
  if (it == placements_.end()) return Status::Ok();  // not cluster-managed
  const TopicPlacement& pl = it->second;
  if (partition >= pl.partition_count()) return Status::Ok();  // broker validates
  auto t = broker_.GetTopic(topic);
  if (!t.ok()) return Status::Ok();
  const stream::NodeId slot = (*t)->replication(partition).leader();
  if (slot == stream::kNoLeader) {
    return Status::Unavailable("topic '" + topic + "' partition " +
                               std::to_string(partition) + " is leaderless");
  }
  const BrokerId b = pl.broker_of(partition, slot);
  const Node& node = nodes_[b];
  if (!node.up || node.split) {
    return Status::Unavailable("leader broker " + std::to_string(b) + " of topic '" +
                               topic + "' partition " + std::to_string(partition) +
                               (node.up ? "' is partitioned away" : "' is down"));
  }
  return Status::Ok();
}

Status BrokerCluster::AdmitProduce(const std::string& topic,
                                   stream::PartitionId partition) {
  std::shared_lock<std::shared_mutex> lk(mu_);
  Status s = AdmitLocked(topic, partition);
  if (!s.ok()) produce_denied_.fetch_add(1, std::memory_order_relaxed);
  return s;
}

Status BrokerCluster::AdmitFetch(const std::string& topic,
                                 stream::PartitionId partition) {
  std::shared_lock<std::shared_mutex> lk(mu_);
  Status s = AdmitLocked(topic, partition);
  if (!s.ok()) fetch_denied_.fetch_add(1, std::memory_order_relaxed);
  return s;
}

const BrokerCluster::Node* BrokerCluster::LeaderNodeLocked(
    const std::string& topic, stream::PartitionId partition, BrokerId* broker) const {
  auto it = placements_.find(topic);
  if (it == placements_.end() || partition >= it->second.partition_count()) {
    return nullptr;
  }
  auto t = broker_.GetTopic(topic);
  if (!t.ok()) return nullptr;
  const stream::NodeId slot = (*t)->replication(partition).leader();
  if (slot == stream::kNoLeader) return nullptr;
  const BrokerId b = it->second.broker_of(partition, slot);
  if (broker != nullptr) *broker = b;
  return &nodes_[b];
}

bool BrokerCluster::LossyDropLocked(const Node& node, BrokerId broker,
                                    std::uint64_t request_id) const {
  const std::uint64_t now = now_tick();
  if (node.drop_p <= 0.0 || now >= node.lossy_until) return false;
  // Pure hash of (seed, broker, brownout epoch, tick, request id): the
  // verdict for a given request is frozen within a tick — parallel
  // fan-outs agree on it regardless of interleaving — and re-drawn across
  // ticks, so a retry that ticked the cluster can get through. No
  // sequential RNG stream is consumed, so arming a lossy link never
  // shifts any other fault's schedule.
  std::uint64_t h = Mix64(cfg_.seed ^ 0x105517ULL);
  h = Mix64(h ^ broker);
  h = Mix64(h ^ node.lossy_epoch);
  h = Mix64(h ^ now);
  h = Mix64(h ^ request_id);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < node.drop_p;
}

Status BrokerCluster::AdmitProduceRequest(const std::string& topic,
                                          stream::PartitionId partition,
                                          std::uint64_t request_id) {
  std::shared_lock<std::shared_mutex> lk(mu_);
  Status s = AdmitLocked(topic, partition);
  if (!s.ok()) {
    produce_denied_.fetch_add(1, std::memory_order_relaxed);
    return s;
  }
  BrokerId b = 0;
  const Node* node = LeaderNodeLocked(topic, partition, &b);
  if (node != nullptr && LossyDropLocked(*node, b, request_id)) {
    lossy_drops_.fetch_add(1, std::memory_order_relaxed);
    produce_denied_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("lossy link to broker " + std::to_string(b) +
                               " dropped the produce request");
  }
  return Status::Ok();
}

Status BrokerCluster::AdmitFetchRequest(const std::string& topic,
                                        stream::PartitionId partition,
                                        std::uint64_t request_id) {
  std::shared_lock<std::shared_mutex> lk(mu_);
  Status s = AdmitLocked(topic, partition);
  if (!s.ok()) {
    fetch_denied_.fetch_add(1, std::memory_order_relaxed);
    return s;
  }
  BrokerId b = 0;
  const Node* node = LeaderNodeLocked(topic, partition, &b);
  if (node != nullptr && LossyDropLocked(*node, b, request_id)) {
    lossy_drops_.fetch_add(1, std::memory_order_relaxed);
    fetch_denied_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("lossy link to broker " + std::to_string(b) +
                               " dropped the fetch request");
  }
  return Status::Ok();
}

Duration BrokerCluster::OpCost(const std::string& topic, stream::PartitionId partition) {
  std::shared_lock<std::shared_mutex> lk(mu_);
  const Node* node = LeaderNodeLocked(topic, partition, nullptr);
  if (node == nullptr) return Duration::Zero();
  const double f = now_tick() < node->slow_until ? node->slow_factor : 1.0;
  return cfg_.base_op_latency * f;
}

Status BrokerCluster::ArmSlowLocked(BrokerId broker, double factor, std::uint64_t ticks) {
  if (broker >= cfg_.brokers) {
    return Status::OutOfRange("broker " + std::to_string(broker) + " of " +
                              std::to_string(cfg_.brokers));
  }
  if (factor < 1.0) {
    return Status::InvalidArgument("slow factor must be >= 1");
  }
  Node& node = nodes_[broker];
  node.slow_factor = factor;
  node.slow_until = now_tick() + (ticks == 0 ? cfg_.default_restore_ticks : ticks);
  ++stats_.slow_brownouts;
  return Status::Ok();
}

Status BrokerCluster::ArmLossyLocked(BrokerId broker, double drop_p,
                                     std::uint64_t ticks) {
  if (broker >= cfg_.brokers) {
    return Status::OutOfRange("broker " + std::to_string(broker) + " of " +
                              std::to_string(cfg_.brokers));
  }
  if (drop_p < 0.0 || drop_p > 1.0) {
    return Status::InvalidArgument("drop probability must be in [0, 1]");
  }
  Node& node = nodes_[broker];
  node.drop_p = drop_p;
  node.lossy_until = now_tick() + (ticks == 0 ? cfg_.default_restore_ticks : ticks);
  // Salt the drop hash so a second window on the same broker draws an
  // independent drop schedule.
  ++node.lossy_epoch;
  ++stats_.lossy_brownouts;
  return Status::Ok();
}

void BrokerCluster::ExpireBrownoutsLocked(std::uint64_t now) {
  for (BrokerId b = 0; b < cfg_.brokers; ++b) {
    Node& node = nodes_[b];
    if (node.slow_factor != 1.0 && now >= node.slow_until) {
      node.slow_factor = 1.0;
      node.slow_until = 0;
    }
    if (node.drop_p > 0.0 && now >= node.lossy_until) {
      node.drop_p = 0.0;
      node.lossy_until = 0;
    }
  }
}

Status BrokerCluster::SlowBroker(BrokerId broker, double factor, std::uint64_t ticks) {
  std::unique_lock<std::shared_mutex> lk(mu_);
  return ArmSlowLocked(broker, factor, ticks);
}

Status BrokerCluster::LossyLink(BrokerId broker, double drop_p, std::uint64_t ticks) {
  std::unique_lock<std::shared_mutex> lk(mu_);
  return ArmLossyLocked(broker, drop_p, ticks);
}

Duration BrokerCluster::OpLatency(BrokerId broker) const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  if (broker >= cfg_.brokers) return Duration::Max();
  const Node& node = nodes_[broker];
  const double f = now_tick() < node.slow_until ? node.slow_factor : 1.0;
  return cfg_.base_op_latency * f;
}

bool BrokerCluster::BrokerDegraded(BrokerId broker) const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  return broker < cfg_.brokers && nodes_[broker].degraded;
}

void BrokerCluster::DrainLeadershipsLocked(BrokerId broker) {
  for (const auto& [topic, pl] : placements_) {
    auto t = broker_.GetTopic(topic);
    if (!t.ok()) continue;
    for (stream::PartitionId p = 0; p < pl.partition_count(); ++p) {
      auto& rp = (*t)->replication(p);
      const stream::NodeId slot = rp.leader();
      if (slot == stream::kNoLeader) continue;
      if (pl.broker_of(p, slot) != broker) continue;
      // Nowhere to drain to: a singleton ISR keeps its leader — demoting
      // it would take the partition offline, strictly worse than slow.
      if (rp.Isr().size() < 2) continue;
      // Crash-and-restore the leader slot: the election picks an in-sync
      // replica on another broker (placement puts replicas on distinct
      // brokers), then the slot rejoins as a follower and catches up.
      rp.CrashNode(slot, /*restore_after_ops=*/0);
      rp.RestoreNode(slot);
    }
  }
}

void BrokerCluster::HealthTickLocked() {
  if (cfg_.health.enabled) {
    // Modeled health-checker ping: one probe op per live broker per tick,
    // at the broker's current modeled service time. This is what lets a
    // drained (demoted) broker ever recover — demotion removes all of its
    // produce/fetch traffic, so without an active probe its latency EWMA
    // would stay frozen at the browned-out value forever. Probes fire
    // only with health enabled, so the disabled tracker's observation
    // stream (and the hedge delay derived from it) is untouched.
    const std::uint64_t now = tick_.load(std::memory_order_relaxed);
    for (BrokerId b = 0; b < cfg_.brokers; ++b) {
      const Node& node = nodes_[b];
      if (!node.up || node.split) continue;
      const double factor = now < node.slow_until ? node.slow_factor : 1.0;
      health_.Observe(
          b,
          Duration::Nanos(static_cast<std::int64_t>(
              static_cast<double>(cfg_.base_op_latency.nanos()) * factor)),
          /*error=*/false);
    }
  }
  health_.Tick();
  if (!cfg_.health.enabled) return;
  bool drained = false;
  for (BrokerId b = 0; b < cfg_.brokers; ++b) {
    Node& node = nodes_[b];
    const bool verdict = health_.Degraded(b);
    if (verdict && !node.degraded) {
      // Metadata first: if the quorum is gone the demotion does not
      // happen, and the live state never advertises it.
      if (!controller_
               .Append({.kind = MetaEventKind::kBrokerDegraded,
                        .broker = b,
                        .epoch = node.epoch})
               .ok()) {
        continue;
      }
      node.degraded = true;
      ++stats_.demotions;
    } else if (!verdict && node.degraded) {
      if (!controller_
               .Append({.kind = MetaEventKind::kBrokerRecovered,
                        .broker = b,
                        .epoch = node.epoch})
               .ok()) {
        continue;
      }
      node.degraded = false;
      ++stats_.recoveries;
    }
    // Re-drain every tick while degraded: elections, restores, and
    // splits/merges can hand leaderships back between verdicts.
    if (node.degraded && node.up && !node.split) {
      DrainLeadershipsLocked(b);
      drained = true;
    }
  }
  if (drained) RefreshRoutesLocked();
}

void BrokerCluster::CrashSlotsLocked(BrokerId broker) {
  for (const auto& [topic, pl] : placements_) {
    auto t = broker_.GetTopic(topic);
    if (!t.ok()) continue;
    for (stream::PartitionId p = 0; p < pl.partition_count(); ++p) {
      for (std::uint32_t s = 0; s < pl.factor; ++s) {
        if (pl.broker_of(p, s) == broker) {
          (*t)->replication(p).CrashNode(s, /*restore_after_ops=*/0);
        }
      }
    }
  }
}

void BrokerCluster::RestoreSlotsLocked(BrokerId broker) {
  for (const auto& [topic, pl] : placements_) {
    auto t = broker_.GetTopic(topic);
    if (!t.ok()) continue;
    for (stream::PartitionId p = 0; p < pl.partition_count(); ++p) {
      for (std::uint32_t s = 0; s < pl.factor; ++s) {
        if (pl.broker_of(p, s) == broker) {
          (*t)->replication(p).RestoreNode(s);
        }
      }
    }
  }
}

void BrokerCluster::RefreshRoutesLocked() {
  for (const auto& [topic, pl] : placements_) {
    auto t = broker_.GetTopic(topic);
    if (!t.ok()) continue;
    for (stream::PartitionId p = 0; p < pl.partition_count(); ++p) {
      const stream::NodeId slot = (*t)->replication(p).leader();
      if (slot == stream::kNoLeader) continue;  // keep the last known route
      const BrokerId now_leading = pl.broker_of(p, slot);
      auto route = controller_.Route(topic, p);
      if (route.ok() && *route == now_leading) continue;
      MetaEvent moved{.kind = MetaEventKind::kLeaderMoved, .topic = topic};
      moved.partition = p;
      moved.leader = now_leading;
      controller_.Append(moved);
      ++stats_.leader_moves;
    }
  }
}

Status BrokerCluster::KillBrokerLocked(BrokerId broker, std::uint64_t restore_ticks) {
  if (broker >= cfg_.brokers) {
    return Status::OutOfRange("broker " + std::to_string(broker) + " of " +
                              std::to_string(cfg_.brokers));
  }
  Node& node = nodes_[broker];
  if (!node.up) return Status::Ok();  // already down
  node.up = false;
  ++node.epoch;
  node.restore_at = now_tick() + (restore_ticks == 0 ? cfg_.default_restore_ticks
                                                     : restore_ticks);
  ++stats_.kills;
  CrashSlotsLocked(broker);
  controller_.Append(
      {.kind = MetaEventKind::kBrokerDown, .broker = broker, .epoch = node.epoch});
  RefreshRoutesLocked();
  return Status::Ok();
}

Status BrokerCluster::RestoreBrokerLocked(BrokerId broker) {
  if (broker >= cfg_.brokers) {
    return Status::OutOfRange("broker " + std::to_string(broker) + " of " +
                              std::to_string(cfg_.brokers));
  }
  Node& node = nodes_[broker];
  if (node.up) return Status::Ok();
  node.up = true;
  ++node.epoch;
  node.restore_at = 0;
  ++stats_.restores;
  // A broker that is both down and on the minority side stays fenced
  // until the split heals.
  if (!node.split) RestoreSlotsLocked(broker);
  controller_.Append(
      {.kind = MetaEventKind::kBrokerUp, .broker = broker, .epoch = node.epoch});
  RefreshRoutesLocked();
  return Status::Ok();
}

Status BrokerCluster::NetSplitLocked(std::uint64_t heal_ticks) {
  if (cfg_.brokers < 2) return Status::Ok();          // nothing to partition
  if (split_heal_at_ != 0) return Status::Ok();       // one split at a time
  std::vector<BrokerId> candidates;
  for (BrokerId b = 0; b < cfg_.brokers; ++b) {
    if (nodes_[b].up && !nodes_[b].split) candidates.push_back(b);
  }
  const std::size_t minority = std::max<std::size_t>(1, (cfg_.brokers - 1) / 2);
  if (candidates.size() <= minority) return Status::Ok();  // no majority left
  for (std::size_t i = 0; i < minority; ++i) {
    const std::size_t pick = static_cast<std::size_t>(rng_.NextBelow(candidates.size()));
    const BrokerId victim = candidates[pick];
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(pick));
    nodes_[victim].split = true;
    CrashSlotsLocked(victim);
    controller_.Append({.kind = MetaEventKind::kNetSplit,
                        .broker = victim,
                        .epoch = nodes_[victim].epoch});
  }
  split_heal_at_ =
      now_tick() + (heal_ticks == 0 ? cfg_.default_restore_ticks : heal_ticks);
  ++stats_.netsplits;
  RefreshRoutesLocked();
  return Status::Ok();
}

Status BrokerCluster::HealLocked() {
  if (split_heal_at_ == 0) return Status::Ok();
  for (BrokerId b = 0; b < cfg_.brokers; ++b) {
    Node& node = nodes_[b];
    if (!node.split) continue;
    node.split = false;
    // Rejoining the majority: the isolated replicas restore and catch up
    // (divergent suffixes truncate at the epoch boundary); a broker that
    // also died during the split stays down until its own restore.
    if (node.up) RestoreSlotsLocked(b);
    controller_.Append(
        {.kind = MetaEventKind::kNetHeal, .broker = b, .epoch = node.epoch});
  }
  split_heal_at_ = 0;
  ++stats_.heals;
  RefreshRoutesLocked();
  return Status::Ok();
}

Status BrokerCluster::KillBroker(BrokerId broker, std::uint64_t restore_ticks) {
  std::unique_lock<std::shared_mutex> lk(mu_);
  return KillBrokerLocked(broker, restore_ticks);
}

Status BrokerCluster::RestoreBroker(BrokerId broker) {
  std::unique_lock<std::shared_mutex> lk(mu_);
  return RestoreBrokerLocked(broker);
}

Status BrokerCluster::NetSplit(std::uint64_t heal_ticks) {
  std::unique_lock<std::shared_mutex> lk(mu_);
  return NetSplitLocked(heal_ticks);
}

Status BrokerCluster::Heal() {
  std::unique_lock<std::shared_mutex> lk(mu_);
  return HealLocked();
}

void BrokerCluster::Tick() {
  std::unique_lock<std::shared_mutex> lk(mu_);
  const std::uint64_t now = tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  for (BrokerId b = 0; b < cfg_.brokers; ++b) {
    if (!nodes_[b].up && nodes_[b].restore_at != 0 && now >= nodes_[b].restore_at) {
      RestoreBrokerLocked(b);
    }
  }
  if (split_heal_at_ != 0 && now >= split_heal_at_) HealLocked();
  ExpireBrownoutsLocked(now);
  if (fault_ != nullptr) {
    if (fault_->Fire(fault::FaultKind::kKillBroker, fault::InjectionPoint::kClusterBroker)) {
      std::vector<BrokerId> up;
      for (BrokerId b = 0; b < cfg_.brokers; ++b) {
        if (nodes_[b].up && !nodes_[b].split) up.push_back(b);
      }
      if (!up.empty()) {
        const BrokerId victim = up[rng_.NextBelow(up.size())];
        std::uint64_t window = 0;
        const fault::FaultRule* rule = fault_->plan().Find(fault::FaultKind::kKillBroker);
        if (rule != nullptr && rule->magnitude > 0.0) {
          window = static_cast<std::uint64_t>(rule->magnitude);
        }
        KillBrokerLocked(victim, window);
      }
    }
    if (fault_->Fire(fault::FaultKind::kNetSplit, fault::InjectionPoint::kClusterLink)) {
      std::uint64_t window = 0;
      const fault::FaultRule* rule = fault_->plan().Find(fault::FaultKind::kNetSplit);
      if (rule != nullptr && rule->magnitude > 0.0) {
        window = static_cast<std::uint64_t>(rule->magnitude);
      }
      NetSplitLocked(window);
    }
    // Gray-failure draws run after the fail-stop draws, so arming either
    // brownout kind leaves every pre-existing kill/split schedule — and
    // the victim picks it consumed from rng_ — untouched.
    if (fault_->Fire(fault::FaultKind::kSlowBroker,
                     fault::InjectionPoint::kClusterBroker)) {
      std::vector<BrokerId> up;
      for (BrokerId b = 0; b < cfg_.brokers; ++b) {
        if (nodes_[b].up && !nodes_[b].split) up.push_back(b);
      }
      if (!up.empty()) {
        const BrokerId victim = up[rng_.NextBelow(up.size())];
        const fault::FaultRule* rule = fault_->plan().Find(fault::FaultKind::kSlowBroker);
        const double factor =
            (rule != nullptr && rule->magnitude > 1.0) ? rule->magnitude : 4.0;
        std::uint64_t window = 0;
        if (rule != nullptr && rule->duration > Duration::Zero()) {
          // `ms=` on tick-scoped kinds means cluster ticks, like killbroker's `x=`.
          window = static_cast<std::uint64_t>(rule->duration.millis());
        }
        ArmSlowLocked(victim, factor, window);
      }
    }
    if (fault_->Fire(fault::FaultKind::kLossyLink,
                     fault::InjectionPoint::kClusterLink)) {
      std::vector<BrokerId> up;
      for (BrokerId b = 0; b < cfg_.brokers; ++b) {
        if (nodes_[b].up && !nodes_[b].split) up.push_back(b);
      }
      if (!up.empty()) {
        const BrokerId victim = up[rng_.NextBelow(up.size())];
        const fault::FaultRule* rule = fault_->plan().Find(fault::FaultKind::kLossyLink);
        const double drop_p =
            (rule != nullptr && rule->magnitude > 0.0 && rule->magnitude <= 1.0)
                ? rule->magnitude
                : 0.5;
        std::uint64_t window = 0;
        if (rule != nullptr && rule->duration > Duration::Zero()) {
          window = static_cast<std::uint64_t>(rule->duration.millis());
        }
        ArmLossyLocked(victim, drop_p, window);
      }
    }
  }
  HealthTickLocked();
  if (cfg_.autoscale.enabled) AutoscaleTickLocked();
}

std::vector<stream::PartitionId> BrokerCluster::LiveLeavesLocked(
    const std::string& topic) const {
  auto rit = routers_.find(topic);
  if (rit != routers_.end()) return rit->second.LiveLeaves();
  std::vector<stream::PartitionId> out;
  auto pit = placements_.find(topic);
  if (pit == placements_.end()) return out;
  out.reserve(pit->second.partition_count());
  for (stream::PartitionId p = 0; p < pit->second.partition_count(); ++p) {
    out.push_back(p);
  }
  return out;
}

void BrokerCluster::AutoscaleTickLocked() {
  const AutoscaleConfig& as = cfg_.autoscale;
  std::uint32_t actions = 0;
  // Chaos draws happen once per tick (not per topic), so adding topics
  // never shifts an existing plan's schedule.
  const bool force_split =
      fault_ != nullptr &&
      fault_->Fire(fault::FaultKind::kAutoSplit, fault::InjectionPoint::kClusterAutoscale);
  const bool force_merge =
      fault_ != nullptr &&
      fault_->Fire(fault::FaultKind::kAutoMerge, fault::InjectionPoint::kClusterAutoscale);
  for (auto& [topic, pl] : placements_) {
    auto t = broker_.GetTopic(topic);
    if (!t.ok()) continue;
    const std::vector<stream::PartitionId> leaves = LiveLeavesLocked(topic);
    std::vector<stream::Offset>& last = last_end_[topic];
    last.resize((*t)->partition_count(), 0);

    // Refresh load accounting for every live leaf. Rate is the committed
    // end-offset delta since the last tick — the same number the broker's
    // per-partition `qos.depth` gauge is derived from, read here from the
    // partition mirror so the autoscaler also works with no registry.
    stream::PartitionId hottest = 0;
    std::uint64_t hottest_rate = 0;
    bool have_hottest = false;
    for (const stream::PartitionId p : leaves) {
      const stream::Offset end = (*t)->partition(p).end_offset();
      const std::uint64_t rate = static_cast<std::uint64_t>(end - last[p]);
      last[p] = end;
      const std::uint64_t bytes = (*t)->partition(p).bytes();
      controller_.ObserveLoad(topic, p, rate, bytes, as.merge_rate_threshold);
      if (!have_hottest || rate > hottest_rate) {
        have_hottest = true;
        hottest = p;
        hottest_rate = rate;
      }
    }

    // Split: hottest leaf over threshold (or forced), partition budget
    // permitting. Child ids are the next two indices, so the cap is on
    // the total created, not the live count — a topic that split/merged
    // its way to the cap stays there.
    if (actions < as.max_actions_per_tick && have_hottest &&
        (force_split || (as.split_rate_threshold > 0 &&
                         hottest_rate >= as.split_rate_threshold)) &&
        (*t)->partition_count() + 2 <= as.max_partitions) {
      if (SplitPartitionLocked(topic, hottest).ok()) ++actions;
    }

    // Merge: first sibling pair (by leaf order) where both stayed cold
    // for the window — or, when forced, the coldest mergeable pair.
    if (actions < as.max_actions_per_tick) {
      auto rit = routers_.find(topic);
      if (rit != routers_.end() && (*t)->partition_count() < as.max_partitions) {
        stream::PartitionId best_a = 0, best_b = 0;
        std::uint64_t best_rate = 0;
        bool have_pair = false;
        for (const stream::PartitionId p : rit->second.LiveLeaves()) {
          auto sib = rit->second.SiblingOf(p);
          if (!sib.ok() || *sib <= p) continue;  // visit each pair once
          const auto* la = controller_.Load(topic, p);
          const auto* lb = controller_.Load(topic, *sib);
          if (la == nullptr || lb == nullptr) continue;
          const bool cold = la->cold_ticks >= as.merge_cold_ticks &&
                            lb->cold_ticks >= as.merge_cold_ticks;
          if (!cold && !force_merge) continue;
          const std::uint64_t pair_rate = la->rate + lb->rate;
          if (!have_pair || pair_rate < best_rate) {
            have_pair = true;
            best_a = p;
            best_b = *sib;
            best_rate = pair_rate;
          }
          if (cold) break;  // first cold pair in leaf order wins outright
        }
        if (have_pair && MergePartitionsLocked(topic, best_a, best_b).ok()) ++actions;
      }
    }
  }
}

Status BrokerCluster::SplitPartitionLocked(const std::string& topic,
                                           stream::PartitionId parent) {
  auto pit = placements_.find(topic);
  if (pit == placements_.end()) return Status::NotFound("topic '" + topic + "' not placed");
  auto t = broker_.GetTopic(topic);
  if (!t.ok()) return t.status();
  TopicPlacement& pl = pit->second;
  // Lazily create the identity router: at the first split the placement
  // still holds exactly the original partitions, so Identity() over the
  // current count is the pre-split routing function.
  auto rit = routers_.find(topic);
  if (rit == routers_.end()) {
    rit = routers_.emplace(topic, TopicRouter::Identity(pl.partition_count())).first;
  }
  TopicRouter& router = rit->second;
  if (!router.IsLeaf(parent)) {
    return Status::FailedPrecondition("partition " + std::to_string(parent) +
                                      " is not a live leaf");
  }
  const stream::PartitionId c0 = pl.partition_count();
  const stream::PartitionId c1 = c0 + 1;
  const std::vector<BrokerId> row0 = PlacePartition(ring_, topic, c0, pl.factor);
  const std::vector<BrokerId> row1 = PlacePartition(ring_, topic, c1, pl.factor);

  // Metadata first: the controller never advertises a transition its log
  // does not hold, and if the metadata quorum is gone the split simply
  // does not happen (live state untouched).
  MetaEvent ev{.kind = MetaEventKind::kPartitionSplit, .topic = topic};
  ev.partition = parent;
  ev.children = std::to_string(c0) + "," + std::to_string(c1);
  ev.split_offset =
      static_cast<std::uint64_t>((*t)->partition(parent).end_offset());
  TopicPlacement rows;
  rows.factor = pl.factor;
  rows.replicas = {row0, row1};
  ev.placement = rows.Encode();
  Status appended = controller_.Append(ev);
  if (!appended.ok()) return appended;

  // Fence the parent: dedup answers survive, everything else is turned
  // away; its live rows seal into the immutable query tier.
  auto seal = (*t)->replication(parent).SealForSplit();
  (*t)->partition(parent).SealActive();

  // Create the children and hand the parent's committed (pid, seq) table
  // to both — an in-flight retry of a parent-committed record dedups on
  // whichever child now owns its key.
  (*t)->AddPartitions(2);
  (*t)->replication(c0).SeedDedup(seal.seen);
  (*t)->replication(c1).SeedDedup(seal.seen);
  pl.replicas.push_back(row0);
  pl.replicas.push_back(row1);

  // Child slots hosted on currently-dead or fenced brokers crash
  // immediately so elections and the gate see the true world.
  for (const stream::PartitionId c : {c0, c1}) {
    for (std::uint32_t s = 0; s < pl.factor; ++s) {
      const Node& host = nodes_[pl.broker_of(c, s)];
      if (!host.up || host.split) {
        (*t)->replication(c).CrashNode(s, /*restore_after_ops=*/0);
      }
    }
  }

  router.Split(parent, c0, c1);
  controller_.ForgetLoad(topic, parent);
  ++stats_.splits;
  // The controller's Apply routed the children to slot 0; if a crashed
  // host just moved a child's leadership, record the move.
  RefreshRoutesLocked();
  return Status::Ok();
}

Status BrokerCluster::MergePartitionsLocked(const std::string& topic,
                                            stream::PartitionId a,
                                            stream::PartitionId b) {
  auto pit = placements_.find(topic);
  if (pit == placements_.end()) return Status::NotFound("topic '" + topic + "' not placed");
  auto rit = routers_.find(topic);
  if (rit == routers_.end()) {
    return Status::FailedPrecondition("topic '" + topic + "' has never split");
  }
  auto t = broker_.GetTopic(topic);
  if (!t.ok()) return t.status();
  TopicPlacement& pl = pit->second;
  TopicRouter& router = rit->second;
  auto sib = router.SiblingOf(a);
  if (!sib.ok() || *sib != b) {
    return Status::FailedPrecondition("partitions " + std::to_string(a) + " and " +
                                      std::to_string(b) + " are not live siblings");
  }
  const stream::PartitionId merged = pl.partition_count();
  const std::vector<BrokerId> row = PlacePartition(ring_, topic, merged, pl.factor);

  MetaEvent ev{.kind = MetaEventKind::kPartitionMerged, .topic = topic};
  ev.partition = merged;
  ev.children = std::to_string(a) + "," + std::to_string(b);
  TopicPlacement rows;
  rows.factor = pl.factor;
  rows.replicas = {row};
  ev.placement = rows.Encode();
  Status appended = controller_.Append(ev);
  if (!appended.ok()) return appended;

  auto seal_a = (*t)->replication(a).SealForSplit();
  auto seal_b = (*t)->replication(b).SealForSplit();
  (*t)->partition(a).SealActive();
  (*t)->partition(b).SealActive();

  (*t)->AddPartitions(1);
  (*t)->replication(merged).SeedDedup(seal_a.seen);
  (*t)->replication(merged).SeedDedup(seal_b.seen);
  pl.replicas.push_back(row);

  for (std::uint32_t s = 0; s < pl.factor; ++s) {
    const Node& host = nodes_[pl.broker_of(merged, s)];
    if (!host.up || host.split) {
      (*t)->replication(merged).CrashNode(s, /*restore_after_ops=*/0);
    }
  }

  router.Merge(a, b, merged);
  controller_.ForgetLoad(topic, a);
  controller_.ForgetLoad(topic, b);
  ++stats_.merges;
  RefreshRoutesLocked();
  return Status::Ok();
}

Status BrokerCluster::SplitPartition(const std::string& topic,
                                     stream::PartitionId parent) {
  std::unique_lock<std::shared_mutex> lk(mu_);
  return SplitPartitionLocked(topic, parent);
}

Status BrokerCluster::MergePartitions(const std::string& topic, stream::PartitionId a,
                                      stream::PartitionId b) {
  std::unique_lock<std::shared_mutex> lk(mu_);
  return MergePartitionsLocked(topic, a, b);
}

Expected<stream::PartitionId> BrokerCluster::RoutePartition(const std::string& topic,
                                                            const std::string& key) {
  auto t = broker_.GetTopic(topic);
  if (!t.ok()) return t.status();
  {
    std::shared_lock<std::shared_mutex> lk(mu_);
    auto rit = routers_.find(topic);
    if (rit != routers_.end()) {
      if (!key.empty()) {
        return rit->second.RouteHash(Fnv1a(key));
      }
      // Empty keys keep round-robining, over the live leaves, reusing the
      // topic's counter so the draw sequence matches the identity path.
      const std::vector<stream::PartitionId> leaves = rit->second.LiveLeaves();
      const stream::PartitionId r = (*t)->PartitionFor(key);
      return leaves[r % leaves.size()];
    }
  }
  // No router: identical to the pre-autoscale path, draw for draw.
  return (*t)->PartitionFor(key);
}

bool BrokerCluster::HasRouter(const std::string& topic) const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  return routers_.contains(topic);
}

bool BrokerCluster::IsSealed(const std::string& topic, stream::PartitionId p) const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  auto rit = routers_.find(topic);
  return rit != routers_.end() && rit->second.sealed.contains(p);
}

std::vector<stream::PartitionId> BrokerCluster::LiveLeaves(
    const std::string& topic) const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  return LiveLeavesLocked(topic);
}

std::uint64_t BrokerCluster::DedupFloor(const std::string& topic, stream::PartitionId p,
                                        stream::ProducerId pid) const {
  auto t = broker_.GetTopic(topic);
  if (!t.ok()) return 0;
  if (p >= (*t)->partition_count()) return 0;
  return (*t)->replication(p).LastSeq(pid);
}

bool BrokerCluster::BrokerUp(BrokerId broker) const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  return broker < cfg_.brokers && nodes_[broker].up;
}

std::vector<BrokerId> BrokerCluster::DownBrokers() const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  std::vector<BrokerId> out;
  for (BrokerId b = 0; b < cfg_.brokers; ++b) {
    if (!nodes_[b].up) out.push_back(b);
  }
  return out;
}

std::vector<BrokerId> BrokerCluster::MinoritySide() const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  std::vector<BrokerId> out;
  for (BrokerId b = 0; b < cfg_.brokers; ++b) {
    if (nodes_[b].split) out.push_back(b);
  }
  return out;
}

Expected<BrokerId> BrokerCluster::LeaderBroker(const std::string& topic,
                                               stream::PartitionId p) const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  auto it = placements_.find(topic);
  if (it == placements_.end()) return Status::NotFound("topic '" + topic + "' not placed");
  if (p >= it->second.partition_count()) {
    return Status::OutOfRange("partition " + std::to_string(p) + " of topic '" + topic + "'");
  }
  auto t = broker_.GetTopic(topic);
  if (!t.ok()) return t.status();
  const stream::NodeId slot = (*t)->replication(p).leader();
  if (slot == stream::kNoLeader) {
    return Status::Unavailable("topic '" + topic + "' partition " + std::to_string(p) +
                               " is leaderless");
  }
  return it->second.broker_of(p, slot);
}

Expected<const TopicPlacement*> BrokerCluster::Placement(const std::string& topic) const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  auto it = placements_.find(topic);
  if (it == placements_.end()) return Status::NotFound("topic '" + topic + "' not placed");
  return &it->second;
}

ClusterStats BrokerCluster::stats() const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  ClusterStats out = stats_;
  out.produce_denied = produce_denied_.load(std::memory_order_relaxed);
  out.fetch_denied = fetch_denied_.load(std::memory_order_relaxed);
  out.lossy_drops = lossy_drops_.load(std::memory_order_relaxed);
  return out;
}

Duration BrokerCluster::ModeledProduceMakespan(const std::string& topic,
                                               std::size_t records,
                                               Duration cost_per_record) const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  auto it = placements_.find(topic);
  if (it == placements_.end()) return Duration::Zero();
  auto t = broker_.GetTopic(topic);
  if (!t.ok()) return Duration::Zero();
  const TopicPlacement& pl = it->second;
  const std::uint32_t parts = pl.partition_count();
  std::vector<std::size_t> busy(cfg_.brokers, 0);
  for (stream::PartitionId p = 0; p < parts; ++p) {
    const std::size_t count = records / parts + (p < records % parts ? 1 : 0);
    const stream::NodeId slot = (*t)->replication(p).leader();
    if (slot == stream::kNoLeader) continue;
    busy[pl.broker_of(p, slot)] += count;
  }
  const std::size_t worst = *std::max_element(busy.begin(), busy.end());
  return cost_per_record * static_cast<double>(worst);
}

ClusterProducer::ClusterProducer(BrokerCluster& cluster, stream::Broker& broker,
                                 std::string topic, fault::RetryPolicy retry,
                                 std::uint64_t jitter_seed)
    : cluster_(cluster),
      broker_(broker),
      topic_(std::move(topic)),
      retry_(retry),
      rng_(jitter_seed),
      pid_(broker.AllocateProducerId()) {}

std::uint64_t ClusterProducer::NextSeqFor(stream::PartitionId p) {
  auto [it, inserted] = next_seq_.try_emplace(p, 0);
  if (inserted) {
    // First send to this partition. If it is a split/merge child, its
    // dedup table already holds this producer's parent-committed seqs;
    // start above them so fresh records are never mistaken for retries.
    it->second = cluster_.DedupFloor(topic_, p, pid_);
  }
  return ++it->second;
}

Expected<std::pair<stream::PartitionId, stream::Offset>> ClusterProducer::Send(
    stream::Record record, Deadline* deadline) {
  auto routed = cluster_.RoutePartition(topic_, record.key);
  if (!routed.ok()) return routed.status();
  stream::PartitionId p = *routed;
  std::uint64_t seq = NextSeqFor(p);

  auto leader = cluster_.LeaderBroker(topic_, p);
  bool have_leader = leader.ok();
  BrokerId last_leader = have_leader ? *leader : 0;

  // Re-resolve the route after a split/merge fenced our partition. Only
  // called once the sealed target has returned kFailedPrecondition for
  // (pid_, seq) — and the seal check runs AFTER the dedup check, so a
  // committed (pid_, seq) would have acked with its original offset
  // instead. The record is therefore uncommitted everywhere, and it hands
  // off as a fresh append on the new owner's own seq stream (NextSeqFor
  // seeds past every inherited parent/sibling seq, so reusing the parent
  // stream's number can never be mistaken for a merged sibling's record).
  auto migrate = [&]() -> bool {
    auto again = cluster_.RoutePartition(topic_, record.key);
    if (!again.ok() || *again == p) return false;
    ++handoffs_;
    p = *again;
    seq = NextSeqFor(p);
    have_leader = false;
    return true;
  };

  const std::size_t attempts = std::max<std::size_t>(retry_.max_attempts, 1);
  Status last = Status::Ok();
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    if (deadline != nullptr && deadline->expired()) {
      ++deadline_exhausted_;
      return Status::DeadlineExceeded("send budget exhausted after " +
                                      std::to_string(attempt) + " attempts");
    }
    auto off = broker_.ProduceIdempotent(topic_, p, pid_, seq, record);
    // Charge the attempt's modeled service time on whichever broker led
    // the partition, and report it to the health tracker. Pure accounting:
    // no randomness is consumed, so the null-deadline path stays
    // byte-identical to the pre-deadline producer.
    if (auto served_by = cluster_.LeaderBroker(topic_, p); served_by.ok()) {
      const Duration cost = cluster_.OpLatency(*served_by);
      if (deadline != nullptr) deadline->Charge(cost);
      cluster_.health().Observe(*served_by, cost, !off.ok());
    }
    if (off.ok()) {
      ++sent_;
      return std::make_pair(p, *off);
    }
    last = off.status();
    if (last.code() == StatusCode::kFailedPrecondition &&
        cluster_.IsSealed(topic_, p)) {
      if (migrate()) continue;
      break;
    }
    if (last.code() != StatusCode::kUnavailable) break;
    if (attempt + 1 == attempts) break;
    ++retries_;
    // Budget-aware backoff: same jitter draw either way, but the sleep is
    // clamped to (and charged against) whatever budget remains, so a
    // retry can never outlive the caller's frame.
    const Duration back = deadline == nullptr
                              ? retry_.BackoffFor(attempt, rng_)
                              : retry_.BackoffForBudget(attempt, rng_, *deadline);
    if (deadline != nullptr) deadline->Charge(back);
    total_backoff_ = total_backoff_ + back;
    // Backoff is modeled time passing: kill windows count down, splits
    // heal, elections settle. Tick the cluster so the retry sees it.
    cluster_.Tick();
    // If an autoscale action sealed the target during the backoff ticks,
    // keep retrying the sealed parent anyway: only it can testify whether
    // (pid_, seq) committed before the fence (a crash can commit and lose
    // the ack). Once reachable it either acks the duplicate or returns
    // kFailedPrecondition, and the sealed branch above hands off.
    auto now_leading = cluster_.LeaderBroker(topic_, p);
    if (now_leading.ok()) {
      if (have_leader && *now_leading != last_leader) ++rerouted_;
      have_leader = true;
      last_leader = *now_leading;
    }
  }
  ++exhausted_;
  return last;
}

ClusterQuery::ClusterQuery(BrokerCluster& cluster, stream::Broker& broker,
                           std::string topic, fault::RetryPolicy retry,
                           std::uint64_t jitter_seed)
    : cluster_(cluster),
      broker_(broker),
      topic_(std::move(topic)),
      retry_(retry),
      rng_(jitter_seed) {}

template <typename T>
Expected<T> ClusterQuery::WithRetry(stream::PartitionId p,
                                    const std::function<Expected<T>()>& attempt_fn,
                                    Deadline* deadline) {
  const std::size_t attempts = std::max<std::size_t>(retry_.max_attempts, 1);
  Status last = Status::Ok();
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    if (deadline != nullptr && deadline->expired()) {
      ++deadline_exhausted_;
      return Status::DeadlineExceeded("query budget exhausted after " +
                                      std::to_string(attempt) + " attempts");
    }
    auto r = attempt_fn();
    // Same accounting contract as ClusterProducer::Send: charge the
    // leader's modeled service time and feed the health tracker.
    if (auto served_by = cluster_.LeaderBroker(topic_, p); served_by.ok()) {
      const Duration cost = cluster_.OpLatency(*served_by);
      if (deadline != nullptr) deadline->Charge(cost);
      cluster_.health().Observe(*served_by, cost, !r.ok());
    }
    if (r.ok()) return r;
    last = r.status();
    if (last.code() != StatusCode::kUnavailable) break;
    if (attempt + 1 == attempts) break;
    ++retries_;
    const Duration back = deadline == nullptr
                              ? retry_.BackoffFor(attempt, rng_)
                              : retry_.BackoffForBudget(attempt, rng_, *deadline);
    if (deadline != nullptr) deadline->Charge(back);
    total_backoff_ = total_backoff_ + back;
    // Same contract as ClusterProducer: backoff is modeled time, so tick
    // the cluster — the kill window drains and a new leader is elected,
    // after which AdmitFetch stops rejecting the read.
    cluster_.Tick();
  }
  ++exhausted_;
  return last;
}

Expected<stream::QueryResult> ClusterQuery::QueryRange(stream::PartitionId p,
                                                       stream::Offset lo,
                                                       stream::Offset hi,
                                                       Deadline* deadline) {
  return WithRetry<stream::QueryResult>(
      p, [&] { return broker_.QueryRange(topic_, p, lo, hi); }, deadline);
}

Expected<stream::QueryResult> ClusterQuery::QueryTime(stream::PartitionId p,
                                                      TimePoint t_lo, TimePoint t_hi,
                                                      Deadline* deadline) {
  return WithRetry<stream::QueryResult>(
      p, [&] { return broker_.QueryTime(topic_, p, t_lo, t_hi); }, deadline);
}

Expected<stream::Offset> ClusterQuery::OffsetForTimestamp(stream::PartitionId p,
                                                          TimePoint t,
                                                          Deadline* deadline) {
  return WithRetry<stream::Offset>(
      p, [&] { return broker_.OffsetForTimestamp(topic_, p, t); }, deadline);
}

}  // namespace arbd::cluster
