#include "cluster/controller.h"

#include <algorithm>

#include "common/serialize.h"

namespace arbd::cluster {
namespace {

constexpr std::size_t kMetaFetchChunk = 1024;

std::string Field(const std::string& payload, const std::string& key) {
  const std::string needle = key + "=";
  std::size_t pos = 0;
  while (pos < payload.size()) {
    const std::size_t end = payload.find(';', pos);
    const std::string tok =
        payload.substr(pos, end == std::string::npos ? std::string::npos : end - pos);
    if (tok.rfind(needle, 0) == 0) return tok.substr(needle.size());
    if (end == std::string::npos) break;
    pos = end + 1;
  }
  return {};
}

}  // namespace

const char* MetaEventKindName(MetaEventKind kind) {
  switch (kind) {
    case MetaEventKind::kBrokerUp: return "broker_up";
    case MetaEventKind::kBrokerDown: return "broker_down";
    case MetaEventKind::kTopicPlaced: return "topic_placed";
    case MetaEventKind::kLeaderMoved: return "leader_moved";
    case MetaEventKind::kNetSplit: return "net_split";
    case MetaEventKind::kNetHeal: return "net_heal";
    case MetaEventKind::kPartitionSplit: return "partition_split";
    case MetaEventKind::kPartitionMerged: return "partition_merged";
    case MetaEventKind::kBrokerDegraded: return "broker_degraded";
    case MetaEventKind::kBrokerRecovered: return "broker_recovered";
  }
  return "unknown";
}

std::string MetaEvent::Encode() const {
  std::string out = "broker=" + std::to_string(broker) + ";epoch=" + std::to_string(epoch);
  if (!topic.empty()) out += ";topic=" + topic;
  out += ";partition=" + std::to_string(partition);
  out += ";leader=" + std::to_string(leader);
  if (!placement.empty()) out += ";placement=" + placement;
  if (!children.empty()) out += ";children=" + children;
  if (kind == MetaEventKind::kPartitionSplit) {
    out += ";split_offset=" + std::to_string(split_offset);
  }
  return out;
}

Expected<MetaEvent> MetaEvent::Decode(const std::string& kind_name,
                                      const std::string& payload) {
  MetaEvent e;
  bool known = false;
  for (MetaEventKind k :
       {MetaEventKind::kBrokerUp, MetaEventKind::kBrokerDown, MetaEventKind::kTopicPlaced,
        MetaEventKind::kLeaderMoved, MetaEventKind::kNetSplit, MetaEventKind::kNetHeal,
        MetaEventKind::kPartitionSplit, MetaEventKind::kPartitionMerged,
        MetaEventKind::kBrokerDegraded, MetaEventKind::kBrokerRecovered}) {
    if (kind_name == MetaEventKindName(k)) {
      e.kind = k;
      known = true;
      break;
    }
  }
  if (!known) return Status::InvalidArgument("unknown meta event kind '" + kind_name + "'");
  auto num = [&](const std::string& key, std::uint64_t* out) {
    const std::string v = Field(payload, key);
    if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) return false;
    *out = std::stoull(v);
    return true;
  };
  std::uint64_t tmp = 0;
  if (num("broker", &tmp)) e.broker = static_cast<BrokerId>(tmp);
  if (num("epoch", &tmp)) e.epoch = tmp;
  if (num("partition", &tmp)) e.partition = static_cast<stream::PartitionId>(tmp);
  if (num("leader", &tmp)) e.leader = static_cast<BrokerId>(tmp);
  if (num("split_offset", &tmp)) e.split_offset = tmp;
  e.topic = Field(payload, "topic");
  e.placement = Field(payload, "placement");
  e.children = Field(payload, "children");
  return e;
}

namespace {

// "12,34" -> {12, 34}; nullopt on anything malformed.
bool ParseChildPair(const std::string& s, stream::PartitionId* a,
                    stream::PartitionId* b) {
  const std::size_t comma = s.find(',');
  if (comma == std::string::npos) return false;
  const std::string x = s.substr(0, comma), y = s.substr(comma + 1);
  if (x.empty() || y.empty() ||
      x.find_first_not_of("0123456789") != std::string::npos ||
      y.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *a = static_cast<stream::PartitionId>(std::stoul(x));
  *b = static_cast<stream::PartitionId>(std::stoul(y));
  return true;
}

}  // namespace

void ControllerState::Apply(const MetaEvent& e) {
  switch (e.kind) {
    case MetaEventKind::kBrokerUp: {
      auto& b = brokers[e.broker];
      b.up = true;
      b.epoch = e.epoch;
      break;
    }
    case MetaEventKind::kBrokerDown: {
      auto& b = brokers[e.broker];
      b.up = false;
      b.epoch = e.epoch;
      break;
    }
    case MetaEventKind::kTopicPlaced: {
      auto decoded = TopicPlacement::Decode(e.placement);
      if (!decoded.ok()) break;  // a corrupt event cannot poison the map
      placements[e.topic] = *decoded;
      const TopicPlacement& p = placements[e.topic];
      for (stream::PartitionId part = 0; part < p.partition_count(); ++part) {
        routes[{e.topic, part}] = p.broker_of(part, 0);
      }
      break;
    }
    case MetaEventKind::kLeaderMoved:
      routes[{e.topic, e.partition}] = e.leader;
      break;
    case MetaEventKind::kNetSplit:
      brokers[e.broker].split = true;
      break;
    case MetaEventKind::kNetHeal:
      brokers[e.broker].split = false;
      break;
    case MetaEventKind::kBrokerDegraded:
      brokers[e.broker].degraded = true;
      break;
    case MetaEventKind::kBrokerRecovered:
      brokers[e.broker].degraded = false;
      break;
    case MetaEventKind::kPartitionSplit: {
      stream::PartitionId c0 = 0, c1 = 0;
      auto rows = TopicPlacement::Decode(e.placement);
      auto pit = placements.find(e.topic);
      if (pit == placements.end() || !rows.ok() || rows->replicas.size() != 2 ||
          !ParseChildPair(e.children, &c0, &c1)) {
        break;  // a corrupt event cannot poison the state machine
      }
      TopicPlacement& pl = pit->second;
      // The router is created lazily at the first split, so its base
      // leaf set is the topic's original placement.
      auto rit = routers.try_emplace(e.topic, TopicRouter()).first;
      if (rit->second.base_partitions == 0) {
        rit->second = TopicRouter::Identity(pl.partition_count());
      }
      if (c0 != pl.partition_count() || c1 != c0 + 1 ||
          !rit->second.Split(e.partition, c0, c1).ok()) {
        break;
      }
      pl.replicas.push_back(rows->replicas[0]);
      pl.replicas.push_back(rows->replicas[1]);
      routes[{e.topic, c0}] = rows->replicas[0][0];
      routes[{e.topic, c1}] = rows->replicas[1][0];
      break;
    }
    case MetaEventKind::kPartitionMerged: {
      stream::PartitionId a = 0, b = 0;
      auto rows = TopicPlacement::Decode(e.placement);
      auto pit = placements.find(e.topic);
      auto rit = routers.find(e.topic);
      if (pit == placements.end() || rit == routers.end() || !rows.ok() ||
          rows->replicas.size() != 1 || !ParseChildPair(e.children, &a, &b)) {
        break;
      }
      TopicPlacement& pl = pit->second;
      if (e.partition != pl.partition_count() ||
          !rit->second.Merge(a, b, e.partition).ok()) {
        break;
      }
      pl.replicas.push_back(rows->replicas[0]);
      routes[{e.topic, e.partition}] = rows->replicas[0][0];
      break;
    }
  }
}

std::uint64_t ControllerState::Digest() const {
  std::string flat;
  for (const auto& [b, st] : brokers) {
    flat += "b" + std::to_string(b) + (st.up ? "+" : "-") + (st.split ? "x" : ".") +
            std::to_string(st.epoch) + (st.degraded ? "!" : "") + ";";
  }
  for (const auto& [topic, p] : placements) {
    flat += "t" + topic + "=" + p.Encode() + ";";
  }
  for (const auto& [key, leader] : routes) {
    flat += "r" + key.first + "#" + std::to_string(key.second) + "->" +
            std::to_string(leader) + ";";
  }
  for (const auto& [topic, router] : routers) {
    flat += "k" + topic + "=" + router.Encode() + ";";
  }
  return Fnv1a(flat);
}

MetadataController::MetadataController(std::uint32_t brokers, std::uint32_t meta_factor,
                                       std::uint64_t seed, std::size_t segment_bytes)
    : log_(segment_bytes),
      log_rp_(std::clamp<std::uint32_t>(meta_factor, 1, std::max<std::uint32_t>(brokers, 1)),
              seed ^ 0x7e7ad47aULL, log_) {}

Status MetadataController::Append(const MetaEvent& e) {
  const std::uint64_t seq = seq_ + 1;
  stream::Record record = stream::Record::MakeText(
      MetaEventKindName(e.kind), e.Encode(), TimePoint::FromNanos(static_cast<std::int64_t>(seq)));
  // One retry per replica: a crashed meta leader is replaced synchronously
  // by CrashNode's election, so the first retry lands on the successor;
  // (pid, seq) dedup makes the retry safe if the first attempt committed
  // before losing its ack.
  Status last = Status::Ok();
  for (std::uint32_t attempt = 0; attempt <= log_rp_.factor(); ++attempt) {
    auto off = log_rp_.Produce(record, record.event_time, /*pid=*/1, seq);
    if (off.ok()) {
      seq_ = seq;
      state_.Apply(e);
      return Status::Ok();
    }
    last = off.status();
    if (last.code() != StatusCode::kUnavailable) break;
  }
  return last;
}

Expected<BrokerId> MetadataController::Route(const std::string& topic,
                                             stream::PartitionId p) const {
  auto it = state_.routes.find({topic, p});
  if (it == state_.routes.end()) {
    return Status::NotFound("no route for topic '" + topic + "' partition " +
                            std::to_string(p));
  }
  return it->second;
}

void MetadataController::ObserveLoad(const std::string& topic, stream::PartitionId p,
                                     std::uint64_t rate, std::uint64_t bytes,
                                     std::uint64_t cold_threshold) {
  PartitionLoad& l = loads_[{topic, p}];
  l.rate = rate;
  l.bytes = bytes;
  l.cold_ticks = rate <= cold_threshold ? l.cold_ticks + 1 : 0;
}

const MetadataController::PartitionLoad* MetadataController::Load(
    const std::string& topic, stream::PartitionId p) const {
  auto it = loads_.find({topic, p});
  return it == loads_.end() ? nullptr : &it->second;
}

void MetadataController::ForgetLoad(const std::string& topic, stream::PartitionId p) {
  loads_.erase({topic, p});
}

Expected<std::uint64_t> MetadataController::ReplayDigest() const {
  ControllerState rebuilt;
  stream::Offset pos = log_.log_start_offset();
  while (pos < log_.end_offset()) {
    auto rows = log_.Fetch(pos, kMetaFetchChunk);
    if (!rows.ok()) return rows.status();
    if (rows->empty()) break;
    for (const auto& sr : *rows) {
      auto e = MetaEvent::Decode(sr.record.key, sr.record.TextPayload());
      if (!e.ok()) return e.status();
      rebuilt.Apply(*e);
      pos = sr.offset + 1;
    }
  }
  return rebuilt.Digest();
}

}  // namespace arbd::cluster
