// The cluster's metadata controller. Its state machine — broker liveness
// epochs, topic placements, and the partition -> leader-broker routing
// table — is derived purely by applying MetaEvents, and every event is
// appended to a replicated metadata log (a ReplicatedPartition fronting a
// dedicated Partition, exactly the machinery data partitions use) before
// it mutates the live state. That makes the controller's state
// reconstructible: replaying the committed log through a fresh state
// machine must land on the same digest as the live one, the invariant the
// cluster tests assert after every kill/heal storm.
//
// The metadata quorum is modeled as its own small replica group (like
// KRaft controllers living apart from the data brokers), so data-broker
// kills never take the controller's log below quorum; controller chaos is
// exercised directly through log().
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "common/status.h"
#include "cluster/placement.h"
#include "stream/log.h"
#include "stream/replication.h"

namespace arbd::cluster {

enum class MetaEventKind : std::uint8_t {
  kBrokerUp,     // broker joined / restarted (liveness epoch bumped)
  kBrokerDown,   // broker killed (liveness epoch bumped)
  kTopicPlaced,  // topic created: full placement in the payload
  kLeaderMoved,  // a partition's leadership drained to another broker
  kNetSplit,     // broker isolated on the minority side of a link split
  kNetHeal,      // the split healed
  kPartitionSplit,   // hot partition sealed, two placed children created
  kPartitionMerged,  // two cold siblings sealed, one placed merge target
  kBrokerDegraded,   // health verdict: broker browned out, leaderships
                     // drain off it (gray failure, broker still up)
  kBrokerRecovered,  // health verdict cleared: broker trusted again
};

const char* MetaEventKindName(MetaEventKind kind);

struct MetaEvent {
  MetaEventKind kind = MetaEventKind::kBrokerUp;
  BrokerId broker = 0;         // kBrokerUp/Down/NetSplit/NetHeal
  std::uint64_t epoch = 0;     // broker liveness epoch after the event
  std::string topic;           // kTopicPlaced / kLeaderMoved / split / merge
  // kLeaderMoved: the moved partition. kPartitionSplit: the sealed
  // parent. kPartitionMerged: the new merge-target partition.
  stream::PartitionId partition = 0;
  BrokerId leader = 0;                // kLeaderMoved
  // kTopicPlaced: the full placement. kPartitionSplit/kPartitionMerged:
  // the replica rows of just the new partitions (TopicPlacement::Encode).
  std::string placement;
  // kPartitionSplit: "c0,c1" child ids. kPartitionMerged: "a,b" sealed
  // source ids. Empty for every older kind, so their encodings — and
  // every pre-autoscale log digest — are byte-identical to before.
  std::string children;
  // kPartitionSplit: the parent's committed end offset at the seal; the
  // fence every child's inherited dedup table is anchored to.
  std::uint64_t split_offset = 0;

  std::string Encode() const;
  static Expected<MetaEvent> Decode(const std::string& kind_name,
                                    const std::string& payload);
};

// The pure state machine. Apply() is the only mutator, so live state and
// log-replayed state can be compared digest-for-digest.
struct ControllerState {
  struct BrokerStatus {
    bool up = true;
    bool split = false;          // fenced on the minority side
    std::uint64_t epoch = 1;     // liveness epoch
    // Health verdict (kBrokerDegraded/kBrokerRecovered). Folded into
    // Digest() only while true, so every pre-health digest is unchanged.
    bool degraded = false;
  };
  std::map<BrokerId, BrokerStatus> brokers;
  std::map<std::string, TopicPlacement> placements;
  // (topic, partition) -> broker currently leading it.
  std::map<std::pair<std::string, stream::PartitionId>, BrokerId> routes;
  // Key-range routers, present only for topics that have split or merged
  // at least once — absent entries digest to nothing, keeping every
  // pre-autoscale digest unchanged.
  std::map<std::string, TopicRouter> routers;

  void Apply(const MetaEvent& e);
  std::uint64_t Digest() const;
};

class MetadataController {
 public:
  // `meta_factor` is clamped to [1, brokers]; `seed` drives the metadata
  // log's own deterministic elections; `segment_bytes` is the log's seal
  // target.
  MetadataController(std::uint32_t brokers, std::uint32_t meta_factor,
                     std::uint64_t seed, std::size_t segment_bytes);

  // Append the event to the replicated metadata log, then apply it to the
  // live state. The append is retried across an election (a crashed meta
  // leader is replaced synchronously); it fails only when the metadata
  // quorum itself is gone, in which case the live state is NOT mutated —
  // the controller never advertises a transition its log does not hold.
  Status Append(const MetaEvent& e);

  const ControllerState& state() const { return state_; }
  Expected<BrokerId> Route(const std::string& topic, stream::PartitionId p) const;

  std::uint64_t StateDigest() const { return state_.Digest(); }
  // Digest of a fresh state machine built by replaying the committed
  // metadata log — must equal StateDigest() whenever Append has not been
  // failing (the reconstructibility invariant).
  Expected<std::uint64_t> ReplayDigest() const;

  // The controller's own replica group, for chaos tests.
  stream::ReplicatedPartition& log() { return log_rp_; }
  std::uint64_t appended() const { return seq_; }
  std::uint64_t LogDigest() const { return stream::CommittedDigest(log_); }

  // --- per-partition load accounting (autoscale telemetry) ---
  // Fed each cluster Tick from the broker's qos.depth/qos.bytes gauges
  // (or the partition mirrors when no registry is attached). Telemetry
  // only: deliberately NOT part of Digest()/ReplayDigest(), so observing
  // load never perturbs the replay-reconstructibility invariant — only
  // the split/merge *decisions* (which ARE logged events) do.
  struct PartitionLoad {
    std::uint64_t rate = 0;        // records appended since the last observation
    std::uint64_t bytes = 0;       // retained key+payload bytes right now
    std::uint64_t cold_ticks = 0;  // consecutive observations at/below the merge bar
  };
  void ObserveLoad(const std::string& topic, stream::PartitionId p,
                   std::uint64_t rate, std::uint64_t bytes,
                   std::uint64_t cold_threshold);
  // nullptr when the partition has never been observed (or was forgotten).
  const PartitionLoad* Load(const std::string& topic, stream::PartitionId p) const;
  // Drop accounting for a partition that sealed (split parent, merged child).
  void ForgetLoad(const std::string& topic, stream::PartitionId p);

 private:
  stream::Partition log_;  // committed prefix of the metadata log
  stream::ReplicatedPartition log_rp_;
  ControllerState state_;
  std::uint64_t seq_ = 0;  // events appended (also the log's logical clock)
  std::map<std::pair<std::string, stream::PartitionId>, PartitionLoad> loads_;
};

}  // namespace arbd::cluster
