// Hedged reads for gray-failure tolerance (ISSUE 10). A browned-out
// leader broker still answers — just slowly — so fail-stop machinery
// (admission gate, elections) never saves the read. HedgedReader wraps
// the read-side entry points (Fetch / QueryRange / QueryTime): the
// primary attempt goes to the partition's leader as usual, and if the
// leader's modeled latency exceeds a quantile-derived hedge delay, a
// secondary attempt is issued against another in-sync replica;
// first-response-wins, with the loser counted as cancelled.
//
// Determinism: the hedge delay comes from the HealthTracker's latency
// histogram (folded deterministically), the secondary replica is chosen
// by a pure hash of (seed, topic, partition, request id) — never a
// sequential RNG stream — and the secondary read bypasses the cluster
// gate entirely (direct Partition reads of the quorum-acked prefix), so
// hedging consumes NO fault-injector randomness and committed digests
// are hedging-invariant. This is also the locality-aware-read
// groundwork for the geo edge-tier roadmap item: "nearest replica"
// drops in where "another ISR member" is picked today.
//
// HedgeConfig::enabled off (the default) = byte-identical passthrough:
// every read is exactly the primary attempt.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/deadline.h"
#include "common/status.h"
#include "cluster/cluster.h"
#include "stream/log.h"
#include "stream/query.h"

namespace arbd::cluster {

struct HedgeConfig {
  bool enabled = false;
  // Hedge after this quantile of every observed operation latency...
  double quantile = 0.95;
  // ...but never sooner than this floor, which is also the delay used
  // until the tracker has seen `warmup_samples` observations.
  Duration min_delay = Duration::Micros(50);
  std::uint64_t warmup_samples = 32;
};

class HedgedReader {
 public:
  struct Stats {
    std::uint64_t issued = 0;          // reads entering the hedged path
    std::uint64_t hedged = 0;          // reads that fired a secondary attempt
    std::uint64_t primary_wins = 0;
    std::uint64_t secondary_wins = 0;
    // Losing attempts that had produced an answer (the deterministic
    // stand-in for cancelling the slower RPC).
    std::uint64_t cancelled = 0;
    std::uint64_t deadline_exhausted = 0;
  };

  HedgedReader(BrokerCluster& cluster, stream::Broker& broker, std::string topic,
               HedgeConfig cfg = {}, std::uint64_t seed = 0x4ed6eULL);

  // Read-side entry points, each with an optional deadline budget that
  // is charged the winning attempt's modeled latency.
  Expected<std::vector<stream::StoredRecord>> Fetch(stream::PartitionId p,
                                                    stream::Offset from,
                                                    std::size_t max_records,
                                                    Deadline* deadline = nullptr);
  Expected<stream::QueryResult> QueryRange(stream::PartitionId p, stream::Offset lo,
                                           stream::Offset hi,
                                           Deadline* deadline = nullptr);
  Expected<stream::QueryResult> QueryTime(stream::PartitionId p, TimePoint t_lo,
                                          TimePoint t_hi, Deadline* deadline = nullptr);

  // The current hedge delay: max(min_delay, latency quantile), or the
  // floor alone until the tracker is warmed up.
  Duration HedgeDelay() const;
  const Stats& stats() const { return stats_; }

 private:
  // Another in-sync replica of `p` on a live broker other than
  // `primary`, chosen by a pure hash. Returns false when none exists
  // (singleton ISR, or every other replica's broker is down).
  bool PickSecondary(stream::PartitionId p, std::uint64_t request_id,
                     BrokerId primary, BrokerId* out_broker) const;

  // The shared race: run the gate-admitted primary attempt, fire the
  // gate-bypassing secondary when the primary's modeled latency exceeds
  // the hedge delay, pick the modeled-latency winner, and account.
  template <typename T>
  Expected<T> HedgedCall(
      stream::PartitionId p, std::uint64_t request_id,
      const std::function<Expected<T>()>& primary_attempt,
      const std::function<Expected<T>(stream::Partition&)>& secondary_attempt,
      Deadline* deadline);

  BrokerCluster& cluster_;
  stream::Broker& broker_;
  std::string topic_;
  HedgeConfig cfg_;
  std::uint64_t seed_;
  Stats stats_;
};

}  // namespace arbd::cluster
