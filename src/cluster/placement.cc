#include "cluster/placement.h"

#include <algorithm>

#include "common/log.h"
#include "common/rng.h"
#include "common/serialize.h"

namespace arbd::cluster {

HashRing::HashRing(std::uint32_t brokers, std::uint32_t virtual_nodes,
                   std::uint64_t seed)
    : brokers_(std::max<std::uint32_t>(brokers, 1)) {
  const std::uint32_t vnodes = std::max<std::uint32_t>(virtual_nodes, 1);
  ring_.reserve(static_cast<std::size_t>(brokers_) * vnodes);
  for (BrokerId b = 0; b < brokers_; ++b) {
    for (std::uint32_t v = 0; v < vnodes; ++v) {
      ring_.emplace_back(Mix64(seed ^ Mix64((static_cast<std::uint64_t>(b) << 32) | v)), b);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

std::vector<BrokerId> HashRing::ReplicaSet(std::uint64_t item_hash,
                                           std::uint32_t n) const {
  n = std::min(n, brokers_);
  std::vector<BrokerId> out;
  out.reserve(n);
  // First ring point at or after the item's position, wrapping.
  auto it = std::lower_bound(ring_.begin(), ring_.end(),
                             std::make_pair(item_hash, BrokerId{0}));
  for (std::size_t walked = 0; out.size() < n && walked < ring_.size(); ++walked) {
    if (it == ring_.end()) it = ring_.begin();
    const BrokerId b = it->second;
    if (std::find(out.begin(), out.end(), b) == out.end()) out.push_back(b);
    ++it;
  }
  return out;
}

std::string TopicPlacement::Encode() const {
  std::string out;
  for (const auto& slots : replicas) {
    if (!out.empty()) out += '|';
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (s > 0) out += ',';
      out += std::to_string(slots[s]);
    }
  }
  return out;
}

Expected<TopicPlacement> TopicPlacement::Decode(const std::string& text) {
  TopicPlacement p;
  if (text.empty()) return Status::InvalidArgument("empty placement");
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t bar = text.find('|', start);
    const std::string part =
        text.substr(start, bar == std::string::npos ? std::string::npos : bar - start);
    std::vector<BrokerId> slots;
    std::size_t s = 0;
    while (s <= part.size()) {
      const std::size_t comma = part.find(',', s);
      const std::string tok =
          part.substr(s, comma == std::string::npos ? std::string::npos : comma - s);
      if (tok.empty() || tok.find_first_not_of("0123456789") != std::string::npos) {
        return Status::InvalidArgument("bad placement token '" + tok + "'");
      }
      slots.push_back(static_cast<BrokerId>(std::stoul(tok)));
      if (comma == std::string::npos) break;
      s = comma + 1;
    }
    p.replicas.push_back(std::move(slots));
    if (bar == std::string::npos) break;
    start = bar + 1;
  }
  p.factor = p.replicas.empty() ? 1 : static_cast<std::uint32_t>(p.replicas[0].size());
  return p;
}

TopicPlacement PlaceTopic(const HashRing& ring, const std::string& topic,
                          std::uint32_t partitions, std::uint32_t requested_factor) {
  TopicPlacement placement;
  requested_factor = std::max<std::uint32_t>(requested_factor, 1);
  placement.factor = std::min(requested_factor, ring.brokers());
  if (placement.factor < requested_factor) {
    placement.clamped = true;
    ARBD_LOG_WARN("cluster", "topic '" + topic + "' replication factor " +
                                 std::to_string(requested_factor) + " clamped to " +
                                 std::to_string(placement.factor) + " (only " +
                                 std::to_string(ring.brokers()) + " live brokers)");
  }
  placement.replicas.reserve(partitions);
  std::vector<std::size_t> leaders_on(ring.brokers(), 0);
  for (stream::PartitionId p = 0; p < partitions; ++p) {
    std::vector<BrokerId> slots =
        ring.ReplicaSet(Mix64(Fnv1a(topic) ^ Mix64(p + 1)), placement.factor);
    // Leader balancing: promote the set member whose broker leads the
    // fewest partitions so far (ring order breaks ties), keeping the rest
    // in ring order as followers.
    std::size_t best = 0;
    for (std::size_t s = 1; s < slots.size(); ++s) {
      if (leaders_on[slots[s]] < leaders_on[slots[best]]) best = s;
    }
    std::rotate(slots.begin(), slots.begin() + best, slots.begin() + best + 1);
    ++leaders_on[slots[0]];
    placement.replicas.push_back(std::move(slots));
  }
  // The greedy promotion can still strand an overloaded broker that shares
  // no replica set with an underloaded one (the ring fixes set membership
  // before the counts are known). Close the spread with augmenting paths:
  // a chain of brokers where each leads a partition whose replica set
  // contains the next, from a max-count broker to a broker at least two
  // below it. Shifting one leadership along every edge of the chain moves
  // a unit of load end to end (the middle brokers' counts are unchanged),
  // so each found path strictly reduces the sum of squared counts — the
  // loop terminates, and BFS order keeps it deterministic.
  for (;;) {
    const std::size_t hi = *std::max_element(leaders_on.begin(), leaders_on.end());
    const std::size_t lo = *std::min_element(leaders_on.begin(), leaders_on.end());
    if (hi <= lo + 1) break;

    // BFS from every max-count broker at once; parent_edge[b] remembers
    // the lowest-id partition whose leadership can hop to b.
    constexpr stream::PartitionId kNoEdge = static_cast<stream::PartitionId>(-1);
    std::vector<stream::PartitionId> parent_edge(ring.brokers(), kNoEdge);
    std::vector<BrokerId> queue, visited;
    for (BrokerId b = 0; b < ring.brokers(); ++b) {
      if (leaders_on[b] == hi) {
        queue.push_back(b);
        visited.push_back(b);
      }
    }
    BrokerId sink = ring.brokers();  // sentinel: no path found
    for (std::size_t q = 0; q < queue.size() && sink == ring.brokers(); ++q) {
      const BrokerId from = queue[q];
      for (stream::PartitionId p = 0; p < partitions && sink == ring.brokers(); ++p) {
        const auto& slots = placement.replicas[p];
        if (slots[0] != from) continue;
        for (std::size_t s = 1; s < slots.size(); ++s) {
          const BrokerId to = slots[s];
          if (std::find(visited.begin(), visited.end(), to) != visited.end()) continue;
          parent_edge[to] = p;
          visited.push_back(to);
          queue.push_back(to);
          if (leaders_on[to] + 1 < hi) {
            sink = to;
            break;
          }
        }
      }
    }
    if (sink == ring.brokers()) break;  // no improving chain exists

    // Walk the chain back from the sink, rotating each edge partition's
    // leadership one hop toward the sink.
    ++leaders_on[sink];
    for (BrokerId b = sink; parent_edge[b] != kNoEdge;) {
      auto& slots = placement.replicas[parent_edge[b]];
      const BrokerId from = slots[0];
      const auto it = std::find(slots.begin(), slots.end(), b);
      std::rotate(slots.begin(), it, it + 1);
      b = from;
      if (parent_edge[b] == kNoEdge) --leaders_on[b];  // the chain's max-count head
    }
  }
  return placement;
}

std::vector<BrokerId> PlacePartition(const HashRing& ring, const std::string& topic,
                                     stream::PartitionId pid, std::uint32_t factor) {
  factor = std::max<std::uint32_t>(factor, 1);
  return ring.ReplicaSet(Mix64(Fnv1a(topic) ^ Mix64(pid + 1)),
                         std::min(factor, ring.brokers()));
}

namespace {

// The refinement stream: a second hash of the key, independent of the
// `hash % base` bucket choice, so split children partition a bucket's
// keys evenly no matter how skewed the bucket assignment was. Bit d of
// this stream decides the child at trie depth d.
std::uint64_t RefinementBits(std::uint64_t key_hash) {
  return Mix64(key_hash ^ 0xa17b0a575ca1eULL);
}

std::uint64_t PathMask(std::uint32_t depth) {
  return depth >= 64 ? ~0ULL : ((1ULL << depth) - 1);
}

}  // namespace

TopicRouter TopicRouter::Identity(std::uint32_t partitions) {
  TopicRouter r;
  r.base_partitions = std::max<std::uint32_t>(partitions, 1);
  for (std::uint32_t b = 0; b < r.base_partitions; ++b) {
    r.leaves[LeafKey{b, 0, 0}] = static_cast<stream::PartitionId>(b);
  }
  return r;
}

stream::PartitionId TopicRouter::RouteHash(std::uint64_t key_hash) const {
  const std::uint32_t bucket =
      static_cast<std::uint32_t>(key_hash % base_partitions);
  const std::uint64_t bits = RefinementBits(key_hash);
  // The leaves of one bucket are prefix-free, so exactly one ancestor of
  // the full refinement path is present; depths stay tiny in practice.
  for (std::uint32_t d = 0; d < 64; ++d) {
    const auto it = leaves.find(LeafKey{bucket, d, bits & PathMask(d)});
    if (it != leaves.end()) return it->second;
  }
  // Unreachable for a well-formed router; fall back to the base bucket.
  return static_cast<stream::PartitionId>(bucket);
}

std::vector<stream::PartitionId> TopicRouter::LiveLeaves() const {
  std::vector<stream::PartitionId> out;
  out.reserve(leaves.size());
  for (const auto& [k, pid] : leaves) out.push_back(pid);
  std::sort(out.begin(), out.end());
  return out;
}

bool TopicRouter::IsLeaf(stream::PartitionId p) const {
  for (const auto& [k, pid] : leaves) {
    if (pid == p) return true;
  }
  return false;
}

Expected<stream::PartitionId> TopicRouter::SiblingOf(stream::PartitionId p) const {
  for (const auto& [k, pid] : leaves) {
    if (pid != p) continue;
    if (k.depth == 0) return Status::FailedPrecondition("base leaf has no sibling");
    const std::uint64_t flip = 1ULL << (k.depth - 1);
    const auto sib = leaves.find(LeafKey{k.bucket, k.depth, k.path ^ flip});
    if (sib == leaves.end()) {
      return Status::FailedPrecondition("sibling subtree is itself split");
    }
    return sib->second;
  }
  return Status::NotFound("not a live leaf");
}

Status TopicRouter::Split(stream::PartitionId parent_pid, stream::PartitionId c0,
                          stream::PartitionId c1) {
  for (auto it = leaves.begin(); it != leaves.end(); ++it) {
    if (it->second != parent_pid) continue;
    const LeafKey k = it->first;
    if (k.depth >= 63) return Status::FailedPrecondition("refinement trie exhausted");
    leaves.erase(it);
    leaves[LeafKey{k.bucket, k.depth + 1, k.path}] = c0;
    leaves[LeafKey{k.bucket, k.depth + 1, k.path | (1ULL << k.depth)}] = c1;
    sealed.insert(parent_pid);
    parent[c0] = parent_pid;
    parent[c1] = parent_pid;
    return Status::Ok();
  }
  return Status::NotFound("split target is not a live leaf");
}

Status TopicRouter::Merge(stream::PartitionId a, stream::PartitionId b,
                          stream::PartitionId merged) {
  for (auto it = leaves.begin(); it != leaves.end(); ++it) {
    if (it->second != a) continue;
    const LeafKey k = it->first;
    if (k.depth == 0) return Status::FailedPrecondition("base leaf has no sibling");
    const std::uint64_t flip = 1ULL << (k.depth - 1);
    const auto sib = leaves.find(LeafKey{k.bucket, k.depth, k.path ^ flip});
    if (sib == leaves.end() || sib->second != b) {
      return Status::FailedPrecondition("partitions are not live siblings");
    }
    const LeafKey up{k.bucket, k.depth - 1, k.path & ~flip};
    leaves.erase(LeafKey{k.bucket, k.depth, k.path});
    leaves.erase(LeafKey{k.bucket, k.depth, k.path ^ flip});
    leaves[up] = merged;
    sealed.insert(a);
    sealed.insert(b);
    parent[merged] = a;
    return Status::Ok();
  }
  return Status::NotFound("merge source is not a live leaf");
}

std::string TopicRouter::Encode() const {
  std::string out = "base=" + std::to_string(base_partitions) + ";leaves=";
  bool first = true;
  for (const auto& [k, pid] : leaves) {
    if (!first) out += ',';
    first = false;
    out += std::to_string(k.bucket) + '.' + std::to_string(k.depth) + '.' +
           std::to_string(k.path) + "->" + std::to_string(pid);
  }
  out += ";sealed=";
  first = true;
  for (const stream::PartitionId p : sealed) {
    if (!first) out += ',';
    first = false;
    out += std::to_string(p);
  }
  return out;
}

}  // namespace arbd::cluster
