// Final-state digests of the tourism and overload scenarios, run on the
// deterministic executor. A digest folds every determinism-sensitive
// observable — pipeline checkpoint bytes, annotation counts, broker
// offsets, integral metric counters, per-tourist tour metrics — into one
// FNV-1a hash. The regression contract (ISSUE 3, satellite b): for a
// given seed the digest is identical at every worker count; the
// cross-worker determinism test asserts this at workers ∈ {1, 4} across
// seeds, and bench_exec (E20) asserts it across {1, 2, 4, 8}.
//
// Both digests take their worker count and each created topic's
// replication factor and seal target from the RuntimeConfig argument.
// Only TourismDigest reads its trace, trace_ring, trace_seed and cluster
// knobs: OverloadDigest builds a bare broker and executor with no tracer.
//
// Floating-point values are folded in as exact bit patterns, which is
// sound because every parallel path either keeps a single writer per
// accumulator or merges partial results in a canonical order — the same
// additions happen in the same order at any worker count.
#pragma once

#include <cstdint>

#include "common/runtime.h"

namespace arbd::scenarios {

// AR-platform path: seeded event streams → ProcessPending →
// interpretation → frame composition, plus independent per-tourist tour
// simulations fanned out as executor tasks and merged in tourist order.
std::uint64_t TourismDigest(std::uint64_t seed, const RuntimeConfig& rc);

// Broker path: seeded keyed batches through ParallelProduce against a
// budgeted topic (batches sized to credit on the driver, so admission is
// deterministic), consumed and truncated partition-by-partition.
std::uint64_t OverloadDigest(std::uint64_t seed, const RuntimeConfig& rc);

}  // namespace arbd::scenarios
