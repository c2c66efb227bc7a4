// The process's runtime settings: one field per ARBD_* environment knob.
// FromEnv is the only code in the library that reads the environment;
// everything else takes a RuntimeConfig (or a field of one), or a config
// whose defaults come from Process(). README.md "Runtime knobs" lists each
// knob's range, default and field.
//
// A flag is on only for "1", "true" or "on". A number is a whole decimal
// number (an optional leading '-', then digits); anything else — "64k",
// "+4", "1.5", " 4", an overflow — leaves the field at its default, as
// does a number outside the knob's range unless the field clamps it.
#pragma once

#include <cstddef>
#include <cstdint>

namespace arbd {

struct RuntimeConfig {
  std::size_t exec_workers = 1;              // ARBD_EXEC_WORKERS: 1..64
  bool trace = false;                        // ARBD_TRACE: Tracer::Global() records
  std::size_t trace_ring = 16384;            // ARBD_TRACE_RING: > 0, per shard
  std::uint64_t trace_seed = 0x7ace5eedULL;  // ARBD_TRACE_SEED: != 0
  std::uint32_t cluster_brokers = 1;         // ARBD_CLUSTER: clamped to 1..16
  bool autoscale = false;                    // ARBD_AUTOSCALE
  bool health = false;                       // ARBD_HEALTH
  std::uint32_t replicas = 1;                // ARBD_REPLICAS: clamped to 1..8
  std::size_t segment_bytes = 0;             // ARBD_SEGMENT_BYTES: > 0; 0 = flat log

  // Parses every knob from the environment as it is now.
  static RuntimeConfig FromEnv();
  // FromEnv, read once on first use and cached for the process.
  static const RuntimeConfig& Process();
};

}  // namespace arbd
