// Shared declarations of the wall-clock benchmark (see README.md).
//
// A run drives one workload's generated inputs through the public
// core::Platform path. The unit of work is an *episode*: set-up (city,
// Platform, jobs, rules, users, preload) followed by a fixed sequence of
// ticks. Every episode of one seed sees the same inputs, so every episode
// must end in the same output digest; a run repeats episodes until its time
// is spent.
#pragma once

#include <array>
#include <memory>
#include <cstdint>
#include <string>
#include <vector>

#include "ar/content.h"
#include "common/clock.h"
#include "core/platform.h"
#include "geo/city.h"
#include "sensors/models.h"
#include "stats.h"
#include "stream/dataflow.h"
#include "stream/log.h"
#include "stream/record.h"

namespace perfbench {

inline constexpr const char* kEventTopic = "arbd.events";
inline constexpr std::uint32_t kPartitions = 4;
inline constexpr double kFrameDeadlineMs = 1000.0 / 30.0;  // one 30 fps frame

struct WorkloadSpec {
  std::string name;
  // PlatformConfig, set explicitly (never from the environment).
  std::size_t workers = 1;
  std::uint32_t replication = 1;
  std::uint32_t brokers = 1;
  std::size_t segment_bytes = 0;  // stream::SetSegmentBytesTarget; 0 = flat log
  // Loop shape.
  bool open_loop = false;  // ticks are due every tick_sim of wall time
  // Open loop: every user's frame is due each tick. Closed loop: one frame
  // per tick, for each user in turn.
  std::size_t users = 1;
  std::size_t ticks = 0;   // per episode
  std::size_t events_per_tick = 0;
  arbd::Duration tick_sim = arbd::Duration::Millis(50);  // simulated time per tick
  arbd::Duration max_jitter = arbd::Duration::Zero();    // event-time disorder
  std::size_t queries_per_tick = 0;
  arbd::Duration query_window = arbd::Duration::Seconds(1);
  std::size_t history_events = 0;        // published and drained during set-up
  std::size_t injected_annotations = 0;  // added during set-up
  // The Platform calls this workload is built to load; their busy share of
  // the traced wall time is reported as split.target_share.
  std::vector<std::uint32_t> target_layers;
};

// Returns false for an unknown workload name.
bool MakeSpec(const std::string& name, WorkloadSpec& out);

// One historical QueryTime call and the answer the inputs imply for it.
struct QueryInput {
  std::size_t after_event = 0;  // issued after this many live events were published
  arbd::stream::PartitionId partition = 0;
  arbd::TimePoint t_lo;
  arbd::TimePoint t_hi;
  // Expected rows: entries [first, last) of the partition's publish-order
  // list (Inputs::by_partition).
  std::size_t first = 0;
  std::size_t last = 0;
};

// A sensor sample in the order the rig delivered it.
struct SensorSample {
  bool is_gps = false;
  arbd::sensors::ImuSample imu;
  arbd::sensors::GpsFix gps;
};

struct UserTrace {
  std::string id;
  std::vector<SensorSample> samples;
};

// Everything a run feeds the program, generated from the seed before any
// timing starts.
struct Inputs {
  std::vector<arbd::stream::Event> history;  // preload, in publish order
  std::vector<arbd::stream::Event> live;     // ticks * events_per_tick
  std::vector<QueryInput> queries;           // sorted by after_event
  std::vector<UserTrace> users;
  std::vector<arbd::TimePoint> tick_time;    // platform clock per tick
  std::vector<arbd::Bytes> encoded;  // Event::Encode of history ++ live
  // Per partition: indices into history ++ live, in publish order.
  std::array<std::vector<std::size_t>, kPartitions> by_partition;
  std::vector<arbd::ar::content::Annotation> annotations;  // injected at set-up
};

Inputs GenerateInputs(const WorkloadSpec& spec, std::uint64_t seed);

// The city every workload runs in. It is the platform's map, the same for
// every seed: the seed varies the traffic, the users and the annotations.
arbd::geo::CityModel MakeCity();

// Sensor-clock time up to which user `u` is fed before its frame of tick `t`.
arbd::TimePoint SensorTime(const WorkloadSpec& spec, std::size_t tick, std::size_t user);

class Digest;

// --- layers -----------------------------------------------------------------

// Span names. The platform run records the core.* calls (and queries); the
// split replay records the layers below core.
enum Layer : std::uint32_t {
  kTick,
  kCorePublish,
  kCoreProcessPending,
  kCoreComposeFrame,
  kCoreContext,
  kStreamQuery,
  kStreamEncode,
  kStreamProduce,
  kStreamPoll,
  kStreamDecode,
  kStreamDataflow,
  kCoreInterpret,
  kArStore,
  kArClassify,
  kArLayout,
  kLayerCount,
};
const char* LayerName(std::uint32_t layer);

// Work counts an episode reports beside its timings. The episode loop fills
// the call counts; the split replay adds the layer counts.
struct Counters {
  std::uint64_t publish_calls = 0, publish_failed = 0;
  std::uint64_t process_calls = 0, process_records = 0;
  std::uint64_t compose_calls = 0, compose_failed = 0;
  std::uint64_t context_samples = 0;
  std::uint64_t query_calls = 0, query_failed = 0;
  std::uint64_t query_blocks = 0, query_rows_examined = 0, query_rows_returned = 0;
  std::uint64_t query_cache_hits = 0, query_cache_misses = 0;
  std::uint64_t annotations_live_max = 0;
  std::uint64_t exec_tasks = 0;
  std::uint64_t log_bytes = 0, segments = 0;
  // Split replay only.
  std::uint64_t produce_records = 0, produce_bytes = 0, produce_retries = 0;
  std::uint64_t poll_calls = 0, poll_records = 0;
  std::uint64_t dataflow_events_in = 0, dataflow_results_out = 0;
  std::uint64_t interpret_results = 0, interpret_annotations = 0;
  std::uint64_t classify_annotations = 0, classify_occluded = 0;
  std::uint64_t layout_placed = 0;
  std::uint64_t backlog_max = 0;
};

// What an episode drives: core::Platform itself, or the split replay of its
// layers. Construction is part of the timed set-up.
class System {
 public:
  virtual ~System() = default;
  virtual arbd::Status Publish(const arbd::stream::Event& event) = 0;
  virtual std::size_t ProcessPending() = 0;
  virtual arbd::Expected<arbd::core::FrameResult> ComposeFrame(std::size_t user) = 0;
  virtual arbd::core::ContextEngine& User(std::size_t user) = 0;
  virtual arbd::stream::Broker& broker() = 0;
  virtual arbd::SimClock& clock() = 0;
  virtual std::uint64_t tasks_run() = 0;
  // Pipelines, interpretation counters and store size, for the digest.
  virtual void AddEndState(Digest& d) = 0;

  // Where a layer-splitting system records its spans and counts, and the
  // span they nest under; unset during set-up.
  void Trace(SpanLog* log, Counters* counters, std::int32_t parent) {
    log_ = log;
    counters_ = counters;
    parent_ = parent;
  }

 protected:
  SpanLog* log_ = nullptr;
  Counters* counters_ = nullptr;
  std::int32_t parent_ = -1;
};

// Opens a span when a log is given; a no-op in the untraced run.
class Scope {
 public:
  Scope(SpanLog* log, std::uint32_t layer, std::int32_t parent)
      : log_(log), index_(log != nullptr ? log->Begin(layer, parent) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->End(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int32_t index() const { return index_; }

 private:
  SpanLog* log_;
  std::int32_t index_;
};

// Platform construction, jobs, rules, users and injected annotations.
std::unique_ptr<System> MakePlatformSystem(const WorkloadSpec& spec, const Inputs& in);
// The same, assembled from the modules below core (split.cc).
std::unique_ptr<System> MakeSplitSystem(const WorkloadSpec& spec, const Inputs& in);

struct EpisodeResult {
  std::uint64_t digest = 0;
  double setup_s = 0.0;
  double wall_s = 0.0;  // measured loop, gate checks excluded
  double busy_s = 0.0;  // wall_s minus open-loop sleeps
  std::size_t published = 0;  // successful publishes, preload included
  std::size_t failed = 0;     // failed publishes, preload included
  std::size_t processed = 0;  // records drained, preload included
  std::vector<double> lag_ms;      // per live event: publish call -> drain return
  std::vector<double> frame_ms;    // closed loop: ComposeFrame call
  std::vector<OpenLoopSample> open_frames;  // open loop: due -> ComposeFrame return
  std::vector<double> query_ms;
  std::vector<std::string> errors;  // gate failures, human readable
  Counters counters;
};

// Set up `split ? MakeSplitSystem : MakePlatformSystem`, preload the history
// and drive the ticks. With `log` non-null every call into the system is
// wrapped in a span (and the split system nests its layer spans inside).
EpisodeResult RunEpisode(const WorkloadSpec& spec, const Inputs& in, bool split, SpanLog* log);

// --- helpers shared by both systems -------------------------------------------

// The analytics every workload registers: three tumbling-window jobs and
// one interpretation rule per job.
std::vector<arbd::core::AggregationSpec> Jobs();
std::vector<arbd::core::InterpretationRule> Rules();

// Incremental FNV-1a over the outputs an episode produces.
class Digest {
 public:
  void Add(const void* data, std::size_t n);
  void Add(std::uint64_t v) { Add(&v, sizeof v); }
  void Add(const std::string& s) { Add(s.data(), s.size()); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

void AddFrame(Digest& d, const arbd::core::FrameResult& frame);

// Folds the episode's end state into `d`: every job's checkpoint, the
// interpretation counters, the live annotation count and the event topic's
// end offsets.
void AddEndState(Digest& d, const std::vector<const arbd::stream::Pipeline*>& pipelines,
                 std::uint64_t results_interpreted, std::size_t annotations,
                 const arbd::core::InterpretationStats& stats, arbd::stream::Broker& broker);

// Checks the rows of one QueryTime answer against the inputs; returns an
// empty string when they match, else a description of the first mismatch.
std::string CheckQuery(const Inputs& in, const QueryInput& q,
                       const std::vector<arbd::stream::StoredRecord>& rows);

const arbd::stream::Event& EventAt(const Inputs& in, std::size_t index);

}  // namespace perfbench
