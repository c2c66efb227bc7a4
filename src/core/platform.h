// The ARBD platform — the paper's contribution assembled: sensor events
// flow into the streaming backend, windowed analytics jobs aggregate them,
// the interpretation layer turns aggregates into semantic annotations, and
// the frame composer classifies + lays them out against the user's current
// view. Everything runs on simulated time, single-threaded, deterministic.
//
//   sensors → Broker(topic) → ConsumerGroup → Pipeline(window agg)
//          → InterpretationEngine → AnnotationStore
//          → [per frame] OcclusionClassifier → LabelLayout → FrameResult
//
// Execution: Publish, ProcessPending and ComposeFrame run inline on the
// caller at every worker count, so their outputs do not depend on it. The
// platform also owns a deterministic executor (src/exec) that harnesses
// fan their own per-shard work out on — see docs/execution.md.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ar/layout.h"
#include "ar/occlusion.h"
#include "cluster/cluster.h"
#include "common/runtime.h"
#include "core/context.h"
#include "core/interpretation.h"
#include "exec/executor.h"
#include "stream/consumer.h"
#include "stream/dataflow.h"
#include "stream/log.h"
#include "trace/tracer.h"

namespace arbd::core {

// The platform has no overload control (docs/overload.md says why; E19
// measures admission and degradation in its own harness). This field
// stays only because perfbench/drive.cc writes it; the constructor fails
// if it is set to true, so no caller can believe QoS is on.
struct PlatformQosConfig {
  bool enabled = false;
};

struct PlatformConfig {
  std::string event_topic = "arbd.events";
  std::uint32_t partitions = 4;
  // Replica nodes per event-topic partition; 0 defers to
  // RuntimeConfig::replicas (default 1). At factor 1 publishing is
  // byte-identical to the pre-replication platform; at higher factors
  // publishes ride the idempotent producer path and survive injected
  // leader crashes without loss or duplication (retries dedup broker-side).
  std::uint32_t replication_factor = 0;
  // Modeled broker nodes fronting the event topic; 0 defers to
  // RuntimeConfig::cluster_brokers (default 1). At 1 no cluster is built
  // at all — the platform is structurally identical to the pre-cluster
  // build. At >1 a BrokerCluster places the topic's replica slots across
  // brokers, gates produce/fetch on leader reachability, and Publish
  // retries through rerouting when a leader broker is down.
  std::uint32_t cluster_brokers = 0;
  // Seal target of the event topic and, when a cluster is built, of its
  // metadata log.
  std::size_t segment_bytes = stream::DefaultSegmentBytes();
  // Frame-deadline propagation (ISSUE 10): when nonzero, each Publish and
  // each ProcessPending poll carries a Deadline with this budget — cluster
  // retries charge modeled op latency + backoff against it and stop with
  // kDeadlineExceeded rather than outliving the frame, and the consumer
  // stops visiting further partitions once the budget is spent. Zero (the
  // default) threads no deadline anywhere: byte-identical passthrough.
  Duration frame_budget = Duration::Zero();
  Duration max_out_of_orderness = Duration::Millis(200);
  ar::LayoutConfig layout;
  ContextConfig context;
  PlatformQosConfig qos;
  // Worker pool of executor(), which the platform's own calls do not use.
  // Defaults to RuntimeConfig::exec_workers so CI can run the whole suite
  // at several worker counts without touching call sites.
  exec::ExecConfig exec{.workers = RuntimeConfig::Process().exec_workers};
  // Causal tracer wired through broker, pipelines, and the frame path.
  // Null selects trace::Tracer::Global() (ARBD_TRACE=1 turns it on); all
  // instrumentation is a single relaxed load when disabled.
  trace::Tracer* tracer = nullptr;
};

struct AggregationSpec {
  std::string attribute;                 // which event attribute to aggregate
  stream::WindowSpec window = stream::WindowSpec::Tumbling(Duration::Seconds(5));
  stream::AggKind agg = stream::AggKind::kMean;
  Duration allowed_lateness = Duration::Zero();
};

// Per-frame output: what would be drawn, plus bookkeeping counters.
struct FrameResult {
  ar::LayoutResult layout;
  std::size_t live_annotations = 0;
  std::size_t expired = 0;
  std::size_t in_view = 0;
  std::size_t occluded = 0;
};

class Platform {
 public:
  Platform(PlatformConfig cfg, const geo::CityModel& city, SimClock& clock);

  // --- ingestion side -----------------------------------------------
  // Publish an analytics event into the backend (key = entity id).
  Status Publish(const stream::Event& event);

  // Publish under a causal trace: records a "platform.publish" span,
  // advances `ctx` to its child context, and stamps the context onto the
  // produced record so the broker/pipeline/frame spans downstream chain
  // off it. Identical to Publish when tracing is disabled or `ctx` is
  // invalid.
  Status PublishTraced(const stream::Event& event, trace::SpanContext& ctx);

  // Register a windowed aggregation job over the event stream.
  void AddAggregation(const AggregationSpec& spec);

  // Interpretation vocabulary (rules shared by all aggregation jobs).
  void AddRule(InterpretationRule rule);
  void SetEntityResolver(EntityResolver resolver);

  // Drain pending broker records through the dataflow jobs; window results
  // pass through interpretation into the annotation store. Returns number
  // of records processed.
  std::size_t ProcessPending(std::size_t max_records = 10'000);

  // Direct annotation injection (scenario content not derived from stats).
  std::uint64_t AddAnnotation(ar::content::Annotation a);

  // --- per-user AR side ----------------------------------------------
  // Users must be registered before composing frames for them.
  ContextEngine& AddUser(const std::string& user_id);
  Expected<ContextEngine*> User(const std::string& user_id);

  // Compose one frame for the user's current estimated pose.
  Expected<FrameResult> ComposeFrame(const std::string& user_id);

  // ComposeFrame under a causal trace: records a "frame.compose" span of
  // the frame's modeled composition cost (tags: live / in-view annotation
  // counts) and advances `ctx` past it.
  Expected<FrameResult> ComposeFrameTraced(const std::string& user_id,
                                           trace::SpanContext& ctx);

  // --- accessors ------------------------------------------------------
  stream::Broker& broker() { return broker_; }
  ar::content::AnnotationStore& annotations() { return annotations_; }
  InterpretationEngine& interpreter() { return *interpreter_; }
  SimClock& clock() { return clock_; }
  const geo::CityModel& city() const { return city_; }
  std::uint64_t results_interpreted() const { return results_interpreted_; }

  exec::Executor& executor() { return *exec_; }
  trace::Tracer& tracer() { return *tracer_; }

  // The modeled broker cluster, or null when cluster_brokers resolved to 1
  // (the structural passthrough).
  cluster::BrokerCluster* cluster() { return cluster_.get(); }

  // Aggregation-job introspection (digest harnesses checkpoint-hash every
  // pipeline to prove cross-worker-count determinism).
  std::size_t job_count() const { return jobs_.size(); }
  stream::Pipeline& job_pipeline(std::size_t i) { return *jobs_.at(i).pipeline; }

 private:
  struct Job {
    AggregationSpec spec;
    std::unique_ptr<stream::Pipeline> pipeline;
    // Window results buffered by the job's sink during processing, then
    // interpreted in job order.
    std::vector<stream::WindowResult> results;
  };

  PlatformConfig cfg_;
  const geo::CityModel& city_;
  SimClock& clock_;
  std::unique_ptr<exec::Executor> exec_;
  stream::Broker broker_;
  // Constructed before the event topic so topic creation routes through
  // cluster placement; destroyed after broker use ends (declaration order
  // keeps it alive for the broker's lifetime and detaches its gate first).
  std::unique_ptr<cluster::BrokerCluster> cluster_;
  std::unique_ptr<stream::ConsumerGroup> group_;
  stream::Consumer* consumer_ = nullptr;
  std::vector<Job> jobs_;
  std::unique_ptr<InterpretationEngine> interpreter_;
  ar::content::AnnotationStore annotations_;
  ar::OcclusionClassifier classifier_;
  ar::LabelLayout layout_;
  std::map<std::string, std::unique_ptr<ContextEngine>> users_;
  // Idempotent-publish identity: stable producer id plus per-partition
  // sequence numbers, so replica-group retries (enabled when the event
  // topic is replicated) dedup instead of duplicating.
  stream::ProducerId pid_ = 0;
  std::map<stream::PartitionId, std::uint64_t> pub_seq_;
  bool publish_retries_ = false;  // true when the event topic has replicas
  trace::Tracer* tracer_ = nullptr;  // never null after construction
  std::uint64_t results_interpreted_ = 0;
};

}  // namespace arbd::core
