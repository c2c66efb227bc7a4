#include "core/platform.h"
#include <algorithm>

namespace arbd::core {

namespace {
// Modeled costs on the causal-trace time axis (virtual, worker-count
// independent — see docs/observability.md).
constexpr Duration kPublishCost = Duration::Micros(3);
constexpr Duration kIngestCost = Duration::Micros(1);
constexpr Duration kComposeBaseCost = Duration::Micros(40);
constexpr Duration kComposePerAnnotationCost = Duration::Micros(2);
}  // namespace

Platform::Platform(PlatformConfig cfg, const geo::CityModel& city, SimClock& clock)
    : cfg_(cfg),
      city_(city),
      clock_(clock),
      exec_(std::make_unique<exec::Executor>(cfg.exec)),
      broker_(clock),
      classifier_(&city),
      layout_(cfg.layout),
      tracer_(cfg.tracer != nullptr ? cfg.tracer : &trace::Tracer::Global()) {
  broker_.set_tracer(tracer_);
  // Cluster first, so topic creation can route through placement. Size 1
  // (the default) builds nothing — structurally the pre-cluster platform.
  const std::uint32_t brokers =
      cfg_.cluster_brokers == 0 ? RuntimeConfig::Process().cluster_brokers
                                : std::clamp<std::uint32_t>(cfg_.cluster_brokers, 1, 16);
  if (brokers > 1) {
    cluster::ClusterConfig cc;
    cc.brokers = brokers;
    cc.autoscale.enabled = RuntimeConfig::Process().autoscale;
    cc.health.enabled = RuntimeConfig::Process().health;
    cc.segment_bytes = cfg_.segment_bytes;
    cluster_ = std::make_unique<cluster::BrokerCluster>(broker_, cc);
  }
  stream::TopicConfig tc;
  tc.partitions = cfg_.partitions;
  tc.replication_factor = cfg_.replication_factor;  // 0 defers to the process default
  tc.segment_bytes = cfg_.segment_bytes;
  if (cfg_.qos.enabled) tc.max_records = cfg_.qos.topic_budget_records;
  const Status s = cluster_ != nullptr ? cluster_->CreateTopic(cfg_.event_topic, tc)
                                       : broker_.CreateTopic(cfg_.event_topic, tc);
  ARBD_CHECK(s.ok(), "event topic creation must succeed");
  pid_ = broker_.AllocateProducerId();
  auto created = broker_.GetTopic(cfg_.event_topic);
  ARBD_CHECK(created.ok(), "event topic must exist after creation");
  // Retries exist wherever a retry can succeed: replicas absorb leader
  // crashes, and a cluster restores killed brokers as retries tick time.
  publish_retries_ = (*created)->replication(0).factor() > 1 || cluster_ != nullptr;
  if (cfg_.qos.enabled) {
    broker_.set_metrics(&metrics_);
    admission_ =
        std::make_unique<qos::AdmissionController>(cfg_.qos.admission, &metrics_);
    ladder_ = std::make_unique<qos::DegradationLadder>(cfg_.qos.ladder, &metrics_);
  }
  group_ = std::make_unique<stream::ConsumerGroup>(broker_, "arbd.platform",
                                                   cfg_.event_topic);
  auto joined = group_->Join("platform-0");
  ARBD_CHECK(joined.ok(), "platform consumer must join");
  consumer_ = *joined;

  // Default resolver: entities named like POIs resolve to their position;
  // scenarios usually install a richer one.
  interpreter_ = std::make_unique<InterpretationEngine>(
      [this](const std::string& key) -> EntityContext {
        EntityContext ctx;
        if (const geo::Poi* poi = city_.pois().FindByName(key)) {
          ctx.pos = poi->pos;
          ctx.height_m = poi->height_m;
          ctx.has_position = true;
        }
        return ctx;
      });
}

Status Platform::Publish(const stream::Event& event, qos::PriorityClass priority) {
  trace::SpanContext untraced;
  return PublishTraced(event, priority, untraced);
}

Status Platform::PublishTraced(const stream::Event& event, qos::PriorityClass priority,
                               trace::SpanContext& ctx) {
  const bool traced = tracer_->enabled() && ctx.valid();
  const std::uint64_t salt =
      traced ? Fnv1a(event.key) ^ static_cast<std::uint64_t>(event.event_time.nanos()) : 0;
  if (admission_ != nullptr) {
    admission_->UpdatePressureAll(broker_.Pressure(cfg_.event_topic));
    if (!admission_->Admit(priority)) {
      // Shedding frame-relevant work is an SLO violation in its own right:
      // better to degrade fidelity than to keep dropping critical events.
      if (priority == qos::PriorityClass::kFrameCritical && ladder_ != nullptr) {
        ladder_->ObserveShed();
      }
      if (traced) {
        ctx = tracer_->Record("platform.publish", ctx, kPublishCost,
                              {{"shed", "1"}}, salt);
      }
      return Status::ResourceExhausted(
          std::string("admission shed (") + qos::PriorityClassName(priority) + ")");
    }
  }
  stream::Record record =
      stream::Record::Make(event.key, event.Encode(), event.event_time);
  if (traced) {
    ctx = tracer_->Record("platform.publish", ctx, kPublishCost, {{"shed", "0"}}, salt);
    record.trace_ctx = ctx;
  }
  // Idempotent publish: the partition is pinned and the (pid, seq) pair
  // stamped up front, so a retried send after a lost ack (torn append,
  // replica leader crash) resolves to the original offset broker-side.
  // With a single-copy topic we send exactly once — byte-identical to the
  // pre-replication platform; retries only exist where replicas can make
  // them succeed.
  auto topic = broker_.GetTopic(cfg_.event_topic);
  if (!topic.ok()) return topic.status();
  const stream::PartitionId p = (*topic)->PartitionFor(record.key);
  const std::uint64_t seq = ++pub_seq_[p];
  // A cluster gets a deeper budget: a kill window is several ticks long,
  // and each retry ticks cluster time, so the budget must outlast the
  // default restore window for a publish to ride out a dead leader broker.
  const std::size_t attempts = cluster_ != nullptr ? 12 : (publish_retries_ ? 4 : 1);
  // Frame-deadline propagation: with a budget configured, every attempt
  // charges the leader broker's modeled op cost, and an exhausted budget
  // stops the retry loop — the publish fails inside the frame instead of
  // ticking cluster time past it. Zero budget threads no deadline at all.
  Deadline budget = Deadline::WithBudget(cfg_.frame_budget);
  Deadline* deadline = cfg_.frame_budget > Duration::Zero() ? &budget : nullptr;
  Status last = Status::Ok();
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    if (deadline != nullptr && deadline->expired()) {
      last = Status::DeadlineExceeded("publish budget exhausted after " +
                                      std::to_string(attempt) + " attempts");
      break;
    }
    auto produced = broker_.ProduceIdempotent(cfg_.event_topic, p, pid_, seq, record);
    if (deadline != nullptr && cluster_ != nullptr) {
      deadline->Charge(cluster_->OpCost(cfg_.event_topic, p));
    }
    last = produced.status();
    if (last.code() != StatusCode::kUnavailable) break;
    // Retry backoff is modeled time: kill/heal windows count down and
    // elections settle, so the next attempt sees the rerouted table.
    if (cluster_ != nullptr && attempt + 1 < attempts) cluster_->Tick();
  }
  return last;
}

void Platform::AddAggregation(const AggregationSpec& spec) {
  Job job;
  job.spec = spec;
  job.pipeline = std::make_unique<stream::Pipeline>(cfg_.max_out_of_orderness);
  job.pipeline->set_tracer(tracer_);
  if (cfg_.qos.enabled) job.pipeline->set_input_budget(cfg_.qos.pipeline_budget_records);
  const std::string attr = spec.attribute;
  // The sink only buffers: an unbudgeted Offer processes the event at
  // once, so the jobs' sinks fire interleaved in event order, and
  // ProcessPending interprets the buffers in job order instead. Index
  // capture keeps the sink valid across jobs_ reallocation.
  const std::size_t job_index = jobs_.size();
  job.pipeline->Filter([attr](const stream::Event& e) { return e.attribute == attr; })
      .WindowAggregate(spec.window, spec.agg, spec.allowed_lateness)
      .Sink([this, job_index](const stream::WindowResult& r) {
        jobs_[job_index].results.push_back(r);
      });
  jobs_.push_back(std::move(job));
}

void Platform::AddRule(InterpretationRule rule) { interpreter_->AddRule(std::move(rule)); }

void Platform::SetEntityResolver(EntityResolver resolver) {
  interpreter_->set_resolver(std::move(resolver));
}

std::size_t Platform::ProcessPending(std::size_t max_records) {
  if (ladder_ != nullptr) {
    // Degraded fetch: shrink the batch we pull per call so a struggling
    // frame loop spends less of its budget on ingestion catch-up.
    const double scale = ladder_->profile().fetch_batch_scale;
    max_records = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(max_records) * scale));
  }
  // Credit-based hand-off into the dataflow jobs: never fetch more than
  // the most constrained pipeline inbox can take.
  for (const auto& job : jobs_) {
    max_records = std::min(max_records, job.pipeline->input_credit());
  }
  const bool traced = tracer_->enabled();
  // With a frame budget configured the poll is deadline-bounded: it stops
  // visiting partitions once the budget is spent, and the leftovers are
  // simply picked up next frame (at-least-once, same as a short poll).
  Deadline budget = Deadline::WithBudget(cfg_.frame_budget);
  Deadline* deadline = cfg_.frame_budget > Duration::Zero() ? &budget : nullptr;
  const auto batches = consumer_->PollBatches(max_records, deadline);
  // The poll interleaves partitions in fetch order, not event-time order;
  // sorting by event time keeps the watermark honest so one fast partition
  // cannot mark the others' events late. The sort moves row references
  // keyed on the event-time column, never the rows, and is stable so that
  // equal-timestamp rows keep their poll order.
  struct RowRef {
    const stream::RecordBatch* batch;
    std::size_t row;
  };
  std::size_t fetched = 0;
  for (const auto& b : batches) fetched += b.size();
  std::vector<RowRef> rows;
  rows.reserve(fetched);
  for (const auto& b : batches) {
    for (std::size_t i = 0; i < b.size(); ++i) rows.push_back(RowRef{&b, i});
  }
  std::stable_sort(rows.begin(), rows.end(), [](const RowRef& a, const RowRef& b) {
    return a.batch->event_time(a.row) < b.batch->event_time(b.row);
  });
  std::vector<stream::Event> events;
  events.reserve(rows.size());
  for (const auto& rr : rows) {
    // Zero-copy decode straight out of the batch's payload column.
    auto event = stream::Event::Decode(rr.batch->payload_data(rr.row),
                                       rr.batch->payload_size(rr.row));
    if (!event.ok()) continue;  // corrupt payloads are dropped, not fatal
    if (traced && rr.batch->trace_ctx(rr.row).valid()) {
      // Hand the record's causal context to the decoded event, spending
      // one ingest span for the fetch+decode hop.
      event->trace_ctx = tracer_->Record(
          "platform.ingest", rr.batch->trace_ctx(rr.row), kIngestCost, {},
          Fnv1a(event->key) ^ static_cast<std::uint64_t>(event->event_time.nanos()));
    }
    events.push_back(std::move(*event));
  }
  for (const auto& event : events) {
    for (auto& job : jobs_) {
      // The credit clamp above guarantees this Offer fits the inbox.
      (void)job.pipeline->Offer(event);
    }
  }
  for (auto& job : jobs_) job.pipeline->DrainPending(fetched);
  // Window results feed interpretation in job order.
  for (auto& job : jobs_) {
    for (const auto& r : job.results) {
      ++results_interpreted_;
      if (auto a = interpreter_->Interpret(r, clock_.Now())) {
        annotations_.Add(std::move(*a));
      }
    }
    job.results.clear();
  }
  consumer_->Commit();
  return fetched;
}

std::uint64_t Platform::AddAnnotation(ar::content::Annotation a) {
  if (a.created == TimePoint{}) a.created = clock_.Now();
  return annotations_.Add(std::move(a));
}

ContextEngine& Platform::AddUser(const std::string& user_id) {
  auto it = users_.find(user_id);
  if (it == users_.end()) {
    it = users_.emplace(user_id,
                        std::make_unique<ContextEngine>(user_id, city_, cfg_.context))
             .first;
  }
  return *it->second;
}

Expected<ContextEngine*> Platform::User(const std::string& user_id) {
  auto it = users_.find(user_id);
  if (it == users_.end()) return Status::NotFound("user '" + user_id + "'");
  return it->second.get();
}

Expected<FrameResult> Platform::ComposeFrame(const std::string& user_id) {
  auto user = User(user_id);
  if (!user.ok()) return user.status();

  const qos::DegradationProfile profile =
      ladder_ != nullptr ? ladder_->profile() : qos::DegradationProfile{};

  FrameResult frame;
  frame.degradation_level = profile.level;
  frame.expired = annotations_.ExpireOlderThan(clock_.Now());
  const auto& live = annotations_.Live();
  frame.live_annotations = live.size();

  const ar::CameraView view = (*user)->View();
  // Only the in-view entries reach the layout, which skips kOutOfView.
  std::vector<ar::ClassifiedAnnotation> classified;
  const ar::ClassifyCounts counts =
      classifier_.ClassifyRows(annotations_.Anchors(), live, 0, live.size(), view,
                               profile.occlusion_raycast, classified);
  frame.in_view = counts.in_view;
  frame.occluded = counts.occluded;
  if (profile.label_budget_scale < 1.0) {
    ar::LayoutConfig scaled = cfg_.layout;
    scaled.max_labels = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(scaled.max_labels) *
                                    profile.label_budget_scale));
    frame.layout = ar::LabelLayout(scaled).Arrange(classified, cfg_.context.intrinsics);
  } else {
    frame.layout = layout_.Arrange(classified, cfg_.context.intrinsics);
  }
  return frame;
}

Expected<FrameResult> Platform::ComposeFrameTraced(const std::string& user_id,
                                                   trace::SpanContext& ctx) {
  auto frame = ComposeFrame(user_id);
  if (frame.ok() && tracer_->enabled() && ctx.valid()) {
    // Compose cost is modeled from the frame's deterministic annotation
    // counts, so the span is identical at every worker count.
    const Duration cost =
        kComposeBaseCost +
        kComposePerAnnotationCost * static_cast<std::int64_t>(frame->live_annotations);
    ctx = tracer_->Record(
        "frame.compose", ctx, cost,
        {{"degradation_level", std::to_string(frame->degradation_level)},
         {"live", std::to_string(frame->live_annotations)},
         {"in_view", std::to_string(frame->in_view)}});
  }
  return frame;
}

void Platform::ObserveFrameLatency(Duration latency) {
  if (ladder_ != nullptr) ladder_->Observe(latency);
}

}  // namespace arbd::core
