// The split replay: core::Platform's ingestion and frame path re-assembled
// from the public functions of the modules below core, in the order
// Platform calls them, so each layer call can carry its own span. The
// layers are not reachable through Platform itself.
//
// This mirrors Platform's behaviour for the configurations the workloads
// use (QoS off, no frame budget, no tracer, the per-record poll path, one
// worker); the episode digest check proves it stays equal to the Platform
// run's.
#include <algorithm>
#include <map>
#include <stdexcept>

#include "ar/layout.h"
#include "ar/occlusion.h"
#include "bench.h"
#include "cluster/cluster.h"
#include "stream/consumer.h"

namespace perfbench {

namespace {

using arbd::Status;
using arbd::stream::Event;

class SplitSystem final : public System {
 public:
  SplitSystem(const WorkloadSpec& spec, const Inputs& in)
      : city_(MakeCity()),
        broker_(clock_),
        interpreter_([this](const std::string& key) { return Resolve(key); }),
        classifier_(&city_) {
    if (spec.workers != 1) throw std::runtime_error("split: only the 1-worker path is mirrored");
    if (spec.brokers > 1) {
      arbd::cluster::ClusterConfig cc;
      cc.brokers = spec.brokers;
      cc.autoscale.enabled = false;
      cc.health.enabled = false;
      cluster_ = std::make_unique<arbd::cluster::BrokerCluster>(broker_, cc);
    }
    arbd::stream::TopicConfig tc;
    tc.partitions = kPartitions;
    tc.replication_factor = spec.replication;
    const Status created = cluster_ != nullptr ? cluster_->CreateTopic(kEventTopic, tc)
                                               : broker_.CreateTopic(kEventTopic, tc);
    if (!created.ok()) throw std::runtime_error("split: topic creation failed");
    pid_ = broker_.AllocateProducerId();
    topic_ = *broker_.GetTopic(kEventTopic);
    publish_retries_ = topic_->replication(0).factor() > 1 || cluster_ != nullptr;
    group_ = std::make_unique<arbd::stream::ConsumerGroup>(broker_, "arbd.platform",
                                                           kEventTopic);
    consumer_ = *group_->Join("platform-0");

    for (const auto& job : Jobs()) {
      const std::size_t index = jobs_.size();
      auto pipeline = std::make_unique<arbd::stream::Pipeline>(kMaxOutOfOrderness);
      const std::string attr = job.attribute;
      pipeline->Filter([attr](const Event& e) { return e.attribute == attr; })
          .WindowAggregate(job.window, job.agg, job.allowed_lateness)
          .Sink([this, index](const arbd::stream::WindowResult& r) {
            jobs_[index].results.push_back(r);
          });
      jobs_.push_back(Job{std::move(pipeline), {}});
    }
    for (const auto& rule : Rules()) interpreter_.AddRule(rule);
    for (const auto& u : in.users) {
      users_.push_back(std::make_unique<arbd::core::ContextEngine>(u.id, city_, context_));
    }
    for (auto a : in.annotations) {
      if (a.created == arbd::TimePoint{}) a.created = clock_.Now();
      store_.Add(std::move(a));
    }
  }

  Status Publish(const Event& event) override {
    arbd::stream::Record record;
    {
      Scope span(log_, kStreamEncode, parent_);
      record = arbd::stream::Record::Make(event.key, event.Encode(), event.event_time);
    }
    Scope span(log_, kStreamProduce, parent_);
    auto topic = broker_.GetTopic(kEventTopic);
    if (!topic.ok()) return topic.status();
    const arbd::stream::PartitionId p = (*topic)->PartitionFor(record.key);
    const std::uint64_t seq = ++pub_seq_[p];
    const std::size_t attempts = cluster_ != nullptr ? 12 : (publish_retries_ ? 4 : 1);
    Status last = Status::Ok();
    for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
      if (attempt > 0 && counters_ != nullptr) ++counters_->produce_retries;
      auto produced = broker_.ProduceIdempotent(kEventTopic, p, pid_, seq, record);
      last = produced.status();
      if (last.code() != arbd::StatusCode::kUnavailable) break;
      if (cluster_ != nullptr && attempt + 1 < attempts) cluster_->Tick();
    }
    if (last.ok() && counters_ != nullptr) {
      ++counters_->produce_records;
      counters_->produce_bytes += record.key.size() + record.payload.size();
    }
    return last;
  }

  std::size_t ProcessPending() override {
    std::size_t max_records = 10'000;
    for (const auto& job : jobs_) max_records = std::min(max_records, job.pipeline->input_credit());
    if (counters_ != nullptr) {
      std::uint64_t backlog = 0;
      for (std::uint32_t p = 0; p < topic_->partition_count(); ++p) {
        backlog += static_cast<std::uint64_t>(topic_->partition(p).end_offset() -
                                              group_->CommittedOffset(p));
      }
      counters_->backlog_max = std::max(counters_->backlog_max, backlog);
    }

    std::vector<arbd::stream::StoredRecord> records;
    {
      Scope span(log_, kStreamPoll, parent_);
      records = consumer_->Poll(max_records, nullptr);
    }
    const std::size_t fetched = records.size();
    std::vector<Event> events;
    {
      Scope span(log_, kStreamDecode, parent_);
      std::stable_sort(records.begin(), records.end(),
                       [](const arbd::stream::StoredRecord& a,
                          const arbd::stream::StoredRecord& b) {
                         return a.record.event_time < b.record.event_time;
                       });
      events.reserve(records.size());
      for (const auto& sr : records) {
        auto event = Event::Decode(sr.record.payload);
        if (!event.ok()) continue;
        events.push_back(std::move(*event));
      }
    }
    const auto [in0, out0] = PipelineTotals();
    {
      Scope span(log_, kStreamDataflow, parent_);
      for (const auto& event : events) {
        for (auto& job : jobs_) (void)job.pipeline->Offer(event);
      }
      for (auto& job : jobs_) job.pipeline->DrainPending(fetched);
    }
    const auto [in1, out1] = PipelineTotals();
    std::uint64_t emitted = 0;
    const std::uint64_t interpreted0 = results_interpreted_;
    {
      Scope interpret(log_, kCoreInterpret, parent_);
      for (auto& job : jobs_) {
        for (const auto& r : job.results) {
          ++results_interpreted_;
          if (auto a = interpreter_.Interpret(r, clock_.Now())) {
            ++emitted;
            Scope store(log_, kArStore, interpret.index());
            store_.Add(std::move(*a));
          }
        }
        job.results.clear();
      }
    }
    {
      Scope span(log_, kStreamPoll, parent_);
      (void)consumer_->Commit();
    }
    if (counters_ != nullptr) {
      ++counters_->poll_calls;
      counters_->poll_records += fetched;
      counters_->dataflow_events_in += in1 - in0;
      counters_->dataflow_results_out += out1 - out0;
      counters_->interpret_results += results_interpreted_ - interpreted0;
      counters_->interpret_annotations += emitted;
    }
    return fetched;
  }

  arbd::Expected<arbd::core::FrameResult> ComposeFrame(std::size_t user) override {
    arbd::core::FrameResult frame;
    std::vector<const arbd::ar::content::Annotation*> live;
    {
      Scope span(log_, kArStore, parent_);
      frame.expired = store_.ExpireOlderThan(clock_.Now());
      live = store_.Live();
    }
    frame.live_annotations = live.size();
    std::vector<arbd::ar::ClassifiedAnnotation> classified;
    {
      Scope span(log_, kArClassify, parent_);
      const arbd::ar::CameraView view = users_.at(user)->View();
      classified = classifier_.ClassifyAll(live, view);
      for (const auto& c : classified) {
        if (c.visibility != arbd::ar::Visibility::kOutOfView) ++frame.in_view;
        if (c.visibility == arbd::ar::Visibility::kOccluded) ++frame.occluded;
      }
    }
    {
      Scope span(log_, kArLayout, parent_);
      frame.layout = layout_.Arrange(classified, context_.intrinsics);
    }
    if (counters_ != nullptr) {
      counters_->classify_annotations += live.size();
      counters_->classify_occluded += frame.occluded;
      counters_->layout_placed += frame.layout.placed;
    }
    return frame;
  }

  arbd::core::ContextEngine& User(std::size_t user) override { return *users_.at(user); }
  arbd::stream::Broker& broker() override { return broker_; }
  arbd::SimClock& clock() override { return clock_; }
  std::uint64_t tasks_run() override { return 0; }  // no executor

  void AddEndState(Digest& d) override {
    std::vector<const arbd::stream::Pipeline*> pipelines;
    for (const auto& job : jobs_) pipelines.push_back(job.pipeline.get());
    perfbench::AddEndState(d, pipelines, results_interpreted_, store_.size(),
                           interpreter_.stats(), broker_);
  }

 private:
  static constexpr arbd::Duration kMaxOutOfOrderness = arbd::Duration::Millis(200);

  // Platform's default resolver: an entity named like a POI resolves to it.
  arbd::core::EntityContext Resolve(const std::string& key) const {
    arbd::core::EntityContext ctx;
    for (const auto* poi : city_.pois().All()) {
      if (poi->name == key) {
        ctx.pos = poi->pos;
        ctx.height_m = poi->height_m;
        ctx.has_position = true;
        break;
      }
    }
    return ctx;
  }

  // Events in and results out, summed over the jobs' pipelines.
  std::pair<std::uint64_t, std::uint64_t> PipelineTotals() const {
    std::uint64_t in = 0;
    std::uint64_t out = 0;
    for (const auto& job : jobs_) {
      in += job.pipeline->events_in();
      out += job.pipeline->results_out();
    }
    return {in, out};
  }

  struct Job {
    std::unique_ptr<arbd::stream::Pipeline> pipeline;
    std::vector<arbd::stream::WindowResult> results;
  };

  const arbd::geo::CityModel city_;
  arbd::SimClock clock_;
  arbd::stream::Broker broker_;
  std::unique_ptr<arbd::cluster::BrokerCluster> cluster_;
  arbd::stream::Topic* topic_ = nullptr;
  std::unique_ptr<arbd::stream::ConsumerGroup> group_;
  arbd::stream::Consumer* consumer_ = nullptr;
  arbd::stream::ProducerId pid_ = 0;
  std::map<arbd::stream::PartitionId, std::uint64_t> pub_seq_;
  bool publish_retries_ = false;
  std::vector<Job> jobs_;
  arbd::core::InterpretationEngine interpreter_;
  std::uint64_t results_interpreted_ = 0;
  arbd::ar::content::AnnotationStore store_;
  arbd::ar::OcclusionClassifier classifier_;
  arbd::ar::LabelLayout layout_;
  arbd::core::ContextConfig context_;
  std::vector<std::unique_ptr<arbd::core::ContextEngine>> users_;
};

}  // namespace

std::unique_ptr<System> MakeSplitSystem(const WorkloadSpec& spec, const Inputs& in) {
  return std::make_unique<SplitSystem>(spec, in);
}

}  // namespace perfbench
