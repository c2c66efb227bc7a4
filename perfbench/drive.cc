// The episode loop, and the measured system: the public core::Platform API.
#include <algorithm>
#include <thread>

#include "bench.h"
#include "stream/segment.h"

namespace perfbench {

namespace {

double Ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

class PlatformSystem final : public System {
 public:
  PlatformSystem(const WorkloadSpec& spec, const Inputs& in)
      : city_(MakeCity()),
        platform_(Config(spec), city_, clock_) {
    for (const auto& job : Jobs()) platform_.AddAggregation(job);
    for (const auto& rule : Rules()) platform_.AddRule(rule);
    for (const auto& u : in.users) {
      users_.push_back(u.id);
      platform_.AddUser(u.id);
    }
    for (const auto& a : in.annotations) platform_.AddAnnotation(a);
  }

  arbd::Status Publish(const arbd::stream::Event& event) override {
    return platform_.Publish(event);
  }
  std::size_t ProcessPending() override { return platform_.ProcessPending(); }
  arbd::Expected<arbd::core::FrameResult> ComposeFrame(std::size_t user) override {
    return platform_.ComposeFrame(users_[user]);
  }
  arbd::core::ContextEngine& User(std::size_t user) override {
    return **platform_.User(users_[user]);
  }
  arbd::stream::Broker& broker() override { return platform_.broker(); }
  arbd::SimClock& clock() override { return clock_; }
  std::uint64_t tasks_run() override { return platform_.executor().tasks_run(); }
  void AddEndState(Digest& d) override {
    std::vector<const arbd::stream::Pipeline*> pipelines;
    for (std::size_t j = 0; j < platform_.job_count(); ++j) {
      pipelines.push_back(&platform_.job_pipeline(j));
    }
    perfbench::AddEndState(d, pipelines, platform_.results_interpreted(),
                           platform_.annotations().size(), platform_.interpreter().stats(),
                           platform_.broker());
  }

 private:
  static arbd::core::PlatformConfig Config(const WorkloadSpec& spec) {
    arbd::core::PlatformConfig cfg;
    cfg.event_topic = kEventTopic;
    cfg.partitions = kPartitions;
    cfg.exec.workers = spec.workers;
    cfg.exec.seed = 0;
    cfg.replication_factor = spec.replication;
    cfg.cluster_brokers = spec.brokers;
    cfg.qos.enabled = false;  // README.md: the budgeted topic never drains
    return cfg;
  }

  const arbd::geo::CityModel city_;
  arbd::SimClock clock_;
  arbd::core::Platform platform_;
  std::vector<std::string> users_;
};

// A span around one call into the system, under which a layer-splitting
// system nests its own spans. A no-op in the untraced run.
class CallSpan {
 public:
  CallSpan(SpanLog* log, System& sys, Counters& counters, Layer layer, std::int32_t parent)
      : scope_(log, layer, parent) {
    if (log != nullptr) sys.Trace(log, &counters, scope_.index());
  }

 private:
  Scope scope_;
};

}  // namespace

std::unique_ptr<System> MakePlatformSystem(const WorkloadSpec& spec, const Inputs& in) {
  return std::make_unique<PlatformSystem>(spec, in);
}

EpisodeResult RunEpisode(const WorkloadSpec& spec, const Inputs& in, bool split, SpanLog* log) {
  EpisodeResult r;
  Counters& c = r.counters;

  // --- set-up -------------------------------------------------------------
  const std::int64_t setup0 = NowNs();
  arbd::stream::SetSegmentBytesTarget(spec.segment_bytes);
  std::unique_ptr<System> sys = split ? MakeSplitSystem(spec, in) : MakePlatformSystem(spec, in);
  constexpr std::size_t kPreloadChunk = 1000;
  for (std::size_t i = 0; i < in.history.size(); ++i) {
    sys->clock().AdvanceTo(in.history[i].event_time);
    if (sys->Publish(in.history[i]).ok()) {
      ++r.published;
    } else {
      ++r.failed;
    }
    if ((i + 1) % kPreloadChunk == 0 || i + 1 == in.history.size()) {
      r.processed += sys->ProcessPending();
    }
  }
  r.setup_s = static_cast<double>(NowNs() - setup0) / 1e9;

  // --- measured loop --------------------------------------------------------
  const std::uint64_t tasks0 = sys->tasks_run();
  Digest digest;
  std::vector<std::size_t> cursor(in.users.size(), 0);
  std::vector<std::int64_t> publish_ns(spec.events_per_tick);
  std::vector<std::pair<std::size_t, arbd::stream::QueryResult>> answers;
  std::size_t next_query = 0;
  std::int64_t excluded_ns = 0;  // gate checks
  std::int64_t sleep_ns = 0;     // open-loop waits
  const std::int64_t period_ns = spec.tick_sim.nanos();
  const auto users = static_cast<std::int64_t>(in.users.size());
  const std::int64_t loop0 = NowNs() + (spec.open_loop ? 1'000'000 : 0);

  // Sleeps to just short of the due time, then spins, so the generator's
  // own wake-up delay stays out of the frame timings.
  auto wait_until = [&](std::int64_t due) {
    constexpr std::int64_t kSpinNs = 200'000;
    const std::int64_t now = NowNs();
    if (due <= now) return;
    if (due - now > kSpinNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - kSpinNs));
    }
    while (NowNs() < due) {
    }
    sleep_ns += NowNs() - now;
  };

  for (std::size_t t = 0; t < spec.ticks; ++t) {
    const std::int64_t tick_due = loop0 + static_cast<std::int64_t>(t) * period_ns;
    if (spec.open_loop) wait_until(tick_due);
    {
      Scope tick(log, kTick, -1);
      sys->clock().AdvanceTo(in.tick_time[t]);

      // The tick's events: published (with any queries between them), then
      // drained.
      auto ingest = [&] {
        const std::size_t first = t * spec.events_per_tick;
        for (std::size_t k = 0; k < spec.events_per_tick; ++k) {
          const std::size_t i = first + k;
          publish_ns[k] = NowNs();
          arbd::Status s = [&] {
            CallSpan span(log, *sys, c, kCorePublish, tick.index());
            return sys->Publish(in.live[i]);
          }();
          ++c.publish_calls;
          if (s.ok()) {
            ++r.published;
          } else {
            ++r.failed;
            ++c.publish_failed;
            r.errors.push_back("publish failed: " + s.ToString());
          }
          while (next_query < in.queries.size() && in.queries[next_query].after_event == i + 1) {
            const QueryInput& q = in.queries[next_query];
            const std::int64_t q0 = NowNs();
            arbd::Expected<arbd::stream::QueryResult> res = [&] {
              Scope span(log, kStreamQuery, tick.index());
              return sys->broker().QueryTime(kEventTopic, q.partition, q.t_lo, q.t_hi);
            }();
            r.query_ms.push_back(Ms(NowNs() - q0));
            ++c.query_calls;
            if (res.ok()) {
              answers.emplace_back(next_query, std::move(*res));
            } else {
              ++c.query_failed;
              r.errors.push_back("query failed: " + res.status().ToString());
            }
            ++next_query;
          }
        }

        const std::size_t processed = [&] {
          CallSpan span(log, *sys, c, kCoreProcessPending, tick.index());
          return sys->ProcessPending();
        }();
        const std::int64_t drained = NowNs();
        ++c.process_calls;
        c.process_records += processed;
        r.processed += processed;
        for (std::size_t k = 0; k < spec.events_per_tick; ++k) {
          r.lag_ms.push_back(Ms(drained - publish_ns[k]));
        }
      };

      // A closed loop drains, then composes one frame, for each user in
      // turn. An open loop composes every user's frame at its due time and
      // drains right after the first.
      if (!spec.open_loop) ingest();
      const std::size_t first_user = spec.open_loop ? 0 : t % in.users.size();
      const std::size_t last_user = spec.open_loop ? in.users.size() : first_user + 1;
      for (std::size_t u = first_user; u < last_user; ++u) {
        const std::int64_t due = tick_due + period_ns * static_cast<std::int64_t>(u) / users;
        if (spec.open_loop) wait_until(due);
        const std::int64_t start = NowNs();
        {
          Scope span(log, kCoreContext, tick.index());
          const arbd::TimePoint until = SensorTime(spec, t, u);
          const auto& samples = in.users[u].samples;
          arbd::core::ContextEngine& engine = sys->User(u);
          for (std::size_t& j = cursor[u]; j < samples.size(); ++j) {
            const SensorSample& sample = samples[j];
            if ((sample.is_gps ? sample.gps.time : sample.imu.time) > until) break;
            if (sample.is_gps) {
              engine.OnGps(sample.gps);
            } else {
              engine.OnImu(sample.imu);
            }
            ++c.context_samples;
          }
        }
        const std::int64_t call = NowNs();
        arbd::Expected<arbd::core::FrameResult> frame = [&] {
          CallSpan span(log, *sys, c, kCoreComposeFrame, tick.index());
          return sys->ComposeFrame(u);
        }();
        const std::int64_t end = NowNs();
        ++c.compose_calls;
        if (spec.open_loop) {
          r.open_frames.push_back(OpenLoopSample{due, start, end});
        } else {
          r.frame_ms.push_back(Ms(end - call));
        }
        if (!frame.ok()) {
          ++c.compose_failed;
          r.errors.push_back("compose failed: " + frame.status().ToString());
        } else {
          c.annotations_live_max =
              std::max<std::uint64_t>(c.annotations_live_max, frame->live_annotations);
          AddFrame(digest, *frame);
        }
        if (spec.open_loop && u == 0) ingest();
      }
    }

    // Gate checks run outside the measured time.
    const std::int64_t check0 = NowNs();
    for (const auto& [qi, res] : answers) {
      const std::string err = CheckQuery(in, in.queries[qi], res.rows);
      if (!err.empty()) r.errors.push_back(err);
      digest.Add(res.rows.size());
      c.query_blocks += res.stats.blocks_scanned;
      c.query_rows_examined += res.stats.rows_examined;
      c.query_rows_returned += res.stats.rows_returned;
      c.query_cache_hits += res.stats.cache_hits;
      c.query_cache_misses += res.stats.cache_misses;
    }
    answers.clear();
    excluded_ns += NowNs() - check0;
  }
  const std::int64_t loop_ns = NowNs() - loop0 - excluded_ns;
  r.wall_s = static_cast<double>(loop_ns) / 1e9;
  r.busy_s = static_cast<double>(loop_ns - sleep_ns) / 1e9;
  sys->Trace(nullptr, nullptr, -1);
  c.exec_tasks = sys->tasks_run() - tasks0;

  sys->AddEndState(digest);
  r.digest = digest.value();
  auto topic = sys->broker().GetTopic(kEventTopic);
  if (topic.ok()) {
    c.log_bytes = (*topic)->TotalBytes();
    for (std::uint32_t p = 0; p < (*topic)->partition_count(); ++p) {
      c.segments += (*topic)->partition(p).sealed_segment_count();
    }
  }
  return r;
}

}  // namespace perfbench
