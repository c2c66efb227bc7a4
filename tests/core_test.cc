#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "core/platform.h"
#include "core/session.h"

namespace arbd::core {
namespace {

stream::Event Ev(const std::string& key, const std::string& attr, double value,
                 std::int64_t ms) {
  stream::Event e;
  e.key = key;
  e.attribute = attr;
  e.value = value;
  e.event_time = TimePoint::FromMillis(ms);
  return e;
}

TEST(Interpretation, SubstituteTemplates) {
  EXPECT_EQ(InterpretationEngine::Substitute("{key} at {value}", "hr", 99.46),
            "hr at 99.5");
  EXPECT_EQ(InterpretationEngine::Substitute("no placeholders", "k", 1.0),
            "no placeholders");
}

class InterpretationFixture : public ::testing::Test {
 protected:
  InterpretationFixture()
      : engine_([this](const std::string& key) {
          EntityContext ctx;
          if (key == "located") {
            ctx.has_position = true;
            ctx.pos = {22.3, 114.2};
            ctx.height_m = 4.0;
          }
          return ctx;
        }) {}

  InterpretationEngine engine_;
};

TEST_F(InterpretationFixture, ThresholdRuleFiresOutOfRange) {
  InterpretationRule rule;
  rule.name = "tachy";
  rule.attribute = "heart_rate";
  rule.high = 110.0;
  rule.type = ar::content::SemanticType::kAlert;
  engine_.AddRule(rule);

  stream::WindowResult r;
  r.key = "located";
  r.attribute = "heart_rate";
  r.value = 140.0;
  const auto a = engine_.Interpret(r, TimePoint::FromSeconds(1.0));
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->type, ar::content::SemanticType::kAlert);
  EXPECT_EQ(a->properties.at("rule"), "tachy");

  r.value = 80.0;  // in range: suppressed
  EXPECT_FALSE(engine_.Interpret(r, TimePoint::FromSeconds(1.0)).has_value());
  EXPECT_EQ(engine_.stats().suppressed_in_range, 1u);
}

TEST_F(InterpretationFixture, InformationalRuleAlwaysFires) {
  InterpretationRule rule;
  rule.attribute = "speed";
  engine_.AddRule(rule);  // low/high at defaults = informational
  const auto a = engine_.Interpret(Ev("located", "speed", 3.0, 0), TimePoint{});
  EXPECT_TRUE(a.has_value());
}

TEST_F(InterpretationFixture, NoRuleSuppresses) {
  EXPECT_FALSE(engine_.Interpret(Ev("located", "unknown", 1.0, 0), TimePoint{}).has_value());
  EXPECT_EQ(engine_.stats().suppressed_no_rule, 1u);
}

TEST_F(InterpretationFixture, UnanchoredAlertBecomesHud) {
  InterpretationRule rule;
  rule.attribute = "hr";
  rule.high = 100.0;
  rule.type = ar::content::SemanticType::kAlert;
  engine_.AddRule(rule);
  const auto a = engine_.Interpret(Ev("nowhere-man", "hr", 150.0, 0), TimePoint{});
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->anchor.kind, ar::content::Anchor::Kind::kScreen);
}

TEST_F(InterpretationFixture, UnanchoredInfoSuppressed) {
  InterpretationRule rule;
  rule.attribute = "info";
  engine_.AddRule(rule);
  EXPECT_FALSE(engine_.Interpret(Ev("nowhere-man", "info", 1.0, 0), TimePoint{}).has_value());
  EXPECT_EQ(engine_.stats().suppressed_no_anchor, 1u);
}

TEST_F(InterpretationFixture, WorldAnchoredUsesEntityPosition) {
  InterpretationRule rule;
  rule.attribute = "rating";
  engine_.AddRule(rule);
  const auto a = engine_.Interpret(Ev("located", "rating", 4.5, 0), TimePoint{});
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->anchor.kind, ar::content::Anchor::Kind::kWorld);
  EXPECT_DOUBLE_EQ(a->anchor.geo_pos.lat, 22.3);
  EXPECT_DOUBLE_EQ(a->anchor.height_m, 4.0);
}

TEST_F(InterpretationFixture, FirstMatchingRuleWins) {
  InterpretationRule loose;
  loose.name = "warn";
  loose.attribute = "hr";
  loose.high = 100.0;
  loose.priority = 0.7;
  InterpretationRule tight;
  tight.name = "panic";
  tight.attribute = "hr";
  tight.high = 150.0;
  tight.priority = 1.0;
  engine_.AddRule(loose);
  engine_.AddRule(tight);
  const auto a = engine_.Interpret(Ev("located", "hr", 160.0, 0), TimePoint{});
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->properties.at("rule"), "warn");
}

class PlatformFixture : public ::testing::Test {
 protected:
  PlatformFixture()
      : city_(geo::CityModel::Generate(geo::CityConfig{}, 51)),
        platform_(PlatformConfig{}, city_, clock_) {}

  SimClock clock_;
  geo::CityModel city_;
  Platform platform_;
};

TEST_F(PlatformFixture, PublishProcessInterpretCompose) {
  // Wire a mean-speed aggregation with an informational rule anchored at a
  // real POI so the annotation lands in the world.
  const geo::Poi* poi = city_.pois().All().front();
  platform_.SetEntityResolver([poi](const std::string&) {
    EntityContext ctx;
    ctx.has_position = true;
    ctx.pos = poi->pos;
    ctx.height_m = 2.0;
    return ctx;
  });
  AggregationSpec spec;
  spec.attribute = "visits";
  spec.window = stream::WindowSpec::Tumbling(Duration::Seconds(1));
  spec.agg = stream::AggKind::kCount;
  platform_.AddAggregation(spec);
  InterpretationRule rule;
  rule.attribute = "visits";
  platform_.AddRule(rule);

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(platform_.Publish(Ev(poi->name, "visits", 1.0, i * 300)).ok());
  }
  EXPECT_EQ(platform_.ProcessPending(), 10u);
  EXPECT_GT(platform_.results_interpreted(), 0u);
  EXPECT_GT(platform_.annotations().size(), 0u);

  // Put the user right at the POI looking north; frame must compose.
  auto& user = platform_.AddUser("alice");
  ar::PoseEstimate init;
  const geo::Enu enu = city_.frame().ToEnu(poi->pos);
  init.east = enu.east;
  init.north = enu.north - 20.0;
  init.yaw_deg = 0.0;
  user.tracker().Reset(init);

  const auto frame = platform_.ComposeFrame("alice");
  ASSERT_TRUE(frame.ok());
  EXPECT_GT(frame->live_annotations, 0u);
}

TEST_F(PlatformFixture, SetResolverPreservesRules) {
  InterpretationRule rule;
  rule.attribute = "x";
  platform_.AddRule(rule);
  EXPECT_EQ(platform_.interpreter().rule_count(), 1u);
  platform_.SetEntityResolver([](const std::string&) {
    EntityContext ctx;
    ctx.has_position = true;
    ctx.pos = {22.3, 114.2};
    return ctx;
  });
  EXPECT_EQ(platform_.interpreter().rule_count(), 1u)
      << "swapping the resolver must not drop installed rules";
  const auto a = platform_.interpreter().Interpret(Ev("k", "x", 1.0, 0), TimePoint{});
  EXPECT_TRUE(a.has_value()) << "rule still fires with the new resolver's anchor";
}

TEST_F(PlatformFixture, ComposeForUnknownUserFails) {
  EXPECT_FALSE(platform_.ComposeFrame("nobody").ok());
}

TEST_F(PlatformFixture, AnnotationsExpireByTtl) {
  ar::content::Annotation a;
  a.anchor.geo_pos = city_.pois().All().front()->pos;
  a.ttl = Duration::Seconds(1);
  platform_.AddAnnotation(a);
  EXPECT_EQ(platform_.annotations().size(), 1u);

  platform_.AddUser("u");
  clock_.Advance(Duration::Seconds(5));
  const auto frame = platform_.ComposeFrame("u");
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->expired, 1u);
  EXPECT_EQ(platform_.annotations().size(), 0u);
}

TEST_F(PlatformFixture, ProcessPendingIsIdempotentWhenDrained) {
  AggregationSpec spec;
  spec.attribute = "x";
  platform_.AddAggregation(spec);
  ASSERT_TRUE(platform_.Publish(Ev("k", "x", 1.0, 0)).ok());
  EXPECT_EQ(platform_.ProcessPending(), 1u);
  EXPECT_EQ(platform_.ProcessPending(), 0u);
}

TEST_F(PlatformFixture, CorruptPayloadSkipped) {
  // Publish a raw non-Event record directly to the topic.
  ASSERT_TRUE(platform_.broker()
                  .Produce(PlatformConfig{}.event_topic,
                           stream::Record::MakeText("k", "not an event", TimePoint{}))
                  .ok());
  AggregationSpec spec;
  spec.attribute = "x";
  platform_.AddAggregation(spec);
  EXPECT_EQ(platform_.ProcessPending(), 1u);  // consumed, dropped, no crash
}

// The frame budget bounds the ingest poll on a cluster: each partition
// visit charges one modeled broker op, so a budget of 1.5 ops covers two
// of the three partitions and the third waits for the next frame.
TEST(PlatformFrameBudget, ProcessPendingPollStopsWhenBudgetIsSpent) {
  SimClock clock;
  const geo::CityModel city = geo::CityModel::Generate(geo::CityConfig{}, 51);
  PlatformConfig cfg;
  cfg.partitions = 3;
  cfg.cluster_brokers = 4;
  cfg.frame_budget = cluster::ClusterConfig{}.base_op_latency * 1.5;
  Platform platform(cfg, city, clock);
  auto topic = platform.broker().GetTopic(cfg.event_topic);
  ASSERT_TRUE(topic.ok());
  std::set<stream::PartitionId> published;
  for (int i = 0; published.size() < cfg.partitions; ++i) {
    const std::string key = "entity-" + std::to_string(i);
    if (!published.insert((*topic)->PartitionFor(key)).second) continue;
    ASSERT_TRUE(platform.Publish(Ev(key, "x", 1.0, i)).ok());
  }
  EXPECT_EQ(platform.ProcessPending(), 2u);
  EXPECT_EQ(platform.ProcessPending(), 1u);
  EXPECT_EQ(platform.ProcessPending(), 0u);
}

// The ladder's first rung skips the occlusion raycasts and nothing else:
// annotations still project through the city's frame, so the same pose
// sees the same annotations, none of them occluded.
TEST(Platform, DegradedRungKeepsTheCityProjection) {
  SimClock clock;
  const geo::CityModel city = geo::CityModel::Generate(geo::CityConfig{}, 51);
  PlatformConfig cfg;
  cfg.qos.enabled = true;
  Platform platform(cfg, city, clock);
  for (const geo::Poi* poi : city.pois().All()) {
    ar::content::Annotation a;
    a.anchor.geo_pos = poi->pos;
    a.ttl = Duration::Seconds(3600);
    platform.AddAnnotation(a);
  }
  platform.AddUser("u");  // at the city's origin, looking north

  const auto full = platform.ComposeFrame("u");
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->degradation_level, 0);
  ASSERT_GT(full->in_view, 0u);
  ASSERT_GT(full->occluded, 0u) << "the pose must have raycasts for the rung to skip";

  for (int i = 0; i < cfg.qos.ladder.violations_to_step_down; ++i) {
    platform.ObserveFrameLatency(cfg.qos.ladder.slo * 2.0);
  }
  const auto degraded = platform.ComposeFrame("u");
  ASSERT_TRUE(degraded.ok());
  ASSERT_GE(degraded->degradation_level, 1);
  EXPECT_EQ(degraded->in_view, full->in_view);
  EXPECT_EQ(degraded->occluded, 0u);
}

// What one seeded Publish/ProcessPending/ComposeFrame workload leaves
// behind, and how many executor tasks it ran.
struct SeededRun {
  std::vector<Bytes> checkpoints;  // one per aggregation job
  std::uint64_t results_interpreted = 0;
  std::vector<std::size_t> frame_counters;
  std::uint64_t tasks_run = 0;
};

SeededRun DriveSeededWorkload(std::size_t workers) {
  SimClock clock;
  const geo::CityModel city = geo::CityModel::Generate(geo::CityConfig{}, 51);
  PlatformConfig cfg;
  cfg.exec.workers = workers;
  Platform platform(cfg, city, clock);
  const std::vector<std::string> attributes = {"visits", "dwell"};
  for (const std::string& attr : attributes) {
    AggregationSpec spec;
    spec.attribute = attr;
    spec.window = stream::WindowSpec::Tumbling(Duration::Millis(500));
    platform.AddAggregation(spec);
    InterpretationRule rule;
    rule.attribute = attr;
    rule.ttl = Duration::Seconds(3600);
    platform.AddRule(rule);
  }
  platform.AddUser("u");

  SeededRun run;
  const auto& pois = city.pois().All();
  Rng rng(2024);
  std::int64_t ms = 0;
  const std::uint64_t tasks_before = platform.executor().tasks_run();
  for (int tick = 0; tick < 20; ++tick) {
    for (int i = 0; i < 60; ++i) {
      ms += static_cast<std::int64_t>(rng.NextBelow(30));
      const geo::Poi* poi = pois[rng.NextBelow(pois.size())];
      EXPECT_TRUE(platform
                      .Publish(Ev(poi->name, attributes[rng.NextBelow(2)],
                                  rng.Uniform(0.0, 10.0), ms))
                      .ok());
    }
    clock.Advance(Duration::Millis(100));
    platform.ProcessPending();
    const auto frame = platform.ComposeFrame("u");
    EXPECT_TRUE(frame.ok());
    if (!frame.ok()) continue;
    run.frame_counters.insert(run.frame_counters.end(),
                              {frame->live_annotations, frame->expired, frame->in_view,
                               frame->occluded, frame->layout.placed,
                               frame->layout.dropped});
  }
  run.tasks_run = platform.executor().tasks_run() - tasks_before;
  for (std::size_t j = 0; j < platform.job_count(); ++j) {
    run.checkpoints.push_back(platform.job_pipeline(j).Checkpoint());
  }
  run.results_interpreted = platform.results_interpreted();
  return run;
}

// Ingest and compose take one path at every worker count: the same
// pipeline state, interpretations and frames, and no executor task.
TEST(Platform, OnePathAtEveryWorkerCount) {
  const SeededRun one = DriveSeededWorkload(1);
  const SeededRun four = DriveSeededWorkload(4);
  ASSERT_EQ(one.checkpoints.size(), 2u);
  EXPECT_EQ(four.checkpoints, one.checkpoints);
  EXPECT_GT(one.results_interpreted, 0u);
  EXPECT_EQ(four.results_interpreted, one.results_interpreted);
  EXPECT_EQ(four.frame_counters, one.frame_counters);
  EXPECT_EQ(four.tasks_run, 0u);
}

class ContextFixture : public ::testing::Test {
 protected:
  ContextFixture() : city_(geo::CityModel::Generate(geo::CityConfig{}, 53)) {}
  geo::CityModel city_;
};

TEST_F(ContextFixture, SnapshotFindsNearbyPois) {
  // Stand at a known POI: it and its neighbours must be in `nearby`.
  const geo::Poi* poi = city_.pois().All().front();
  ContextConfig cfg;
  cfg.nearby_radius_m = 80.0;
  ContextEngine ctx("u", city_, cfg);
  const geo::Enu at = city_.frame().ToEnu(poi->pos);
  ar::PoseEstimate pose;
  pose.east = at.east;
  pose.north = at.north;
  ctx.tracker().Reset(pose);

  const auto snap = ctx.Snapshot();
  EXPECT_EQ(snap.user_id, "u");
  ASSERT_FALSE(snap.nearby.empty());
  bool found_self = false;
  for (const auto* p : snap.nearby) {
    EXPECT_LE(geo::DistanceM(snap.geo_pos, p->pos), 80.0 + 1.0);
    found_self |= p->id == poi->id;
  }
  EXPECT_TRUE(found_self);
}

TEST_F(ContextFixture, InViewIsSubsetOfNearbyAndRespectsHeading) {
  ContextEngine ctx("u", city_, {});
  ar::PoseEstimate pose;  // origin, facing north
  ctx.tracker().Reset(pose);
  const auto snap = ctx.Snapshot();
  EXPECT_LE(snap.in_view.size(), snap.nearby.size());
  // Everything in view must actually project into the frustum.
  const auto view = ctx.View();
  for (const auto* p : snap.in_view) {
    const geo::Enu e = city_.frame().ToEnu(p->pos);
    EXPECT_TRUE(view.InFrustum(e.east, e.north, p->height_m));
  }
}

TEST_F(ContextFixture, TurningAroundChangesInView) {
  ContextEngine ctx("u", city_, {});
  ar::PoseEstimate north;
  north.yaw_deg = 0.0;
  ctx.tracker().Reset(north);
  const auto facing_north = ctx.Snapshot();

  ar::PoseEstimate south = north;
  south.yaw_deg = 180.0;
  ctx.tracker().Reset(south);
  const auto facing_south = ctx.Snapshot();

  EXPECT_EQ(facing_north.nearby.size(), facing_south.nearby.size())
      << "nearby is heading-independent";
  // The two view sets should differ (a 70° FOV can't cover both halves).
  std::set<geo::PoiId> n_ids, s_ids;
  for (const auto* p : facing_north.in_view) n_ids.insert(p->id);
  for (const auto* p : facing_south.in_view) s_ids.insert(p->id);
  EXPECT_NE(n_ids, s_ids);
}

TEST_F(ContextFixture, SpeedReflectsTrackedVelocity) {
  ContextEngine ctx("u", city_, {});
  ar::PoseEstimate pose;
  pose.vel_east = 3.0;
  pose.vel_north = 4.0;
  ctx.tracker().Reset(pose);
  EXPECT_NEAR(ctx.Snapshot().speed_mps, 5.0, 1e-9);
}

class SessionFixture : public ::testing::Test {
 protected:
  SessionFixture()
      : city_(geo::CityModel::Generate(geo::CityConfig{}, 52)),
        session_("ops", city_),
        electrician_ctx_("electrician", city_),
        plumber_ctx_("plumber", city_) {
    ar::PoseEstimate init;
    electrician_ctx_.tracker().Reset(init);
    plumber_ctx_.tracker().Reset(init);
  }

  ar::content::Annotation Diagnostic(ar::content::SemanticType type) {
    ar::content::Annotation a;
    a.type = type;
    // 30 m north of both users, in view.
    a.anchor.geo_pos = city_.frame().FromEnu(geo::Enu{0.0, 30.0});
    a.anchor.height_m = 1.7;
    a.priority = 0.9;
    a.ttl = Duration::Seconds(60);
    return a;
  }

  geo::CityModel city_;
  CollaborativeSession session_;
  ContextEngine electrician_ctx_;
  ContextEngine plumber_ctx_;
};

TEST_F(SessionFixture, JoinLeaveAndDuplicates) {
  EXPECT_TRUE(session_.Join("electrician", Role{"electric", {}, 0.0}, &electrician_ctx_).ok());
  EXPECT_EQ(session_.Join("electrician", Role{}, &electrician_ctx_).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(session_.Join("x", Role{}, nullptr).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(session_.Leave("electrician").ok());
  EXPECT_EQ(session_.Leave("electrician").code(), StatusCode::kNotFound);
}

TEST_F(SessionFixture, RoleFiltersSharedContent) {
  Role electric{"electric", {ar::content::SemanticType::kDiagnostic}, 0.0};
  Role all{"supervisor", {}, 0.0};
  ASSERT_TRUE(session_.Join("electrician", electric, &electrician_ctx_).ok());
  ASSERT_TRUE(session_.Join("plumber", all, &plumber_ctx_).ok());

  session_.Share(Diagnostic(ar::content::SemanticType::kDiagnostic), TimePoint{});
  session_.Share(Diagnostic(ar::content::SemanticType::kSocial), TimePoint{});

  const auto e = session_.ComposeFor("electrician", TimePoint{});
  const auto p = session_.ComposeFor("plumber", TimePoint{});
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(e->live_annotations, 1u) << "whitelist hides the social post";
  EXPECT_EQ(p->live_annotations, 2u) << "empty whitelist sees all";
}

TEST_F(SessionFixture, PersonalContentIsPrivate) {
  ASSERT_TRUE(session_.Join("electrician", Role{}, &electrician_ctx_).ok());
  ASSERT_TRUE(session_.Join("plumber", Role{}, &plumber_ctx_).ok());
  session_.AddPersonal("electrician", Diagnostic(ar::content::SemanticType::kDiagnostic),
                       TimePoint{});
  EXPECT_EQ(session_.ComposeFor("electrician", TimePoint{})->live_annotations, 1u);
  EXPECT_EQ(session_.ComposeFor("plumber", TimePoint{})->live_annotations, 0u);
}

TEST_F(SessionFixture, MinPriorityFilter) {
  Role picky{"picky", {}, 0.95};
  ASSERT_TRUE(session_.Join("electrician", picky, &electrician_ctx_).ok());
  session_.Share(Diagnostic(ar::content::SemanticType::kDiagnostic), TimePoint{});  // 0.9
  EXPECT_EQ(session_.ComposeFor("electrician", TimePoint{})->live_annotations, 0u);
}

TEST_F(SessionFixture, ComposeForNonMemberFails) {
  EXPECT_FALSE(session_.ComposeFor("stranger", TimePoint{}).ok());
}

}  // namespace
}  // namespace arbd::core
