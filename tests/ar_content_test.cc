#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <set>
#include <string>

#include "ar/content.h"
#include "common/rng.h"

namespace arbd::ar {
namespace {

content::Annotation MakeAnnotation(const std::string& title,
                                   content::SemanticType type = content::SemanticType::kPlaceInfo) {
  content::Annotation a;
  a.type = type;
  a.title = title;
  a.body = "body of " + title;
  a.anchor.geo_pos = {22.3, 114.2};
  a.anchor.height_m = 3.0;
  a.priority = 0.6;
  a.created = TimePoint::FromSeconds(10.0);
  a.ttl = Duration::Seconds(5);
  a.properties["source"] = "test";
  return a;
}

TEST(Annotation, EncodeDecodeRoundTrip) {
  content::Annotation a = MakeAnnotation("Cafe Milano", content::SemanticType::kRecommendation);
  a.id = 77;
  a.anchor.building_id = 5;
  const auto d = content::Annotation::Decode(a.Encode());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->id, 77u);
  EXPECT_EQ(d->type, content::SemanticType::kRecommendation);
  EXPECT_EQ(d->title, "Cafe Milano");
  EXPECT_EQ(d->body, "body of Cafe Milano");
  EXPECT_DOUBLE_EQ(d->anchor.geo_pos.lat, 22.3);
  EXPECT_EQ(d->anchor.building_id, 5u);
  EXPECT_DOUBLE_EQ(d->priority, 0.6);
  EXPECT_EQ(d->created.seconds(), 10.0);
  EXPECT_EQ(d->ttl, Duration::Seconds(5));
  EXPECT_EQ(d->properties.at("source"), "test");
}

TEST(Annotation, ScreenAnchorRoundTrip) {
  content::Annotation a = MakeAnnotation("HUD");
  a.anchor.kind = content::Anchor::Kind::kScreen;
  a.anchor.screen_x = 0.25;
  a.anchor.screen_y = 0.75;
  const auto d = content::Annotation::Decode(a.Encode());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->anchor.kind, content::Anchor::Kind::kScreen);
  EXPECT_DOUBLE_EQ(d->anchor.screen_x, 0.25);
}

TEST(Annotation, DecodeRejectsBadSemanticType) {
  content::Annotation a = MakeAnnotation("x");
  Bytes b = a.Encode();
  b[8] = 0xEE;  // the semantic-type byte follows the u64 id
  EXPECT_FALSE(content::Annotation::Decode(b).ok());
}

TEST(Annotation, ExpiryIsTtlBased) {
  const content::Annotation a = MakeAnnotation("fleeting");
  EXPECT_FALSE(a.ExpiredAt(TimePoint::FromSeconds(14.0)));
  EXPECT_TRUE(a.ExpiredAt(TimePoint::FromSeconds(15.5)));
}

TEST(AnnotationStore, AddAssignsIdsAndLive) {
  content::AnnotationStore store;
  const auto id1 = store.Add(MakeAnnotation("a"));
  const auto id2 = store.Add(MakeAnnotation("b"));
  EXPECT_NE(id1, id2);
  EXPECT_EQ(store.Live().size(), 2u);
  ASSERT_NE(store.Get(id1), nullptr);
  EXPECT_EQ(store.Get(id1)->title, "a");
  EXPECT_EQ(store.Get(9999), nullptr);
}

TEST(AnnotationStore, RemoveAndExpire) {
  content::AnnotationStore store;
  const auto id = store.Add(MakeAnnotation("gone"));
  EXPECT_TRUE(store.Remove(id));
  EXPECT_FALSE(store.Remove(id));

  store.Add(MakeAnnotation("old"));  // created t=10, ttl 5
  content::Annotation fresh = MakeAnnotation("fresh");
  fresh.created = TimePoint::FromSeconds(100.0);
  store.Add(fresh);
  EXPECT_EQ(store.ExpireOlderThan(TimePoint::FromSeconds(50.0)), 1u);
  ASSERT_EQ(store.Live().size(), 1u);
  EXPECT_EQ(store.Live()[0]->title, "fresh");
}

TEST(AnnotationStore, ExpiryEdgeCases) {
  content::AnnotationStore store;
  const auto at = [](std::int64_t s) { return TimePoint::FromSeconds(static_cast<double>(s)); };
  content::Annotation a = MakeAnnotation("a");  // deadline t=15
  const auto id_a = store.Add(a);
  const auto id_b = store.Add(a);               // the same deadline
  content::Annotation zero = MakeAnnotation("zero");
  zero.created = at(12);
  zero.ttl = Duration::Nanos(0);
  const auto id_zero = store.Add(zero);
  content::Annotation forever = MakeAnnotation("forever");
  forever.ttl = Duration::Seconds(1'000'000'000);
  const auto id_forever = store.Add(forever);

  EXPECT_EQ(store.ExpireOlderThan(at(12)), 0u);  // now == created + 0 is not expired
  EXPECT_EQ(store.ExpireOlderThan(at(12) + Duration::Nanos(1)), 1u);
  EXPECT_EQ(store.Get(id_zero), nullptr);
  EXPECT_EQ(store.ExpireOlderThan(at(15)), 0u);  // now == created + ttl is not expired
  EXPECT_EQ(store.ExpireOlderThan(at(15) + Duration::Nanos(1)), 2u);  // equal deadlines
  EXPECT_FALSE(store.Remove(id_a));  // already expired
  EXPECT_FALSE(store.Remove(id_b));
  EXPECT_EQ(store.ExpireOlderThan(at(1'000'000)), 0u);
  ASSERT_EQ(store.Live().size(), 1u);
  EXPECT_EQ(store.Live()[0], store.Get(id_forever));
  EXPECT_TRUE(store.Remove(id_forever));
  EXPECT_TRUE(store.Live().empty());
  EXPECT_EQ(store.size(), 0u);
}

// Seeded random Add/Remove/ExpireOlderThan sequences against a brute-force
// model: an id-keyed map that expires by scanning every entry. The anchor
// table must hold each live annotation's anchor in its Live() row.
TEST(AnnotationStore, MatchesBruteForceModel) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    content::AnnotationStore store;
    std::map<std::uint64_t, content::Annotation> model;
    std::uint64_t model_next = 1;
    const auto random_time = [&] { return TimePoint::FromSeconds(rng.UniformInt(0, 60)); };
    for (int step = 0; step < 4000; ++step) {
      const auto op = rng.NextBelow(10);
      if (op < 5) {
        content::Annotation a = MakeAnnotation("n" + std::to_string(step));
        a.created = random_time();  // whole seconds, so deadlines often tie
        switch (rng.NextBelow(4)) {
          case 0: a.ttl = Duration::Nanos(0); break;
          case 1: a.ttl = Duration::Seconds(1'000'000'000); break;
          default: a.ttl = Duration::Seconds(rng.UniformInt(1, 20)); break;
        }
        // Distinct anchors, so a table row out of step with Live() shows.
        a.anchor.geo_pos = {rng.Uniform(-1.0, 1.0), rng.Uniform(-1.0, 1.0)};
        a.anchor.height_m = rng.Uniform(0.0, 50.0);
        a.anchor.building_id = rng.NextBelow(4);
        if (rng.Bernoulli(0.25)) a.anchor.kind = content::Anchor::Kind::kScreen;
        const auto id = store.Add(a);
        ASSERT_EQ(id, model_next);
        a.id = model_next++;
        model.emplace(a.id, a);
      } else if (op < 7) {
        // Live, expired, removed and never-assigned ids alike.
        const std::uint64_t id = 1 + rng.NextBelow(model_next + 2);
        ASSERT_EQ(store.Remove(id), model.erase(id) > 0);
      } else {
        // Often exactly at a live deadline, where nothing may expire.
        TimePoint now = random_time();
        if (!model.empty() && rng.Bernoulli(0.5)) {
          auto it = model.begin();
          std::advance(it, static_cast<long>(rng.NextBelow(model.size())));
          now = it->second.created + it->second.ttl;
          if (rng.Bernoulli(0.5)) now += Duration::Nanos(1);
        }
        std::size_t expired = 0;
        for (auto it = model.begin(); it != model.end();) {
          if (it->second.ExpiredAt(now)) {
            it = model.erase(it);
            ++expired;
          } else {
            ++it;
          }
        }
        ASSERT_EQ(store.ExpireOlderThan(now), expired);
      }

      ASSERT_EQ(store.size(), model.size());
      const auto& live = store.Live();
      const auto& rows = store.Anchors();
      ASSERT_EQ(live.size(), model.size());
      ASSERT_EQ(rows.size(), model.size());
      ASSERT_EQ(rows.lon.size(), model.size());
      ASSERT_EQ(rows.height_m.size(), model.size());
      ASSERT_EQ(rows.building_id.size(), model.size());
      ASSERT_EQ(rows.kind.size(), model.size());
      std::size_t i = 0;
      for (const auto& [id, a] : model) {
        ASSERT_EQ(live[i], store.Get(id)) << "seed " << seed << " step " << step;
        ASSERT_EQ(live[i]->id, id);
        ASSERT_EQ(live[i]->title, a.title);
        ASSERT_EQ(rows.lat[i], a.anchor.geo_pos.lat) << "seed " << seed << " step " << step;
        ASSERT_EQ(rows.lon[i], a.anchor.geo_pos.lon);
        ASSERT_EQ(rows.height_m[i], a.anchor.height_m);
        ASSERT_EQ(rows.building_id[i], a.anchor.building_id);
        ASSERT_EQ(rows.kind[i], a.anchor.kind);
        ++i;
      }
      const std::uint64_t probe = 1 + rng.NextBelow(model_next + 2);
      ASSERT_EQ(store.Get(probe) != nullptr, model.contains(probe));
    }
  }
}

TEST(SemanticTypeNames, AllDistinct) {
  std::set<std::string> names;
  for (int i = 0; i <= static_cast<int>(content::SemanticType::kDiagnostic); ++i) {
    names.insert(content::SemanticTypeName(static_cast<content::SemanticType>(i)));
  }
  EXPECT_EQ(names.size(), 9u);
}

}  // namespace
}  // namespace arbd::ar
