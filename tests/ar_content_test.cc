#include <gtest/gtest.h>

#include <set>

#include "ar/content.h"

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

TEST(SemanticTypeNames, AllDistinct) {
  std::set<std::string> names;
  for (int i = 0; i <= static_cast<int>(content::SemanticType::kDiagnostic); ++i) {
    names.insert(content::SemanticTypeName(static_cast<content::SemanticType>(i)));
  }
  EXPECT_EQ(names.size(), 9u);
}

}  // namespace
}  // namespace arbd::ar
