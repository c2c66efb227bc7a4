#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "geo/city.h"
#include "geo/poi.h"

namespace arbd::geo {
namespace {

const BBox kBounds{22.0, 114.0, 23.0, 115.0};
constexpr LatLon kCenter{22.5, 114.5};

Poi MakePoi(const std::string& name, LatLon pos, PoiCategory cat = PoiCategory::kCafe) {
  Poi p;
  p.name = name;
  p.pos = pos;
  p.category = cat;
  p.rating = 4.0;
  return p;
}

TEST(PoiStore, AddAssignsIds) {
  PoiStore store(kBounds);
  auto a = store.Add(MakePoi("a", kCenter));
  auto b = store.Add(MakePoi("b", kCenter));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
  EXPECT_EQ(store.size(), 2u);
}

TEST(PoiStore, RejectsOutOfBounds) {
  PoiStore store(kBounds);
  EXPECT_FALSE(store.Add(MakePoi("far", {50.0, 10.0})).ok());
}

TEST(PoiStore, GetAndRemove) {
  PoiStore store(kBounds);
  const PoiId id = *store.Add(MakePoi("cafe", kCenter));
  auto got = store.Get(id);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->name, "cafe");
  EXPECT_TRUE(store.Remove(id).ok());
  EXPECT_FALSE(store.Get(id).ok());
  EXPECT_EQ(store.Remove(id).code(), StatusCode::kNotFound);
}

TEST(PoiStore, UpdateMovesInIndex) {
  PoiStore store(kBounds);
  const PoiId id = *store.Add(MakePoi("mover", kCenter));
  Poi moved = **store.Get(id);
  moved.pos = Offset(kCenter, 5000.0, 90.0);
  ASSERT_TRUE(store.Update(moved).ok());
  const auto near_old = store.WithinRadius(kCenter, 100.0);
  EXPECT_TRUE(near_old.empty());
  const auto near_new = store.WithinRadius(moved.pos, 100.0);
  ASSERT_EQ(near_new.size(), 1u);
  EXPECT_EQ(near_new[0]->id, id);
}

TEST(PoiStore, NearestAgreesWithLinear) {
  PoiStore store(kBounds);
  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(store
                    .Add(MakePoi("p" + std::to_string(i),
                                 {rng.Uniform(22.0, 23.0), rng.Uniform(114.0, 115.0)}))
                    .ok());
  }
  const auto fast = store.Nearest(kCenter, 15);
  const auto slow = store.NearestLinear(kCenter, 15);
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t i = 0; i < fast.size(); ++i) EXPECT_EQ(fast[i]->id, slow[i]->id);
}

TEST(PoiStore, WithinRadiusAgreesWithLinear) {
  PoiStore store(kBounds);
  Rng rng(6);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(store
                    .Add(MakePoi("p" + std::to_string(i),
                                 {rng.Uniform(22.0, 23.0), rng.Uniform(114.0, 115.0)}))
                    .ok());
  }
  const auto fast = store.WithinRadius(kCenter, 20'000.0);
  const auto slow = store.WithinRadiusLinear(kCenter, 20'000.0);
  std::set<PoiId> a, b;
  for (const auto* p : fast) a.insert(p->id);
  for (const auto* p : slow) b.insert(p->id);
  EXPECT_EQ(a, b);
}

TEST(PoiStore, CategoryFilteredKnn) {
  PoiStore store(kBounds);
  // Ring of cafes far, one hospital near.
  ASSERT_TRUE(store.Add(MakePoi("hosp", Offset(kCenter, 100.0, 0.0),
                                PoiCategory::kHospital)).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(store.Add(MakePoi("cafe" + std::to_string(i),
                                  Offset(kCenter, 500.0 + i * 10, i * 18.0))).ok());
  }
  const auto got = store.NearestOfCategory(kCenter, PoiCategory::kHospital, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0]->name, "hosp");
  // Asking for more than exist returns all there are.
  EXPECT_EQ(store.NearestOfCategory(kCenter, PoiCategory::kHospital, 5).size(), 1u);
}

// What the name index replaces: the first POI of that name in id order.
const Poi* FindByNameLinear(const PoiStore& store, const std::string& name) {
  for (const auto* p : store.All()) {
    if (p->name == name) return p;
  }
  return nullptr;
}

TEST(PoiStore, FindByNameMatchesLinearScan) {
  const CityModel city = CityModel::Generate(CityConfig{}, 7);
  const PoiStore& pois = city.pois();
  ASSERT_GT(pois.size(), 0u);
  for (const auto* p : pois.All()) {
    EXPECT_EQ(pois.FindByName(p->name), FindByNameLinear(pois, p->name)) << p->name;
  }
  EXPECT_EQ(pois.FindByName("no such place"), nullptr);

  // Shared names, renames and removals keep the lowest id first.
  PoiStore store(kBounds);
  std::vector<PoiId> ids;
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    ids.push_back(*store.Add(MakePoi("n" + std::to_string(rng.NextBelow(20)), kCenter)));
    const auto target = store.Get(ids[rng.NextBelow(ids.size())]);
    if (target.ok() && rng.NextBelow(4) == 0) {
      Poi renamed = **target;
      renamed.name = "n" + std::to_string(rng.NextBelow(20));
      ASSERT_TRUE(store.Update(renamed).ok());
    }
    if (rng.NextBelow(5) == 0) (void)store.Remove(ids[rng.NextBelow(ids.size())]);
    for (int n = 0; n < 21; ++n) {
      const std::string name = "n" + std::to_string(n);
      ASSERT_EQ(store.FindByName(name), FindByNameLinear(store, name)) << name << " step " << i;
    }
  }
}

TEST(CityModel, GenerationIsDeterministic) {
  const CityConfig cfg;
  const auto a = CityModel::Generate(cfg, 42);
  const auto b = CityModel::Generate(cfg, 42);
  ASSERT_EQ(a.buildings().size(), b.buildings().size());
  EXPECT_EQ(a.poi_count(), b.poi_count());
  EXPECT_DOUBLE_EQ(a.buildings()[0].height_m, b.buildings()[0].height_m);
}

TEST(CityModel, CountsMatchConfig) {
  CityConfig cfg;
  cfg.blocks_x = 4;
  cfg.blocks_y = 3;
  cfg.buildings_per_block = 4;
  cfg.pois_per_building = 2;
  const auto city = CityModel::Generate(cfg, 7);
  EXPECT_EQ(city.buildings().size(), 4u * 3u * 4u);
  EXPECT_EQ(city.poi_count(), 4u * 3u * 4u * 2u);
}

TEST(CityModel, HeightsWithinConfiguredRange) {
  CityConfig cfg;
  cfg.min_height_m = 10.0;
  cfg.max_height_m = 30.0;
  const auto city = CityModel::Generate(cfg, 9);
  for (const auto& b : city.buildings()) {
    EXPECT_GE(b.height_m, 10.0);
    EXPECT_LE(b.height_m, 30.0);
  }
}

TEST(CityModel, RayHitsFrontBuilding) {
  const auto city = CityModel::Generate(CityConfig{}, 11);
  const auto& b = city.buildings().front();
  // Stand west of the building; a street-level target just past its east
  // facade is hidden by it, and by nothing else.
  const double eye_e = b.center_east - b.half_width - 30.0;
  const double tgt_e = b.center_east + b.half_width + 2.0;
  EXPECT_TRUE(city.IsOccluded(eye_e, b.center_north, 1.7, tgt_e, b.center_north, 1.7));
  EXPECT_FALSE(city.IsOccluded(eye_e, b.center_north, 1.7, tgt_e, b.center_north, 1.7, b.id));
}

TEST(CityModel, RayOverTopMisses) {
  const auto city = CityModel::Generate(CityConfig{}, 11);
  const auto& b = city.buildings().front();
  const double eye_e = b.center_east - b.half_width - 30.0;
  const double tgt_e = b.center_east + b.half_width + 2.0;
  // Aim steeply upward (5 m up per metre east): the line passes far above
  // the roof at the footprint, so the target above the roof line shows.
  const double tgt_h = 1.7 + 5.0 * (tgt_e - eye_e);
  EXPECT_FALSE(city.IsOccluded(eye_e, b.center_north, 1.7, tgt_e, b.center_north, tgt_h));
}

TEST(CityModel, OcclusionBetweenOppositeSides) {
  const auto city = CityModel::Generate(CityConfig{}, 13);
  const auto& b = city.buildings().front();
  // Eye west of the building, target east of it, both at street level:
  // the building blocks the line.
  const double west = b.center_east - b.half_width - 10.0;
  const double east = b.center_east + b.half_width + 10.0;
  EXPECT_TRUE(city.IsOccluded(west, b.center_north, 1.7, east, b.center_north, 1.7));
  // Ignoring that building makes the line clear (unless another is hit,
  // which can't happen within this short span inside one block).
  EXPECT_FALSE(
      city.IsOccluded(west, b.center_north, 1.7, east, b.center_north, 1.7, b.id));
}

TEST(CityModel, NoSelfOcclusionForAdjacentPoints) {
  const auto city = CityModel::Generate(CityConfig{}, 13);
  EXPECT_FALSE(city.IsOccluded(0.0, 0.0, 1.7, 1.0, 1.0, 1.7));
}

TEST(CityModel, PoisSitNearTheirBuilding) {
  const auto city = CityModel::Generate(CityConfig{}, 17);
  for (const auto* poi : city.pois().All()) {
    const auto it = poi->attributes.find("building");
    ASSERT_NE(it, poi->attributes.end());
    const auto bid = std::stoull(it->second);
    const auto& b = city.buildings()[bid - 1];
    const Enu e = city.frame().ToEnu(poi->pos);
    const double dx = std::abs(e.east - b.center_east);
    const double dy = std::abs(e.north - b.center_north);
    EXPECT_LT(dx, b.half_width + 2.0);
    EXPECT_LT(dy, b.half_depth + 2.0);
  }
}

}  // namespace
}  // namespace arbd::geo
