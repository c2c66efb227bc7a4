#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <tuple>

#include "ar/content.h"
#include "ar/frustum.h"
#include "ar/layout.h"
#include "ar/occlusion.h"
#include "common/rng.h"

namespace arbd::ar {
namespace {

PoseEstimate PoseAt(double east, double north, double yaw_deg) {
  PoseEstimate p;
  p.east = east;
  p.north = north;
  p.up = 1.7;
  p.yaw_deg = yaw_deg;
  return p;
}

TEST(CameraIntrinsicsTest, VerticalFovFollowsAspect) {
  CameraIntrinsics intr;
  intr.fov_h_deg = 90.0;
  intr.width_px = 1000;
  intr.height_px = 1000;
  EXPECT_NEAR(intr.fov_v_deg(), 90.0, 0.1);  // square sensor
  intr.height_px = 500;
  EXPECT_LT(intr.fov_v_deg(), 60.0);
}

TEST(CameraViewTest, CenterProjectionAtImageCenter) {
  const CameraView view(PoseAt(0, 0, 0), {});
  // Point dead ahead at eye height projects to image centre.
  const auto p = view.Project(0.0, 50.0, 1.7);
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(p->x, 960.0, 1e-6);
  EXPECT_NEAR(p->y, 540.0, 1e-6);
  EXPECT_NEAR(p->depth_m, 50.0, 1e-9);
}

TEST(CameraViewTest, BehindCameraCulled) {
  const CameraView view(PoseAt(0, 0, 0), {});
  EXPECT_FALSE(view.Project(0.0, -10.0, 1.7).has_value());
}

TEST(CameraViewTest, RightOfHeadingProjectsRightOfCenter) {
  const CameraView view(PoseAt(0, 0, 0), {});
  const auto p = view.Project(10.0, 50.0, 1.7);
  ASSERT_TRUE(p.has_value());
  EXPECT_GT(p->x, 960.0);
}

TEST(CameraViewTest, AboveEyeProjectsUpward) {
  const CameraView view(PoseAt(0, 0, 0), {});
  const auto p = view.Project(0.0, 50.0, 10.0);
  ASSERT_TRUE(p.has_value());
  EXPECT_LT(p->y, 540.0);  // screen y grows downward
}

TEST(CameraViewTest, YawRotatesView) {
  // Facing east (yaw 90), a point to the east is dead ahead.
  const CameraView view(PoseAt(0, 0, 90.0), {});
  const auto p = view.Project(50.0, 0.0, 1.7);
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(p->x, 960.0, 1e-6);
  // A point to the north is now off-screen left or culled.
  const auto q = view.Project(0.0, 50.0, 1.7);
  EXPECT_FALSE(q.has_value());
}

TEST(CameraViewTest, OutsideFovCulledWithMarginSlack) {
  CameraIntrinsics intr;
  intr.fov_h_deg = 60.0;
  const CameraView view(PoseAt(0, 0, 0), intr);
  // ~45 degrees off-axis: outside a 30-degree half FOV.
  EXPECT_FALSE(view.Project(50.0, 50.0, 1.7).has_value());
  EXPECT_FALSE(view.InFrustum(50.0, 50.0, 1.7));
  // Dead ahead stays visible.
  EXPECT_TRUE(view.InFrustum(0.0, 30.0, 1.7));
}

content::Annotation WorldAnnotation(const geo::CityModel& city, double east, double north,
                                    double height, double priority = 0.5) {
  content::Annotation a;
  a.anchor.geo_pos = city.frame().FromEnu(geo::Enu{east, north});
  a.anchor.height_m = height;
  a.priority = priority;
  a.title = "x";
  return a;
}

class OcclusionFixture : public ::testing::Test {
 protected:
  OcclusionFixture() : city_(geo::CityModel::Generate(geo::CityConfig{}, 31)) {}
  geo::CityModel city_;
};

TEST_F(OcclusionFixture, VisibleOccludedOutOfView) {
  const auto& b = city_.buildings().front();
  // Stand west of the first building, looking east.
  const double eye_e = b.center_east - b.half_width - 20.0;
  PoseEstimate pose = PoseAt(eye_e, b.center_north, 90.0);
  const CameraView view(pose, {});
  OcclusionClassifier clf(&city_);

  const auto front =
      WorldAnnotation(city_, b.center_east - b.half_width - 5.0, b.center_north, 2.0);
  const auto behind =
      WorldAnnotation(city_, b.center_east + b.half_width + 5.0, b.center_north, 2.0);
  const auto rear = WorldAnnotation(city_, eye_e - 50.0, b.center_north, 2.0);
  const auto out = clf.ClassifyAll({&front, &behind, &rear}, view);
  ASSERT_EQ(out.size(), 3u);
  // In front of the building: visible.
  EXPECT_EQ(out[0].visibility, Visibility::kVisible);
  // Behind the building: occluded (the X-ray case).
  EXPECT_EQ(out[1].visibility, Visibility::kOccluded);
  // Behind the camera: out of view.
  EXPECT_EQ(out[2].visibility, Visibility::kOutOfView);
}

TEST_F(OcclusionFixture, ScreenAnchorsAlwaysVisible) {
  content::Annotation hud;
  hud.anchor.kind = content::Anchor::Kind::kScreen;
  hud.anchor.screen_x = 0.1;
  hud.anchor.screen_y = 0.9;
  OcclusionClassifier clf(&city_);
  const CameraView view(PoseAt(0, 0, 0), {});
  const auto c = clf.ClassifyAll({&hud}, view).front();
  EXPECT_EQ(c.visibility, Visibility::kVisible);
  EXPECT_NEAR(c.screen.x, 0.1 * 1920, 1e-6);
}

TEST_F(OcclusionFixture, ClassifyAllPreservesOrder) {
  OcclusionClassifier clf(&city_);
  const CameraView view(PoseAt(0, 0, 0), {});
  content::Annotation a = WorldAnnotation(city_, 0.0, 30.0, 2.0);
  content::Annotation b = WorldAnnotation(city_, 0.0, -30.0, 2.0);
  const auto out = clf.ClassifyAll({&a, &b}, view);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].annotation, &a);
  EXPECT_EQ(out[1].annotation, &b);
}

// The scalar classification the kernel replaced, kept verbatim as the
// reference: per annotation, CameraView::Project's arithmetic with its
// early returns, then the raycast.
ClassifiedAnnotation ReferenceClassify(const geo::CityModel* city, const content::Annotation& a,
                                       const PoseEstimate& pose, const CameraIntrinsics& intr) {
  ClassifiedAnnotation out;
  out.annotation = &a;
  if (a.anchor.kind == content::Anchor::Kind::kScreen) {
    out.visibility = Visibility::kVisible;
    out.screen.x = a.anchor.screen_x * intr.width_px;
    out.screen.y = a.anchor.screen_y * intr.height_px;
    return out;
  }
  const geo::EnuFrame frame =
      city != nullptr ? city->frame() : geo::EnuFrame(geo::LatLon{0.0, 0.0});
  const double east = (a.anchor.geo_pos.lon - frame.origin().lon) * geo::kDegToRad *
                      geo::kEarthRadiusM * std::cos(frame.origin().lat * geo::kDegToRad);
  const double north =
      (a.anchor.geo_pos.lat - frame.origin().lat) * geo::kDegToRad * geo::kEarthRadiusM;
  const double up = a.anchor.height_m;
  const double margin_px = 64.0;
  const double yaw = pose.yaw_deg * (M_PI / 180.0);
  const double cos_yaw = std::cos(yaw);
  const double sin_yaw = std::sin(yaw);
  const double focal_px =
      (intr.width_px / 2.0) / std::tan(intr.fov_h_deg * (M_PI / 180.0) / 2.0);
  const double de = east - pose.east;
  const double dn = north - pose.north;
  const double du = up - pose.up;
  const double forward = de * sin_yaw + dn * cos_yaw;
  const double right = de * cos_yaw - dn * sin_yaw;
  if (forward < 0.1) return out;
  const double x = intr.width_px / 2.0 + focal_px * (right / forward);
  const double y = intr.height_px / 2.0 - focal_px * (du / forward);
  if (x < -margin_px || x > intr.width_px + margin_px || y < -margin_px ||
      y > intr.height_px + margin_px) {
    return out;
  }
  out.screen.x = x;
  out.screen.y = y;
  out.screen.depth_m = std::sqrt(de * de + dn * dn + du * du);
  out.distance_m = out.screen.depth_m;
  const bool occluded = city != nullptr && city->IsOccluded(pose.east, pose.north, pose.up,
                                                            east, north, a.anchor.height_m,
                                                            a.anchor.building_id);
  out.visibility = occluded ? Visibility::kOccluded : Visibility::kVisible;
  return out;
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void ExpectSameClassification(const ClassifiedAnnotation& got, const ClassifiedAnnotation& want) {
  EXPECT_EQ(got.annotation, want.annotation);
  EXPECT_EQ(got.visibility, want.visibility);
  EXPECT_TRUE(SameBits(got.screen.x, want.screen.x)) << got.screen.x << " vs " << want.screen.x;
  EXPECT_TRUE(SameBits(got.screen.y, want.screen.y)) << got.screen.y << " vs " << want.screen.y;
  EXPECT_TRUE(SameBits(got.screen.depth_m, want.screen.depth_m));
  EXPECT_TRUE(SameBits(got.distance_m, want.distance_m));
}

// Classifies every live annotation of `store` from `pose` three ways — the
// kernel over the whole table, the kernel over four row ranges
// concatenated, and the ClassifyAll adapter — and checks each against the
// reference; the kernel without raycasts must keep the same rows, all
// visible. Returns how many entries the reference put in view.
std::size_t CheckPose(const OcclusionClassifier& clf, const geo::CityModel* city,
                      const content::AnnotationStore& store, const PoseEstimate& pose,
                      bool with_adapter) {
  const CameraIntrinsics intr;
  const CameraView view(pose, intr);
  const auto& live = store.Live();
  std::vector<ClassifiedAnnotation> want;
  std::size_t occluded = 0;
  for (const auto* a : live) {
    const ClassifiedAnnotation c = ReferenceClassify(city, *a, pose, intr);
    if (c.visibility == Visibility::kOutOfView) continue;
    occluded += c.visibility == Visibility::kOccluded;
    want.push_back(c);
  }
  std::vector<ClassifiedAnnotation> got;
  const ClassifyCounts counts =
      clf.ClassifyRows(store.Anchors(), live, 0, live.size(), view, true, got);
  EXPECT_EQ(counts.in_view, want.size());
  EXPECT_EQ(counts.occluded, occluded);
  EXPECT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    ExpectSameClassification(got[i], want[i]);
  }

  std::vector<ClassifiedAnnotation> chunked;
  const std::size_t per = (live.size() + 3) / 4;
  for (std::size_t lo = 0; lo < live.size(); lo += per) {
    clf.ClassifyRows(store.Anchors(), live, lo, std::min(live.size(), lo + per), view, true,
                     chunked);
  }
  EXPECT_EQ(chunked.size(), got.size());
  for (std::size_t i = 0; i < std::min(chunked.size(), got.size()); ++i) {
    ExpectSameClassification(chunked[i], got[i]);
  }

  // Without raycasts the same rows come out, none of them occluded.
  std::vector<ClassifiedAnnotation> flat;
  const ClassifyCounts flat_counts =
      clf.ClassifyRows(store.Anchors(), live, 0, live.size(), view, false, flat);
  EXPECT_EQ(flat_counts.in_view, got.size());
  EXPECT_EQ(flat_counts.occluded, 0u);
  EXPECT_EQ(flat.size(), got.size());
  for (std::size_t i = 0; i < std::min(flat.size(), got.size()); ++i) {
    ClassifiedAnnotation visible = got[i];
    visible.visibility = Visibility::kVisible;
    ExpectSameClassification(flat[i], visible);
  }

  if (with_adapter) {
    const auto all = clf.ClassifyAll(live, view);
    EXPECT_EQ(all.size(), live.size());
    std::size_t next = 0;
    for (std::size_t i = 0; i < std::min(all.size(), live.size()); ++i) {
      EXPECT_EQ(all[i].annotation, live[i]);
      if (all[i].visibility == Visibility::kOutOfView) continue;
      if (next == want.size()) {
        ADD_FAILURE() << "the adapter keeps more entries than the reference";
        break;
      }
      ExpectSameClassification(all[i], want[next++]);
    }
    EXPECT_EQ(next, want.size());
  }
  return want.size();
}

// Pose pairs one ULP apart across a frustum edge: `set` places the
// camera coordinate, `edge` is true while the reference still keeps `a`.
// Bisects between an inside and an outside value to adjacent doubles.
template <typename Set>
std::vector<PoseEstimate> StraddleEdge(const content::Annotation& a, const geo::CityModel* city,
                                       PoseEstimate pose, Set set, double inside,
                                       double outside) {
  const auto in_view = [&](double v) {
    set(pose, v);
    return ReferenceClassify(city, a, pose, CameraIntrinsics{}).visibility !=
           Visibility::kOutOfView;
  };
  EXPECT_TRUE(in_view(inside));
  EXPECT_FALSE(in_view(outside));
  for (;;) {
    const double mid = inside + (outside - inside) / 2.0;
    if (mid == inside || mid == outside) break;
    (in_view(mid) ? inside : outside) = mid;
  }
  std::vector<PoseEstimate> out;
  for (const double v : {inside, outside}) {
    set(pose, v);
    out.push_back(pose);
  }
  return out;
}

class OcclusionKernel : public ::testing::Test {
 protected:
  OcclusionKernel() : city_(geo::CityModel::Generate(geo::CityConfig{}, 31)) {}

  // `n` annotations around the origin of `frame`: world anchors at random
  // heights (one in eight on a building, its id set), and one in sixteen a
  // screen anchor.
  void Fill(content::AnnotationStore& store, const geo::EnuFrame& frame, std::size_t n,
            Rng& rng) const {
    for (std::size_t i = 0; i < n; ++i) {
      content::Annotation a;
      a.title = "k" + std::to_string(i);
      a.ttl = Duration::Seconds(3600);
      a.anchor.height_m = rng.Uniform(0.0, 40.0);
      geo::Enu at{rng.Uniform(-400.0, 400.0), rng.Uniform(-400.0, 400.0)};
      if (rng.NextBelow(8) == 0) {
        const auto& b = city_.buildings()[rng.NextBelow(city_.buildings().size())];
        at = {b.center_east + rng.Uniform(-1.0, 1.0) * b.half_width,
              b.center_north + rng.Uniform(-1.0, 1.0) * b.half_depth};
        a.anchor.building_id = b.id;
      }
      a.anchor.geo_pos = frame.FromEnu(at);
      if (rng.NextBelow(16) == 0) {
        a.anchor.kind = content::Anchor::Kind::kScreen;
        a.anchor.screen_x = rng.NextDouble();
        a.anchor.screen_y = rng.NextDouble();
      }
      store.Add(std::move(a));
    }
  }

  // With the city model, and without (lat/lon read as metres around 0, 0).
  std::vector<const geo::CityModel*> Cities() const { return {&city_, nullptr}; }

  static PoseEstimate RandomPose(Rng& rng) {
    PoseEstimate p;
    p.east = rng.Uniform(-350.0, 350.0);
    p.north = rng.Uniform(-350.0, 350.0);
    p.up = rng.Uniform(0.5, 30.0);
    p.yaw_deg = rng.Uniform(0.0, 360.0);
    // Cardinal headings, where sin or cos of the yaw is exactly 0 or 1.
    if (rng.NextBelow(8) == 0) p.yaw_deg = 90.0 * static_cast<double>(rng.NextBelow(4));
    return p;
  }

  geo::CityModel city_;
};

// 4096 annotations x 256 poses = 1,048,576 seeded pairs with the city and
// as many without, each classified by the kernel, by chunks of it and (for
// every eighth pose) by the ClassifyAll adapter, bit for bit against the
// reference.
TEST_F(OcclusionKernel, MatchesScalarReferenceOnSeededPairs) {
  Rng rng(4242);
  for (const geo::CityModel* city : Cities()) {
    const geo::EnuFrame frame =
        city != nullptr ? city->frame() : geo::EnuFrame(geo::LatLon{0.0, 0.0});
    content::AnnotationStore store;
    Fill(store, frame, 4096, rng);
    const OcclusionClassifier clf(city);
    std::size_t in_view = 0;
    for (int i = 0; i < 256; ++i) {
      in_view += CheckPose(clf, city, store, RandomPose(rng), i % 8 == 0);
      if (HasFailure()) {
        ADD_FAILURE() << "pose " << i << (city != nullptr ? " with city" : " without city");
        return;
      }
    }
    EXPECT_GT(in_view, 256u * 4096u / 20u) << "the poses must see a good share of the rows";
  }
}

// The frustum's edges, hit to the ULP: forward exactly 0.1 (and one ULP
// either side), and x and y one ULP inside and outside the 64 px margins.
TEST_F(OcclusionKernel, MatchesScalarReferenceOnFrustumEdges) {
  for (const geo::CityModel* city : Cities()) {
    const geo::EnuFrame frame =
        city != nullptr ? city->frame() : geo::EnuFrame(geo::LatLon{0.0, 0.0});
    const OcclusionClassifier clf(city);
    // One world anchor on the frame origin: its ENU position is exactly
    // (0, 0), so the camera's coordinates alone set forward, x and y.
    content::AnnotationStore store;
    content::Annotation a;
    a.anchor.geo_pos = frame.origin();
    a.anchor.height_m = 2.0;
    a.ttl = Duration::Seconds(3600);
    store.Add(a);
    const content::Annotation& anchor = *store.Live().front();

    PoseEstimate facing_north;
    facing_north.up = 2.0;
    std::vector<PoseEstimate> poses;
    for (const double forward : {std::nextafter(0.1, 0.0), 0.1, std::nextafter(0.1, 1.0)}) {
      PoseEstimate p = facing_north;
      p.north = -forward;  // dn = 0 - (-forward) exactly; yaw 0, so forward = dn
      poses.push_back(p);
    }
    ASSERT_EQ(ReferenceClassify(city, anchor, poses[0], {}).visibility, Visibility::kOutOfView);
    ASSERT_NE(ReferenceClassify(city, anchor, poses[1], {}).visibility, Visibility::kOutOfView);

    facing_north.north = -50.0;
    const auto set_east = [](PoseEstimate& p, double v) { p.east = v; };
    const auto set_up = [](PoseEstimate& p, double v) { p.up = v; };
    // The anchor leaves the left edge as the camera moves right, and the
    // right edge as it moves left; the top as it moves down, the bottom as
    // it moves up.
    for (const auto& edge : {StraddleEdge(anchor, city, facing_north, set_east, 0.0, 60.0),
                             StraddleEdge(anchor, city, facing_north, set_east, 0.0, -60.0),
                             StraddleEdge(anchor, city, facing_north, set_up, 2.0, -40.0),
                             StraddleEdge(anchor, city, facing_north, set_up, 2.0, 40.0)}) {
      poses.insert(poses.end(), edge.begin(), edge.end());
    }
    for (const auto& p : poses) {
      EXPECT_EQ(CheckPose(clf, city, store, p, /*with_adapter=*/true),
                ReferenceClassify(city, anchor, p, {}).visibility != Visibility::kOutOfView);
    }
  }
}

std::vector<ClassifiedAnnotation> CrowdedCandidates(
    std::vector<content::Annotation>& storage, std::size_t n) {
  // All projected to nearly the same screen point.
  storage.clear();
  storage.reserve(n);
  std::vector<ClassifiedAnnotation> out;
  for (std::size_t i = 0; i < n; ++i) {
    content::Annotation a;
    a.priority = 0.2 + 0.6 * static_cast<double>(i) / static_cast<double>(n);
    a.title = "a" + std::to_string(i);
    storage.push_back(a);
  }
  for (std::size_t i = 0; i < n; ++i) {
    ClassifiedAnnotation c;
    c.annotation = &storage[i];
    c.visibility = Visibility::kVisible;
    c.screen.x = 960.0 + static_cast<double>(i % 7);
    c.screen.y = 540.0 + static_cast<double>(i % 5);
    c.distance_m = 20.0 + static_cast<double>(i);
    out.push_back(c);
  }
  return out;
}

TEST(LabelLayoutTest, NaiveBubblesOverlapHeavily) {
  std::vector<content::Annotation> storage;
  const auto cands = CrowdedCandidates(storage, 30);
  LayoutConfig cfg;
  cfg.strategy = LayoutStrategy::kNaiveBubbles;
  const auto r = LabelLayout(cfg).Arrange(cands, {});
  EXPECT_EQ(r.placed, 30u);
  EXPECT_GT(r.overlap_ratio, 1.0) << "a pile of bubbles must overlap badly";
}

TEST(LabelLayoutTest, DeclutterNeverOverlaps) {
  std::vector<content::Annotation> storage;
  const auto cands = CrowdedCandidates(storage, 30);
  LayoutConfig cfg;
  cfg.strategy = LayoutStrategy::kDeclutter;
  const auto r = LabelLayout(cfg).Arrange(cands, {});
  EXPECT_DOUBLE_EQ(r.overlap_ratio, 0.0);
  EXPECT_GT(r.placed, 3u) << "several labels fit around the cluster";
  EXPECT_EQ(r.placed + r.dropped, r.candidates);
}

TEST(LabelLayoutTest, DeclutterPrefersHighPriority) {
  std::vector<content::Annotation> storage;
  const auto cands = CrowdedCandidates(storage, 40);
  LayoutConfig cfg;
  cfg.strategy = LayoutStrategy::kDeclutter;
  cfg.max_labels = 5;
  const auto r = LabelLayout(cfg).Arrange(cands, {});
  ASSERT_EQ(r.placed, 5u);
  // The highest-priority candidates are at the end of `storage`.
  for (const auto& box : r.labels) {
    EXPECT_GE(box.annotation->priority, 0.2 + 0.6 * 30.0 / 40.0)
        << "placed label priority too low: " << box.annotation->title;
  }
}

TEST(LabelLayoutTest, MinPriorityFilters) {
  std::vector<content::Annotation> storage;
  const auto cands = CrowdedCandidates(storage, 10);
  LayoutConfig cfg;
  cfg.min_priority = 0.99;
  const auto r = LabelLayout(cfg).Arrange(cands, {});
  EXPECT_EQ(r.candidates, 0u);
  EXPECT_EQ(r.placed, 0u);
}

TEST(LabelLayoutTest, OccludedBecomesXray) {
  std::vector<content::Annotation> storage;
  auto cands = CrowdedCandidates(storage, 2);
  cands[0].visibility = Visibility::kOccluded;
  LayoutConfig cfg;
  const auto r = LabelLayout(cfg).Arrange(cands, {});
  bool saw_xray = false;
  for (const auto& box : r.labels) saw_xray |= box.xray;
  EXPECT_TRUE(saw_xray);
}

TEST(LabelLayoutTest, XrayDisabledHidesOccluded) {
  std::vector<content::Annotation> storage;
  auto cands = CrowdedCandidates(storage, 1);
  cands[0].visibility = Visibility::kOccluded;
  LayoutConfig cfg;
  cfg.show_occluded_as_xray = false;
  const auto r = LabelLayout(cfg).Arrange(cands, {});
  EXPECT_EQ(r.placed, 0u);
}

TEST(LabelLayoutTest, OverlapRatioOfDisjointBoxesIsZero) {
  std::vector<LabelBox> boxes(3);
  for (int i = 0; i < 3; ++i) {
    boxes[static_cast<std::size_t>(i)] =
        LabelBox{i * 300.0, 100.0, 180.0, 56.0, nullptr, Visibility::kVisible, false};
  }
  EXPECT_DOUBLE_EQ(LabelLayout::OverlapRatio(boxes), 0.0);
}

TEST(LabelLayoutTest, OverlapRatioOfIdenticalBoxes) {
  std::vector<LabelBox> boxes(2, LabelBox{0, 0, 100, 50, nullptr, Visibility::kVisible, false});
  // One full overlap over total area 2·A → ratio 0.5.
  EXPECT_DOUBLE_EQ(LabelLayout::OverlapRatio(boxes), 0.5);
}

// Property: declutter never exceeds max_labels across densities.
class DeclutterDensity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DeclutterDensity, RespectsBudgetAndNoOverlap) {
  std::vector<content::Annotation> storage;
  const auto cands = CrowdedCandidates(storage, GetParam());
  LayoutConfig cfg;
  cfg.max_labels = 12;
  const auto r = LabelLayout(cfg).Arrange(cands, {});
  EXPECT_LE(r.placed, 12u);
  EXPECT_DOUBLE_EQ(r.overlap_ratio, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Densities, DeclutterDensity,
                         ::testing::Values(1, 5, 20, 100, 500));

// Candidates for the declutter order tests: ids unique unless `dup_ids`,
// priorities from {0.6, 0.7, 0.9}, and anchors drawn from a few shared
// screen points and distances, so exact ties are the rule.
std::vector<ClassifiedAnnotation> TiedCandidates(std::vector<content::Annotation>& storage,
                                                 std::size_t n, Rng& rng, bool dup_ids) {
  static constexpr double kPriorities[] = {0.6, 0.7, 0.9};
  storage.assign(n, {});
  std::vector<ClassifiedAnnotation> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    storage[i].id = dup_ids ? 1 + rng.NextBelow(n / 4 + 1) : i + 1;
    storage[i].priority = kPriorities[rng.NextBelow(3)];
    const std::uint64_t anchor = rng.NextBelow(6);
    out[i].annotation = &storage[i];
    out[i].visibility = rng.NextBelow(8) == 0   ? Visibility::kOutOfView
                        : rng.NextBelow(5) == 0 ? Visibility::kOccluded
                                                : Visibility::kVisible;
    out[i].screen.x = 300.0 + 240.0 * static_cast<double>(anchor % 3);
    out[i].screen.y = 300.0 + 200.0 * static_cast<double>(anchor / 3);
    out[i].distance_m = 20.0 + 5.0 * static_cast<double>(anchor % 2);
  }
  return out;
}

void ExpectSameLabels(const std::vector<LabelBox>& a, const std::vector<LabelBox>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].annotation, b[i].annotation) << "label " << i;
    EXPECT_EQ(a[i].x, b[i].x) << "label " << i;
    EXPECT_EQ(a[i].y, b[i].y) << "label " << i;
    EXPECT_EQ(a[i].width, b[i].width) << "label " << i;
    EXPECT_EQ(a[i].height, b[i].height) << "label " << i;
    EXPECT_EQ(a[i].visibility, b[i].visibility) << "label " << i;
    EXPECT_EQ(a[i].xray, b[i].xray) << "label " << i;
  }
}

// Rule-generated annotations share a priority and a POI anchor, so the
// declutter order must break exact ties itself: the same candidates in
// any order give the same labels.
TEST(LabelLayout, DeclutterIgnoresInputOrder) {
  Rng rng(19);
  std::vector<content::Annotation> storage;
  const auto cands = TiedCandidates(storage, 64, rng, /*dup_ids=*/false);
  const LabelLayout layout;
  const auto want = layout.Arrange(cands, {});
  ASSERT_GT(want.placed, 0u);
  ASSERT_GT(want.dropped, 0u);
  auto shuffled = cands;
  for (int round = 0; round < 50; ++round) {
    for (std::size_t i = shuffled.size() - 1; i > 0; --i) {
      std::swap(shuffled[i], shuffled[rng.NextBelow(i + 1)]);
    }
    const auto got = layout.Arrange(shuffled, {});
    EXPECT_EQ(got.candidates, want.candidates);
    EXPECT_EQ(got.dropped, want.dropped);
    ExpectSameLabels(got.labels, want.labels);
    if (HasFailure()) return;
  }
}

// Reference model of the declutter: a full stable sort by the documented
// order (input position breaks what id does not), then the placement loop
// over every candidate. The layout under test pops a heap only until the
// budget fills.
LayoutResult ReferenceDeclutter(const std::vector<ClassifiedAnnotation>& classified,
                                const LayoutConfig& cfg, const CameraIntrinsics& intr) {
  LayoutResult r;
  std::vector<const ClassifiedAnnotation*> cands;
  for (const auto& c : classified) {
    if (c.visibility == Visibility::kOutOfView) continue;
    if (c.annotation->priority < cfg.min_priority) continue;
    if (c.visibility == Visibility::kOccluded && !cfg.show_occluded_as_xray) continue;
    cands.push_back(&c);
  }
  r.candidates = cands.size();
  std::stable_sort(cands.begin(), cands.end(),
                   [](const ClassifiedAnnotation* a, const ClassifiedAnnotation* b) {
                     return std::tuple(-a->annotation->priority, a->distance_m,
                                       a->annotation->id) <
                            std::tuple(-b->annotation->priority, b->distance_m,
                                       b->annotation->id);
                   });
  const double w = cfg.label_width_px;
  const double h = cfg.label_height_px;
  const std::pair<double, double> offsets[] = {
      {0, -h * 1.2},  {w * 0.7, 0},   {-w * 0.7, 0},  {0, h * 1.2},
      {w * 0.7, -h},  {-w * 0.7, -h}, {w * 0.7, h},   {-w * 0.7, h},
      {0, -h * 2.4},  {0, h * 2.4},   {w * 1.4, 0},   {-w * 1.4, 0},
  };
  for (const auto* c : cands) {
    if (r.labels.size() >= cfg.max_labels) {
      ++r.dropped;
      continue;
    }
    bool placed = false;
    for (const auto& [dx, dy] : offsets) {
      LabelBox box;
      box.width = w;
      box.height = h;
      box.x = c->screen.x - w / 2.0 + dx;
      box.y = c->screen.y - h / 2.0 + dy;
      box.annotation = c->annotation;
      box.visibility = c->visibility;
      box.xray = c->visibility == Visibility::kOccluded;
      if (box.x < 0 || box.y < 0 || box.x + box.width > intr.width_px ||
          box.y + box.height > intr.height_px) {
        continue;
      }
      const bool collides = std::any_of(r.labels.begin(), r.labels.end(),
                                        [&](const LabelBox& l) { return l.Overlaps(box); });
      if (!collides) {
        r.labels.push_back(box);
        placed = true;
        break;
      }
    }
    if (!placed) ++r.dropped;
  }
  r.placed = r.labels.size();
  r.overlap_ratio = LabelLayout::OverlapRatio(r.labels);
  return r;
}

TEST(LabelLayout, DeclutterMatchesStableSortReference) {
  Rng rng(2017);
  std::vector<content::Annotation> storage;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 1 + rng.NextBelow(120);
    const auto cands = TiedCandidates(storage, n, rng, /*dup_ids=*/trial % 2 == 1);
    for (const std::size_t max_labels : {std::size_t{0}, std::size_t{1}, std::size_t{24}, n + 1}) {
      LayoutConfig cfg;
      cfg.max_labels = max_labels;
      cfg.min_priority = trial % 3 == 0 ? 0.65 : 0.0;
      cfg.show_occluded_as_xray = trial % 4 != 0;
      const auto got = LabelLayout(cfg).Arrange(cands, {});
      const auto want = ReferenceDeclutter(cands, cfg, {});
      EXPECT_EQ(got.candidates, want.candidates);
      EXPECT_EQ(got.placed, want.placed);
      EXPECT_EQ(got.dropped, want.dropped);
      EXPECT_EQ(got.overlap_ratio, want.overlap_ratio);
      ExpectSameLabels(got.labels, want.labels);
      if (HasFailure()) {
        ADD_FAILURE() << "trial " << trial << " n " << n << " max_labels " << max_labels;
        return;
      }
    }
  }
}

}  // namespace
}  // namespace arbd::ar
