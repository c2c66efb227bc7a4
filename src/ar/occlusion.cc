#include "ar/occlusion.h"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace arbd::ar {

namespace {
constexpr double kMarginPx = 64.0;  // labels near the edge can still be laid out
constexpr std::size_t kBlockRows = 256;
}  // namespace

ClassifyCounts OcclusionClassifier::ClassifyRows(
    const content::AnchorTable& anchors,
    std::span<const content::Annotation* const> annotations, std::size_t lo, std::size_t hi,
    const CameraView& view, bool raycast, std::vector<ClassifiedAnnotation>& out) const {
  // Without a city model, lat/lon are treated as pre-projected metres
  // around the camera origin frame (tests use this path).
  const geo::EnuFrame frame =
      city_ != nullptr ? city_->frame() : geo::EnuFrame(geo::LatLon{0.0, 0.0});
  const double* lat = anchors.lat.data();
  const double* lon = anchors.lon.data();
  const double* height = anchors.height_m.data();
  const content::Anchor::Kind* kind = anchors.kind.data();
  const auto project = [&](std::size_t i) {
    const geo::Enu enu = frame.ToEnu(geo::LatLon{lat[i], lon[i]});
    return std::pair{enu, view.ToCamera(enu.east, enu.north, height[i], kMarginPx)};
  };
  const PoseEstimate& eye = view.pose();
  ClassifyCounts counts;
  std::uint8_t keep[kBlockRows];
  for (std::size_t base = lo; base < hi; base += kBlockRows) {
    const std::size_t n = std::min(kBlockRows, hi - base);
    for (std::size_t j = 0; j < n; ++j) {
      keep[j] = project(base + j).second.in_view |
                (kind[base + j] == content::Anchor::Kind::kScreen);
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (!keep[j]) continue;
      const std::size_t i = base + j;
      const content::Annotation* a = annotations[i];
      ClassifiedAnnotation& c = out.emplace_back();
      c.annotation = a;
      ++counts.in_view;
      if (kind[i] == content::Anchor::Kind::kScreen) {
        c.visibility = Visibility::kVisible;
        c.screen.x = a->anchor.screen_x * view.intrinsics().width_px;
        c.screen.y = a->anchor.screen_y * view.intrinsics().height_px;
        continue;
      }
      const auto [enu, p] = project(i);
      c.screen = ScreenPoint{p.x, p.y, p.Depth()};
      c.distance_m = c.screen.depth_m;
      const bool occluded =
          raycast && city_ != nullptr &&
          city_->IsOccluded(eye.east, eye.north, eye.up, enu.east, enu.north, height[i],
                            anchors.building_id[i]);
      c.visibility = occluded ? Visibility::kOccluded : Visibility::kVisible;
      counts.occluded += occluded;
    }
  }
  return counts;
}

std::vector<ClassifiedAnnotation> OcclusionClassifier::ClassifyAll(
    const std::vector<const content::Annotation*>& annotations,
    const CameraView& view) const {
  // Block by block: gather the rows, run the kernel, and expand its
  // in-view entries to one entry per annotation. The kernel's output is
  // in row order, so a single walk matches it back; a pointer listed
  // twice has two identical rows, kept or dropped alike.
  std::vector<ClassifiedAnnotation> out(annotations.size());
  const std::size_t block_rows = std::min(kBlockRows, annotations.size());
  content::AnchorTable rows;
  rows.Reserve(block_rows);
  std::vector<ClassifiedAnnotation> in_view;
  in_view.reserve(block_rows);
  for (std::size_t base = 0; base < annotations.size(); base += kBlockRows) {
    const auto block = std::span(annotations).subspan(
        base, std::min(kBlockRows, annotations.size() - base));
    rows.Resize(0);
    for (const auto* a : block) rows.Append(a->anchor);
    in_view.clear();
    ClassifyRows(rows, block, 0, block.size(), view, /*raycast=*/true, in_view);
    std::size_t next = 0;
    for (std::size_t j = 0; j < block.size(); ++j) {
      if (next < in_view.size() && in_view[next].annotation == block[j]) {
        out[base + j] = in_view[next++];
      } else {
        out[base + j].annotation = block[j];  // kOutOfView
      }
    }
  }
  return out;
}

}  // namespace arbd::ar
