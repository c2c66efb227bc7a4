// Occlusion classification against the city model: is an anchor directly
// visible, hidden behind geometry (an "X-ray vision" candidate, §2.1/§3.1),
// or out of view entirely? The paper's complaint about floating bubbles is
// precisely that AR browsers skip this step.
#pragma once

#include <span>
#include <vector>

#include "ar/content.h"
#include "ar/frustum.h"
#include "geo/city.h"

namespace arbd::ar {

enum class Visibility {
  kVisible,    // in frustum, unobstructed
  kOccluded,   // in frustum but behind a building → render as X-ray hint
  kOutOfView,  // outside the frustum
};

struct ClassifiedAnnotation {
  const content::Annotation* annotation = nullptr;
  Visibility visibility = Visibility::kOutOfView;
  ScreenPoint screen;          // valid unless kOutOfView
  double distance_m = 0.0;
};

// What ClassifyRows appended: every entry is in view, some occluded.
struct ClassifyCounts {
  std::size_t in_view = 0;
  std::size_t occluded = 0;
};

class OcclusionClassifier {
 public:
  // `city` may be null — then nothing is ever occluded (the naive AR
  // browser behaviour the paper criticizes).
  explicit OcclusionClassifier(const geo::CityModel* city) : city_(city) {}

  // The classification kernel, over rows [lo, hi) of `anchors`, whose row
  // i is the anchor of `annotations[i]` (as AnnotationStore's Anchors()
  // and Live() align). Appends to `out`, in row order, only the rows that
  // are not kOutOfView. The in-view mask is computed for every row without
  // branches, through CameraView::ToCamera; the screen point, depth and
  // occlusion raycast run only on the rows that pass it. With `raycast`
  // false no raycast runs and nothing is occluded. Pure and const:
  // disjoint row ranges may be classified concurrently and their outputs
  // concatenated.
  ClassifyCounts ClassifyRows(const content::AnchorTable& anchors,
                              std::span<const content::Annotation* const> annotations,
                              std::size_t lo, std::size_t hi, const CameraView& view,
                              bool raycast, std::vector<ClassifiedAnnotation>& out) const;

  // One entry per annotation, in input order (kOutOfView included): the
  // kernel over rows gathered from the annotations.
  std::vector<ClassifiedAnnotation> ClassifyAll(
      const std::vector<const content::Annotation*>& annotations,
      const CameraView& view) const;

 private:
  const geo::CityModel* city_;
};

}  // namespace arbd::ar
