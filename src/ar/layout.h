// Label layout: turning candidate annotations into non-overlapping screen
// labels. Two strategies:
//
//  * kNaiveBubbles — every annotation becomes a bubble at its projected
//    point, overlaps and all. This is the "floating bubbles" anti-pattern
//    the paper (citing MacIntyre's "POIs are pointless") argues against.
//  * kDeclutter — priority-greedy placement with candidate offsets around
//    the anchor, occlusion-aware styling, and a hard overlap prohibition.
//    Candidates are tried in a total order: priority descending, then
//    distance ascending, then annotation id ascending, then position in
//    the input. Equal priorities and anchors are common (rule-generated
//    annotations share both), so without the last two keys the labels
//    would depend on input order and on the sort. Candidates come off a
//    heap only until max_labels are placed; the rest count as dropped
//    without being tried.
//
// The E2 experiment measures exactly the difference between the two.
#pragma once

#include <cstdint>
#include <vector>

#include "ar/occlusion.h"

namespace arbd::ar {

struct LabelBox {
  double x = 0.0, y = 0.0;        // top-left, pixels
  double width = 0.0, height = 0.0;
  const content::Annotation* annotation = nullptr;
  Visibility visibility = Visibility::kVisible;
  bool xray = false;              // drawn as see-through contour

  bool Overlaps(const LabelBox& o) const {
    return !(x + width <= o.x || o.x + o.width <= x || y + height <= o.y ||
             o.y + o.height <= y);
  }
  double Area() const { return width * height; }
};

enum class LayoutStrategy { kNaiveBubbles, kDeclutter };

struct LayoutConfig {
  LayoutStrategy strategy = LayoutStrategy::kDeclutter;
  double label_width_px = 180.0;
  double label_height_px = 56.0;
  std::size_t max_labels = 24;       // human limit on readable overlays
  bool show_occluded_as_xray = true; // declutter only
  double min_priority = 0.0;         // drop below this outright
};

struct LayoutResult {
  std::vector<LabelBox> labels;
  std::size_t candidates = 0;     // annotations that were in view
  std::size_t placed = 0;
  std::size_t dropped = 0;
  double overlap_ratio = 0.0;     // overlapping-pair area / total label area
  Duration layout_time;           // filled by callers that time it
};

class LabelLayout {
 public:
  explicit LabelLayout(LayoutConfig cfg = {}) : cfg_(cfg) {}

  LayoutResult Arrange(const std::vector<ClassifiedAnnotation>& classified,
                       const CameraIntrinsics& intrinsics) const;

  const LayoutConfig& config() const { return cfg_; }

  // Overlap metric used by E2: sum of pairwise intersection areas divided
  // by total label area (0 = clean, grows unbounded with pile-ups).
  static double OverlapRatio(const std::vector<LabelBox>& labels);

 private:
  LayoutResult ArrangeNaive(const std::vector<ClassifiedAnnotation>& classified,
                            const CameraIntrinsics& intrinsics) const;
  LayoutResult ArrangeDeclutter(const std::vector<ClassifiedAnnotation>& classified,
                                const CameraIntrinsics& intrinsics) const;

  LayoutConfig cfg_;
};

}  // namespace arbd::ar
