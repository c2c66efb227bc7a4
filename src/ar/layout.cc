#include "ar/layout.h"

#include <algorithm>
#include <cmath>

namespace arbd::ar {

double LabelLayout::OverlapRatio(const std::vector<LabelBox>& labels) {
  if (labels.size() < 2) return 0.0;
  double total_area = 0.0;
  double overlap_area = 0.0;
  for (const auto& l : labels) total_area += l.Area();
  for (std::size_t i = 0; i < labels.size(); ++i) {
    for (std::size_t j = i + 1; j < labels.size(); ++j) {
      const auto& a = labels[i];
      const auto& b = labels[j];
      const double w = std::min(a.x + a.width, b.x + b.width) - std::max(a.x, b.x);
      const double h = std::min(a.y + a.height, b.y + b.height) - std::max(a.y, b.y);
      if (w > 0 && h > 0) overlap_area += w * h;
    }
  }
  return total_area > 0 ? overlap_area / total_area : 0.0;
}

LayoutResult LabelLayout::Arrange(const std::vector<ClassifiedAnnotation>& classified,
                                  const CameraIntrinsics& intrinsics) const {
  return cfg_.strategy == LayoutStrategy::kNaiveBubbles
             ? ArrangeNaive(classified, intrinsics)
             : ArrangeDeclutter(classified, intrinsics);
}

LayoutResult LabelLayout::ArrangeNaive(const std::vector<ClassifiedAnnotation>& classified,
                                       const CameraIntrinsics& intrinsics) const {
  (void)intrinsics;
  LayoutResult r;
  for (const auto& c : classified) {
    if (c.visibility == Visibility::kOutOfView) continue;
    ++r.candidates;
    // The naive browser doesn't know about occlusion — it draws the bubble
    // anyway, centred on the projection.
    LabelBox box;
    box.width = cfg_.label_width_px;
    box.height = cfg_.label_height_px;
    box.x = c.screen.x - box.width / 2.0;
    box.y = c.screen.y - box.height / 2.0;
    box.annotation = c.annotation;
    box.visibility = c.visibility;
    r.labels.push_back(box);
  }
  r.placed = r.labels.size();
  r.overlap_ratio = OverlapRatio(r.labels);
  return r;
}

LayoutResult LabelLayout::ArrangeDeclutter(
    const std::vector<ClassifiedAnnotation>& classified,
    const CameraIntrinsics& intrinsics) const {
  LayoutResult r;

  // Candidates leave a max-heap in the declutter order (layout.h): only as
  // many are popped as it takes to fill the label budget.
  struct Key {
    double priority;
    double distance_m;
    std::uint64_t id;
    std::size_t index;  // into `classified`
  };
  std::vector<Key> heap;
  for (std::size_t i = 0; i < classified.size(); ++i) {
    const auto& c = classified[i];
    if (c.visibility == Visibility::kOutOfView) continue;
    if (c.annotation->priority < cfg_.min_priority) continue;
    if (c.visibility == Visibility::kOccluded && !cfg_.show_occluded_as_xray) continue;
    heap.push_back({c.annotation->priority, c.distance_m, c.annotation->id, i});
  }
  r.candidates = heap.size();
  // "a after b": the heap's top is the first candidate in the order.
  const auto after = [](const Key& a, const Key& b) {
    if (a.priority != b.priority) return a.priority < b.priority;
    if (a.distance_m != b.distance_m) return a.distance_m > b.distance_m;
    if (a.id != b.id) return a.id > b.id;
    return a.index > b.index;
  };
  std::make_heap(heap.begin(), heap.end(), after);

  // Candidate offsets around the anchor: above, right, left, below, then
  // diagonals, progressively further out.
  const double w = cfg_.label_width_px;
  const double h = cfg_.label_height_px;
  const std::pair<double, double> offsets[] = {
      {0, -h * 1.2},  {w * 0.7, 0},   {-w * 0.7, 0},  {0, h * 1.2},
      {w * 0.7, -h},  {-w * 0.7, -h}, {w * 0.7, h},   {-w * 0.7, h},
      {0, -h * 2.4},  {0, h * 2.4},   {w * 1.4, 0},   {-w * 1.4, 0},
  };

  while (!heap.empty() && r.labels.size() < cfg_.max_labels) {
    std::pop_heap(heap.begin(), heap.end(), after);
    const ClassifiedAnnotation& c = classified[heap.back().index];
    heap.pop_back();
    bool placed = false;
    for (const auto& [dx, dy] : offsets) {
      LabelBox box;
      box.width = w;
      box.height = h;
      box.x = c.screen.x - w / 2.0 + dx;
      box.y = c.screen.y - h / 2.0 + dy;
      box.annotation = c.annotation;
      box.visibility = c.visibility;
      box.xray = c.visibility == Visibility::kOccluded;
      // Clamp to screen.
      if (box.x < 0 || box.y < 0 || box.x + box.width > intrinsics.width_px ||
          box.y + box.height > intrinsics.height_px) {
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
  r.dropped += heap.size();  // the budget is full: never visited
  r.placed = r.labels.size();
  r.overlap_ratio = OverlapRatio(r.labels);
  return r;
}

}  // namespace arbd::ar
