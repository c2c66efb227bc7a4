// Semantic AR content model — the ARML-shaped contract (§4.2) between the
// analytics side (which produces facts) and the display side (which must
// place them in the world). An Annotation is a semantically-typed fact
// bound to a world anchor, with enough styling/priority metadata for the
// layout engine to resolve clutter.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/serialize.h"
#include "geo/latlon.h"

namespace arbd::ar::content {

enum class SemanticType {
  kPlaceInfo,        // name/rating/hours of a place
  kRecommendation,   // analytics-derived suggestion
  kNavigation,       // route hint, direction arrow
  kAlert,            // safety/health warning — always top priority
  kHealthMetric,     // vitals readout
  kTranslation,      // translated sign text
  kXRayHint,         // occluded object highlight ("see through")
  kSocial,           // UGC: tweet/photo/review at a place
  kDiagnostic,       // infrastructure/maintenance overlay
};

const char* SemanticTypeName(SemanticType t);

// Where an annotation is pinned. World-anchored content has a geo position
// plus height; screen-anchored content (HUD elements) is fixed in view.
struct Anchor {
  enum class Kind : std::uint8_t { kWorld, kScreen };
  Kind kind = Kind::kWorld;
  geo::LatLon geo_pos;       // world anchors
  double height_m = 2.0;
  std::uint64_t building_id = 0;  // 0 = free-standing
  double screen_x = 0.5;     // screen anchors, normalized [0,1]
  double screen_y = 0.5;
};

struct Annotation {
  std::uint64_t id = 0;
  SemanticType type = SemanticType::kPlaceInfo;
  Anchor anchor;
  std::string title;
  std::string body;
  double priority = 0.5;     // [0,1]; layout keeps high-priority labels
  TimePoint created;
  Duration ttl = Duration::Seconds(30);  // stale content must expire (§4.1)
  std::map<std::string, std::string> properties;  // open key/value (ARML-ish)

  bool ExpiredAt(TimePoint now) const { return now > created + ttl; }

  Bytes Encode() const;
  static Expected<Annotation> Decode(const Bytes& buf);
};

// The anchors of a list of annotations as columns, one row per entry:
// what frame composition reads of every live annotation each frame. The
// projection pass streams lat, lon and height_m (contiguous, so the
// compiler vectorizes it); building_id is read only for the rows in view.
// Screen anchors keep their screen position in the Annotation. 33 B a row.
struct AnchorTable {
  std::vector<double> lat, lon, height_m;
  std::vector<std::uint64_t> building_id;
  std::vector<Anchor::Kind> kind;

  std::size_t size() const { return lat.size(); }
  void Append(const Anchor& a);
  // Row `to` takes the values of row `from`.
  void CopyRow(std::size_t from, std::size_t to);
  void Resize(std::size_t rows);
  void Reserve(std::size_t rows);
};

// An in-memory set of live annotations with TTL expiry — what the frame
// composer draws from every frame. Beside the id-keyed map it keeps the
// live list Live() returns, an anchor table row-aligned with it, and an
// index on expiry deadlines, so the per-frame expiry and Live() cost
// nothing for annotations that neither arrive nor expire, and the
// per-frame projection streams contiguous columns.
class AnnotationStore {
 public:
  AnnotationStore() = default;
  // live_ points into items_' nodes: a copy would point into the source.
  AnnotationStore(const AnnotationStore&) = delete;
  AnnotationStore& operator=(const AnnotationStore&) = delete;
  AnnotationStore(AnnotationStore&&) = default;
  AnnotationStore& operator=(AnnotationStore&&) = default;

  std::uint64_t Add(Annotation a);  // assigns id, returns it
  bool Remove(std::uint64_t id);
  // Drops every annotation with ExpiredAt(now); returns how many.
  std::size_t ExpireOlderThan(TimePoint now);

  // Live annotations in ascending id order. Valid until the next Add,
  // Remove or ExpireOlderThan.
  const std::vector<const Annotation*>& Live() const { return live_; }
  // Row i holds Live()[i]'s anchor. Valid as long as Live().
  const AnchorTable& Anchors() const { return anchors_; }
  const Annotation* Get(std::uint64_t id) const;
  std::size_t size() const { return items_.size(); }

 private:
  // Erases from live_ and anchors_ the rows with these ids (ascending,
  // all live).
  void EraseFromLive(const std::vector<std::uint64_t>& ids);

  std::map<std::uint64_t, Annotation> items_;
  std::vector<const Annotation*> live_;  // &items_[id], ascending id
  AnchorTable anchors_;                  // row-aligned with live_
  // (created + ttl, id) for every live annotation, a min-heap on deadline.
  std::vector<std::pair<TimePoint, std::uint64_t>> deadlines_;
  std::uint64_t next_id_ = 1;
};

}  // namespace arbd::ar::content
