// Point-of-interest store — the "walled garden" data source the paper says
// AR must break out of. Quadtree-indexed lookups (k-NN, radius, bbox,
// category-filtered) plus an intentionally naive linear-scan path that the
// E7 bench uses as its baseline.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "geo/latlon.h"
#include "geo/quadtree.h"

namespace arbd::geo {

using PoiId = std::uint64_t;

enum class PoiCategory {
  kRestaurant,
  kCafe,
  kShop,
  kHotel,
  kMuseum,
  kLandmark,
  kTransit,
  kHospital,
  kPark,
  kOffice,
  kOther,
};

const char* PoiCategoryName(PoiCategory c);

struct Poi {
  PoiId id = 0;
  std::string name;
  PoiCategory category = PoiCategory::kOther;
  LatLon pos;
  double rating = 0.0;        // 0..5, crowd-sourced mean
  double height_m = 0.0;      // for AR anchor placement on facades
  std::map<std::string, std::string> attributes;  // opening hours, price, …
};

class PoiStore {
 public:
  explicit PoiStore(BBox bounds);
  // by_name_ points into pois_' nodes: a copy would point into the source.
  PoiStore(const PoiStore&) = delete;
  PoiStore& operator=(const PoiStore&) = delete;
  PoiStore(PoiStore&&) = default;
  PoiStore& operator=(PoiStore&&) = default;

  // Ids are assigned by the store; returns the stored id.
  Expected<PoiId> Add(Poi poi);
  Status Update(const Poi& poi);
  Status Remove(PoiId id);
  Expected<const Poi*> Get(PoiId id) const;

  std::vector<const Poi*> Nearest(const LatLon& center, std::size_t k) const;
  std::vector<const Poi*> WithinRadius(const LatLon& center, double radius_m) const;
  std::vector<const Poi*> InBBox(const BBox& box) const;
  std::vector<const Poi*> NearestOfCategory(const LatLon& center, PoiCategory cat,
                                            std::size_t k) const;

  // Linear-scan variants — the "no index" baseline for E7.
  std::vector<const Poi*> NearestLinear(const LatLon& center, std::size_t k) const;
  std::vector<const Poi*> WithinRadiusLinear(const LatLon& center, double radius_m) const;

  std::size_t size() const { return pois_.size(); }
  const BBox& bounds() const { return bounds_; }

  // All POIs (stable id order) — used by workload generators.
  std::vector<const Poi*> All() const;

  // The lowest-id POI with this name (what a scan of All() finds first),
  // or null.
  const Poi* FindByName(const std::string& name) const;

 private:
  // Adds poi to the name index unless a lower id holds its name.
  void IndexName(const Poi& poi);
  void RebuildNameIndex();

  BBox bounds_;
  QuadTree index_;
  std::map<PoiId, Poi> pois_;
  // Name index: open addressing on the name's hash, linear probing, at
  // most half full; each slot is null or the lowest-id POI of its name.
  // Flat, so building it costs no allocation per POI.
  std::vector<const Poi*> by_name_;
  std::size_t names_ = 0;  // occupied slots
  PoiId next_id_ = 1;
};

}  // namespace arbd::geo
