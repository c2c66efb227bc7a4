#include "geo/poi.h"

#include <algorithm>

namespace arbd::geo {

const char* PoiCategoryName(PoiCategory c) {
  switch (c) {
    case PoiCategory::kRestaurant: return "restaurant";
    case PoiCategory::kCafe: return "cafe";
    case PoiCategory::kShop: return "shop";
    case PoiCategory::kHotel: return "hotel";
    case PoiCategory::kMuseum: return "museum";
    case PoiCategory::kLandmark: return "landmark";
    case PoiCategory::kTransit: return "transit";
    case PoiCategory::kHospital: return "hospital";
    case PoiCategory::kPark: return "park";
    case PoiCategory::kOffice: return "office";
    case PoiCategory::kOther: return "other";
  }
  return "?";
}

PoiStore::PoiStore(BBox bounds) : bounds_(bounds), index_(bounds) {}

Expected<PoiId> PoiStore::Add(Poi poi) {
  if (!poi.pos.IsValid() || !bounds_.Contains(poi.pos)) {
    return Status::InvalidArgument("POI '" + poi.name + "' outside store bounds");
  }
  poi.id = next_id_++;
  index_.Insert(poi.id, poi.pos);
  const PoiId id = poi.id;
  IndexName(pois_.emplace_hint(pois_.end(), id, std::move(poi))->second);  // ids only grow
  return id;
}

Status PoiStore::Update(const Poi& poi) {
  auto it = pois_.find(poi.id);
  if (it == pois_.end()) return Status::NotFound("POI id " + std::to_string(poi.id));
  if (!bounds_.Contains(poi.pos)) {
    return Status::InvalidArgument("updated position outside store bounds");
  }
  if (!(it->second.pos == poi.pos)) {
    index_.Remove(poi.id, it->second.pos);
    index_.Insert(poi.id, poi.pos);
  }
  const bool renamed = it->second.name != poi.name;
  it->second = poi;
  if (renamed) RebuildNameIndex();
  return Status::Ok();
}

Status PoiStore::Remove(PoiId id) {
  auto it = pois_.find(id);
  if (it == pois_.end()) return Status::NotFound("POI id " + std::to_string(id));
  index_.Remove(id, it->second.pos);
  pois_.erase(it);
  RebuildNameIndex();
  return Status::Ok();
}

Expected<const Poi*> PoiStore::Get(PoiId id) const {
  auto it = pois_.find(id);
  if (it == pois_.end()) return Status::NotFound("POI id " + std::to_string(id));
  return &it->second;
}

std::vector<const Poi*> PoiStore::Nearest(const LatLon& center, std::size_t k) const {
  std::vector<const Poi*> out;
  for (auto id : index_.QueryKnn(center, k)) out.push_back(&pois_.at(id));
  return out;
}

std::vector<const Poi*> PoiStore::WithinRadius(const LatLon& center, double radius_m) const {
  std::vector<const Poi*> out;
  for (auto id : index_.QueryRadius(center, radius_m)) out.push_back(&pois_.at(id));
  return out;
}

std::vector<const Poi*> PoiStore::InBBox(const BBox& box) const {
  std::vector<const Poi*> out;
  for (auto id : index_.QueryBBox(box)) out.push_back(&pois_.at(id));
  return out;
}

std::vector<const Poi*> PoiStore::NearestOfCategory(const LatLon& center, PoiCategory cat,
                                                    std::size_t k) const {
  // Expanding k-NN: over-fetch and filter; doubles until enough matches or
  // the whole store has been examined.
  std::vector<const Poi*> out;
  std::size_t fetch = std::max<std::size_t>(k * 4, 16);
  while (true) {
    out.clear();
    for (auto id : index_.QueryKnn(center, fetch)) {
      const Poi& p = pois_.at(id);
      if (p.category == cat) {
        out.push_back(&p);
        if (out.size() == k) return out;
      }
    }
    if (fetch >= pois_.size()) return out;
    fetch *= 2;
  }
}

std::vector<const Poi*> PoiStore::NearestLinear(const LatLon& center, std::size_t k) const {
  std::vector<std::pair<double, const Poi*>> dists;
  dists.reserve(pois_.size());
  for (const auto& [_, p] : pois_) dists.emplace_back(DistanceM(center, p.pos), &p);
  const std::size_t n = std::min(k, dists.size());
  std::partial_sort(dists.begin(), dists.begin() + static_cast<std::ptrdiff_t>(n),
                    dists.end());
  std::vector<const Poi*> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(dists[i].second);
  return out;
}

std::vector<const Poi*> PoiStore::WithinRadiusLinear(const LatLon& center,
                                                     double radius_m) const {
  std::vector<const Poi*> out;
  for (const auto& [_, p] : pois_) {
    if (DistanceM(center, p.pos) <= radius_m) out.push_back(&p);
  }
  return out;
}

const Poi* PoiStore::FindByName(const std::string& name) const {
  if (by_name_.empty()) return nullptr;
  const std::size_t mask = by_name_.size() - 1;
  for (std::size_t i = std::hash<std::string>{}(name) & mask;; i = (i + 1) & mask) {
    if (by_name_[i] == nullptr || by_name_[i]->name == name) return by_name_[i];
  }
}

void PoiStore::IndexName(const Poi& poi) {
  // poi is already in pois_, so a rebuild indexes it.
  if (2 * (names_ + 1) > by_name_.size()) return RebuildNameIndex();
  const std::size_t mask = by_name_.size() - 1;
  for (std::size_t i = std::hash<std::string>{}(poi.name) & mask;; i = (i + 1) & mask) {
    if (by_name_[i] == nullptr) {
      by_name_[i] = &poi;
      ++names_;
      return;
    }
    if (by_name_[i]->name == poi.name) return;
  }
}

void PoiStore::RebuildNameIndex() {
  // At least twice the POIs, so the IndexName calls below never rebuild.
  std::size_t slots = 16;
  while (slots < 2 * (pois_.size() + 1)) slots *= 2;
  by_name_.assign(slots, nullptr);
  names_ = 0;
  // In id order, so each name keeps its lowest id.
  for (const auto& [_, p] : pois_) IndexName(p);
}

std::vector<const Poi*> PoiStore::All() const {
  std::vector<const Poi*> out;
  out.reserve(pois_.size());
  for (const auto& [_, p] : pois_) out.push_back(&p);
  return out;
}

}  // namespace arbd::geo
