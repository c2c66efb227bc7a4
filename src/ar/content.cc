#include "ar/content.h"

#include <algorithm>
#include <functional>

namespace arbd::ar::content {

const char* SemanticTypeName(SemanticType t) {
  switch (t) {
    case SemanticType::kPlaceInfo: return "place_info";
    case SemanticType::kRecommendation: return "recommendation";
    case SemanticType::kNavigation: return "navigation";
    case SemanticType::kAlert: return "alert";
    case SemanticType::kHealthMetric: return "health_metric";
    case SemanticType::kTranslation: return "translation";
    case SemanticType::kXRayHint: return "xray_hint";
    case SemanticType::kSocial: return "social";
    case SemanticType::kDiagnostic: return "diagnostic";
  }
  return "?";
}

Bytes Annotation::Encode() const {
  BinaryWriter w;
  w.WriteU64(id);
  w.WriteU8(static_cast<std::uint8_t>(type));
  w.WriteU8(static_cast<std::uint8_t>(anchor.kind));
  w.WriteF64(anchor.geo_pos.lat);
  w.WriteF64(anchor.geo_pos.lon);
  w.WriteF64(anchor.height_m);
  w.WriteU64(anchor.building_id);
  w.WriteF64(anchor.screen_x);
  w.WriteF64(anchor.screen_y);
  w.WriteString(title);
  w.WriteString(body);
  w.WriteF64(priority);
  w.WriteI64(created.nanos());
  w.WriteI64(ttl.nanos());
  w.WriteU32(static_cast<std::uint32_t>(properties.size()));
  for (const auto& [k, v] : properties) {
    w.WriteString(k);
    w.WriteString(v);
  }
  return w.Take();
}

Expected<Annotation> Annotation::Decode(const Bytes& buf) {
  BinaryReader r(buf);
  Annotation a;
  auto id = r.ReadU64();
  if (!id.ok()) return id.status();
  a.id = *id;
  auto type = r.ReadU8();
  if (!type.ok()) return type.status();
  if (*type > static_cast<std::uint8_t>(SemanticType::kDiagnostic)) {
    return Status::DataLoss("invalid semantic type " + std::to_string(*type));
  }
  a.type = static_cast<SemanticType>(*type);
  auto kind = r.ReadU8();
  if (!kind.ok()) return kind.status();
  if (*kind > 1) return Status::DataLoss("invalid anchor kind");
  a.anchor.kind = static_cast<Anchor::Kind>(*kind);

  auto lat = r.ReadF64();
  if (!lat.ok()) return lat.status();
  a.anchor.geo_pos.lat = *lat;
  auto lon = r.ReadF64();
  if (!lon.ok()) return lon.status();
  a.anchor.geo_pos.lon = *lon;
  auto h = r.ReadF64();
  if (!h.ok()) return h.status();
  a.anchor.height_m = *h;
  auto b = r.ReadU64();
  if (!b.ok()) return b.status();
  a.anchor.building_id = *b;
  auto sx = r.ReadF64();
  if (!sx.ok()) return sx.status();
  a.anchor.screen_x = *sx;
  auto sy = r.ReadF64();
  if (!sy.ok()) return sy.status();
  a.anchor.screen_y = *sy;

  auto title = r.ReadString();
  if (!title.ok()) return title.status();
  a.title = std::move(*title);
  auto body = r.ReadString();
  if (!body.ok()) return body.status();
  a.body = std::move(*body);
  auto prio = r.ReadF64();
  if (!prio.ok()) return prio.status();
  a.priority = *prio;
  auto created = r.ReadI64();
  if (!created.ok()) return created.status();
  a.created = TimePoint::FromNanos(*created);
  auto ttl = r.ReadI64();
  if (!ttl.ok()) return ttl.status();
  a.ttl = Duration::Nanos(*ttl);
  auto n = r.ReadU32();
  if (!n.ok()) return n.status();
  for (std::uint32_t i = 0; i < *n; ++i) {
    auto k = r.ReadString();
    if (!k.ok()) return k.status();
    auto v = r.ReadString();
    if (!v.ok()) return v.status();
    a.properties[std::move(*k)] = std::move(*v);
  }
  return a;
}

void AnchorTable::Append(const Anchor& a) {
  lat.push_back(a.geo_pos.lat);
  lon.push_back(a.geo_pos.lon);
  height_m.push_back(a.height_m);
  building_id.push_back(a.building_id);
  kind.push_back(a.kind);
}

void AnchorTable::CopyRow(std::size_t from, std::size_t to) {
  lat[to] = lat[from];
  lon[to] = lon[from];
  height_m[to] = height_m[from];
  building_id[to] = building_id[from];
  kind[to] = kind[from];
}

void AnchorTable::Resize(std::size_t rows) {
  lat.resize(rows);
  lon.resize(rows);
  height_m.resize(rows);
  building_id.resize(rows);
  kind.resize(rows);
}

void AnchorTable::Reserve(std::size_t rows) {
  lat.reserve(rows);
  lon.reserve(rows);
  height_m.reserve(rows);
  building_id.reserve(rows);
  kind.reserve(rows);
}

std::uint64_t AnnotationStore::Add(Annotation a) {
  a.id = next_id_++;
  const std::uint64_t id = a.id;
  const TimePoint deadline = a.created + a.ttl;
  // Ids only grow, so the new annotation goes at the end of items_ (the
  // hint spares the tree descent) and at the back of live_.
  anchors_.Append(a.anchor);
  live_.push_back(&items_.emplace_hint(items_.end(), id, std::move(a))->second);
  deadlines_.emplace_back(deadline, id);
  std::push_heap(deadlines_.begin(), deadlines_.end(), std::greater<>{});
  return id;
}

bool AnnotationStore::Remove(std::uint64_t id) {
  auto it = items_.find(id);
  if (it == items_.end()) return false;
  const auto entry = std::find(deadlines_.begin(), deadlines_.end(),
                               std::pair{it->second.created + it->second.ttl, id});
  *entry = deadlines_.back();
  deadlines_.pop_back();
  std::make_heap(deadlines_.begin(), deadlines_.end(), std::greater<>{});
  EraseFromLive({id});
  items_.erase(it);
  return true;
}

std::size_t AnnotationStore::ExpireOlderThan(TimePoint now) {
  // ExpiredAt(now) is now > created + ttl: exactly the deadlines < now.
  std::vector<std::uint64_t> ids;
  while (!deadlines_.empty() && deadlines_.front().first < now) {
    ids.push_back(deadlines_.front().second);
    std::pop_heap(deadlines_.begin(), deadlines_.end(), std::greater<>{});
    deadlines_.pop_back();
  }
  if (ids.empty()) return 0;
  std::sort(ids.begin(), ids.end());
  EraseFromLive(ids);
  for (const std::uint64_t id : ids) items_.erase(id);
  return ids.size();
}

void AnnotationStore::EraseFromLive(const std::vector<std::uint64_t>& ids) {
  // live_ ascends by id, and so do ids: find each erased row searching on
  // from the last one, and close the gaps in live_ and anchors_ in the
  // same pass.
  const auto by_id = [](const Annotation* a, std::uint64_t id) { return a->id < id; };
  const auto row_of = [&](std::size_t from, std::uint64_t id) {
    return static_cast<std::size_t>(
        std::lower_bound(live_.begin() + static_cast<std::ptrdiff_t>(from), live_.end(), id,
                         by_id) -
        live_.begin());
  };
  std::size_t out = row_of(0, ids.front());
  std::size_t in = out;
  const auto keep_until = [&](std::size_t end) {
    for (; in < end; ++in, ++out) {
      live_[out] = live_[in];
      anchors_.CopyRow(in, out);
    }
  };
  for (const std::uint64_t id : ids) {
    keep_until(row_of(in, id));
    ++in;  // the erased row
  }
  keep_until(live_.size());
  live_.resize(out);
  anchors_.Resize(out);
}

const Annotation* AnnotationStore::Get(std::uint64_t id) const {
  auto it = items_.find(id);
  return it == items_.end() ? nullptr : &it->second;
}

}  // namespace arbd::ar::content
