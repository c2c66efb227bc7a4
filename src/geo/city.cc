#include "geo/city.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace arbd::geo {
namespace {

// Slab-method intersection of a 2D ray with an AABB; returns entry t or
// a negative value if it misses. Directions may be zero on an axis.
double RayAabb2D(double ox, double oy, double dx, double dy, double min_x, double min_y,
                 double max_x, double max_y) {
  double t0 = 0.0, t1 = 1e300;
  const double o[2] = {ox, oy};
  const double d[2] = {dx, dy};
  const double lo[2] = {min_x, min_y};
  const double hi[2] = {max_x, max_y};
  for (int axis = 0; axis < 2; ++axis) {
    if (std::abs(d[axis]) < 1e-12) {
      if (o[axis] < lo[axis] || o[axis] > hi[axis]) return -1.0;
      continue;
    }
    double ta = (lo[axis] - o[axis]) / d[axis];
    double tb = (hi[axis] - o[axis]) / d[axis];
    if (ta > tb) std::swap(ta, tb);
    t0 = std::max(t0, ta);
    t1 = std::min(t1, tb);
    if (t0 > t1) return -1.0;
  }
  return t0;
}

// Footprints are registered in every cell their AABB grown by this pad
// overlaps, so rounding in the grid walk at cell edges and corners (far
// below a millimetre at city scale) cannot skip a building.
constexpr double kGridPad = 1e-3;

}  // namespace

CityModel::CityModel(CityConfig cfg, BBox bounds)
    : cfg_(cfg), frame_(cfg.origin), pois_(std::make_unique<PoiStore>(bounds)) {}

CityModel CityModel::Generate(const CityConfig& cfg, std::uint64_t seed) {
  const double pitch = cfg.block_size_m + cfg.street_width_m;
  const double extent_e = cfg.blocks_x * pitch;
  const double extent_n = cfg.blocks_y * pitch;
  // Store bounds: city extent plus a margin so nothing falls off the edge.
  const BBox bounds = BBox::Around(cfg.origin, std::max(extent_e, extent_n) + 500.0);

  CityModel city(cfg, bounds);
  Rng rng(seed);
  std::uint64_t next_building = 1;

  static constexpr PoiCategory kStreetMix[] = {
      PoiCategory::kRestaurant, PoiCategory::kCafe,   PoiCategory::kShop,
      PoiCategory::kHotel,      PoiCategory::kMuseum, PoiCategory::kLandmark,
      PoiCategory::kTransit,    PoiCategory::kPark,   PoiCategory::kOffice,
      PoiCategory::kHospital};

  for (int bx = 0; bx < cfg.blocks_x; ++bx) {
    for (int by = 0; by < cfg.blocks_y; ++by) {
      // Block south-west corner, centred so the origin is mid-city.
      const double block_e = (bx - cfg.blocks_x / 2.0) * pitch;
      const double block_n = (by - cfg.blocks_y / 2.0) * pitch;
      for (int i = 0; i < cfg.buildings_per_block; ++i) {
        Building b;
        b.id = next_building++;
        b.name = "bldg-" + std::to_string(bx) + "-" + std::to_string(by) + "-" +
                 std::to_string(i);
        // 2x2 sub-grid within the block.
        const int sub_e = i % 2;
        const int sub_n = (i / 2) % 2;
        const double cell = cfg.block_size_m / 2.0;
        b.half_width = cell * rng.Uniform(0.25, 0.45);
        b.half_depth = cell * rng.Uniform(0.25, 0.45);
        b.center_east = block_e + cell * (sub_e + 0.5);
        b.center_north = block_n + cell * (sub_n + 0.5);
        b.height_m = rng.Uniform(cfg.min_height_m, cfg.max_height_m);
        city.buildings_.push_back(b);

        for (int p = 0; p < cfg.pois_per_building; ++p) {
          Poi poi;
          poi.name = b.name + "-poi" + std::to_string(p);
          poi.category = kStreetMix[rng.NextBelow(std::size(kStreetMix))];
          poi.rating = rng.Uniform(1.0, 5.0);
          poi.height_m = rng.Uniform(1.5, std::max(2.0, b.height_m * 0.3));
          // Attach to a random facade point (street side of the footprint).
          const int side = static_cast<int>(rng.NextBelow(4));
          double pe = b.center_east, pn = b.center_north;
          switch (side) {
            case 0: pe -= b.half_width; pn += rng.Uniform(-b.half_depth, b.half_depth); break;
            case 1: pe += b.half_width; pn += rng.Uniform(-b.half_depth, b.half_depth); break;
            case 2: pn -= b.half_depth; pe += rng.Uniform(-b.half_width, b.half_width); break;
            default: pn += b.half_depth; pe += rng.Uniform(-b.half_width, b.half_width); break;
          }
          // Nudge off the wall so the POI is not inside its own building.
          pe += (pe > b.center_east ? 0.5 : -0.5);
          pn += (pn > b.center_north ? 0.5 : -0.5);
          poi.pos = city.frame_.FromEnu(Enu{pe, pn});
          poi.attributes["building"] = std::to_string(b.id);
          auto added = city.pois_->Add(std::move(poi));
          ARBD_CHECK(added.ok(), "generated POI must fit store bounds");
        }
      }
    }
  }
  city.BuildGrid();
  return city;
}

void CityModel::BuildGrid() {
  if (buildings_.empty()) return;
  // Half the block pitch, anchored on the block corners, so each building
  // of a block's 2x2 sub-grid falls in one cell.
  const double pitch = cfg_.block_size_m + cfg_.street_width_m;
  grid_cell_m_ = pitch / 2.0;
  ARBD_CHECK(grid_cell_m_ > 0.0, "city block pitch must be positive");
  double min_e = buildings_.front().center_east, max_e = min_e;
  double min_n = buildings_.front().center_north, max_n = min_n;
  for (const auto& b : buildings_) {
    min_e = std::min(min_e, b.center_east - b.half_width - kGridPad);
    max_e = std::max(max_e, b.center_east + b.half_width + kGridPad);
    min_n = std::min(min_n, b.center_north - b.half_depth - kGridPad);
    max_n = std::max(max_n, b.center_north + b.half_depth + kGridPad);
  }
  const double anchor_e = -cfg_.blocks_x / 2.0 * pitch;
  const double anchor_n = -cfg_.blocks_y / 2.0 * pitch;
  grid_min_e_ = anchor_e + std::floor((min_e - anchor_e) / grid_cell_m_) * grid_cell_m_;
  grid_min_n_ = anchor_n + std::floor((min_n - anchor_n) / grid_cell_m_) * grid_cell_m_;
  grid_nx_ = std::max(1, static_cast<int>(std::ceil((max_e - grid_min_e_) / grid_cell_m_)));
  grid_ny_ = std::max(1, static_cast<int>(std::ceil((max_n - grid_min_n_) / grid_cell_m_)));

  // Grid column (or row) of coordinate x, clamped to the grid.
  const auto cell_of = [&](double x, double origin, int n) {
    return std::clamp(static_cast<int>(std::floor((x - origin) / grid_cell_m_)), 0, n - 1);
  };
  // Calls fn(cell) for every cell the padded footprint of b overlaps.
  const auto for_each_cell = [&](const Building& b, auto&& fn) {
    const int x0 = cell_of(b.center_east - b.half_width - kGridPad, grid_min_e_, grid_nx_);
    const int x1 = cell_of(b.center_east + b.half_width + kGridPad, grid_min_e_, grid_nx_);
    const int y0 = cell_of(b.center_north - b.half_depth - kGridPad, grid_min_n_, grid_ny_);
    const int y1 = cell_of(b.center_north + b.half_depth + kGridPad, grid_min_n_, grid_ny_);
    for (int y = y0; y <= y1; ++y) {
      for (int x = x0; x <= x1; ++x) fn(static_cast<std::size_t>(y) * grid_nx_ + x);
    }
  };

  grid_offsets_.assign(static_cast<std::size_t>(grid_nx_) * grid_ny_ + 1, 0);
  for (const auto& b : buildings_) for_each_cell(b, [&](std::size_t c) { ++grid_offsets_[c + 1]; });
  for (std::size_t c = 1; c < grid_offsets_.size(); ++c) grid_offsets_[c] += grid_offsets_[c - 1];
  grid_items_.resize(grid_offsets_.back());
  std::vector<std::uint32_t> fill(grid_offsets_.begin(), grid_offsets_.end() - 1);
  for (std::uint32_t i = 0; i < buildings_.size(); ++i) {
    for_each_cell(buildings_[i], [&](std::size_t c) { grid_items_[fill[c]++] = i; });
  }
}

bool CityModel::IsOccluded(double eye_e, double eye_n, double eye_h, double tgt_e,
                           double tgt_n, double tgt_h, std::uint64_t ignore_building) const {
  const double de = tgt_e - eye_e;
  const double dn = tgt_n - eye_n;
  const double du = tgt_h - eye_h;
  const double dist = std::sqrt(de * de + dn * dn + du * du);
  if (dist < 1e-9) return false;
  // Ignore hits essentially at the target itself (the target's own facade)
  // and the target's own building. No t passes both cut-offs unless
  // limit > 1e-6.
  const double limit = dist - 0.75;
  if (!(limit > 1e-6) || grid_nx_ == 0) return false;
  const double ue = de / dist;
  const double un = dn / dist;
  const auto blocks = [&](const Building& b) {
    if (b.id == ignore_building) return false;
    const double t = RayAabb2D(eye_e, eye_n, ue, un, b.center_east - b.half_width,
                               b.center_north - b.half_depth, b.center_east + b.half_width,
                               b.center_north + b.half_depth);
    if (t < 1e-6 || t >= limit) return false;
    const double hit_h = eye_h + (du / dist) * t;
    return hit_h >= 0.0 && hit_h <= b.height_m;
  };

  // Clip [0, limit] to the grid. Every footprint lies inside it, and an
  // axis is flat exactly where RayAabb2D treats it as flat.
  const double o[2] = {eye_e, eye_n};
  const double u[2] = {ue, un};
  const double lo[2] = {grid_min_e_, grid_min_n_};
  const int n[2] = {grid_nx_, grid_ny_};
  double t_in = 0.0, t_out = limit;
  for (int axis = 0; axis < 2; ++axis) {
    const double hi = lo[axis] + n[axis] * grid_cell_m_;
    if (std::abs(u[axis]) < 1e-12) {
      if (o[axis] < lo[axis] || o[axis] > hi) return false;
      continue;
    }
    double ta = (lo[axis] - o[axis]) / u[axis];
    double tb = (hi - o[axis]) / u[axis];
    if (ta > tb) std::swap(ta, tb);
    t_in = std::max(t_in, ta);
    t_out = std::min(t_out, tb);
  }
  if (t_in > t_out) return false;

  // Walk the cells the clipped segment crosses (Amanatides & Woo 1987).
  // The answer is any-hit, so neither the visit order nor a building met
  // again in a later cell changes it.
  int cell[2], step[2];
  double t_next[2];
  const auto next_edge = [&](int axis) {
    const double edge = lo[axis] + (cell[axis] + (step[axis] > 0 ? 1 : 0)) * grid_cell_m_;
    return (edge - o[axis]) / u[axis];
  };
  for (int axis = 0; axis < 2; ++axis) {
    const double at = (o[axis] + u[axis] * t_in - lo[axis]) / grid_cell_m_;
    cell[axis] = static_cast<int>(std::clamp(std::floor(at), 0.0, n[axis] - 1.0));
    step[axis] = std::abs(u[axis]) < 1e-12 ? 0 : (u[axis] > 0 ? 1 : -1);
    t_next[axis] = step[axis] == 0 ? std::numeric_limits<double>::infinity() : next_edge(axis);
  }
  for (;;) {
    const std::size_t c = static_cast<std::size_t>(cell[1]) * grid_nx_ + cell[0];
    for (std::uint32_t k = grid_offsets_[c]; k < grid_offsets_[c + 1]; ++k) {
      if (blocks(buildings_[grid_items_[k]])) return true;
    }
    const int axis = t_next[0] < t_next[1] ? 0 : 1;
    if (step[axis] == 0 || t_next[axis] > t_out) return false;
    cell[axis] += step[axis];
    if (cell[axis] < 0 || cell[axis] >= n[axis]) return false;
    t_next[axis] = next_edge(axis);
  }
}

}  // namespace arbd::geo
