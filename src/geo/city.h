// Synthetic city model: a street grid of extruded-box buildings in a local
// ENU frame, with POIs attached to building facades. This substitutes for
// the crowdsourced 3D world model (Google-Earth-style) the paper leans on:
// it provides exactly what the AR layer needs — geometry to occlude
// against ("X-ray vision"), facades to anchor content to, and a spatial
// distribution of places to query.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "geo/latlon.h"
#include "geo/poi.h"

namespace arbd::geo {

struct Building {
  std::uint64_t id = 0;
  std::string name;
  // Axis-aligned footprint in the city's ENU frame, metres.
  double center_east = 0.0;
  double center_north = 0.0;
  double half_width = 10.0;   // east extent
  double half_depth = 10.0;   // north extent
  double height_m = 20.0;

  bool ContainsXY(double east, double north) const {
    return east >= center_east - half_width && east <= center_east + half_width &&
           north >= center_north - half_depth && north <= center_north + half_depth;
  }
};

struct CityConfig {
  LatLon origin{22.3364, 114.2655};  // HKUST, fittingly
  int blocks_x = 8;
  int blocks_y = 8;
  double block_size_m = 80.0;
  double street_width_m = 12.0;
  int buildings_per_block = 4;
  double min_height_m = 8.0;
  double max_height_m = 60.0;
  int pois_per_building = 2;
};

class CityModel {
 public:
  // Deterministic for a given (config, seed).
  static CityModel Generate(const CityConfig& cfg, std::uint64_t seed);

  const std::vector<Building>& buildings() const { return buildings_; }
  const PoiStore& pois() const { return *pois_; }
  PoiStore& pois() { return *pois_; }
  const EnuFrame& frame() const { return frame_; }
  const CityConfig& config() const { return cfg_; }

  // True if the straight line from eye to target is blocked by a building
  // other than the target's own (both points in ENU metres + height).
  // Tests only the buildings in the grid cells the eye→target segment
  // crosses. Pure: safe to call from many threads at once.
  bool IsOccluded(double eye_e, double eye_n, double eye_h, double tgt_e, double tgt_n,
                  double tgt_h, std::uint64_t ignore_building = 0) const;

  // Total ground-truth place count (for crowdsourcing completeness, E8).
  std::size_t poi_count() const { return pois_->size(); }

 private:
  CityModel(CityConfig cfg, BBox bounds);
  void BuildGrid();

  CityConfig cfg_;
  EnuFrame frame_;
  std::vector<Building> buildings_;
  std::unique_ptr<PoiStore> pois_;

  // Occlusion broad phase: a uniform grid of square cells over the
  // footprints, in CSR form. Cell (cx, cy) is number cy * grid_nx_ + cx;
  // the indices into buildings_ of the footprints that overlap it are
  // grid_items_[grid_offsets_[cell] .. grid_offsets_[cell + 1]).
  double grid_min_e_ = 0.0;
  double grid_min_n_ = 0.0;
  double grid_cell_m_ = 1.0;
  int grid_nx_ = 0;
  int grid_ny_ = 0;
  std::vector<std::uint32_t> grid_offsets_;
  std::vector<std::uint32_t> grid_items_;
};

}  // namespace arbd::geo
