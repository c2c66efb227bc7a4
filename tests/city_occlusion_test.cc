// Reference test for CityModel::IsOccluded's uniform-grid broad phase: a
// million seeded eye/target pairs must give the same boolean as the same
// per-building test run over every building, the way the occlusion check
// worked before the grid. The rays lean on what a grid walk can get wrong:
// cell edges and corners, axis-parallel and degenerate rays, targets inside
// buildings, eyes far outside the grid, and an ignored building.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "common/rng.h"
#include "geo/city.h"

namespace arbd::geo {
namespace {

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

struct Ray {
  double eye_e, eye_n, eye_h, tgt_e, tgt_n, tgt_h;
  std::uint64_t ignore = 0;
};

bool LinearIsOccluded(const CityModel& city, const Ray& r) {
  const double de = r.tgt_e - r.eye_e;
  const double dn = r.tgt_n - r.eye_n;
  const double du = r.tgt_h - r.eye_h;
  const double dist = std::sqrt(de * de + dn * dn + du * du);
  if (dist < 1e-9) return false;
  const double limit = dist - 0.75;
  for (const auto& b : city.buildings()) {
    if (b.id == r.ignore) continue;
    const double t = RayAabb2D(r.eye_e, r.eye_n, de / dist, dn / dist,
                               b.center_east - b.half_width, b.center_north - b.half_depth,
                               b.center_east + b.half_width, b.center_north + b.half_depth);
    if (t < 1e-6 || t >= limit) continue;
    const double hit_h = r.eye_h + (du / dist) * t;
    if (hit_h >= 0.0 && hit_h <= b.height_m) return true;
  }
  return false;
}

// Seeded rays over one city. Grid lines are where CityModel puts them:
// every half block pitch, counted from the south-west block corner.
class RayMaker {
 public:
  RayMaker(const CityModel& city, std::uint64_t seed) : city_(city), rng_(seed) {
    const CityConfig& cfg = city.config();
    cell_ = (cfg.block_size_m + cfg.street_width_m) / 2.0;
    min_e_ = -cfg.blocks_x * cell_;
    min_n_ = -cfg.blocks_y * cell_;
    lines_e_ = 2 * cfg.blocks_x;
    lines_n_ = 2 * cfg.blocks_y;
  }

  Ray Next() {
    Ray r{};
    r.eye_h = rng_.Bernoulli(0.8) ? rng_.Uniform(0.0, 3.0) : rng_.Uniform(-5.0, 80.0);
    r.tgt_h = rng_.Uniform(-2.0, 70.0);
    switch (rng_.NextBelow(9)) {
      case 0:  // anywhere in and around the city
        r.eye_e = E(), r.eye_n = N(), r.tgt_e = E(), r.tgt_n = N();
        break;
      case 1:  // along a grid line
        if (rng_.Bernoulli(0.5)) {
          r.eye_e = r.tgt_e = LineE(), r.eye_n = N(), r.tgt_n = N();
        } else {
          r.eye_n = r.tgt_n = LineN(), r.eye_e = E(), r.tgt_e = E();
        }
        break;
      case 2: {  // through a grid corner, often on a cell diagonal
        const double ce = LineE(), cn = LineN();
        const double angle = rng_.Bernoulli(0.5)
                                 ? (0.25 + 0.5 * static_cast<double>(rng_.NextBelow(4))) *
                                       std::numbers::pi
                                 : rng_.Uniform(0.0, 2.0 * std::numbers::pi);
        const double back = rng_.Uniform(0.0, 400.0), ahead = rng_.Uniform(0.0, 400.0);
        r.eye_e = ce - back * std::cos(angle), r.eye_n = cn - back * std::sin(angle);
        r.tgt_e = ce + ahead * std::cos(angle), r.tgt_n = cn + ahead * std::sin(angle);
        break;
      }
      case 3:  // grid corner to grid corner
        r.eye_e = LineE(), r.eye_n = LineN(), r.tgt_e = LineE(), r.tgt_n = LineN();
        break;
      case 4:  // axis-parallel, often along a building face
        if (rng_.Bernoulli(0.5)) {
          r.eye_n = r.tgt_n = rng_.Bernoulli(0.5) ? Face(false) : N();
          r.eye_e = E(), r.tgt_e = E();
        } else {
          r.eye_e = r.tgt_e = rng_.Bernoulli(0.5) ? Face(true) : E();
          r.eye_n = N(), r.tgt_n = N();
        }
        break;
      case 5:  // nearly axis-parallel: one 2D component below RayAabb2D's 1e-12
        r.eye_e = E(), r.eye_n = N(), r.tgt_e = E();
        r.tgt_n = r.eye_n + (r.tgt_e - r.eye_e) * rng_.Uniform(-1e-12, 1e-12);
        break;
      case 6:  // zero length, or zero 2D length
        r.eye_e = r.tgt_e = E(), r.eye_n = r.tgt_n = N();
        if (rng_.Bernoulli(0.5)) r.tgt_h = r.eye_h;
        break;
      case 7: {  // target inside a building, often ignoring that building
        const Building& b = Pick();
        r.tgt_e = rng_.Uniform(b.center_east - b.half_width, b.center_east + b.half_width);
        r.tgt_n = rng_.Uniform(b.center_north - b.half_depth, b.center_north + b.half_depth);
        r.eye_e = E(), r.eye_n = N();
        if (rng_.Bernoulli(0.5)) r.ignore = b.id;
        break;
      }
      default: {  // eye far outside the grid
        const double radius = std::pow(10.0, rng_.Uniform(3.0, 6.0));
        const double angle = rng_.Uniform(0.0, 2.0 * std::numbers::pi);
        r.eye_e = radius * std::cos(angle), r.eye_n = radius * std::sin(angle);
        r.tgt_e = E(), r.tgt_n = N();
        break;
      }
    }
    if (r.ignore == 0 && rng_.Bernoulli(0.25)) r.ignore = Pick().id;
    if (rng_.Bernoulli(0.1)) std::swap(r.eye_e, r.tgt_e), std::swap(r.eye_n, r.tgt_n);
    return r;
  }

 private:
  double E() { return rng_.Uniform(min_e_ - 60.0, -min_e_ + 60.0); }
  double N() { return rng_.Uniform(min_n_ - 60.0, -min_n_ + 60.0); }
  double LineE() { return min_e_ + cell_ * static_cast<double>(rng_.UniformInt(-1, lines_e_ + 1)); }
  double LineN() { return min_n_ + cell_ * static_cast<double>(rng_.UniformInt(-1, lines_n_ + 1)); }
  const Building& Pick() { return city_.buildings()[rng_.NextBelow(city_.buildings().size())]; }
  double Face(bool east) {
    const Building& b = Pick();
    const double c = east ? b.center_east : b.center_north;
    const double h = east ? b.half_width : b.half_depth;
    return rng_.Bernoulli(0.5) ? c - h : c + h;
  }

  const CityModel& city_;
  Rng rng_;
  double cell_ = 0.0, min_e_ = 0.0, min_n_ = 0.0;
  std::int64_t lines_e_ = 0, lines_n_ = 0;
};

void ExpectGridMatchesLinearScan(const CityConfig& cfg, std::uint64_t seed, int rays) {
  const CityModel city = CityModel::Generate(cfg, seed);
  RayMaker maker(city, seed * 7919 + 1);
  int occluded = 0, mismatches = 0;
  for (int i = 0; i < rays; ++i) {
    const Ray r = maker.Next();
    const bool want = LinearIsOccluded(city, r);
    const bool got =
        city.IsOccluded(r.eye_e, r.eye_n, r.eye_h, r.tgt_e, r.tgt_n, r.tgt_h, r.ignore);
    occluded += want ? 1 : 0;
    if (got != want && ++mismatches <= 5) {
      ADD_FAILURE() << "city seed " << seed << " ray " << i << ": eye (" << r.eye_e << ", "
                    << r.eye_n << ", " << r.eye_h << ") target (" << r.tgt_e << ", " << r.tgt_n
                    << ", " << r.tgt_h << ") ignore " << r.ignore << ": grid " << got
                    << ", linear scan " << want;
    }
  }
  EXPECT_EQ(mismatches, 0) << "city seed " << seed;
  // Both answers must be well represented for the comparison to mean much.
  EXPECT_GT(occluded, rays / 10) << "city seed " << seed;
  EXPECT_LT(occluded, rays - rays / 10) << "city seed " << seed;
}

constexpr int kRaysPerCity = 1 << 18;  // four cities: 1,048,576 rays

TEST(CityOcclusion, GridMatchesLinearScanDefaultCity) {
  for (const std::uint64_t seed : {1u, 42u, 1001u}) {
    ExpectGridMatchesLinearScan(CityConfig{}, seed, kRaysPerCity);
  }
}

TEST(CityOcclusion, GridMatchesLinearScanUnevenCity) {
  CityConfig cfg;
  cfg.blocks_x = 5;
  cfg.blocks_y = 3;
  cfg.block_size_m = 50.0;
  cfg.street_width_m = 7.0;
  ExpectGridMatchesLinearScan(cfg, 7, kRaysPerCity);
}

}  // namespace
}  // namespace arbd::geo
