// Geodetic primitives: WGS-84 coordinates, haversine distances, bearings,
// and a local east-north-up (ENU) tangent-plane projection used by the AR
// registration code (which works in metres around the user).
#pragma once

#include <cmath>
#include <string>

namespace arbd::geo {

inline constexpr double kEarthRadiusM = 6'371'000.0;
inline constexpr double kDegToRad = M_PI / 180.0;
inline constexpr double kRadToDeg = 180.0 / M_PI;

struct LatLon {
  double lat = 0.0;  // degrees, [-90, 90]
  double lon = 0.0;  // degrees, [-180, 180]

  bool operator==(const LatLon&) const = default;
  std::string ToString() const;
  bool IsValid() const {
    return lat >= -90.0 && lat <= 90.0 && lon >= -180.0 && lon <= 180.0;
  }
};

// Great-circle distance in metres.
double DistanceM(const LatLon& a, const LatLon& b);

// Initial bearing from a to b, degrees clockwise from north in [0, 360).
double BearingDeg(const LatLon& a, const LatLon& b);

// Point reached from `origin` travelling `distance_m` metres along
// `bearing_deg`.
LatLon Offset(const LatLon& origin, double distance_m, double bearing_deg);

// Planar offset in metres (small-area approximation, fine below ~50 km).
struct Enu {
  double east = 0.0;
  double north = 0.0;
};

// Local tangent-plane projection centred on `origin`.
class EnuFrame {
 public:
  explicit EnuFrame(LatLon origin) : origin_(origin),
      cos_lat_(std::cos(origin.lat * kDegToRad)) {}

  // Inline: the AR classification kernel projects every live anchor
  // through it each frame.
  Enu ToEnu(const LatLon& p) const {
    Enu e;
    e.north = (p.lat - origin_.lat) * kDegToRad * kEarthRadiusM;
    e.east = (p.lon - origin_.lon) * kDegToRad * kEarthRadiusM * cos_lat_;
    return e;
  }
  LatLon FromEnu(const Enu& e) const;
  const LatLon& origin() const { return origin_; }

 private:
  LatLon origin_;
  double cos_lat_;
};

// Axis-aligned bounding box in lat/lon space.
struct BBox {
  double min_lat = 0.0, min_lon = 0.0, max_lat = 0.0, max_lon = 0.0;

  bool Contains(const LatLon& p) const {
    return p.lat >= min_lat && p.lat <= max_lat && p.lon >= min_lon && p.lon <= max_lon;
  }
  bool Intersects(const BBox& o) const {
    return !(o.min_lat > max_lat || o.max_lat < min_lat || o.min_lon > max_lon ||
             o.max_lon < min_lon);
  }
  LatLon Center() const { return {(min_lat + max_lat) / 2, (min_lon + max_lon) / 2}; }

  // Bounding box covering a radius (metres) around a centre; conservative
  // (slightly larger than the true circle's box).
  static BBox Around(const LatLon& center, double radius_m);
};

}  // namespace arbd::geo
