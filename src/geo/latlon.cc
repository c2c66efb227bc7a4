#include "geo/latlon.h"

#include <algorithm>
#include <cstdio>

namespace arbd::geo {

std::string LatLon::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "(%.6f, %.6f)", lat, lon);
  return buf;
}

double DistanceM(const LatLon& a, const LatLon& b) {
  const double phi1 = a.lat * kDegToRad;
  const double phi2 = b.lat * kDegToRad;
  const double dphi = (b.lat - a.lat) * kDegToRad;
  const double dlam = (b.lon - a.lon) * kDegToRad;
  const double s = std::sin(dphi / 2) * std::sin(dphi / 2) +
                   std::cos(phi1) * std::cos(phi2) * std::sin(dlam / 2) * std::sin(dlam / 2);
  return 2.0 * kEarthRadiusM * std::asin(std::min(1.0, std::sqrt(s)));
}

double BearingDeg(const LatLon& a, const LatLon& b) {
  const double phi1 = a.lat * kDegToRad;
  const double phi2 = b.lat * kDegToRad;
  const double dlam = (b.lon - a.lon) * kDegToRad;
  const double y = std::sin(dlam) * std::cos(phi2);
  const double x = std::cos(phi1) * std::sin(phi2) - std::sin(phi1) * std::cos(phi2) * std::cos(dlam);
  double deg = std::atan2(y, x) * kRadToDeg;
  if (deg < 0) deg += 360.0;
  return deg;
}

LatLon Offset(const LatLon& origin, double distance_m, double bearing_deg) {
  const double delta = distance_m / kEarthRadiusM;
  const double theta = bearing_deg * kDegToRad;
  const double phi1 = origin.lat * kDegToRad;
  const double lam1 = origin.lon * kDegToRad;
  const double phi2 = std::asin(std::sin(phi1) * std::cos(delta) +
                                std::cos(phi1) * std::sin(delta) * std::cos(theta));
  const double lam2 = lam1 + std::atan2(std::sin(theta) * std::sin(delta) * std::cos(phi1),
                                        std::cos(delta) - std::sin(phi1) * std::sin(phi2));
  return {phi2 * kRadToDeg, lam2 * kRadToDeg};
}

LatLon EnuFrame::FromEnu(const Enu& e) const {
  LatLon p;
  p.lat = origin_.lat + (e.north / kEarthRadiusM) * kRadToDeg;
  p.lon = origin_.lon + (e.east / (kEarthRadiusM * cos_lat_)) * kRadToDeg;
  return p;
}

BBox BBox::Around(const LatLon& center, double radius_m) {
  const double dlat = (radius_m / kEarthRadiusM) * kRadToDeg;
  const double cos_lat = std::max(0.01, std::cos(center.lat * kDegToRad));
  const double dlon = dlat / cos_lat;
  return {center.lat - dlat, center.lon - dlon, center.lat + dlat, center.lon + dlon};
}

}  // namespace arbd::geo
