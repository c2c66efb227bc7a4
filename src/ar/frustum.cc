#include "ar/frustum.h"

#include <cmath>

namespace arbd::ar {
namespace {
constexpr double kDegToRad = M_PI / 180.0;
constexpr double kRadToDeg = 180.0 / M_PI;
}  // namespace

double CameraIntrinsics::fov_v_deg() const {
  const double half_h = std::tan(fov_h_deg * kDegToRad / 2.0);
  return 2.0 * std::atan(half_h / AspectRatio()) * kRadToDeg;
}

CameraView::CameraView(const PoseEstimate& pose, CameraIntrinsics intrinsics)
    : pose_(pose), intr_(intrinsics) {
  const double yaw = pose.yaw_deg * kDegToRad;
  cos_yaw_ = std::cos(yaw);
  sin_yaw_ = std::sin(yaw);
  tan_half_h_ = std::tan(intr_.fov_h_deg * kDegToRad / 2.0);
  tan_half_v_ = tan_half_h_ / intr_.AspectRatio();
  half_width_px_ = intr_.width_px / 2.0;
  half_height_px_ = intr_.height_px / 2.0;
  focal_px_ = half_width_px_ / tan_half_h_;
}

std::optional<ScreenPoint> CameraView::Project(double east, double north, double up,
                                               double margin_px) const {
  const CameraPoint p = ToCamera(east, north, up, margin_px);
  if (!p.in_view) return std::nullopt;
  return ScreenPoint{p.x, p.y, p.Depth()};
}

bool CameraView::InFrustum(double east, double north, double up) const {
  return Project(east, north, up).has_value();
}

}  // namespace arbd::ar
