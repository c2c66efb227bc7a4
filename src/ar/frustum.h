// Camera model and projection: world (ENU) → screen pixels, plus the
// view-frustum test that decides which anchors are candidates for display
// this frame.
#pragma once

#include <cmath>
#include <optional>

#include "ar/linalg.h"
#include "ar/tracker.h"

namespace arbd::ar {

struct CameraIntrinsics {
  double fov_h_deg = 70.0;  // horizontal field of view
  int width_px = 1920;
  int height_px = 1080;

  double AspectRatio() const {
    return static_cast<double>(width_px) / static_cast<double>(height_px);
  }
  double fov_v_deg() const;
};

struct ScreenPoint {
  double x = 0.0;        // pixels, origin top-left
  double y = 0.0;
  double depth_m = 0.0;  // distance along the view ray
};

// A world point in the camera frame, before the frustum decision.
struct CameraPoint {
  double de = 0.0, dn = 0.0, du = 0.0;  // world delta from the eye
  double x = 0.0, y = 0.0;              // pixels; meaningful only if in_view
  bool in_view = false;

  double Depth() const { return std::sqrt(de * de + dn * dn + du * du); }
};

// View defined by a pose estimate (position + yaw; pitch assumed level,
// which matches handheld browsing) and intrinsics.
class CameraView {
 public:
  CameraView(const PoseEstimate& pose, CameraIntrinsics intrinsics);

  // The projection arithmetic: Project and the occlusion classifier's
  // kernel both go through it, so their visibility and screen points agree
  // bit for bit. Branch-free, so the kernel's loop vectorizes: x and y are
  // computed even behind the eye, and the frustum test is negated
  // comparisons joined by `&` (a NaN coordinate fails no comparison, so it
  // stays in view).
  CameraPoint ToCamera(double east, double north, double up, double margin_px) const {
    // World delta → camera frame. Camera looks along +forward (heading),
    // +right is 90° clockwise from heading, +up is vertical.
    CameraPoint p;
    p.de = east - pose_.east;
    p.dn = north - pose_.north;
    p.du = up - pose_.up;
    const double forward = p.de * sin_yaw_ + p.dn * cos_yaw_;
    const double right = p.de * cos_yaw_ - p.dn * sin_yaw_;
    p.x = half_width_px_ + focal_px_ * (right / forward);
    p.y = half_height_px_ - focal_px_ * (p.du / forward);
    p.in_view = !(forward < 0.1) &  // behind or at the eye
                !(p.x < -margin_px) & !(p.x > intr_.width_px + margin_px) &
                !(p.y < -margin_px) & !(p.y > intr_.height_px + margin_px);
    return p;
  }

  // Projects a world ENU point (east, north, up). nullopt if behind the
  // camera or outside the frustum (with `margin_px` slack so labels near
  // the edge can still be laid out).
  std::optional<ScreenPoint> Project(double east, double north, double up,
                                     double margin_px = 0.0) const;

  // Pure visibility predicate (no projection math returned).
  bool InFrustum(double east, double north, double up) const;

  const PoseEstimate& pose() const { return pose_; }
  const CameraIntrinsics& intrinsics() const { return intr_; }

 private:
  PoseEstimate pose_;
  CameraIntrinsics intr_;
  double cos_yaw_, sin_yaw_;
  double tan_half_h_, tan_half_v_;
  double focal_px_;
  double half_width_px_, half_height_px_;
};

}  // namespace arbd::ar
