//! The paper's spherical steering convention (Eq. 5).

use crate::Vec3;

/// A steered line-of-sight direction, following Eq. 5 of the paper:
///
/// ```text
/// S = (r·cosφ·sinθ,  r·sinφ,  r·cosφ·cosθ)
/// ```
///
/// `θ` (azimuth) rotates the line of sight in the X–Z plane and `φ`
/// (elevation) lifts it toward the Y axis. Both are in radians. The
/// unsteered reference scanline is `θ = φ = 0`, i.e. straight down the
/// `+z` axis.
///
/// ```
/// use usbf_geometry::SphericalDirection;
/// let d = SphericalDirection::new(0.0, 0.0);
/// let p = d.point_at(0.1);
/// assert!((p.z - 0.1).abs() < 1e-15 && p.x == 0.0 && p.y == 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SphericalDirection {
    /// Azimuth steering angle θ in radians.
    pub theta: f64,
    /// Elevation steering angle φ in radians.
    pub phi: f64,
}

/// Eq. 5's unit vector from `(sin θ, cos θ)` and `(sin φ, cos φ)` — the
/// one definition behind [`SphericalDirection::unit`] and the volume
/// grid's cached focal-point positions, so both produce identical bits.
#[inline]
pub(crate) fn unit_from_sin_cos((st, ct): (f64, f64), (sp, cp): (f64, f64)) -> Vec3 {
    Vec3::new(cp * st, sp, cp * ct)
}

impl SphericalDirection {
    /// Creates a direction from azimuth `theta` and elevation `phi`
    /// (radians).
    #[inline]
    pub const fn new(theta: f64, phi: f64) -> Self {
        SphericalDirection { theta, phi }
    }

    /// The unsteered reference direction along `+z`.
    pub const REFERENCE: SphericalDirection = SphericalDirection {
        theta: 0.0,
        phi: 0.0,
    };

    /// Unit vector of this direction per Eq. 5.
    #[inline]
    pub fn unit(self) -> Vec3 {
        unit_from_sin_cos(self.theta.sin_cos(), self.phi.sin_cos())
    }

    /// The point at distance `r` (metres) from the origin along this
    /// direction — the focal point `S` of Eq. 5.
    #[inline]
    pub fn point_at(self, r: f64) -> Vec3 {
        self.unit() * r
    }

    /// Recovers `(θ, φ, r)` from a Cartesian point, inverting Eq. 5.
    ///
    /// Returns `None` for the origin, whose direction is undefined.
    pub fn from_point(p: Vec3) -> Option<(SphericalDirection, f64)> {
        let r = p.norm();
        if r == 0.0 {
            return None;
        }
        let phi = (p.y / r).asin();
        let theta = p.x.atan2(p.z);
        Some((SphericalDirection::new(theta, phi), r))
    }

    /// The steering-plane coefficients of Eq. 7: the per-element correction
    /// is `-(xD·a + yD·b)/c` with `a = cosφ·sinθ` and `b = sinφ`.
    #[inline]
    pub fn steering_coefficients(self) -> (f64, f64) {
        (self.phi.cos() * self.theta.sin(), self.phi.sin())
    }
}

impl Default for SphericalDirection {
    fn default() -> Self {
        Self::REFERENCE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deg;

    #[test]
    fn reference_points_down_z() {
        let u = SphericalDirection::REFERENCE.unit();
        assert_eq!(u, Vec3::new(0.0, 0.0, 1.0));
    }

    #[test]
    fn unit_has_unit_norm_everywhere() {
        for &t in &[-0.6, -0.2, 0.0, 0.3, 0.63] {
            for &p in &[-0.6, 0.0, 0.5] {
                let u = SphericalDirection::new(t, p).unit();
                assert!((u.norm() - 1.0).abs() < 1e-14, "θ={t} φ={p}");
            }
        }
    }

    #[test]
    fn eq5_components_match() {
        let theta = deg(20.0);
        let phi = deg(-15.0);
        let r = 0.08;
        let s = SphericalDirection::new(theta, phi).point_at(r);
        assert!((s.x - r * phi.cos() * theta.sin()).abs() < 1e-15);
        assert!((s.y - r * phi.sin()).abs() < 1e-15);
        assert!((s.z - r * phi.cos() * theta.cos()).abs() < 1e-15);
    }

    #[test]
    fn from_point_inverts_point_at() {
        let d = SphericalDirection::new(deg(25.0), deg(-30.0));
        let r = 0.12;
        let (d2, r2) = SphericalDirection::from_point(d.point_at(r)).unwrap();
        assert!((d2.theta - d.theta).abs() < 1e-12);
        assert!((d2.phi - d.phi).abs() < 1e-12);
        assert!((r2 - r).abs() < 1e-15);
    }

    #[test]
    fn from_point_rejects_origin() {
        assert!(SphericalDirection::from_point(Vec3::ZERO).is_none());
    }

    #[test]
    fn steering_coefficients_match_eq7() {
        let d = SphericalDirection::new(deg(30.0), deg(10.0));
        let (a, b) = d.steering_coefficients();
        assert!((a - deg(10.0).cos() * deg(30.0).sin()).abs() < 1e-15);
        assert!((b - deg(10.0).sin()).abs() < 1e-15);
    }

    #[test]
    fn steering_coefficients_zero_when_unsteered() {
        let (a, b) = SphericalDirection::REFERENCE.steering_coefficients();
        assert_eq!((a, b), (0.0, 0.0));
    }

    #[test]
    fn distance_preserved_under_steering() {
        // |S| == r for any steering: the table-steering identity requires
        // R and S to be equidistant from the origin.
        let r = 0.0925;
        for &t in &[-0.5, 0.0, 0.4] {
            for &p in &[-0.3, 0.0, 0.6] {
                let s = SphericalDirection::new(t, p).point_at(r);
                assert!((s.norm() - r).abs() < 1e-15);
            }
        }
    }
}
