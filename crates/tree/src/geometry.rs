//! Points, bounding boxes and point-cloud generators.
//!
//! All geometry is embedded in 3-D (`[f64; 3]`); 1-D/2-D problems simply use
//! constant trailing coordinates. The admissibility condition of the paper
//! (eq. (1)) is evaluated on axis-aligned bounding boxes via their diameters
//! and pairwise distance.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A point in (up to) three dimensions.
pub type Point = [f64; 3];

/// Axis-aligned bounding box.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BBox {
    pub min: Point,
    pub max: Point,
}

impl BBox {
    /// Empty box ready for [`BBox::expand`].
    pub fn empty() -> Self {
        BBox {
            min: [f64::INFINITY; 3],
            max: [f64::NEG_INFINITY; 3],
        }
    }

    /// Smallest box containing all `points`.
    pub fn of_points(points: &[Point]) -> Self {
        let mut b = BBox::empty();
        for p in points {
            b.expand(p);
        }
        b
    }

    pub fn expand(&mut self, p: &Point) {
        for d in 0..3 {
            self.min[d] = self.min[d].min(p[d]);
            self.max[d] = self.max[d].max(p[d]);
        }
    }

    /// Euclidean diameter of the box.
    pub fn diameter(&self) -> f64 {
        let mut s = 0.0;
        for d in 0..3 {
            let w = (self.max[d] - self.min[d]).max(0.0);
            s += w * w;
        }
        s.sqrt()
    }

    /// Widest axis (the KD split dimension).
    pub fn widest_axis(&self) -> usize {
        let mut best = 0;
        let mut w = f64::NEG_INFINITY;
        for d in 0..3 {
            let wd = self.max[d] - self.min[d];
            if wd > w {
                w = wd;
                best = d;
            }
        }
        best
    }

    /// Euclidean distance between two boxes (0 when they touch/overlap).
    pub fn distance(&self, other: &BBox) -> f64 {
        let mut s = 0.0;
        for d in 0..3 {
            let gap = (self.min[d] - other.max[d])
                .max(other.min[d] - self.max[d])
                .max(0.0);
            s += gap * gap;
        }
        s.sqrt()
    }
}

/// Euclidean distance between two points.
pub fn dist(a: &Point, b: &Point) -> f64 {
    let dx = a[0] - b[0];
    let dy = a[1] - b[1];
    let dz = a[2] - b[2];
    (dx * dx + dy * dy + dz * dz).sqrt()
}

/// `n` i.i.d. uniform points in the unit cube (the paper's test geometry).
pub fn uniform_cube(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            [
                rng.random::<f64>(),
                rng.random::<f64>(),
                rng.random::<f64>(),
            ]
        })
        .collect()
}

/// Regular `k x k x k` grid in the unit cube (`n = k^3` points).
pub fn grid_cube(k: usize) -> Vec<Point> {
    let h = 1.0 / k.max(1) as f64;
    let mut pts = Vec::with_capacity(k * k * k);
    for z in 0..k {
        for y in 0..k {
            for x in 0..k {
                pts.push([
                    (x as f64 + 0.5) * h,
                    (y as f64 + 0.5) * h,
                    (z as f64 + 0.5) * h,
                ]);
            }
        }
    }
    pts
}

/// Regular `kx x ky` grid on the z=0 plane (separator geometry for the
/// frontal-matrix experiments).
pub fn grid_plane(kx: usize, ky: usize) -> Vec<Point> {
    let hx = 1.0 / kx.max(1) as f64;
    let hy = 1.0 / ky.max(1) as f64;
    let mut pts = Vec::with_capacity(kx * ky);
    for y in 0..ky {
        for x in 0..kx {
            pts.push([(x as f64 + 0.5) * hx, (y as f64 + 0.5) * hy, 0.0]);
        }
    }
    pts
}

/// `n` i.i.d. uniform points on the unit sphere surface (boundary-element
/// style geometry for extra examples/tests).
pub fn uniform_sphere(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            // Marsaglia rejection sampling.
            loop {
                let x = 2.0 * rng.random::<f64>() - 1.0;
                let y = 2.0 * rng.random::<f64>() - 1.0;
                let s = x * x + y * y;
                if s < 1.0 {
                    let t = 2.0 * (1.0 - s).sqrt();
                    return [x * t, y * t, 1.0 - 2.0 * s];
                }
            }
        })
        .collect()
}

/// `n` points in Gaussian blobs centered at random sites in the unit cube —
/// strongly non-uniform density, the stress case for KD clustering and
/// admissibility (real spatial-statistics data is clustered, not uniform).
pub fn clustered_blobs(n: usize, blobs: usize, spread: f64, seed: u64) -> Vec<Point> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let blobs = blobs.max(1);
    let centers: Vec<Point> = (0..blobs)
        .map(|_| {
            [
                rng.random::<f64>(),
                rng.random::<f64>(),
                rng.random::<f64>(),
            ]
        })
        .collect();
    (0..n)
        .map(|i| {
            let c = centers[i % blobs];
            let mut p = [0.0; 3];
            for (d, pd) in p.iter_mut().enumerate() {
                // Box-Muller normal deviate.
                let u1: f64 = rng.random::<f64>().max(1e-12);
                let u2: f64 = rng.random();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                *pd = c[d] + spread * z;
            }
            p
        })
        .collect()
}

/// `n` points on an annulus `r_in ≤ r ≤ r_out` in the z = 0 plane —
/// 2-D boundary-style geometry with a hole.
pub fn annulus(n: usize, r_in: f64, r_out: f64, seed: u64) -> Vec<Point> {
    assert!(
        r_in >= 0.0 && r_out > r_in,
        "annulus radii must satisfy 0 <= r_in < r_out"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let theta = 2.0 * std::f64::consts::PI * rng.random::<f64>();
            // Area-uniform radius.
            let u: f64 = rng.random();
            let r = (r_in * r_in + u * (r_out * r_out - r_in * r_in)).sqrt();
            [r * theta.cos(), r * theta.sin(), 0.0]
        })
        .collect()
}

/// `n` uniform points in an anisotropic box `[0,sx]×[0,sy]×[0,sz]` —
/// stretched geometry exercising the widest-axis KD splits.
pub fn anisotropic_box(n: usize, scales: [f64; 3], seed: u64) -> Vec<Point> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            [
                scales[0] * rng.random::<f64>(),
                scales[1] * rng.random::<f64>(),
                scales[2] * rng.random::<f64>(),
            ]
        })
        .collect()
}

/// `n` points along a helix of `turns` turns — intrinsically 1-D geometry
/// embedded in 3-D (curve-like discretizations: wires, filaments).
pub fn helix(n: usize, turns: f64, radius: f64, height: f64) -> Vec<Point> {
    (0..n)
        .map(|i| {
            let t = i as f64 / n.max(1) as f64;
            let theta = 2.0 * std::f64::consts::PI * turns * t;
            [radius * theta.cos(), radius * theta.sin(), height * t]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bbox_contains_points() {
        let pts = uniform_cube(100, 1);
        let b = BBox::of_points(&pts);
        for p in &pts {
            for d in 0..3 {
                assert!(p[d] >= b.min[d] && p[d] <= b.max[d]);
            }
        }
    }

    #[test]
    fn bbox_distance_zero_when_overlapping() {
        let a = BBox {
            min: [0.0; 3],
            max: [1.0; 3],
        };
        let b = BBox {
            min: [0.5, 0.5, 0.5],
            max: [2.0; 3],
        };
        assert_eq!(a.distance(&b), 0.0);
    }

    #[test]
    fn bbox_distance_axis_separated() {
        let a = BBox {
            min: [0.0; 3],
            max: [1.0; 3],
        };
        let b = BBox {
            min: [3.0, 0.0, 0.0],
            max: [4.0, 1.0, 1.0],
        };
        assert!((a.distance(&b) - 2.0).abs() < 1e-15);
    }

    #[test]
    fn diameter_of_unit_cube() {
        let b = BBox {
            min: [0.0; 3],
            max: [1.0; 3],
        };
        assert!((b.diameter() - 3.0_f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn widest_axis_detected() {
        let b = BBox {
            min: [0.0; 3],
            max: [1.0, 5.0, 2.0],
        };
        assert_eq!(b.widest_axis(), 1);
    }

    #[test]
    fn generators_have_right_counts() {
        assert_eq!(uniform_cube(17, 2).len(), 17);
        assert_eq!(grid_cube(4).len(), 64);
        assert_eq!(grid_plane(5, 7).len(), 35);
        assert_eq!(uniform_sphere(23, 3).len(), 23);
    }

    #[test]
    fn sphere_points_on_surface() {
        for p in uniform_sphere(50, 4) {
            let r = (p[0] * p[0] + p[1] * p[1] + p[2] * p[2]).sqrt();
            assert!((r - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn blobs_cluster_around_centers() {
        let pts = clustered_blobs(300, 3, 0.01, 5);
        assert_eq!(pts.len(), 300);
        // With spread 0.01, the bounding box of each blob's points is tiny;
        // points of the same blob (stride 3) stay close together.
        for i in (0..270).step_by(3) {
            assert!(dist(&pts[i], &pts[i + 3]) < 0.2, "blob scatter too large");
        }
    }

    #[test]
    fn annulus_respects_radii() {
        for p in annulus(200, 0.5, 1.0, 6) {
            let r = (p[0] * p[0] + p[1] * p[1]).sqrt();
            assert!(
                (0.5 - 1e-12..=1.0 + 1e-12).contains(&r),
                "radius {r} outside annulus"
            );
            assert_eq!(p[2], 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "annulus radii")]
    fn annulus_rejects_bad_radii() {
        annulus(10, 1.0, 0.5, 7);
    }

    #[test]
    fn anisotropic_box_respects_scales() {
        let pts = anisotropic_box(100, [10.0, 1.0, 0.1], 8);
        let b = BBox::of_points(&pts);
        assert!(b.max[0] <= 10.0 && b.max[1] <= 1.0 && b.max[2] <= 0.1);
        // KD tree must split the long axis first.
        assert_eq!(b.widest_axis(), 0);
    }

    #[test]
    fn helix_is_a_curve() {
        let pts = helix(100, 3.0, 1.0, 2.0);
        assert_eq!(pts.len(), 100);
        // Consecutive points are close (curve continuity).
        for w in pts.windows(2) {
            assert!(dist(&w[0], &w[1]) < 0.3);
        }
        // Height increases monotonically.
        for w in pts.windows(2) {
            assert!(w[1][2] >= w[0][2]);
        }
    }
}
