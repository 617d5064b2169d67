//! Minimal dense linear algebra.
//!
//! The complexity measures operate on two-dimensional `[CS, JS]` feature
//! vectors (the paper fixes this representation in Section III-B), so the
//! only "heavy" operation required is a 2×2 solve for the directional Fisher
//! ratio. General vector helpers serve the embedding and neural-network
//! crates, which store vectors as plain `Vec<f32>`/`Vec<f64>` per the
//! perf-book guidance (flat contiguous buffers, no small-matrix crates).

/// Dot product of equal-length `f64` slices.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Dot product of equal-length `f32` slices (hot path: embeddings).
#[inline]
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm.
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Euclidean norm (`f32`).
#[inline]
pub fn norm_f32(a: &[f32]) -> f32 {
    dot_f32(a, a).sqrt()
}

/// Cosine similarity of two vectors; `0.0` if either has zero norm.
pub fn cosine(a: &[f64], b: &[f64]) -> f64 {
    let na = norm(a);
    let nb = norm(b);
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
    }
}

/// Cosine similarity (`f32`); `0.0` if either has zero norm.
#[inline]
pub fn cosine_f32(a: &[f32], b: &[f32]) -> f32 {
    let na = norm_f32(a);
    let nb = norm_f32(b);
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        (dot_f32(a, b) / (na * nb)).clamp(-1.0, 1.0)
    }
}

/// Symmetric 2×2 matrix `[[a, b], [b, c]]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sym2 {
    pub a: f64,
    pub b: f64,
    pub c: f64,
}

impl Sym2 {
    /// Determinant.
    pub fn det(&self) -> f64 {
        self.a * self.c - self.b * self.b
    }

    /// Solves `M x = rhs`. Falls back to a ridge-regularized solve when the
    /// matrix is (near-)singular, which happens for degenerate classes whose
    /// two features are perfectly correlated.
    pub fn solve(&self, rhs: [f64; 2]) -> [f64; 2] {
        let mut a = self.a;
        let mut c = self.c;
        let b = self.b;
        let mut det = self.det();
        if det.abs() < 1e-12 {
            let ridge = 1e-9 + 1e-6 * (a.abs() + c.abs());
            a += ridge;
            c += ridge;
            det = a * c - b * b;
        }
        [
            (c * rhs[0] - b * rhs[1]) / det,
            (a * rhs[1] - b * rhs[0]) / det,
        ]
    }

    /// Quadratic form `x^T M x`.
    pub fn quad(&self, x: [f64; 2]) -> f64 {
        self.a * x[0] * x[0] + 2.0 * self.b * x[0] * x[1] + self.c * x[1] * x[1]
    }
}

/// Per-dimension mean of a set of 2-D points.
pub fn mean2(points: &[[f64; 2]]) -> [f64; 2] {
    if points.is_empty() {
        return [0.0, 0.0];
    }
    let n = points.len() as f64;
    let mut m = [0.0, 0.0];
    for p in points {
        m[0] += p[0];
        m[1] += p[1];
    }
    [m[0] / n, m[1] / n]
}

/// Scatter (covariance × n) matrix of 2-D points around their mean.
pub fn scatter2(points: &[[f64; 2]]) -> Sym2 {
    let m = mean2(points);
    let mut s = Sym2 {
        a: 0.0,
        b: 0.0,
        c: 0.0,
    };
    for p in points {
        let dx = p[0] - m[0];
        let dy = p[1] - m[1];
        s.a += dx * dx;
        s.b += dx * dy;
        s.c += dy * dy;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn cosine_special_cases() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-12);
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
    }

    #[test]
    fn sym2_solve_roundtrip() {
        let m = Sym2 {
            a: 4.0,
            b: 1.0,
            c: 3.0,
        };
        let x = m.solve([5.0, 4.0]);
        let back = [4.0 * x[0] + 1.0 * x[1], 1.0 * x[0] + 3.0 * x[1]];
        assert!((back[0] - 5.0).abs() < 1e-9);
        assert!((back[1] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn sym2_singular_does_not_blow_up() {
        let m = Sym2 {
            a: 1.0,
            b: 1.0,
            c: 1.0,
        }; // det = 0
        let x = m.solve([1.0, 1.0]);
        assert!(x[0].is_finite() && x[1].is_finite());
    }

    #[test]
    fn scatter_of_axis_points() {
        let pts = [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]];
        let s = scatter2(&pts);
        assert_eq!(mean2(&pts), [1.0, 1.0]);
        assert_eq!(s.a, 4.0);
        assert_eq!(s.c, 4.0);
        assert_eq!(s.b, 0.0);
    }
}
