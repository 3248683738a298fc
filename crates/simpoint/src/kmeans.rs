//! Weighted k-means with k-means++ seeding, and the BIC model-selection
//! score.
//!
//! # Exactness of the fast Lloyd loop
//!
//! [`kmeans`] runs plain Lloyd iteration — assignment by a full scan
//! with strict `<` (ties go to the lowest centroid index), weighted-mean
//! update, empty clusters reseeded at the farthest point — for at most
//! 100 iterations. Two shortcuts make it do far less work while
//! returning a bit-identical [`Clustering`]: the same assignments,
//! centroid and distortion bits, `iterations` and `converged`. A test
//! oracle keeps the plain loop and compares the two bit for bit.
//!
//! **Cycle detection.** One iteration is a pure function of the state
//! `(assignments, centroids)`. When an input has fewer distinct points
//! than `k`, the reseed stacks duplicate centroids on an occupied point
//! and the lowest-index tie-break moves points back and forth between
//! them: the state cycles and the plain loop burns all 100 iterations.
//! Brent's algorithm runs over the state after each iteration from
//! iteration 1 on, keeping one snapshot compared bitwise
//! (`f64::to_bits`). Iteration 0 is left out because its "no change"
//! does not stop the loop, so a repeat of its state is not a cycle the
//! loop is stuck in. Every state of a cycle found after iteration 1 has
//! already failed the convergence test, so the loop can never converge
//! in it. On finding period `p` after iteration `t`, only
//! `(100 − t) mod p` more iterations run; they land on exactly the
//! state the capped loop ends in, which is returned with
//! `iterations = 100` and `converged = false`.
//!
//! **Hamerly bounds.** Per point, an upper bound on the distance to its
//! centroid and a lower bound on the distance to every other centroid;
//! per centroid, half the distance to its nearest other centroid
//! (`half_sep`). After each update step (reseeds included) the bounds
//! move by how far each centroid moved. A point keeps its centroid
//! without a scan only when `upper + tol < max(half_sep[a], lower)`,
//! with `tol = 1e-9·R` and `R = max‖pᵢ‖`. That is safe because:
//!
//! * centroids are non-negative-weighted means or copies of points, so
//!   every distance is at most `2R`;
//! * the rounding error of a bound after at most 100 updates, and of a
//!   computed squared distance, is orders of magnitude below `tol`, so
//!   a skipped point's centroid wins the full scan's comparisons by a
//!   margin no rounding can flip;
//! * duplicate centroids give `half_sep = 0` and `lower ≤ upper`, so
//!   their points are never skipped and the tie-break still happens in
//!   the full scan.
//!
//! Every point that is not skipped gets the full scan: the same
//! left-to-right squared-distance summation and the same strict `<`.
//! Pruning is off when `R` is so large that a squared distance could
//! overflow, and from the first non-finite centroid on.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Result of one k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// Cluster index per point.
    pub assignments: Vec<usize>,
    /// Cluster centroids (k rows).
    pub centroids: Vec<Vec<f64>>,
    /// Weighted sum of squared distances to assigned centroids.
    pub distortion: f64,
    /// Lloyd iterations executed (assignment + update rounds).
    pub iterations: u64,
    /// Whether the assignment stabilized before the iteration cap.
    pub converged: bool,
}

impl Clustering {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Total weight per cluster.
    pub fn cluster_weights(&self, weights: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.k()];
        for (i, &c) in self.assignments.iter().enumerate() {
            out[c] += weights[i];
        }
        out
    }
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Errors from [`kmeans`]: input shapes a clustering cannot be defined
/// on. (Degenerate *values* — non-finite coordinates or weights — are
/// sanitized, not errors; see [`kmeans`].)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KmeansError {
    /// No points to cluster (an empty BBV set).
    NoPoints,
    /// `points` and `weights` lengths disagree.
    WeightCountMismatch {
        /// Number of points.
        points: usize,
        /// Number of weights.
        weights: usize,
    },
    /// `k` was zero.
    ZeroK,
    /// A point's dimensionality differs from the first point's.
    DimensionMismatch {
        /// Index of the offending point.
        index: usize,
        /// Dimensionality of the first point.
        expected: usize,
        /// Dimensionality found.
        found: usize,
    },
}

impl std::fmt::Display for KmeansError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KmeansError::NoPoints => write!(f, "kmeans needs at least one point"),
            KmeansError::WeightCountMismatch { points, weights } => {
                write!(f, "{points} points but {weights} weights")
            }
            KmeansError::ZeroK => write!(f, "k must be at least 1"),
            KmeansError::DimensionMismatch {
                index,
                expected,
                found,
            } => write!(
                f,
                "point {index} has {found} dimensions, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for KmeansError {}

/// Weighted Lloyd's algorithm with k-means++ initialization.
///
/// `points` are the (projected) interval vectors; `weights` are the
/// interval sizes in instructions (the SimPoint 3.0 VLI extension —
/// pass uniform weights for classic SimPoint 2.0). Runs until the
/// assignment is stable or 100 iterations. Deterministic in `seed`.
///
/// Degenerate inputs are tolerated rather than fatal: `k` is clamped to
/// the number of points, any dimension containing a non-finite
/// coordinate in *any* point is zeroed across all points (it carries no
/// usable distance information), and non-finite or negative weights are
/// treated as zero.
///
/// # Errors
///
/// Returns a [`KmeansError`] when `points` is empty, the `weights`
/// length disagrees, the points are ragged, or `k` is zero.
pub fn kmeans(
    points: &[Vec<f64>],
    weights: &[f64],
    k: usize,
    seed: u64,
) -> Result<Clustering, KmeansError> {
    if points.is_empty() {
        return Err(KmeansError::NoPoints);
    }
    if points.len() != weights.len() {
        return Err(KmeansError::WeightCountMismatch {
            points: points.len(),
            weights: weights.len(),
        });
    }
    if k == 0 {
        return Err(KmeansError::ZeroK);
    }
    let d = points[0].len();
    for (i, p) in points.iter().enumerate() {
        if p.len() != d {
            return Err(KmeansError::DimensionMismatch {
                index: i,
                expected: d,
                found: p.len(),
            });
        }
    }
    let k = k.min(points.len());
    let bad_dim: Vec<bool> = (0..d)
        .map(|j| points.iter().any(|p| !p[j].is_finite()))
        .collect();
    let bad_weight = weights.iter().any(|w| !w.is_finite() || *w < 0.0);
    if bad_weight || bad_dim.iter().any(|&b| b) {
        let pts: Vec<Vec<f64>> = points
            .iter()
            .map(|p| {
                p.iter()
                    .enumerate()
                    .map(|(j, &x)| if bad_dim[j] { 0.0 } else { x })
                    .collect()
            })
            .collect();
        let ws: Vec<f64> = weights
            .iter()
            .map(|&w| if w.is_finite() && w >= 0.0 { w } else { 0.0 })
            .collect();
        Ok(report(kmeans_unchecked(&pts, &ws, k, seed), points.len()))
    } else {
        Ok(report(
            kmeans_unchecked(points, weights, k, seed),
            points.len(),
        ))
    }
}

/// Emits the per-run convergence counter when a recorder is installed.
fn report((clustering, cycle_period): (Clustering, u64), n: usize) -> Clustering {
    if spm_obs::enabled() {
        spm_obs::counter_with(
            "simpoint/kmeans_iters",
            clustering.iterations,
            &[
                ("k", (clustering.k() as u64).into()),
                ("n", (n as u64).into()),
                ("converged", clustering.converged.into()),
                ("cycle_period", cycle_period.into()),
            ],
        );
    }
    clustering
}

/// Lloyd iteration cap.
const MAX_ITERS: u64 = 100;

/// The algorithm proper; inputs already validated and sanitized.
/// Returns the clustering and the period of the cycle the iteration
/// ended in (0 when there is none).
fn kmeans_unchecked(
    points: &[Vec<f64>],
    weights: &[f64],
    k: usize,
    seed: u64,
) -> (Clustering, u64) {
    lloyd(points, weights, seed_centroids(points, weights, k, seed))
}

/// k-means++ seeding (weighted by point weight * squared distance).
fn seed_centroids(points: &[Vec<f64>], weights: &[f64], k: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    let first = weighted_sample(&mut rng, weights);
    centroids.push(points[first].clone());
    let mut d2: Vec<f64> = points.iter().map(|p| sq_dist(p, &centroids[0])).collect();
    while centroids.len() < k {
        let scores: Vec<f64> = d2.iter().zip(weights).map(|(d, w)| d * w).collect();
        let total: f64 = scores.iter().sum();
        let next = if total <= 0.0 {
            // All points coincide with a centroid; take any.
            weighted_sample(&mut rng, weights)
        } else {
            weighted_sample(&mut rng, &scores)
        };
        centroids.push(points[next].clone());
        let newest = centroids.len() - 1;
        for (i, p) in points.iter().enumerate() {
            d2[i] = d2[i].min(sq_dist(p, &centroids[newest]));
        }
    }
    centroids
}

/// Lloyd's loop from the given centroids, with the two exact shortcuts
/// of the module docs: Hamerly bounds and cycle detection.
fn lloyd(points: &[Vec<f64>], weights: &[f64], mut centroids: Vec<Vec<f64>>) -> (Clustering, u64) {
    let mut assignments = vec![0usize; points.len()];
    let mut bounds = Bounds::new(points, centroids.len());
    let mut cycle = Cycle::default();
    let mut last = MAX_ITERS;
    let mut iterations = 0;
    let mut converged = false;
    while iterations < last {
        iterations += 1;
        let changed = bounds.assign(points, &centroids, &mut assignments);
        if !changed && iterations > 1 {
            converged = true;
            break;
        }
        let before = bounds.live.then(|| centroids.clone());
        update(points, weights, &assignments, &mut centroids);
        if let Some(before) = before {
            bounds.shift(&before, &centroids, &assignments);
        }
        if let Some(period) = cycle.observe(iterations, &assignments, &centroids) {
            // Only the iterations that land on the cap's state remain.
            last = iterations + (MAX_ITERS - iterations) % period;
        }
    }
    if cycle.period > 0 {
        iterations = MAX_ITERS;
    }

    let distortion = points
        .iter()
        .enumerate()
        .map(|(i, p)| weights[i] * sq_dist(p, &centroids[assignments[i]]))
        .sum();
    let clustering = Clustering {
        assignments,
        centroids,
        distortion,
        iterations,
        converged,
    };
    (clustering, cycle.period)
}

/// The full assignment scan of one point: the first centroid at minimum
/// squared distance (strict `<`, so ties go to the lowest index), that
/// distance, and the smallest squared distance to any other centroid.
fn nearest(p: &[f64], centroids: &[Vec<f64>]) -> (usize, f64, f64) {
    let (mut best, mut best_d, mut second_d) = (0, f64::INFINITY, f64::INFINITY);
    for (c, centroid) in centroids.iter().enumerate() {
        let dist = sq_dist(p, centroid);
        if dist < best_d {
            second_d = best_d;
            best_d = dist;
            best = c;
        } else if dist < second_d {
            second_d = dist;
        }
    }
    (best, best_d, second_d)
}

/// Update step: weighted means, then every empty cluster reseeded at
/// the point currently farthest from its assigned centroid (the last
/// such point on ties).
fn update(points: &[Vec<f64>], weights: &[f64], assignments: &[usize], centroids: &mut [Vec<f64>]) {
    let d = points[0].len();
    let mut sums = vec![vec![0.0; d]; centroids.len()];
    let mut wsum = vec![0.0; centroids.len()];
    for (i, p) in points.iter().enumerate() {
        let c = assignments[i];
        wsum[c] += weights[i];
        for (s, x) in sums[c].iter_mut().zip(p) {
            *s += weights[i] * x;
        }
    }
    for (c, centroid) in centroids.iter_mut().enumerate() {
        if wsum[c] > 0.0 {
            for (dst, s) in centroid.iter_mut().zip(&sums[c]) {
                *dst = s / wsum[c];
            }
        }
    }
    // Each point's distance is computed once; reseeding cluster `c`
    // refreshes only the points assigned to it (zero-weight points can
    // be assigned to an "empty" cluster).
    let mut far_d: Option<Vec<f64>> = None;
    for c in 0..centroids.len() {
        if wsum[c] > 0.0 {
            continue;
        }
        let far_d = far_d.get_or_insert_with(|| {
            points
                .iter()
                .zip(assignments)
                .map(|(p, &a)| sq_dist(p, &centroids[a]))
                .collect()
        });
        let far = (0..points.len())
            .max_by(|&a, &b| {
                far_d[a]
                    .partial_cmp(&far_d[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap_or(0);
        centroids[c] = points[far].clone();
        for (i, p) in points.iter().enumerate() {
            if assignments[i] == c {
                far_d[i] = sq_dist(p, &centroids[c]);
            }
        }
    }
}

/// Hamerly's bounds ("Making k-means even faster", SDM 2010), in
/// Euclidean (not squared) distance.
struct Bounds {
    /// Pruning is on: the points' scale cannot overflow a squared
    /// distance, and every centroid has stayed finite.
    live: bool,
    /// Skip margin, `1e-9 · max‖p‖`.
    tol: f64,
    /// Per point, at least the distance to its assigned centroid.
    upper: Vec<f64>,
    /// Per point, at most the distance to every other centroid.
    lower: Vec<f64>,
    /// Per centroid, half the distance to its nearest other centroid.
    half_sep: Vec<f64>,
}

impl Bounds {
    fn new(points: &[Vec<f64>], k: usize) -> Self {
        let radius = points
            .iter()
            .map(|p| p.iter().map(|x| x * x).sum::<f64>().sqrt())
            .fold(0.0, f64::max);
        Self {
            live: radius < 1e150,
            tol: 1e-9 * radius,
            upper: vec![f64::INFINITY; points.len()],
            lower: vec![0.0; points.len()],
            half_sep: vec![0.0; k],
        }
    }

    /// Assignment step; returns whether any assignment changed. A point
    /// whose bounds prove its centroid nearest by more than `tol` keeps
    /// it; every other point gets the full scan.
    fn assign(
        &mut self,
        points: &[Vec<f64>],
        centroids: &[Vec<f64>],
        assignments: &mut [usize],
    ) -> bool {
        if self.live {
            for (c, half) in self.half_sep.iter_mut().enumerate() {
                let nearest = centroids
                    .iter()
                    .enumerate()
                    .filter(|&(o, _)| o != c)
                    .map(|(_, other)| sq_dist(&centroids[c], other))
                    .fold(f64::INFINITY, f64::min);
                *half = 0.5 * nearest.sqrt();
            }
        }
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let a = assignments[i];
            if self.live {
                let bound = self.half_sep[a].max(self.lower[i]);
                if self.upper[i] + self.tol < bound {
                    continue;
                }
                self.upper[i] = sq_dist(p, &centroids[a]).sqrt();
                if self.upper[i] + self.tol < bound {
                    continue;
                }
            }
            let (best, best_d, second_d) = nearest(p, centroids);
            self.upper[i] = best_d.sqrt();
            self.lower[i] = second_d.sqrt();
            if best != a {
                assignments[i] = best;
                changed = true;
            }
        }
        changed
    }

    /// Loosens the bounds by how far each centroid moved in the update
    /// step (reseeds included).
    fn shift(&mut self, before: &[Vec<f64>], after: &[Vec<f64>], assignments: &[usize]) {
        if after.iter().flatten().any(|x| !x.is_finite()) {
            self.live = false;
            return;
        }
        let moved: Vec<f64> = before
            .iter()
            .zip(after)
            .map(|(b, a)| sq_dist(b, a).sqrt())
            .collect();
        // The largest move, its cluster, and the largest among the rest.
        let (mut top, mut first, mut second) = (0, 0.0, 0.0);
        for (c, &m) in moved.iter().enumerate() {
            if m > first {
                (top, first, second) = (c, m, first);
            } else if m > second {
                second = m;
            }
        }
        for (i, &a) in assignments.iter().enumerate() {
            self.upper[i] += moved[a];
            self.lower[i] -= if a == top { second } else { first };
        }
    }
}

/// Brent's cycle detection over the loop state `(assignments,
/// centroids)` after each iteration, starting at iteration 1. One
/// snapshot is kept and compared bitwise.
#[derive(Default)]
struct Cycle {
    assignments: Vec<usize>,
    centroid_bits: Vec<u64>,
    /// Iteration the snapshot was taken after.
    at: u64,
    /// Brent's power of two: the snapshot moves when `at` falls this far
    /// behind.
    power: u64,
    /// The cycle's period once found, else 0.
    period: u64,
}

impl Cycle {
    /// Records the state after iteration `t`; returns the period the
    /// first time the state repeats.
    fn observe(&mut self, t: u64, assignments: &[usize], centroids: &[Vec<f64>]) -> Option<u64> {
        if self.period > 0 {
            return None;
        }
        let bits = || centroids.iter().flatten().map(|x| x.to_bits());
        if t > 1 && self.assignments == assignments && self.centroid_bits.iter().copied().eq(bits())
        {
            self.period = t - self.at;
            return Some(self.period);
        }
        if t == 1 || t - self.at == self.power {
            self.assignments.clear();
            self.assignments.extend_from_slice(assignments);
            self.centroid_bits.clear();
            self.centroid_bits.extend(bits());
            self.power = if t == 1 { 1 } else { 2 * self.power };
            self.at = t;
        }
        None
    }
}

/// Lloyd's loop without any shortcut: the oracle the fast loop must
/// match bit for bit.
#[cfg(test)]
fn lloyd_reference(
    points: &[Vec<f64>],
    weights: &[f64],
    mut centroids: Vec<Vec<f64>>,
) -> Clustering {
    let n = points.len();
    let d = points[0].len();
    let mut assignments = vec![0usize; n];
    let mut iterations = 0u64;
    let mut converged = false;
    for _iter in 0..100 {
        iterations = _iter as u64 + 1;
        // Assignment step.
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let mut best = 0;
            let mut best_d = f64::INFINITY;
            for (c, centroid) in centroids.iter().enumerate() {
                let dist = sq_dist(p, centroid);
                if dist < best_d {
                    best_d = dist;
                    best = c;
                }
            }
            if assignments[i] != best {
                assignments[i] = best;
                changed = true;
            }
        }
        if !changed && _iter > 0 {
            converged = true;
            break;
        }
        // Update step (weighted means).
        let mut sums = vec![vec![0.0; d]; centroids.len()];
        let mut wsum = vec![0.0; centroids.len()];
        for (i, p) in points.iter().enumerate() {
            let c = assignments[i];
            wsum[c] += weights[i];
            for (s, x) in sums[c].iter_mut().zip(p) {
                *s += weights[i] * x;
            }
        }
        for (c, centroid) in centroids.iter_mut().enumerate() {
            if wsum[c] > 0.0 {
                for (dst, s) in centroid.iter_mut().zip(&sums[c]) {
                    *dst = s / wsum[c];
                }
            }
        }
        // Reseed any empty cluster at the point currently farthest from
        // its assigned centroid.
        for c in 0..centroids.len() {
            if wsum[c] > 0.0 {
                continue;
            }
            let far = (0..n)
                .max_by(|&a, &b| {
                    let da = sq_dist(&points[a], &centroids[assignments[a]]);
                    let db = sq_dist(&points[b], &centroids[assignments[b]]);
                    da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
                })
                .unwrap_or(0);
            centroids[c] = points[far].clone();
        }
    }

    let distortion = points
        .iter()
        .enumerate()
        .map(|(i, p)| weights[i] * sq_dist(p, &centroids[assignments[i]]))
        .sum();
    Clustering {
        assignments,
        centroids,
        distortion,
        iterations,
        converged,
    }
}

/// Samples an index proportionally to the given non-negative scores.
fn weighted_sample(rng: &mut SmallRng, scores: &[f64]) -> usize {
    let total: f64 = scores.iter().sum();
    if total <= 0.0 {
        return 0;
    }
    let mut target = rng.gen_range(0.0..total);
    for (i, &s) in scores.iter().enumerate() {
        if s <= 0.0 {
            continue;
        }
        if target < s {
            return i;
        }
        target -= s;
    }
    scores.len() - 1
}

/// Bayesian Information Criterion of a clustering, per SimPoint (the
/// x-means formulation): a spherical-Gaussian log-likelihood minus a
/// `(p / 2) ln n` complexity penalty with `p = k (d + 1)` free
/// parameters. Larger is better.
///
/// `weights` scale each point's contribution (uniform weights recover
/// the classic formula); they are normalized so the effective sample
/// size stays `n`.
pub fn bic(clustering: &Clustering, points: &[Vec<f64>], weights: &[f64]) -> f64 {
    let n = points.len() as f64;
    let d = points.first().map_or(0, Vec::len) as f64;
    let k = clustering.k() as f64;
    if n <= k || d == 0.0 {
        return f64::NEG_INFINITY;
    }
    let total_w: f64 = weights.iter().sum();
    if total_w <= 0.0 {
        return f64::NEG_INFINITY;
    }
    // Effective (weight-scaled) cluster sizes summing to n.
    let mut n_i = vec![0.0; clustering.k()];
    for (i, &c) in clustering.assignments.iter().enumerate() {
        n_i[c] += weights[i] / total_w * n;
    }
    // Variance estimate from the (weight-scaled) distortion.
    let sigma2 = (clustering.distortion / total_w * n / (d * (n - k))).max(1e-12);
    let mut log_l = -(n * d / 2.0) * (2.0 * std::f64::consts::PI * sigma2).ln() - d * (n - k) / 2.0;
    for &ni in &n_i {
        if ni > 0.0 {
            log_l += ni * (ni / n).ln();
        }
    }
    let p = k * (d + 1.0);
    log_l - p / 2.0 * n.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;

    fn blobs(per: usize, centers: &[(f64, f64)], spread: f64, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for &(cx, cy) in centers {
            for _ in 0..per {
                out.push(vec![
                    cx + rng.gen_range(-spread..spread),
                    cy + rng.gen_range(-spread..spread),
                ]);
            }
        }
        out
    }

    #[test]
    fn separates_clear_blobs() {
        let points = blobs(20, &[(0.0, 0.0), (10.0, 10.0)], 0.5, 1);
        let weights = vec![1.0; points.len()];
        let c = kmeans(&points, &weights, 2, 7).unwrap();
        // All of blob 1 in one cluster, all of blob 2 in the other.
        let first = c.assignments[0];
        assert!(c.assignments[..20].iter().all(|&a| a == first));
        assert!(c.assignments[20..].iter().all(|&a| a != first));
        assert!(c.distortion < 20.0);
    }

    #[test]
    fn k_one_centroid_is_weighted_mean() {
        let points = vec![vec![0.0], vec![10.0]];
        let weights = vec![3.0, 1.0];
        let c = kmeans(&points, &weights, 1, 0).unwrap();
        assert!((c.centroids[0][0] - 2.5).abs() < 1e-9);
    }

    #[test]
    fn k_clamped_to_n() {
        let points = vec![vec![0.0], vec![1.0]];
        let weights = vec![1.0, 1.0];
        let c = kmeans(&points, &weights, 10, 0).unwrap();
        assert!(c.k() <= 2);
        assert!(c.distortion < 1e-9);
    }

    #[test]
    fn deterministic_in_seed() {
        let points = blobs(15, &[(0.0, 0.0), (5.0, 5.0), (10.0, 0.0)], 1.0, 3);
        let weights = vec![1.0; points.len()];
        let a = kmeans(&points, &weights, 3, 11).unwrap();
        let b = kmeans(&points, &weights, 3, 11).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn heavy_weight_pulls_centroid() {
        let points = vec![vec![0.0], vec![1.0], vec![100.0]];
        let weights = vec![1.0, 1.0, 1000.0];
        let c = kmeans(&points, &weights, 1, 2).unwrap();
        assert!(c.centroids[0][0] > 90.0, "heavy point dominates the mean");
    }

    #[test]
    fn bic_prefers_true_k() {
        let points = blobs(30, &[(0.0, 0.0), (20.0, 0.0), (0.0, 20.0)], 0.8, 5);
        let weights = vec![1.0; points.len()];
        let scores: Vec<f64> = (1..=6)
            .map(|k| {
                let c = kmeans(&points, &weights, k, 13).unwrap();
                bic(&c, &points, &weights)
            })
            .collect();
        let best_k = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0
            + 1;
        assert!(
            (3..=4).contains(&best_k),
            "BIC best k = {best_k}, scores {scores:?}"
        );
        // And k=3 must beat k=1 decisively.
        assert!(scores[2] > scores[0]);
    }

    #[test]
    fn shape_errors_are_typed() {
        assert_eq!(kmeans(&[], &[], 2, 0), Err(KmeansError::NoPoints));
        assert_eq!(
            kmeans(&[vec![0.0]], &[1.0, 2.0], 1, 0),
            Err(KmeansError::WeightCountMismatch {
                points: 1,
                weights: 2
            })
        );
        assert_eq!(kmeans(&[vec![0.0]], &[1.0], 0, 0), Err(KmeansError::ZeroK));
        assert_eq!(
            kmeans(&[vec![0.0, 1.0], vec![0.0]], &[1.0, 1.0], 1, 0),
            Err(KmeansError::DimensionMismatch {
                index: 1,
                expected: 2,
                found: 1
            })
        );
        for e in [
            KmeansError::NoPoints,
            KmeansError::WeightCountMismatch {
                points: 1,
                weights: 2,
            },
            KmeansError::ZeroK,
            KmeansError::DimensionMismatch {
                index: 1,
                expected: 2,
                found: 1,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn nan_dimension_is_ignored_not_fatal() {
        // Dim 1 carries NaN for one point: it must be zeroed for all,
        // and clustering driven by dim 0 alone.
        let points = vec![
            vec![0.0, f64::NAN],
            vec![0.1, 5.0],
            vec![10.0, -3.0],
            vec![10.1, 2.0],
        ];
        let weights = vec![1.0; 4];
        let c = kmeans(&points, &weights, 2, 3).unwrap();
        assert_eq!(c.assignments[0], c.assignments[1]);
        assert_eq!(c.assignments[2], c.assignments[3]);
        assert_ne!(c.assignments[0], c.assignments[2]);
        assert!(c.centroids.iter().flatten().all(|x| x.is_finite()));
        assert!(c.distortion.is_finite());
    }

    #[test]
    fn non_finite_weights_are_treated_as_zero() {
        let points = vec![vec![0.0], vec![1.0], vec![100.0]];
        let weights = vec![1.0, 1.0, f64::NAN];
        let c = kmeans(&points, &weights, 1, 2).unwrap();
        // The NaN-weighted outlier must not drag the centroid.
        assert!(c.centroids[0][0] < 50.0, "centroid {}", c.centroids[0][0]);
        assert!(c.distortion.is_finite());
    }

    #[test]
    fn cluster_weights_sum_to_total() {
        let points = blobs(10, &[(0.0, 0.0), (9.0, 9.0)], 0.4, 8);
        let weights: Vec<f64> = (0..points.len()).map(|i| 1.0 + i as f64).collect();
        let c = kmeans(&points, &weights, 2, 4).unwrap();
        let cw = c.cluster_weights(&weights);
        let total: f64 = weights.iter().sum();
        assert!((cw.iter().sum::<f64>() - total).abs() < 1e-9);
    }

    /// Everything the fast loop must reproduce, with floats as bits.
    type Bits = (Vec<usize>, Vec<u64>, u64, u64, bool);

    fn bits(c: &Clustering) -> Bits {
        (
            c.assignments.clone(),
            c.centroids.iter().flatten().map(|x| x.to_bits()).collect(),
            c.distortion.to_bits(),
            c.iterations,
            c.converged,
        )
    }

    /// `kmeans` and the plain loop from the same seeding, as bits.
    fn fast_and_reference(
        points: &[Vec<f64>],
        weights: &[f64],
        k: usize,
        seed: u64,
    ) -> (Bits, Bits) {
        let fast = kmeans(points, weights, k, seed).unwrap();
        let seeds = seed_centroids(points, weights, k.min(points.len()), seed);
        (bits(&fast), bits(&lloyd_reference(points, weights, seeds)))
    }

    /// Weights in `0..10`, about one in five exactly zero.
    fn random_weights(rng: &mut SmallRng, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| {
                if rng.gen_range(0..5) == 0 {
                    0.0
                } else {
                    rng.gen_range(0.0..10.0)
                }
            })
            .collect()
    }

    /// `copies` of each of `distinct` random prototypes in `d`
    /// dimensions, in a shuffled order.
    fn repeated_prototypes(
        rng: &mut SmallRng,
        distinct: usize,
        copies: usize,
        d: usize,
    ) -> Vec<Vec<f64>> {
        let prototypes: Vec<Vec<f64>> = (0..distinct)
            .map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let mut points: Vec<Vec<f64>> = (0..distinct * copies)
            .map(|i| prototypes[i % distinct].clone())
            .collect();
        for i in (1..points.len()).rev() {
            points.swap(i, rng.gen_range(0..=i));
        }
        points
    }

    #[test]
    fn cycling_fit_matches_reference_at_the_cap() {
        // Fewer distinct points than k: the regime the cycle shortcut
        // exists for. The plain loop runs into the 100-iteration cap.
        let mut rng = SmallRng::seed_from_u64(27);
        let points = repeated_prototypes(&mut rng, 27, 300, 15);
        let weights: Vec<f64> = (0..points.len())
            .map(|_| rng.gen_range(1.0..100.0))
            .collect();
        let seeds = seed_centroids(&points, &weights, 50, 5);
        let (fast, period) = lloyd(&points, &weights, seeds.clone());
        assert_eq!(fast.iterations, 100);
        assert!(!fast.converged);
        assert!(period > 0, "the fit must end in a detected cycle");
        assert_eq!(
            bits(&fast),
            bits(&lloyd_reference(&points, &weights, seeds))
        );
    }

    proptest! {
        #[test]
        fn matches_reference_on_random_points(
            seed in 0u64..1_000_000,
            n in 1usize..160,
            d in 1usize..6,
            k in 1usize..12,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let points: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..d).map(|_| rng.gen_range(-5.0..5.0)).collect())
                .collect();
            let weights = random_weights(&mut rng, n);
            let (fast, reference) = fast_and_reference(&points, &weights, k, seed);
            prop_assert_eq!(fast, reference);
        }

        #[test]
        fn matches_reference_when_cycling(
            seed in 0u64..1_000_000,
            distinct in 1usize..=8,
            copies in 1usize..=400,
            extra_k in 1usize..12,
            zero_weights in any::<bool>(),
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let points = repeated_prototypes(&mut rng, distinct, copies, 4);
            let weights = if zero_weights {
                random_weights(&mut rng, points.len())
            } else {
                (0..points.len()).map(|_| rng.gen_range(1.0..10.0)).collect()
            };
            let (fast, reference) = fast_and_reference(&points, &weights, distinct + extra_k, seed);
            prop_assert_eq!(fast, reference);
        }

        #[test]
        fn matches_reference_at_k_one_and_k_n(seed in 0u64..1_000_000, n in 1usize..60) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let points: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..3).map(|_| rng.gen_range(0.0..1.0)).collect())
                .collect();
            let weights = random_weights(&mut rng, n);
            for k in [1, n] {
                let (fast, reference) = fast_and_reference(&points, &weights, k, seed);
                prop_assert_eq!(fast, reference);
            }
        }

        #[test]
        fn distortion_non_increasing_in_k(
            seed in 0u64..1000,
        ) {
            let points = blobs(12, &[(0.0, 0.0), (6.0, 3.0), (1.0, 8.0)], 1.5, seed);
            let weights = vec![1.0; points.len()];
            // Not strictly guaranteed for single runs of Lloyd, but with
            // k-means++ on these blobs larger k should never be much worse.
            let d2 = kmeans(&points, &weights, 2, seed).unwrap().distortion;
            let d6 = kmeans(&points, &weights, 6, seed).unwrap().distortion;
            prop_assert!(d6 <= d2 * 1.5 + 1e-9, "d2={d2}, d6={d6}");
        }

        #[test]
        fn assignments_pick_nearest_centroid(seed in 0u64..200) {
            let points = blobs(8, &[(0.0, 0.0), (10.0, 10.0)], 1.0, seed);
            let weights = vec![1.0; points.len()];
            let c = kmeans(&points, &weights, 2, seed).unwrap();
            for (i, p) in points.iter().enumerate() {
                let assigned = sq_dist(p, &c.centroids[c.assignments[i]]);
                for centroid in &c.centroids {
                    prop_assert!(assigned <= sq_dist(p, centroid) + 1e-9);
                }
            }
        }
    }
}
