//! Whole-program estimation from simulation points, and the 95%/99%
//! weight filters (paper Figures 11 and 12).

use crate::points::SimPoints;
use spm_stats::WeightedRunning;

/// Estimates a whole-program metric (e.g. CPI) from the simulation
/// points: the weighted sum of each cluster representative's value.
/// With filtered simulation points the weights are renormalized, as
/// SimPoint does.
pub fn estimate(values: &[f64], simpoints: &SimPoints) -> f64 {
    let coverage = simpoints.coverage();
    if coverage <= 0.0 {
        return 0.0;
    }
    simpoints
        .clusters
        .iter()
        .map(|c| c.weight * values[c.representative])
        .sum::<f64>()
        / coverage
}

/// The true weighted whole-program metric over all intervals.
pub fn true_weighted_mean(values: &[f64], weights: &[f64]) -> f64 {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    values.iter().zip(weights).map(|(v, w)| v * w).sum::<f64>() / total
}

/// Relative error `|est - truth| / truth` (absolute error when the truth
/// is zero).
pub fn relative_error(est: f64, truth: f64) -> f64 {
    if truth == 0.0 {
        (est - truth).abs()
    } else {
        ((est - truth) / truth).abs()
    }
}

/// SimPoint's coverage filter: keeps the heaviest clusters until at
/// least `fraction` of the execution weight is covered (the paper's
/// VLI 95% / 99% configurations; `1.0` keeps everything).
///
/// The kept clusters retain their original weights — [`estimate`]
/// renormalizes — and are ordered heaviest first. `assignments` are
/// remapped to the kept clusters' new indices; intervals of a dropped
/// cluster get `usize::MAX`, which [`cluster_covs`] and [`error_bound`]
/// skip.
pub fn filter_top(simpoints: &SimPoints, fraction: f64) -> SimPoints {
    let mut order: Vec<usize> = (0..simpoints.clusters.len()).collect();
    order.sort_by(|&a, &b| {
        simpoints.clusters[b]
            .weight
            .partial_cmp(&simpoints.clusters[a].weight)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut remap = vec![usize::MAX; simpoints.clusters.len()];
    let mut kept = Vec::new();
    let mut covered = 0.0;
    for c in order {
        if covered >= fraction && !kept.is_empty() {
            break;
        }
        remap[c] = kept.len();
        kept.push(simpoints.clusters[c]);
        covered += simpoints.clusters[c].weight;
    }
    let assignments = simpoints
        .assignments
        .iter()
        .map(|&a| remap.get(a).copied().unwrap_or(usize::MAX))
        .collect();
    SimPoints {
        k: kept.len(),
        assignments,
        clusters: kept,
    }
}

/// Total execution weight that must be simulated: the sum of the
/// representatives' interval lengths (in the same unit as `weights`,
/// i.e. instructions).
pub fn simulated_weight(weights: &[f64], simpoints: &SimPoints) -> f64 {
    simpoints
        .clusters
        .iter()
        .map(|c| weights[c.representative])
        .sum()
}

/// Per-cluster weighted CoV of a metric: how homogeneous each phase is
/// around its simulation point. High values flag clusters whose
/// representative cannot speak for its members (Perelman et al.'s
/// "statistically valid" simulation points use exactly this signal).
pub fn cluster_covs(values: &[f64], weights: &[f64], simpoints: &SimPoints) -> Vec<f64> {
    let mut accs = vec![WeightedRunning::new(); simpoints.clusters.len()];
    for (i, &c) in simpoints.assignments.iter().enumerate() {
        if c < accs.len() {
            accs[c].push(values[i], weights[i]);
        }
    }
    accs.iter().map(WeightedRunning::cov).collect()
}

/// An a-priori relative error bound for [`estimate`]: the
/// cluster-weight-weighted average of the per-cluster CoVs. When every
/// cluster is homogeneous this is near zero; the realized error of the
/// estimate is typically well below it.
pub fn error_bound(values: &[f64], weights: &[f64], simpoints: &SimPoints) -> f64 {
    let covs = cluster_covs(values, weights, simpoints);
    let coverage = simpoints.coverage();
    if coverage <= 0.0 {
        return 0.0;
    }
    simpoints
        .clusters
        .iter()
        .zip(&covs)
        .map(|(c, cov)| c.weight * cov)
        .sum::<f64>()
        / coverage
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::ClusterInfo;

    fn sample_simpoints() -> SimPoints {
        SimPoints {
            k: 3,
            assignments: vec![0, 0, 1, 2, 2, 2],
            clusters: vec![
                ClusterInfo {
                    representative: 0,
                    weight: 0.3,
                },
                ClusterInfo {
                    representative: 2,
                    weight: 0.1,
                },
                ClusterInfo {
                    representative: 4,
                    weight: 0.6,
                },
            ],
        }
    }

    #[test]
    fn estimate_weights_representatives() {
        let values = vec![1.0, 9.0, 2.0, 9.0, 3.0, 9.0];
        let sp = sample_simpoints();
        let est = estimate(&values, &sp);
        assert!((est - (0.3 * 1.0 + 0.1 * 2.0 + 0.6 * 3.0)).abs() < 1e-12);
    }

    #[test]
    fn perfect_phases_give_zero_error() {
        // Every interval in a cluster has the representative's value.
        let values = vec![1.0, 1.0, 2.0, 3.0, 3.0, 3.0];
        let weights = vec![1.5, 1.5, 1.0, 2.0, 2.0, 2.0];
        let sp = SimPoints {
            k: 3,
            assignments: vec![0, 0, 1, 2, 2, 2],
            clusters: vec![
                ClusterInfo {
                    representative: 0,
                    weight: 0.3,
                },
                ClusterInfo {
                    representative: 2,
                    weight: 0.1,
                },
                ClusterInfo {
                    representative: 3,
                    weight: 0.6,
                },
            ],
        };
        let truth = true_weighted_mean(&values, &weights);
        // Weights here match the fractions exactly: 3/10, 1/10, 6/10.
        assert!(relative_error(estimate(&values, &sp), truth) < 1e-12);
    }

    #[test]
    fn filter_keeps_heaviest() {
        let sp = sample_simpoints();
        let f = filter_top(&sp, 0.85);
        // Heaviest (0.6) + next (0.3) reach 0.9 >= 0.85.
        assert_eq!(f.k, 2);
        let weights: Vec<f64> = f.clusters.iter().map(|c| c.weight).collect();
        assert_eq!(weights, vec![0.6, 0.3]);
        // Full filter keeps everything.
        assert_eq!(filter_top(&sp, 1.0).k, 3);
    }

    #[test]
    fn filter_remaps_assignments_to_kept_clusters() {
        let sp = sample_simpoints();
        let f = filter_top(&sp, 0.85);
        // Kept: old cluster 2 (slot 0) and old cluster 0 (slot 1);
        // old cluster 1 is dropped.
        assert_eq!(f.assignments, vec![1, 1, usize::MAX, 0, 0, 0]);
        for (slot, info) in f.clusters.iter().enumerate() {
            assert_eq!(f.assignments[info.representative], slot);
        }
        // Filtering again keeps the dropped intervals dropped.
        assert_eq!(
            filter_top(&f, 0.5).assignments,
            vec![usize::MAX, usize::MAX, usize::MAX, 0, 0, 0]
        );
    }

    #[test]
    fn filtered_covs_match_the_unfiltered_clusters() {
        let sp = sample_simpoints();
        let values = vec![1.0, 3.0, 2.0, 5.0, 6.0, 7.0];
        let weights = vec![1.0, 2.0, 1.0, 1.0, 1.0, 3.0];
        let full = cluster_covs(&values, &weights, &sp);
        let f = filter_top(&sp, 0.85);
        assert_eq!(cluster_covs(&values, &weights, &f), vec![full[2], full[0]]);
        let bound = (0.6 * full[2] + 0.3 * full[0]) / 0.9;
        assert!((error_bound(&values, &weights, &f) - bound).abs() < 1e-12);
    }

    #[test]
    fn filter_always_keeps_at_least_one() {
        let sp = sample_simpoints();
        let f = filter_top(&sp, 0.0);
        assert_eq!(f.k, 1);
        assert_eq!(f.clusters[0].weight, 0.6);
    }

    #[test]
    fn estimate_renormalizes_after_filter() {
        let values = vec![1.0, 0.0, 2.0, 0.0, 3.0, 0.0];
        let sp = filter_top(&sample_simpoints(), 0.85);
        // Kept: weights 0.6 (value 3) and 0.3 (value 1); renormalized.
        let expect = (0.6 * 3.0 + 0.3 * 1.0) / 0.9;
        assert!((estimate(&values, &sp) - expect).abs() < 1e-12);
    }

    #[test]
    fn simulated_weight_sums_representatives() {
        let weights = vec![100.0, 1.0, 200.0, 1.0, 300.0, 1.0];
        assert_eq!(simulated_weight(&weights, &sample_simpoints()), 600.0);
    }

    #[test]
    fn relative_error_handles_zero_truth() {
        assert_eq!(relative_error(0.5, 0.0), 0.5);
        assert_eq!(relative_error(2.0, 4.0), 0.5);
    }

    #[test]
    fn true_weighted_mean_empty() {
        assert_eq!(true_weighted_mean(&[], &[]), 0.0);
    }

    #[test]
    fn cluster_covs_flag_heterogeneous_clusters() {
        let sp = sample_simpoints();
        // Cluster 0 = intervals {0, 1} with very different values;
        // cluster 2 = intervals {3, 4, 5} identical.
        let values = vec![1.0, 3.0, 2.0, 5.0, 5.0, 5.0];
        let weights = vec![1.0; 6];
        let covs = cluster_covs(&values, &weights, &sp);
        assert!(covs[0] > 0.3, "{covs:?}");
        assert_eq!(covs[2], 0.0);
        // The bound is dominated by the heavy homogeneous cluster.
        let bound = error_bound(&values, &weights, &sp);
        assert!(bound < covs[0], "bound {bound} vs cov {}", covs[0]);
        assert!(bound > 0.0);
    }

    #[test]
    fn perfect_clusters_have_zero_bound() {
        let sp = sample_simpoints();
        let values = vec![1.0, 1.0, 2.0, 3.0, 3.0, 3.0];
        let weights = vec![1.0; 6];
        assert_eq!(error_bound(&values, &weights, &sp), 0.0);
    }
}
