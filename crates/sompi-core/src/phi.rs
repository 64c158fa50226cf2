//! The `F = φ(P)` dimension reduction — Section 4.2.2, Theorem 1.
//!
//! Given a bid price, the optimal checkpoint interval for a circle group is
//! determined by the group's failure behaviour at that bid alone (Theorem 1
//! lets the optimizer substitute `φ(P)` for `F` without losing optimality).
//! Following the paper's reference to Daly's first-order model, we use the
//! Young/Daly interval `F* = sqrt(2 · O_i · MTTF(P_i))`, clamped into
//! `[O_i, T_i]`:
//!
//! * an un-terminable bid (no failure mass observed) degenerates to
//!   `F = T_i` — checkpointing disabled, matching the paper's convention;
//! * a very failure-prone bid clamps to `O_i` (checkpointing any faster
//!   than the checkpoint itself is useless);
//! * a group whose checkpoint overhead is at least its run time
//!   (`O_i ≥ T_i`) never checkpoints: `F = T_i`.

use crate::error::SompiError;
use crate::model::CircleGroup;
use crate::view::MarketView;
use crate::{Hours, Usd};
use ec2_market::failure::FailureCounts;

/// Compute `φ_i(P_i)`: the checkpoint interval for `group` at bid `bid`.
///
/// This is the Theorem 1 substitution: the optimizer never searches over
/// `F` directly — each bid maps to its interval via the market view's
/// failure estimate. The chosen interval per group is surfaced in
/// `SubsetEvaluated.phi_intervals` trace events (see
/// `docs/OBSERVABILITY.md`). Errors when the view has no history for the
/// group.
pub fn optimal_interval(
    group: &CircleGroup,
    bid: Usd,
    view: &MarketView,
) -> Result<Hours, SompiError> {
    let table = view.try_estimator(group.id)?.failure_table(bid);
    Ok(interval_from_table(group, &table))
}

/// `φ_i(P_i)` from the group's fused failure table at the bid — the form
/// the optimizer uses, so one table per `(group, bid)` serves both the
/// interval and every assessment at that bid. MTTF is estimated over the
/// group's own wall-clock horizon without checkpoints (a first-order
/// self-consistent choice: `O_i ≪ T_i`).
pub(crate) fn interval_from_table(group: &CircleGroup, table: &FailureCounts) -> Hours {
    let f = table.to_fn(phi_horizon(group));
    interval_from_mttf(group, f.mean_time_to_failure())
}

/// The hourly horizon `φ` estimates MTTF over: the group's own execution
/// time.
pub fn phi_horizon(group: &CircleGroup) -> usize {
    group.exec_hours.ceil().max(1.0) as usize
}

/// The Young/Daly interval given an MTTF estimate; exposed separately for
/// tests and for the ablation bench that sweeps MTTF directly.
///
/// ```
/// use sompi_core::phi::interval_from_mttf;
/// use sompi_core::CircleGroup;
/// use ec2_market::instance::InstanceTypeId;
/// use ec2_market::market::CircleGroupId;
/// use ec2_market::zone::AvailabilityZone;
///
/// let group = CircleGroup {
///     id: CircleGroupId::new(InstanceTypeId(0), AvailabilityZone::UsEast1a),
///     instances: 4,
///     exec_hours: 100.0,
///     ckpt_overhead_hours: 0.02,
///     recovery_hours: 0.1,
/// };
/// // MTTF 25 h → F* = sqrt(2 · 0.02 · 25) = 1.0 h.
/// assert!((interval_from_mttf(&group, Some(25.0)) - 1.0).abs() < 1e-12);
/// // No observed failure mass → checkpointing disabled (F = T).
/// assert_eq!(interval_from_mttf(&group, None), 100.0);
/// ```
pub fn interval_from_mttf(group: &CircleGroup, mttf: Option<Hours>) -> Hours {
    match mttf {
        // No observed failures, or a checkpoint that takes at least as
        // long as the run itself: do not checkpoint.
        None => group.exec_hours,
        Some(_) if group.ckpt_overhead_hours >= group.exec_hours => group.exec_hours,
        Some(m) => {
            let f = (2.0 * group.ckpt_overhead_hours * m).sqrt();
            f.clamp(group.ckpt_overhead_hours, group.exec_hours)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec2_market::instance::InstanceTypeId;
    use ec2_market::market::CircleGroupId;
    use ec2_market::zone::AvailabilityZone;

    fn group(t: Hours, o: Hours) -> CircleGroup {
        CircleGroup {
            id: CircleGroupId::new(InstanceTypeId(0), AvailabilityZone::UsEast1a),
            instances: 4,
            exec_hours: t,
            ckpt_overhead_hours: o,
            recovery_hours: 0.1,
        }
    }

    #[test]
    fn young_daly_formula() {
        let g = group(100.0, 0.02);
        // MTTF 25 h → F* = sqrt(2·0.02·25) = 1.0 h.
        let f = interval_from_mttf(&g, Some(25.0));
        assert!((f - 1.0).abs() < 1e-12);
    }

    #[test]
    fn no_failures_means_no_checkpoints() {
        let g = group(10.0, 0.02);
        assert_eq!(interval_from_mttf(&g, None), 10.0);
    }

    #[test]
    fn clamps_to_execution_time() {
        let g = group(2.0, 0.02);
        // Huge MTTF → interval would exceed T; clamp to T (disable).
        assert_eq!(interval_from_mttf(&g, Some(1e6)), 2.0);
    }

    #[test]
    fn clamps_to_overhead() {
        let g = group(10.0, 0.5);
        // Tiny MTTF → interval would go below O; clamp to O.
        assert_eq!(interval_from_mttf(&g, Some(1e-6)), 0.5);
    }

    #[test]
    fn overhead_at_least_run_time_disables_checkpoints() {
        // O > T used to panic in `clamp` ("min > max").
        let g = group(0.3, 0.5);
        for mttf in [Some(1e-6), Some(1.0), Some(1e6), None] {
            assert_eq!(interval_from_mttf(&g, mttf), 0.3);
        }
        // O == T: the same, no checkpoint.
        assert_eq!(interval_from_mttf(&group(0.5, 0.5), Some(1.0)), 0.5);
    }

    #[test]
    fn interval_grows_with_mttf() {
        let g = group(1000.0, 0.02);
        let mut prev = 0.0;
        for mttf in [1.0, 5.0, 25.0, 125.0] {
            let f = interval_from_mttf(&g, Some(mttf));
            assert!(f > prev);
            prev = f;
        }
    }

    #[test]
    fn end_to_end_against_market_history() {
        use ec2_market::instance::InstanceCatalog;
        use ec2_market::market::SpotMarket;
        use ec2_market::tracegen::{MarketProfile, TraceGenerator};
        let cat = InstanceCatalog::paper_2014();
        let prof = MarketProfile::paper_2014(&cat);
        let market = SpotMarket::generate(cat, &TraceGenerator::new(prof, 11), 200.0, 1.0 / 12.0);
        let view = crate::view::MarketView::from_market(&market, 0.0, 96.0);
        let id = market
            .groups()
            .find(|g| g.zone == AvailabilityZone::UsEast1a)
            .unwrap();
        let mut g = group(12.0, 0.03);
        g.id = id;
        // A bid at the historical max never fails → no checkpoints.
        let f_hi = optimal_interval(&g, view.max_bid(id).unwrap(), &view).unwrap();
        assert_eq!(f_hi, g.exec_hours);
        // A low-but-launchable bid fails often → finite interval.
        let low_bid = view.mean_price(id).unwrap() * 0.8;
        let f_lo = optimal_interval(&g, low_bid, &view).unwrap();
        assert!(f_lo <= f_hi);
        // The table-in-hand form is the same computation.
        let table = view.try_estimator(id).unwrap().failure_table(low_bid);
        assert_eq!(interval_from_table(&g, &table), f_lo);
    }
}
