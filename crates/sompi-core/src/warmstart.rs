//! Warm-start state for incremental re-optimization (DESIGN.md §12).
//!
//! The adaptive loop (Algorithm 1, §4.3) re-runs the two-level search
//! every window over a problem that usually changed only slightly: the
//! remaining work shrank, and the market view slid forward by one window.
//! A [`WarmStart`] carries one thing from one search to the next, the
//! fused failure tables behind `φ(P)` and each
//! [`GroupAssessment`](crate::cost::GroupAssessment). They are cached per
//! `(group, bid)` and keyed by a digest of the group's empirical price
//! history. One table serves every horizon bit-identically (asserted by
//! `ec2_market`'s differential tests), so unchanged view entries skip the
//! counting walk entirely; a drifted digest invalidates that group's
//! entries and nothing else. A search without a `WarmStart` builds the
//! same tables and drops them when it returns, so the selected plan is
//! bit-identical either way, at every thread count.
//!
//! The CLI's `--no-bucket-reuse` ablation flag keeps tables from
//! outliving a search; `tests/warmstart_differential.rs` pins warm and
//! cold plans bit-identical across thread counts over a long adaptive
//! study.

use ec2_market::failure::FailureCounts;
use ec2_market::market::CircleGroupId;
use std::collections::BTreeMap;

/// Cached failure tables for one circle group, valid only while the
/// group's empirical price history digest matches.
#[derive(Debug, Clone)]
pub(crate) struct GroupTables {
    /// FNV-1a digest of the price history the tables were counted from.
    pub(crate) digest: u64,
    /// Per-bid tables, keyed by the bid's IEEE-754 bits (bids come off a
    /// deterministic grid, so bit equality is the right identity).
    pub(crate) by_bid: BTreeMap<u64, FailureCounts>,
}

impl GroupTables {
    pub(crate) fn new(digest: u64) -> Self {
        Self {
            digest,
            by_bid: BTreeMap::new(),
        }
    }
}

/// Mutable warm-start state threaded through consecutive
/// [`TwoLevelOptimizer::optimize_with`](crate::twolevel::TwoLevelOptimizer::optimize_with)
/// calls. Construct once per adaptive run and thread `ctx.with_warm(&mut
/// state)` into every window's search; leave the context bare (or use
/// `optimize`) for a cold search.
#[derive(Debug, Clone)]
pub struct WarmStart {
    /// Reuse per-`(group, bid)` failure-count tables across windows.
    pub(crate) use_tables: bool,
    pub(crate) tables: BTreeMap<CircleGroupId, GroupTables>,
}

impl WarmStart {
    /// Fresh warm-start state with table reuse enabled.
    pub fn new() -> Self {
        Self {
            use_tables: true,
            tables: BTreeMap::new(),
        }
    }

    /// Enable/disable bucket-table reuse. Disabling drops the cache.
    pub fn with_table_reuse(mut self, on: bool) -> Self {
        self.use_tables = on;
        if !on {
            self.tables.clear();
        }
        self
    }

    /// Whether the bucket-table layer is enabled.
    pub fn table_reuse(&self) -> bool {
        self.use_tables
    }

    /// Number of circle groups with cached failure tables.
    pub fn cached_groups(&self) -> usize {
        self.tables.len()
    }

    /// Drop the cached tables.
    pub fn clear(&mut self) {
        self.tables.clear();
    }
}

impl Default for WarmStart {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::twolevel::tests::setup;
    use crate::twolevel::{AssessedOptions, OptimizerConfig, TwoLevelOptimizer};

    #[test]
    fn defaults_enable_every_layer() {
        let w = WarmStart::default();
        assert!(w.table_reuse());
        assert_eq!(w.cached_groups(), 0);
    }

    #[test]
    fn ablation_toggles_drop_their_state() {
        let w = WarmStart::new().with_table_reuse(false);
        assert!(!w.table_reuse());
        assert_eq!(w.cached_groups(), 0);
    }

    #[test]
    fn clear_resets_without_touching_toggles() {
        let mut w = WarmStart::new();
        w.tables.insert(
            CircleGroupId::new(
                ec2_market::instance::InstanceTypeId(0),
                ec2_market::zone::AvailabilityZone::UsEast1a,
            ),
            GroupTables::new(7),
        );
        assert_eq!(w.cached_groups(), 1);
        w.clear();
        assert_eq!(w.cached_groups(), 0);
        assert!(w.table_reuse());
    }

    #[test]
    fn assess_options_agree_with_and_without_a_warm_start() {
        // No `WarmStart`, a fresh one, one with reuse off, and one kept
        // across every case must assess alike. The kept state serves
        // shorter and longer problems from the same tables, so their
        // horizons are read both truncated and zero-padded.
        let (_, problem, view) = setup();
        let base = OptimizerConfig {
            kappa: 2,
            bid_levels: 6,
            ..OptimizerConfig::default()
        };
        let configs = [
            base,
            OptimizerConfig {
                interval_grid: Some(3),
                ..base
            },
            OptimizerConfig {
                prune_dominance: false,
                top_margin: None,
                ..base
            },
        ];
        let mut kept = WarmStart::new();
        for (scale, deadline) in [(0.25, 3.0), (1.0, 3.0), (4.0, 12.0), (1.0, 1.2)] {
            let mut p = problem.clone();
            p.deadline = deadline;
            p.candidates.iter_mut().for_each(|g| g.exec_hours *= scale);
            for cfg in configs {
                let opt = TwoLevelOptimizer::new(&p, &view, cfg);
                let cold = opt.assess_options(None).unwrap();
                let fresh = opt.assess_options(Some(&mut WarmStart::new())).unwrap();
                assert!(fresh.table_stats.iter().all(|s| s.2 == 0 && s.3 > 0));
                let mut off_state = WarmStart::new().with_table_reuse(false);
                let off = opt.assess_options(Some(&mut off_state)).unwrap();
                let reused = opt.assess_options(Some(&mut kept)).unwrap();
                let again = opt.assess_options(Some(&mut kept)).unwrap();
                assert!(again.table_stats.iter().all(|s| s.3 == 0));
                for other in [&fresh, &off, &reused, &again] {
                    let counters = |a: &AssessedOptions| (a.considered, a.pruned, a.dominated);
                    assert_eq!(counters(other), counters(&cold));
                    let flat = |a: &AssessedOptions| a.options.concat();
                    let (a, b) = (flat(&cold), flat(other));
                    assert_eq!(a.len(), b.len());
                    for (a, b) in a.iter().zip(&b) {
                        assert!(a.eval_equivalent(b));
                        assert_eq!(a.decision.bid.to_bits(), b.decision.bid.to_bits());
                    }
                }
            }
        }
    }
}
