//! Warm-start state for incremental re-optimization (DESIGN.md §12).
//!
//! The adaptive loop (Algorithm 1, §4.3) re-runs the two-level search
//! every window over a problem that usually changed only slightly: the
//! remaining work shrank, and the market view slid forward by one window.
//! A [`WarmStart`] carries one thing from one search to the next, the
//! integer failure-count tables behind `φ(P)` and each
//! [`GroupAssessment`](crate::cost::GroupAssessment). They are cached per
//! `(group, bid)` and keyed by a digest of the group's empirical price
//! history. A table recorded at horizon `H` truncates to any `h ≤ H`
//! bit-identically (asserted by `ec2_market`'s truncation tests), so
//! unchanged view entries skip the `O(n·H)` counting walk entirely; a
//! drifted digest invalidates that group's entries and nothing else. The
//! selected plan stays bit-identical to a cold search at every thread
//! count.
//!
//! The CLI's `--no-bucket-reuse` ablation flag switches the reuse off;
//! `tests/warmstart_differential.rs` pins warm and cold plans
//! bit-identical across thread counts over a long adaptive study.

use crate::Hours;
use ec2_market::failure::FailureCounts;
use ec2_market::market::CircleGroupId;
use std::collections::BTreeMap;

/// Cached failure tables for one circle group, valid only while the
/// group's empirical price history digest matches.
#[derive(Debug, Clone)]
pub(crate) struct GroupTables {
    /// FNV-1a digest of the price history the tables were counted from.
    pub(crate) digest: u64,
    /// Per-bid entries, keyed by the bid's IEEE-754 bits (bids come off a
    /// deterministic grid, so bit equality is the right identity).
    pub(crate) by_bid: BTreeMap<u64, BidTable>,
}

impl GroupTables {
    pub(crate) fn new(digest: u64) -> Self {
        Self {
            digest,
            by_bid: BTreeMap::new(),
        }
    }
}

/// One cached `(group, bid)` entry: the raw integer failure counts (at
/// the largest horizon requested so far) and the expected launch delay.
#[derive(Debug, Clone)]
pub(crate) struct BidTable {
    pub(crate) counts: FailureCounts,
    pub(crate) launch_delay: Hours,
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
}
