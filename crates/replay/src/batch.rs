//! Per-plan batch tables for scenario-major Monte-Carlo replay.
//!
//! Replica-major replay re-derives the same launch/death crossings for
//! every replica: each [`crate::PlanRunner::run`] call walks the trace
//! index once per (group, bid) per start offset. [`BatchTables`] flips
//! the loop scenario-major — before any replica runs, one
//! [`DeathTimeTable`] per plan (group, bid) is fetched from the market's
//! shared [`ec2_market::DeathTimeCache`] (built on first touch, reused by
//! every later replica, worker thread, and tournament cell on the same
//! market), and the per-group [`ec2_market::fault::group_key`] hash is
//! computed once instead of once per fault draw. Each entry also holds
//! its group's trace, so a replica resolves launch and death times with
//! O(1) array reads and bills against the trace without a market lookup.
//!
//! The tables answer with the **same bits** as the scalar
//! [`ec2_market::TraceQuery`] path — the batched executor is an
//! acceleration, not an approximation, and the `mc_batch_differential`
//! suite compares every outcome field by `to_bits` to enforce it.

use crate::Usd;
use ec2_market::death::DeathTimeTable;
use ec2_market::fault::group_key;
use ec2_market::market::{CircleGroupId, SpotMarket};
use ec2_market::trace::SpotTrace;
use sompi_core::error::SompiError;
use sompi_core::model::Plan;
use std::sync::Arc;

/// One plan group's precomputed replay state: its trace, its memoized
/// death-time table and its cached fault-draw key.
#[derive(Debug, Clone)]
pub struct BatchEntry<'m> {
    /// The plan group this entry serves.
    pub group: CircleGroupId,
    /// The bid the table was built for.
    pub bid: Usd,
    /// Cached [`group_key`] hash, so fault draws in the replay hot loop
    /// skip the per-call string hash.
    pub gkey: u64,
    /// Shared read-only death/launch table for (group, bid).
    pub table: Arc<DeathTimeTable>,
    /// The group's trace in the market the table was built from.
    pub trace: &'m SpotTrace,
}

/// Batch state for one plan against one market: entries index-aligned
/// with `plan.groups`, plus build/reuse counters for the
/// `ReplayBatched` trace event.
#[derive(Debug, Clone)]
pub struct BatchTables<'m> {
    /// `entries[i]` serves `plan.groups[i]`; `None` when the group's
    /// trace is too long for the table's `u32` indexes (the executor
    /// falls back to scalar queries for that group).
    entries: Vec<Option<BatchEntry<'m>>>,
    /// Tables built fresh for this plan.
    pub tables_built: u32,
    /// Tables served from the market's shared cache.
    pub tables_reused: u32,
}

impl<'m> BatchTables<'m> {
    /// Fetch (or build) the death-time table for every group in `plan`.
    ///
    /// Errors with [`SompiError::UnknownGroup`] for a plan group the
    /// market has no trace for — the same error, at the same point in
    /// the call sequence, as the scalar executor's per-group query.
    pub fn for_plan(market: &'m SpotMarket, plan: &Plan) -> Result<Self, SompiError> {
        let mut entries = Vec::with_capacity(plan.groups.len());
        let mut tables_built = 0u32;
        let mut tables_reused = 0u32;
        for (group, decision) in &plan.groups {
            let trace = market
                .trace(group.id)
                .ok_or_else(|| SompiError::UnknownGroup {
                    group: group.id.to_string(),
                })?;
            match market.death_table(group.id, decision.bid) {
                Some((table, built)) => {
                    if built {
                        tables_built += 1;
                    } else {
                        tables_reused += 1;
                    }
                    entries.push(Some(BatchEntry {
                        group: group.id,
                        bid: decision.bid,
                        gkey: group_key(group.id),
                        table,
                        trace,
                    }));
                }
                None => entries.push(None),
            }
        }
        Ok(Self {
            entries,
            tables_built,
            tables_reused,
        })
    }

    /// The entry for plan group `i`, validated against the group id and
    /// bid the caller is replaying (defensive: a context paired with the
    /// wrong plan degrades to the scalar path instead of answering for
    /// the wrong trace).
    pub fn entry(&self, i: usize, group: CircleGroupId, bid: Usd) -> Option<&BatchEntry<'m>> {
        self.entries
            .get(i)?
            .as_ref()
            .filter(|e| e.group == group && e.bid.to_bits() == bid.to_bits())
    }

    /// Number of plan groups covered (== `plan.groups.len()`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the plan had no groups.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec2_market::instance::{InstanceCatalog, InstanceTypeId};
    use ec2_market::trace::SpotTrace;
    use ec2_market::zone::AvailabilityZone;
    use sompi_core::model::{CircleGroup, GroupDecision, OnDemandOption};

    fn tiny_plan(id: CircleGroupId, bid: Usd) -> Plan {
        Plan {
            groups: vec![(
                CircleGroup {
                    id,
                    instances: 1,
                    exec_hours: 2.0,
                    ckpt_overhead_hours: 0.0,
                    recovery_hours: 0.5,
                },
                GroupDecision {
                    bid,
                    ckpt_interval: 2.0,
                },
            )],
            on_demand: OnDemandOption {
                instance_type: InstanceTypeId(4),
                instances: 1,
                exec_hours: 4.0,
                unit_price: 2.0,
                recovery_hours: 0.5,
            },
        }
    }

    #[test]
    fn tables_are_shared_across_plans_on_one_market() {
        let cat = InstanceCatalog::paper_2014();
        let ty = cat.by_name("m1.small").unwrap();
        let id = CircleGroupId::new(ty, AvailabilityZone::UsEast1a);
        let mut market = SpotMarket::new(cat);
        market.insert(id, SpotTrace::new(1.0, vec![0.1, 0.3, 0.1, 0.5]));

        let plan = tiny_plan(id, 0.2);
        let first = BatchTables::for_plan(&market, &plan).unwrap();
        assert_eq!((first.tables_built, first.tables_reused), (1, 0));
        let second = BatchTables::for_plan(&market, &plan).unwrap();
        assert_eq!((second.tables_built, second.tables_reused), (0, 1));
        let a = first.entry(0, id, 0.2).unwrap();
        let b = second.entry(0, id, 0.2).unwrap();
        assert!(Arc::ptr_eq(&a.table, &b.table));
        assert_eq!(a.gkey, ec2_market::fault::group_key(id));

        // A different bid is a different table.
        let other = BatchTables::for_plan(&market, &tiny_plan(id, 0.4)).unwrap();
        assert_eq!((other.tables_built, other.tables_reused), (1, 0));

        // Mismatched lookups degrade to None rather than answering wrong.
        assert!(first.entry(0, id, 0.4).is_none());
        assert!(first.entry(1, id, 0.2).is_none());
    }

    #[test]
    fn unknown_group_is_an_error() {
        let cat = InstanceCatalog::paper_2014();
        let ty = cat.by_name("m1.small").unwrap();
        let id = CircleGroupId::new(ty, AvailabilityZone::UsEast1a);
        let market = SpotMarket::new(cat);
        let err = BatchTables::for_plan(&market, &tiny_plan(id, 0.2)).unwrap_err();
        assert!(matches!(err, SompiError::UnknownGroup { .. }));
    }
}
