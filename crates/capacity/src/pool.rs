//! The capacity-pool ledger: per-type quotas, per-tenant holdings, and
//! deterministic arbitration when demand exceeds quota.

use std::borrow::Cow;
use std::fmt;

use rental_solvers::UNLIMITED_CAP;

/// A serialisable export of the pool's mutable ledger — everything a resumed
/// run needs to reconstruct the pool exactly, without trusting replay order.
/// Produced by [`CapacityPool::ledger`], which borrows the pool's vectors,
/// consumed (with invariant checks) by [`CapacityPool::restore_ledger`];
/// a decoded ledger owns its vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolLedger<'a> {
    /// `holdings[tenant][q]`: machines of type `q` held per tenant.
    pub holdings: Cow<'a, [Vec<u64>]>,
    /// Machines of each type currently handed out (Σ over tenants).
    pub in_use: Cow<'a, [u64]>,
    /// Peak of `in_use` over the pool's lifetime.
    pub peak_in_use: Cow<'a, [u64]>,
}

/// Why a [`PoolLedger`] was rejected by [`CapacityPool::restore_ledger`].
/// Every variant means the persisted ledger is inconsistent with the pool's
/// configuration — restoring it would corrupt the quota accounting, so the
/// caller must fall back down its recovery ladder instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LedgerError {
    /// The ledger covers a different number of tenants or machine types.
    ArityMismatch {
        /// Expected `(tenants, types)`.
        expected: (usize, usize),
        /// What the ledger carried.
        got: (usize, usize),
    },
    /// The summed holdings of a type exceed its quota — restoring would
    /// **over-grant** machines that were never arbitrated.
    QuotaExceeded {
        /// Machine type index.
        type_index: usize,
        /// Summed holdings of the type.
        holdings: u64,
        /// The type's quota.
        quota: u64,
    },
    /// `in_use[q]` does not equal the summed holdings of type `q`.
    InUseMismatch {
        /// Machine type index.
        type_index: usize,
        /// The ledger's `in_use` entry.
        in_use: u64,
        /// The actual holdings sum.
        holdings: u64,
    },
    /// `peak_in_use[q]` is below `in_use[q]` — a peak can never trail the
    /// present.
    PeakBelowInUse {
        /// Machine type index.
        type_index: usize,
    },
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::ArityMismatch { expected, got } => write!(
                f,
                "ledger arity mismatch: expected {}×{} (tenants×types), got {}×{}",
                expected.0, expected.1, got.0, got.1
            ),
            LedgerError::QuotaExceeded {
                type_index,
                holdings,
                quota,
            } => write!(
                f,
                "type {type_index}: restored holdings {holdings} exceed quota {quota}"
            ),
            LedgerError::InUseMismatch {
                type_index,
                in_use,
                holdings,
            } => write!(
                f,
                "type {type_index}: in_use {in_use} does not match holdings sum {holdings}"
            ),
            LedgerError::PeakBelowInUse { type_index } => {
                write!(f, "type {type_index}: peak_in_use below in_use")
            }
        }
    }
}

impl std::error::Error for LedgerError {}

/// The shared machine-capacity ledger of a serving fleet.
///
/// One pool covers one platform (one set of machine types shared by every
/// tenant). The pool tracks, per type, a quota and every tenant's current
/// holding; per-epoch acquisition goes through [`CapacityPool::arbitrate_epoch`]
/// (all tenants at once, deterministic) or [`CapacityPool::request`] (one
/// tenant, first-come-first-served in call order).
///
/// **Arbitration order.** When the combined demand for a type exceeds its
/// quota, grants are proportional to demand with largest-remainder rounding;
/// remainder ties break toward the **lower tenant index**. The rule is a pure
/// function of `(demands, quota)` — no clock, no thread order — so capped
/// runs are exactly reproducible.
///
/// **Sharded readers, sequential writers.** Every read path —
/// [`holdings`](CapacityPool::holdings), [`residual`](CapacityPool::residual),
/// [`caps_for`](CapacityPool::caps_for), utilization — takes `&self`, and the
/// pool holds no interior mutability, so it is `Sync`: the fleet controller's
/// shard workers query caps concurrently through a shared reference. Every
/// mutation (`arbitrate_epoch`, `request`, `restore_ledger`)
/// takes `&mut self` and therefore can only happen at the controller's
/// per-epoch barrier — the borrow checker enforces the "one arbitration site
/// per epoch" determinism contract rather than a lock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapacityPool {
    quotas: Vec<u64>,
    /// `holdings[tenant][q]`: machines of type `q` currently held.
    holdings: Vec<Vec<u64>>,
    /// Machines of each type currently handed out (Σ over tenants).
    in_use: Vec<u64>,
    /// Peak of `in_use` over the pool's lifetime, for utilisation reporting.
    peak_in_use: Vec<u64>,
}

impl CapacityPool {
    /// Creates a pool with the given per-type quotas ([`UNLIMITED_CAP`]
    /// disables a type's quota) and `num_tenants` empty holdings.
    pub fn new(quotas: Vec<u64>, num_tenants: usize) -> Self {
        let num_types = quotas.len();
        CapacityPool {
            quotas,
            holdings: vec![vec![0; num_types]; num_tenants],
            in_use: vec![0; num_types],
            peak_in_use: vec![0; num_types],
        }
    }

    /// Number of machine types the pool covers.
    fn num_types(&self) -> usize {
        self.quotas.len()
    }

    /// Number of tenants sharing the pool.
    fn num_tenants(&self) -> usize {
        self.holdings.len()
    }

    /// True when no type has a finite quota.
    pub fn is_unlimited(&self) -> bool {
        self.quotas.iter().all(|&quota| quota == UNLIMITED_CAP)
    }

    /// Machines of type `q` still available (`quota − in_use`;
    /// [`UNLIMITED_CAP`] for quota-free types).
    pub fn residual(&self, q: usize) -> u64 {
        if self.quotas[q] == UNLIMITED_CAP {
            UNLIMITED_CAP
        } else {
            self.quotas[q].saturating_sub(self.in_use[q])
        }
    }

    /// One tenant's current holdings, per type.
    pub fn holdings(&self, tenant: usize) -> &[u64] {
        &self.holdings[tenant]
    }

    /// The per-type machine caps a re-solve for `tenant` must respect: its
    /// own holdings (which it may re-shape freely) plus the pool's residual.
    pub fn caps_for(&self, tenant: usize) -> Vec<u64> {
        (0..self.num_types()).map(|q| self.cap(tenant, q)).collect()
    }

    /// Entry `q` of [`CapacityPool::caps_for`].
    pub fn cap(&self, tenant: usize, q: usize) -> u64 {
        let residual = self.residual(q);
        if residual == UNLIMITED_CAP {
            UNLIMITED_CAP
        } else {
            self.holdings[tenant][q].saturating_add(residual)
        }
    }

    /// Grants every tenant's desired fleet for the coming epoch, releasing
    /// all previous holdings first (epoch-granular re-acquisition). Types
    /// whose combined demand fits their quota are granted in full; the rest
    /// are arbitrated proportionally (largest-remainder, ties toward the
    /// lower tenant index). The grants become the tenants' holdings, which
    /// it returns, one fleet per tenant; grants never exceed what was asked
    /// for. Arbitration writes into the holdings in place, so an epoch's
    /// arbitration allocates nothing per tenant.
    ///
    /// # Panics
    ///
    /// Panics when `desired` does not have one fleet per tenant, or a fleet
    /// does not have one entry per type.
    pub fn arbitrate_epoch<I>(&mut self, desired: I) -> &[Vec<u64>]
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
        I::Item: AsRef<[u64]>,
    {
        let desired = desired.into_iter();
        assert_eq!(
            desired.len(),
            self.holdings.len(),
            "one desired fleet per tenant is required"
        );
        let num_types = self.num_types();
        for (holding, fleet) in self.holdings.iter_mut().zip(desired) {
            let fleet = fleet.as_ref();
            assert_eq!(
                fleet.len(),
                num_types,
                "one fleet entry per machine type is required"
            );
            holding.copy_from_slice(fleet);
        }
        for q in 0..num_types {
            let quota = self.quotas[q];
            let total: u64 = self.holdings.iter().map(|fleet| fleet[q]).sum();
            if quota != UNLIMITED_CAP && total > quota {
                // Proportional largest-remainder split of the quota. Everything
                // is exact integer arithmetic on u128 products, so the grant is
                // a pure function of (demands, quota).
                let mut assigned = 0u64;
                let mut remainders: Vec<(u128, usize, u64)> =
                    Vec::with_capacity(self.holdings.len());
                for (tenant, fleet) in self.holdings.iter_mut().enumerate() {
                    let wanted = fleet[q];
                    let product = wanted as u128 * quota as u128;
                    fleet[q] = (product / total as u128) as u64;
                    assigned += fleet[q];
                    remainders.push((product % total as u128, tenant, wanted));
                }
                // Hand the leftover machines to the largest remainders; ties go
                // to the lower tenant index (sort is by descending remainder,
                // then ascending tenant).
                remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
                let mut leftover = quota - assigned;
                for &(_, tenant, wanted) in &remainders {
                    if leftover == 0 {
                        break;
                    }
                    if self.holdings[tenant][q] < wanted {
                        self.holdings[tenant][q] += 1;
                        leftover -= 1;
                    }
                }
            }
            self.in_use[q] = self.holdings.iter().map(|fleet| fleet[q]).sum();
            self.peak_in_use[q] = self.peak_in_use[q].max(self.in_use[q]);
        }
        &self.holdings
    }

    /// Grants one tenant as much of `desired` as its caps allow (its own
    /// holdings are released and re-acquired). First-come-first-served: the
    /// caller's invocation order is the arbitration order, so single-tenant
    /// adjustments between epochs stay deterministic as long as the caller
    /// iterates tenants in a fixed order.
    ///
    /// # Panics
    ///
    /// Panics when `desired` does not have one entry per type.
    pub fn request(&mut self, tenant: usize, desired: &[u64]) -> Vec<u64> {
        assert_eq!(
            desired.len(),
            self.num_types(),
            "one fleet entry per machine type is required"
        );
        let caps = self.caps_for(tenant);
        let granted: Vec<u64> = desired
            .iter()
            .zip(&caps)
            .map(|(&want, &cap)| want.min(cap))
            .collect();
        for (q, &grant) in granted.iter().enumerate() {
            self.in_use[q] = self.in_use[q] - self.holdings[tenant][q] + grant;
            self.peak_in_use[q] = self.peak_in_use[q].max(self.in_use[q]);
        }
        self.holdings[tenant].copy_from_slice(&granted);
        granted
    }

    /// Exports the pool's mutable ledger for persistence, borrowed in place:
    /// holdings, in-use counters and the utilisation high-water mark. The
    /// quotas themselves are configuration, not state — a resumed run
    /// rebuilds them from its [`crate::CapacityConfig`] and validates the
    /// ledger against them via [`CapacityPool::restore_ledger`].
    pub fn ledger(&self) -> PoolLedger<'_> {
        PoolLedger {
            holdings: Cow::Borrowed(&self.holdings),
            in_use: Cow::Borrowed(&self.in_use),
            peak_in_use: Cow::Borrowed(&self.peak_in_use),
        }
    }

    /// Restores a persisted ledger into this pool, **checking every
    /// invariant** instead of trusting replay order: arities must match the
    /// pool's configuration, per-type holdings must sum to `in_use`, no
    /// type's holdings may exceed its quota (restoring an over-granted
    /// ledger would hand out machines that were never arbitrated), and the
    /// peak may never trail the present.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`LedgerError`]; the pool
    /// is left **unchanged** on error.
    pub fn restore_ledger(&mut self, ledger: PoolLedger<'_>) -> Result<(), LedgerError> {
        let expected = (self.num_tenants(), self.num_types());
        let got = (
            ledger.holdings.len(),
            ledger.in_use.len().min(ledger.peak_in_use.len()),
        );
        let arity_ok = ledger.holdings.len() == expected.0
            && ledger.in_use.len() == expected.1
            && ledger.peak_in_use.len() == expected.1
            && ledger.holdings.iter().all(|h| h.len() == expected.1);
        if !arity_ok {
            return Err(LedgerError::ArityMismatch { expected, got });
        }
        for q in 0..self.num_types() {
            let holdings: u64 = ledger.holdings.iter().map(|h| h[q]).sum();
            if self.quotas[q] != UNLIMITED_CAP && holdings > self.quotas[q] {
                return Err(LedgerError::QuotaExceeded {
                    type_index: q,
                    holdings,
                    quota: self.quotas[q],
                });
            }
            if ledger.in_use[q] != holdings {
                return Err(LedgerError::InUseMismatch {
                    type_index: q,
                    in_use: ledger.in_use[q],
                    holdings,
                });
            }
            if ledger.peak_in_use[q] < ledger.in_use[q] {
                return Err(LedgerError::PeakBelowInUse { type_index: q });
            }
        }
        self.holdings = ledger.holdings.into_owned();
        self.in_use = ledger.in_use.into_owned();
        self.peak_in_use = ledger.peak_in_use.into_owned();
        Ok(())
    }

    /// Peak quota utilisation per type over the pool's lifetime: the largest
    /// fraction of the quota ever in use (`0.0` for quota-free types — an
    /// infinite quota cannot be utilised).
    pub fn utilization(&self) -> Vec<f64> {
        self.quotas
            .iter()
            .zip(&self.peak_in_use)
            .map(|(&quota, &peak)| {
                if quota == UNLIMITED_CAP || quota == 0 {
                    0.0
                } else {
                    peak as f64 / quota as f64
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_pools_grant_everything() {
        let mut pool = CapacityPool::new(vec![UNLIMITED_CAP; 3], 2);
        assert!(pool.is_unlimited());
        let grants = pool.arbitrate_epoch(&[vec![5, 0, 9], vec![1_000, 2, 3]]);
        assert_eq!(grants, vec![vec![5, 0, 9], vec![1_000, 2, 3]]);
        assert_eq!(pool.residual(0), UNLIMITED_CAP);
        assert_eq!(pool.caps_for(0), vec![UNLIMITED_CAP; 3]);
        assert_eq!(pool.utilization(), vec![0.0; 3]);
    }

    #[test]
    fn slack_quotas_grant_in_full_and_track_usage() {
        let mut pool = CapacityPool::new(vec![10, 4], 2);
        let grants = pool.arbitrate_epoch(&[vec![3, 1], vec![4, 2]]);
        assert_eq!(grants, vec![vec![3, 1], vec![4, 2]]);
        assert_eq!(pool.in_use[0], 7);
        assert_eq!(pool.residual(0), 3);
        // A tenant's caps: its holding plus the residual (type 1 has quota 4
        // with 3 in use, so one machine of residual on top of each holding).
        assert_eq!(pool.caps_for(0), vec![6, 2]);
        assert_eq!(pool.caps_for(1), vec![7, 3]);
        assert_eq!(pool.utilization(), vec![0.7, 0.75]);
    }

    #[test]
    fn overcommitted_types_are_arbitrated_proportionally() {
        let mut pool = CapacityPool::new(vec![10], 2);
        // 8 + 4 = 12 > 10: proportional shares 6.67 and 3.33 round to 7 / 3
        // (tenant 0 has the larger remainder).
        let grants = pool.arbitrate_epoch(&[vec![8], vec![4]]);
        assert_eq!(grants, vec![vec![7], vec![3]]);
        assert_eq!(pool.residual(0), 0);
        // Caps collapse to the holdings once the quota is exhausted.
        assert_eq!(pool.caps_for(0), vec![7]);
        assert_eq!(pool.caps_for(1), vec![3]);
    }

    #[test]
    fn arbitration_is_deterministic_and_tie_breaks_by_tenant_index() {
        // Equal demands, odd quota: the spare machine goes to tenant 0.
        let mut pool = CapacityPool::new(vec![7], 2);
        let grants = pool.arbitrate_epoch(&[vec![5], vec![5]]).to_vec();
        assert_eq!(grants, vec![vec![4], vec![3]]);
        // Re-running the same epoch yields the same grants.
        let again = pool.arbitrate_epoch(&[vec![5], vec![5]]);
        assert_eq!(again, grants);
    }

    #[test]
    fn grants_never_exceed_demand_even_with_leftover_quota() {
        // Tenant 1 wants almost nothing; the leftover must not be forced on
        // it past its demand.
        let mut pool = CapacityPool::new(vec![9], 3);
        let grants = pool.arbitrate_epoch(&[vec![20], vec![1], vec![0]]);
        assert!(grants[1][0] <= 1);
        assert_eq!(grants[2][0], 0);
        let total: u64 = grants.iter().map(|g| g[0]).sum();
        assert_eq!(total, 9);
    }

    #[test]
    fn request_is_first_come_first_served() {
        let mut pool = CapacityPool::new(vec![5], 2);
        assert_eq!(pool.request(0, &[4]), vec![4]);
        // Tenant 1 only gets the residual.
        assert_eq!(pool.request(1, &[4]), vec![1]);
        // Tenant 0 shrinking frees quota for the next request.
        assert_eq!(pool.request(0, &[1]), vec![1]);
        assert_eq!(pool.request(1, &[4]), vec![4]);
        assert_eq!(pool.utilization(), vec![1.0]);
    }

    #[test]
    fn a_zero_request_returns_the_holding_to_the_pool() {
        let mut pool = CapacityPool::new(vec![6], 2);
        pool.request(0, &[6]);
        assert_eq!(pool.residual(0), 0);
        pool.request(0, &[0]);
        assert_eq!(pool.residual(0), 6);
        assert_eq!(pool.holdings(0), &[0]);
        // Peak utilisation remembers the high-water mark.
        assert_eq!(pool.utilization(), vec![1.0]);
    }

    #[test]
    fn ledger_round_trips_through_a_fresh_pool() {
        let mut pool = CapacityPool::new(vec![10, 4], 2);
        pool.arbitrate_epoch(&[vec![3, 1], vec![4, 2]]);
        pool.arbitrate_epoch(&[vec![2, 1], vec![1, 0]]);
        let ledger = pool.ledger();
        let mut restored = CapacityPool::new(vec![10, 4], 2);
        restored.restore_ledger(ledger).unwrap();
        assert_eq!(restored, pool);
        assert_eq!(restored.utilization(), pool.utilization());
        assert_eq!(restored.caps_for(0), pool.caps_for(0));
    }

    #[test]
    fn restore_rejects_over_granted_ledgers() {
        let mut pool = CapacityPool::new(vec![5], 2);
        let err = pool
            .restore_ledger(PoolLedger {
                holdings: vec![vec![4], vec![3]].into(),
                in_use: vec![7].into(),
                peak_in_use: vec![7].into(),
            })
            .unwrap_err();
        assert!(matches!(
            err,
            LedgerError::QuotaExceeded {
                type_index: 0,
                holdings: 7,
                quota: 5
            }
        ));
        // The failed restore left the pool untouched.
        assert_eq!(pool.in_use[0], 0);
    }

    #[test]
    fn restore_rejects_inconsistent_ledgers() {
        let mut pool = CapacityPool::new(vec![10], 2);
        let err = pool
            .restore_ledger(PoolLedger {
                holdings: vec![vec![2], vec![1]].into(),
                in_use: vec![4].into(),
                peak_in_use: vec![4].into(),
            })
            .unwrap_err();
        assert!(matches!(err, LedgerError::InUseMismatch { .. }));
        let err = pool
            .restore_ledger(PoolLedger {
                holdings: vec![vec![2], vec![1]].into(),
                in_use: vec![3].into(),
                peak_in_use: vec![2].into(),
            })
            .unwrap_err();
        assert!(matches!(err, LedgerError::PeakBelowInUse { .. }));
        let err = pool
            .restore_ledger(PoolLedger {
                holdings: vec![vec![2]].into(),
                in_use: vec![2].into(),
                peak_in_use: vec![2].into(),
            })
            .unwrap_err();
        assert!(matches!(err, LedgerError::ArityMismatch { .. }));
    }

    #[test]
    fn epoch_arbitration_reacquires_rather_than_accumulates() {
        let mut pool = CapacityPool::new(vec![10], 1);
        pool.arbitrate_epoch(&[vec![9]]);
        // The next epoch's smaller fleet releases the difference.
        pool.arbitrate_epoch(&[vec![2]]);
        assert_eq!(pool.in_use[0], 2);
        assert_eq!(pool.residual(0), 8);
        assert_eq!(pool.utilization(), vec![0.9]);
    }

    #[test]
    fn pool_is_sync_for_sharded_readers() {
        // The controller's shard workers read `caps_for`/`holdings` through
        // a shared reference; losing `Sync` (e.g. by adding a `Cell`) would
        // silently force arbitration back onto one thread.
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<CapacityPool>();
    }
}
