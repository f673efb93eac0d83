//! Byte-budgeted engine allocations: the memory governor's library half.
//!
//! Every other resource axis in the workspace is guarded — marking budgets, step
//! budgets, deadlines, cooperative cancellation — but bytes were not: a hostile net
//! with wide markings grows the token arenas, hash tables and CSR adjacency without
//! limit until the OOM killer destroys the process. A [`MemoryBudget`] closes that
//! axis: large allocation sites charge it *before* growing, and when the budget is
//! exhausted the engine abandons the stage with a typed [`ResourceExhausted`] error —
//! never an abort, never a silently truncated result (exhaustion is an `Err`, not a
//! `complete = false`).
//!
//! The design mirrors [`CancelToken`](crate::CancelToken):
//!
//! * the default handle ([`MemoryBudget::unlimited`]) carries no allocation and no
//!   atomic — charging it is a branch on a `None` — so threading budgets through
//!   every engine entry point costs nothing for callers that never limit;
//! * an armed budget is one `Arc` holding the byte limit, a shared in-use counter and
//!   a **sticky** exhaustion flag: once any charge has failed, every later observer
//!   agrees, which makes racy polling from any thread safe;
//! * hot loops charge through a [`BudgetMeter`] — a per-caller reservation cache that
//!   draws down a local allowance and only touches the shared counter when the
//!   allowance is empty, so per-element charges cost an integer compare, not an
//!   atomic RMW.
//!
//! Determinism: charges the engines issue are pure functions of the canonical
//! exploration (the cost model below), so the same net under the same budget fails at
//! the same stage with the same error, whatever the token width. An
//! armed budget that is never exhausted perturbs nothing: outputs are bit-for-bit
//! identical to the unlimited default.

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::cancel::Cancelled;

/// Bytes a [`BudgetMeter`] reserves from the shared counter per refill.
///
/// Large enough that per-state charges in the explorers amortise the atomic RMW to
/// noise, small enough that the unreturned tail of a reservation never matters.
const METER_CHUNK: u64 = 64 * 1024;

/// The typed error a charge site returns when the budget cannot cover a growth.
///
/// Exhaustion never panics and never truncates: the failing stage returns this error
/// and the session/workspace that issued the charge remains usable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceExhausted {
    /// The budget's byte limit.
    pub limit_bytes: u64,
    /// Bytes the failing reservation asked for.
    pub requested_bytes: u64,
    /// The engine stage that issued the charge (e.g. `"reachability"`).
    pub stage: &'static str,
}

impl fmt::Display for ResourceExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "memory budget exhausted in {}: {} more bytes requested against a {}-byte limit",
            self.stage, self.requested_bytes, self.limit_bytes
        )
    }
}

impl Error for ResourceExhausted {}

/// Why a fallible engine loop stopped early: the caller cancelled it, or its memory
/// budget ran out.
///
/// This is the error type of every fallible engine entry point that both polls a
/// [`CancelToken`](crate::CancelToken) and charges a [`MemoryBudget`]. Both triggers
/// share one type so threading a new guard axis never changes a signature again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Interrupt {
    /// The stage's cancellation token fired.
    Cancelled,
    /// A charge against the stage's memory budget failed.
    Exhausted(ResourceExhausted),
}

impl fmt::Display for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interrupt::Cancelled => Cancelled.fmt(f),
            Interrupt::Exhausted(e) => e.fmt(f),
        }
    }
}

impl Error for Interrupt {}

impl From<Cancelled> for Interrupt {
    fn from(_: Cancelled) -> Self {
        Interrupt::Cancelled
    }
}

impl From<ResourceExhausted> for Interrupt {
    fn from(e: ResourceExhausted) -> Self {
        Interrupt::Exhausted(e)
    }
}

/// Shared accounting state; one allocation per armed budget, none for
/// [`MemoryBudget::unlimited`].
#[derive(Debug)]
struct Inner {
    limit: u64,
    used: AtomicU64,
    exhausted: AtomicBool,
}

/// A cloneable byte-budget handle threaded through the engine's allocation sites.
///
/// Clones share the same accounting: bytes charged through any clone draw down the
/// same limit. See the [module docs](self) for the charging contract.
///
/// # Examples
///
/// ```
/// use fcpn_petri::MemoryBudget;
///
/// let budget = MemoryBudget::with_limit(1024);
/// assert!(budget.charge(512, "example").is_ok());
/// assert_eq!(budget.bytes_in_use(), 512);
/// let err = budget.charge(4096, "example").unwrap_err();
/// assert_eq!(err.limit_bytes, 1024);
/// assert!(budget.is_exhausted(), "exhaustion is sticky");
/// ```
#[derive(Debug, Clone, Default)]
pub struct MemoryBudget {
    inner: Option<Arc<Inner>>,
}

impl MemoryBudget {
    /// A budget that never exhausts — the zero-cost default for every engine options
    /// struct. Charging it is a branch on `None`; no allocation, no atomics.
    #[must_use]
    pub fn unlimited() -> MemoryBudget {
        MemoryBudget { inner: None }
    }

    /// An armed budget of `limit_bytes`. Charges succeed while the total stays at or
    /// under the limit and fail (stickily) once a charge would cross it.
    #[must_use]
    pub fn with_limit(limit_bytes: u64) -> MemoryBudget {
        MemoryBudget {
            inner: Some(Arc::new(Inner {
                limit: limit_bytes,
                used: AtomicU64::new(0),
                exhausted: AtomicBool::new(false),
            })),
        }
    }

    /// Whether this budget can ever exhaust (`false` only for
    /// [`MemoryBudget::unlimited`]).
    #[must_use]
    pub fn is_armed(&self) -> bool {
        self.inner.is_some()
    }

    /// The byte limit, or `None` for an unlimited budget.
    #[must_use]
    pub fn limit_bytes(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.limit)
    }

    /// Bytes currently charged (0 for an unlimited budget).
    #[must_use]
    pub fn bytes_in_use(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.used.load(Ordering::Acquire))
            .unwrap_or(0)
    }

    /// Whether any charge has ever failed. Sticky: once `true`, `true` forever — the
    /// same monotonicity [`CancelToken`](crate::CancelToken) has, so concurrent
    /// workers can poll it racily.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.exhausted.load(Ordering::Acquire))
    }

    /// Charges `bytes` against the budget, failing (and leaving the accounting
    /// unchanged) when the charge would cross the limit.
    ///
    /// # Errors
    ///
    /// [`ResourceExhausted`] when the charge does not fit; the budget is then marked
    /// exhausted for every observer.
    #[inline]
    pub fn charge(&self, bytes: u64, stage: &'static str) -> Result<(), ResourceExhausted> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        // Compare-exchange rather than fetch_add-then-rollback: a failing charge must
        // never transiently inflate `used`, or a concurrent charge that would fit
        // could spuriously fail and stickily exhaust the budget.
        let mut current = inner.used.load(Ordering::Acquire);
        loop {
            // `current <= limit` is an invariant (only in-limit values are ever
            // installed), so the subtraction cannot underflow.
            if bytes > inner.limit - current {
                inner.exhausted.store(true, Ordering::Release);
                return Err(ResourceExhausted {
                    limit_bytes: inner.limit,
                    requested_bytes: bytes,
                    stage,
                });
            }
            match inner.used.compare_exchange_weak(
                current,
                current + bytes,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Ok(()),
                Err(seen) => current = seen,
            }
        }
    }

    /// Returns previously charged bytes to the budget (saturating at zero). Does not
    /// clear the sticky exhaustion flag — an exhausted stage stays failed.
    pub fn release(&self, bytes: u64) {
        if let Some(inner) = &self.inner {
            let mut current = inner.used.load(Ordering::Acquire);
            loop {
                let next = current.saturating_sub(bytes);
                match inner.used.compare_exchange_weak(
                    current,
                    next,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => return,
                    Err(seen) => current = seen,
                }
            }
        }
    }

    /// A per-caller reservation cache for hot loops: charges drawn from a local
    /// allowance refilled in 64 KiB (`METER_CHUNK`) steps, so the per-element cost
    /// is an integer compare (and a single branch when the budget is unarmed).
    #[must_use]
    pub fn meter(&self) -> BudgetMeter {
        BudgetMeter {
            budget: self.clone(),
            held: 0,
        }
    }
}

/// Budgets compare by identity: two handles are equal when they share the same
/// accounting (or are both [`MemoryBudget::unlimited`]), mirroring the "charging one
/// charges the other" relation. This keeps derived `PartialEq` on options structs
/// meaningful.
impl PartialEq for MemoryBudget {
    fn eq(&self, other: &MemoryBudget) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Eq for MemoryBudget {}

/// A per-caller reservation cache over a [`MemoryBudget`].
///
/// The meter holds a locally reserved allowance; [`charge`](BudgetMeter::charge)
/// draws it down without touching the shared counter and refills it in fixed chunks
/// when it runs dry. Because the refill points are a pure function of the sequence of
/// charges, two engines issuing the same charge sequence against equal budgets fail
/// at the same charge with the same error — the property the exhaustion-determinism
/// tests pin.
///
/// Dropping the meter returns the unspent allowance to the budget.
#[derive(Debug)]
pub struct BudgetMeter {
    budget: MemoryBudget,
    /// Locally reserved bytes not yet consumed by charges.
    held: u64,
}

impl BudgetMeter {
    /// Charges `bytes` through the local allowance.
    ///
    /// # Errors
    ///
    /// [`ResourceExhausted`] when refilling the allowance from the shared budget
    /// fails. The meter stays usable (and keeps failing) after an error.
    #[inline]
    pub fn charge(&mut self, bytes: u64, stage: &'static str) -> Result<(), ResourceExhausted> {
        if self.budget.inner.is_none() {
            return Ok(());
        }
        if bytes <= self.held {
            self.held -= bytes;
            return Ok(());
        }
        self.refill(bytes, stage)
    }

    /// Cold path of [`charge`](BudgetMeter::charge): reserve the shortfall (rounded
    /// up to the chunk size) from the shared counter.
    fn refill(&mut self, bytes: u64, stage: &'static str) -> Result<(), ResourceExhausted> {
        let need = bytes - self.held;
        let reserve = need.max(METER_CHUNK);
        self.budget.charge(reserve, stage)?;
        // Left-to-right: `reserve >= bytes - held`, so `held + reserve` covers
        // `bytes`, but `reserve - bytes` alone underflows whenever a charge larger
        // than the chunk arrives while an allowance is held.
        self.held = self.held + reserve - bytes;
        Ok(())
    }

    /// The budget this meter draws from.
    #[must_use]
    pub fn budget(&self) -> &MemoryBudget {
        &self.budget
    }
}

impl Drop for BudgetMeter {
    fn drop(&mut self) {
        if self.held > 0 {
            self.budget.release(self.held);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_is_free_and_never_exhausts() {
        let budget = MemoryBudget::unlimited();
        assert!(!budget.is_armed());
        assert_eq!(budget.limit_bytes(), None);
        assert!(budget.charge(u64::MAX, "test").is_ok());
        assert_eq!(budget.bytes_in_use(), 0);
        assert!(!budget.is_exhausted());
        assert_eq!(budget, MemoryBudget::default());
    }

    #[test]
    fn charges_accumulate_and_release_refunds() {
        let budget = MemoryBudget::with_limit(100);
        budget.charge(40, "a").unwrap();
        budget.charge(60, "b").unwrap();
        assert_eq!(budget.bytes_in_use(), 100);
        budget.release(30);
        assert_eq!(budget.bytes_in_use(), 70);
        budget.release(1000);
        assert_eq!(budget.bytes_in_use(), 0, "release saturates at zero");
    }

    #[test]
    fn failed_charge_is_sticky_and_leaves_accounting_unchanged() {
        let budget = MemoryBudget::with_limit(100);
        budget.charge(90, "setup").unwrap();
        let err = budget.charge(20, "growth").unwrap_err();
        assert_eq!(
            err,
            ResourceExhausted {
                limit_bytes: 100,
                requested_bytes: 20,
                stage: "growth",
            }
        );
        assert_eq!(budget.bytes_in_use(), 90, "failed charge is rolled back");
        assert!(budget.is_exhausted());
        let clone = budget.clone();
        assert!(clone.is_exhausted(), "exhaustion is shared across clones");
        assert!(err.to_string().contains("growth"));
    }

    #[test]
    fn clones_share_accounting_and_equality_is_identity() {
        let a = MemoryBudget::with_limit(1000);
        let b = a.clone();
        b.charge(600, "x").unwrap();
        assert_eq!(a.bytes_in_use(), 600);
        assert_eq!(a, b);
        assert_ne!(a, MemoryBudget::with_limit(1000));
        assert_ne!(a, MemoryBudget::unlimited());
        assert_eq!(MemoryBudget::unlimited(), MemoryBudget::unlimited());
    }

    #[test]
    fn meter_amortises_charges_and_returns_slack_on_drop() {
        let budget = MemoryBudget::with_limit(10 * METER_CHUNK);
        {
            let mut meter = budget.meter();
            for _ in 0..1000 {
                meter.charge(16, "loop").unwrap();
            }
            // 16_000 bytes of charges consumed exactly one chunk reservation.
            assert_eq!(budget.bytes_in_use(), METER_CHUNK);
        }
        assert_eq!(
            budget.bytes_in_use(),
            16_000,
            "dropping the meter refunds the unspent allowance"
        );
    }

    #[test]
    fn meter_failure_point_is_a_pure_function_of_the_charge_sequence() {
        // Two identical charge sequences against equal limits fail at the same charge
        // with the same error — the determinism property the engines rely on.
        let run = || {
            let budget = MemoryBudget::with_limit(3 * METER_CHUNK + 17);
            let mut meter = budget.meter();
            let mut failed_at = None;
            for i in 0..100_000u64 {
                if let Err(e) = meter.charge(4096, "sweep") {
                    failed_at = Some((i, e));
                    break;
                }
            }
            failed_at.expect("budget must exhaust")
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn oversized_single_charge_reserves_exactly_the_need() {
        let budget = MemoryBudget::with_limit(10 * METER_CHUNK);
        let mut meter = budget.meter();
        meter.charge(5 * METER_CHUNK, "bulk").unwrap();
        assert_eq!(budget.bytes_in_use(), 5 * METER_CHUNK);
    }

    #[test]
    fn oversized_charge_with_held_allowance_does_not_underflow() {
        // Regression: a charge larger than METER_CHUNK while `held > 0` (small
        // per-edge charges interleaved with big per-state charges, exactly what the
        // explorers do on wide nets) used to compute `reserve - bytes` first and
        // underflow u64 in any overflow-checked build.
        let budget = MemoryBudget::with_limit(100 * METER_CHUNK);
        let mut meter = budget.meter();
        meter.charge(16, "edge").unwrap();
        let held_before = METER_CHUNK - 16;
        meter.charge(3 * METER_CHUNK, "state").unwrap();
        // The refill reserved exactly the shortfall, leaving the allowance empty.
        assert_eq!(
            budget.bytes_in_use(),
            METER_CHUNK + (3 * METER_CHUNK - held_before)
        );
        drop(meter);
        assert_eq!(
            budget.bytes_in_use(),
            16 + 3 * METER_CHUNK,
            "only consumed bytes stay charged after the meter returns its slack"
        );
    }

    #[test]
    fn interrupt_conversions_and_display() {
        let c: Interrupt = Cancelled.into();
        assert_eq!(c, Interrupt::Cancelled);
        assert_eq!(c.to_string(), "operation cancelled");
        let e = ResourceExhausted {
            limit_bytes: 10,
            requested_bytes: 20,
            stage: "arena",
        };
        let i: Interrupt = e.into();
        assert!(matches!(i, Interrupt::Exhausted(x) if x == e));
        assert!(i.to_string().contains("memory budget exhausted in arena"));
    }

    #[test]
    fn budget_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MemoryBudget>();
        assert_send_sync::<ResourceExhausted>();
        assert_send_sync::<Interrupt>();
    }
}
