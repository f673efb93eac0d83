//! Cooperative cancellation for long-running engine loops.
//!
//! The scheduling pipeline is worst-case exponential in the number of free choices, so
//! every hot loop in the workspace — the state-space explorer, the gray-code
//! allocation sweep, the RTOS batch simulator — accepts a [`CancelToken`]
//! and polls it cooperatively. A token combines two triggers behind one cheap check:
//!
//! * an **explicit flag** ([`CancelToken::cancel`]), set by another thread (a server
//!   worker shedding load, a drain sequence, a test), and
//! * an optional **deadline** ([`CancelToken::with_deadline`] /
//!   [`CancelToken::after`]), so a request-scoped budget cancels the stage *inside*
//!   its loop instead of only between pipeline stages.
//!
//! Cancellation is sticky and monotone: the flag is set-once and the deadline only
//! recedes into the past, so once any observer has seen the token cancelled, every
//! later observation agrees. That makes racy polling safe — a loop may run up to one
//! polling stride past the trigger, never resurrect.
//!
//! The default token ([`CancelToken::never`]) carries no allocation and no atomic —
//! `is_cancelled` on it is a branch on a `None` — so threading tokens through every
//! engine entry point costs nothing for callers that never cancel. Loops that iterate
//! millions of times per second amortise even the atomic load with a [`CancelGate`],
//! which only consults the token every `stride` iterations.

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The typed error every cancellable engine loop returns when its token fires.
///
/// Deliberately a unit: by the time a stage is abandoned mid-loop there is nothing
/// meaningful to report beyond "the caller asked us to stop" — the caller holds the
/// token and knows whether the trigger was an explicit cancel or a blown deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Cancelled;

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("operation cancelled")
    }
}

impl Error for Cancelled {}

/// Shared trigger state; one allocation per armed token, none for [`CancelToken::never`].
#[derive(Debug)]
struct Inner {
    flag: AtomicBool,
    deadline: Option<Instant>,
}

/// A cloneable cancellation handle threaded through the engine's hot loops.
///
/// Clones share the same trigger: cancelling any clone cancels them all. See the
/// [module docs](self) for the polling contract.
///
/// # Examples
///
/// ```
/// use fcpn_petri::CancelToken;
///
/// let token = CancelToken::new();
/// assert!(!token.is_cancelled());
/// let observer = token.clone();
/// token.cancel();
/// assert!(observer.is_cancelled());
/// assert!(observer.check().is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Option<Arc<Inner>>,
}

impl CancelToken {
    /// A token that never cancels — the zero-cost default for every engine options
    /// struct. Checking it is a branch on `None`; no allocation, no atomics.
    #[must_use]
    pub fn never() -> CancelToken {
        CancelToken { inner: None }
    }

    /// An armed token with no deadline; fires only on an explicit [`cancel`].
    ///
    /// [`cancel`]: CancelToken::cancel
    #[must_use]
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Some(Arc::new(Inner {
                flag: AtomicBool::new(false),
                deadline: None,
            })),
        }
    }

    /// An armed token that also fires once `deadline` has passed.
    #[must_use]
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken {
            inner: Some(Arc::new(Inner {
                flag: AtomicBool::new(false),
                deadline: Some(deadline),
            })),
        }
    }

    /// An armed token whose deadline is `budget` from now.
    #[must_use]
    pub fn after(budget: Duration) -> CancelToken {
        CancelToken::with_deadline(Instant::now() + budget)
    }

    /// Trips the explicit flag. Idempotent; a no-op on [`CancelToken::never`].
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.flag.store(true, Ordering::Release);
        }
    }

    /// Whether the token has fired (explicit cancel, or deadline in the past).
    ///
    /// Sticky: once this returns `true` it returns `true` forever.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => {
                inner.flag.load(Ordering::Acquire)
                    || inner.deadline.is_some_and(|d| Instant::now() >= d)
            }
        }
    }

    /// [`is_cancelled`](CancelToken::is_cancelled) as a `?`-friendly result.
    ///
    /// # Errors
    ///
    /// [`Cancelled`] once the token has fired.
    pub fn check(&self) -> Result<(), Cancelled> {
        if self.is_cancelled() {
            Err(Cancelled)
        } else {
            Ok(())
        }
    }

    /// Whether this token can ever fire (`false` only for [`CancelToken::never`]).
    #[must_use]
    pub fn is_armed(&self) -> bool {
        self.inner.is_some()
    }
}

/// Tokens compare by identity: two tokens are equal when they share the same trigger
/// (or are both [`CancelToken::never`]), mirroring the "cancelling one cancels the
/// other" relation. This keeps derived `PartialEq` on options structs meaningful.
impl PartialEq for CancelToken {
    fn eq(&self, other: &CancelToken) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Eq for CancelToken {}

/// A counter-gated poller: consults the token only every `stride` iterations so the
/// per-iteration cost in a hot loop is one increment and one mask.
///
/// `stride` is rounded up to a power of two. The gate polls on the *first* call and
/// then every `stride` calls, so short loops still observe a pre-fired token.
///
/// # Examples
///
/// ```
/// use fcpn_petri::cancel::CancelGate;
/// use fcpn_petri::CancelToken;
///
/// let token = CancelToken::new();
/// let mut gate = CancelGate::new(256);
/// for _ in 0..10_000 {
///     gate.check(&token).expect("token never fired");
/// }
/// token.cancel();
/// assert!((0..256).any(|_| gate.check(&token).is_err()));
/// ```
#[derive(Debug, Clone)]
pub struct CancelGate {
    counter: u64,
    mask: u64,
}

impl CancelGate {
    /// A gate polling every `stride` iterations (rounded up to a power of two;
    /// `stride = 1` polls every call).
    #[must_use]
    pub fn new(stride: u64) -> CancelGate {
        CancelGate {
            counter: 0,
            mask: stride.next_power_of_two().saturating_sub(1),
        }
    }

    /// Counts one iteration; polls `token` when the counter crosses the stride.
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when a poll observes the token fired.
    #[inline]
    pub fn check(&mut self, token: &CancelToken) -> Result<(), Cancelled> {
        let poll = self.counter & self.mask == 0;
        self.counter = self.counter.wrapping_add(1);
        if poll {
            token.check()
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_token_is_free_and_never_fires() {
        let token = CancelToken::never();
        assert!(!token.is_armed());
        assert!(!token.is_cancelled());
        token.cancel(); // no-op, not a panic
        assert!(!token.is_cancelled());
        assert!(token.check().is_ok());
        assert_eq!(token, CancelToken::default());
    }

    #[test]
    fn explicit_cancel_is_sticky_and_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
        assert!(clone.is_cancelled(), "cancellation never un-fires");
        assert_eq!(clone.check(), Err(Cancelled));
    }

    #[test]
    fn deadline_in_the_past_fires_immediately() {
        let token = CancelToken::after(Duration::ZERO);
        assert!(token.is_cancelled());
    }

    #[test]
    fn distant_deadline_does_not_fire() {
        let token = CancelToken::after(Duration::from_secs(3600));
        assert!(!token.is_cancelled());
        token.cancel();
        assert!(
            token.is_cancelled(),
            "explicit cancel overrides the deadline"
        );
    }

    #[test]
    fn token_equality_is_identity() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        assert_ne!(a, b);
        assert_eq!(a, a.clone());
        assert_eq!(CancelToken::never(), CancelToken::never());
        assert_ne!(a, CancelToken::never());
    }

    #[test]
    fn gate_observes_cancel_within_one_stride() {
        let token = CancelToken::new();
        let mut gate = CancelGate::new(64);
        for _ in 0..1000 {
            assert!(gate.check(&token).is_ok());
        }
        token.cancel();
        let lag = (0..64).position(|_| gate.check(&token).is_err());
        assert!(lag.is_some(), "gate must poll within one stride");
    }

    #[test]
    fn gate_polls_on_the_first_call() {
        let token = CancelToken::new();
        token.cancel();
        let mut gate = CancelGate::new(1024);
        assert!(gate.check(&token).is_err());
    }
}
