//! Per-tenant admission control: token-bucket rate limits and in-flight quotas.
//!
//! Request cost in this daemon is super-linear in net size (the scheduling sweep is
//! exponential in the worst case), so an unmetered client is a denial-of-service
//! vector by construction. The governor meters work per *tenant* — the value of the
//! `X-Fcpn-Tenant` request header, with a shared `"default"` bucket for anonymous
//! traffic — using a classic token bucket (sustained rate + burst capacity) plus an
//! optional cap on concurrently executing requests. Exhausting the bucket yields
//! `429 Too Many Requests` with a parseable `Retry-After`; exceeding the in-flight
//! quota is also a 429 but with `Retry-After: 1` (retry when a slot frees, not after
//! a refill window).
//!
//! Rate limiting is **off by default** (`rate == 0.0`): the governor then admits
//! everything and only keeps per-tenant request counters for `/metrics`.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// The tenant key used when no `X-Fcpn-Tenant` header is present.
pub const DEFAULT_TENANT: &str = "default";

/// Longest accepted tenant key; longer values fall back to [`DEFAULT_TENANT`] so a
/// hostile client cannot mint unbounded distinct buckets with random headers.
pub const MAX_TENANT_KEY_LEN: usize = 64;

/// Admission policy applied uniformly to every tenant bucket.
#[derive(Debug, Clone, Copy)]
pub struct TenantPolicy {
    /// Sustained admitted requests per second per tenant; `0.0` disables rate
    /// limiting (and the in-flight quota) entirely.
    pub rate: f64,
    /// Bucket capacity: how many requests a tenant may burst above the sustained
    /// rate after a quiet period.
    pub burst: f64,
    /// Maximum concurrently executing requests per tenant; `0` means unlimited.
    pub max_in_flight: u32,
    /// Bound on distinct tenant buckets held at once; beyond it, the stalest bucket
    /// is evicted.
    pub max_tenants: usize,
}

impl Default for TenantPolicy {
    fn default() -> Self {
        TenantPolicy {
            rate: 0.0,
            burst: 64.0,
            max_in_flight: 0,
            max_tenants: 256,
        }
    }
}

impl TenantPolicy {
    /// Whether any metering (rate or quota) is active.
    pub fn metering(&self) -> bool {
        self.rate > 0.0
    }
}

/// Outcome of [`TenantGovernor::admit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Admission {
    /// Request may proceed; the caller must call [`TenantGovernor::release`] when it
    /// finishes.
    Admitted,
    /// Token bucket empty: answer 429 with this `Retry-After` (whole seconds,
    /// rounded up, at least 1).
    RateLimited {
        /// Seconds until one token refills.
        retry_after_s: u64,
    },
    /// In-flight quota reached: answer 429 with `Retry-After: 1`.
    QuotaExceeded,
}

#[derive(Debug)]
struct Bucket {
    tokens: f64,
    refilled: Instant,
    in_flight: u32,
    /// Total requests admitted for this tenant (monotonic, survives refills).
    admitted: u64,
    /// Total requests rejected (rate or quota) for this tenant.
    rejected: u64,
    last_seen: Instant,
}

/// The per-tenant admission governor shared by both front ends.
///
/// One mutex over a small `HashMap` — admission is two float ops and a compare, far
/// off the request's critical path (which runs a scheduling sweep), so sharding the
/// map would be complexity without a measurable win.
#[derive(Debug)]
pub struct TenantGovernor {
    policy: TenantPolicy,
    buckets: Mutex<HashMap<String, Bucket>>,
}

impl TenantGovernor {
    /// A governor applying `policy` to every tenant.
    pub fn new(policy: TenantPolicy) -> Self {
        TenantGovernor {
            policy,
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> &TenantPolicy {
        &self.policy
    }

    /// Normalises a raw `X-Fcpn-Tenant` header value into a bucket key.
    pub fn tenant_key(header: Option<&str>) -> &str {
        match header.map(str::trim) {
            Some(t) if !t.is_empty() && t.len() <= MAX_TENANT_KEY_LEN => t,
            _ => DEFAULT_TENANT,
        }
    }

    /// Decides whether a request from `tenant` may proceed right now.
    ///
    /// Counters are updated either way. When metering is disabled this always admits
    /// (and no `release` pairing is required, though calling it stays harmless). It
    /// allocates only to insert a new bucket (its key).
    pub fn admit(&self, tenant: &str) -> Admission {
        let now = Instant::now();
        let mut buckets = self.buckets.lock().unwrap();
        if let Some(bucket) = buckets.get_mut(tenant) {
            return self.charge(bucket, now);
        }
        if buckets.len() >= self.policy.max_tenants {
            evict_stalest(&mut buckets);
        }
        let bucket = buckets.entry(tenant.to_string()).or_insert(Bucket {
            tokens: self.policy.burst,
            refilled: now,
            in_flight: 0,
            admitted: 0,
            rejected: 0,
            last_seen: now,
        });
        self.charge(bucket, now)
    }

    /// [`TenantGovernor::admit`]'s decision for one bucket.
    fn charge(&self, bucket: &mut Bucket, now: Instant) -> Admission {
        bucket.last_seen = now;

        if !self.policy.metering() {
            bucket.admitted += 1;
            return Admission::Admitted;
        }

        // Refill lazily: tokens accrue at `rate` per second up to `burst`.
        let dt = now.duration_since(bucket.refilled).as_secs_f64();
        bucket.tokens = (bucket.tokens + dt * self.policy.rate).min(self.policy.burst);
        bucket.refilled = now;

        if bucket.tokens < 1.0 {
            bucket.rejected += 1;
            let deficit = 1.0 - bucket.tokens;
            let retry_after_s = (deficit / self.policy.rate).ceil().max(1.0) as u64;
            return Admission::RateLimited { retry_after_s };
        }
        if self.policy.max_in_flight > 0 && bucket.in_flight >= self.policy.max_in_flight {
            bucket.rejected += 1;
            return Admission::QuotaExceeded;
        }
        bucket.tokens -= 1.0;
        bucket.in_flight += 1;
        bucket.admitted += 1;
        Admission::Admitted
    }

    /// Marks a previously admitted request as finished (frees its in-flight slot).
    pub fn release(&self, tenant: &str) {
        if !self.policy.metering() {
            return;
        }
        let mut buckets = self.buckets.lock().unwrap();
        if let Some(bucket) = buckets.get_mut(tenant) {
            bucket.in_flight = bucket.in_flight.saturating_sub(1);
        }
    }

    /// Per-tenant counters as a JSON object keyed by tenant (sorted for determinism):
    /// `{"acme": {"admitted": 10, "rejected": 2, "in_flight": 1}, ...}`.
    pub fn render_json(&self) -> Json {
        let buckets = self.buckets.lock().unwrap();
        let mut rows: Vec<(&String, &Bucket)> = buckets.iter().collect();
        rows.sort_by_key(|(name, _)| name.as_str());
        Json::obj(rows.into_iter().map(|(name, b)| {
            (
                name.as_str(),
                Json::obj([
                    ("admitted", Json::from(b.admitted as i64)),
                    ("rejected", Json::from(b.rejected as i64)),
                    ("in_flight", Json::from(i64::from(b.in_flight))),
                ]),
            )
        }))
    }
}

fn evict_stalest(buckets: &mut HashMap<String, Bucket>) {
    if let Some(stalest) = buckets
        .iter()
        .min_by_key(|(_, b)| b.last_seen)
        .map(|(name, _)| name.clone())
    {
        buckets.remove(&stalest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_metering_admits_everything() {
        let gov = TenantGovernor::new(TenantPolicy::default());
        for _ in 0..10_000 {
            assert_eq!(gov.admit("t"), Admission::Admitted);
        }
    }

    #[test]
    fn burst_then_rate_limited_with_sane_retry_after() {
        let gov = TenantGovernor::new(TenantPolicy {
            rate: 1.0,
            burst: 3.0,
            ..TenantPolicy::default()
        });
        for i in 0..3 {
            assert_eq!(gov.admit("t"), Admission::Admitted, "burst request {i}");
        }
        match gov.admit("t") {
            Admission::RateLimited { retry_after_s } => {
                assert!((1..=2).contains(&retry_after_s), "{retry_after_s}");
            }
            other => panic!("expected rate limit, got {other:?}"),
        }
    }

    #[test]
    fn tokens_refill_over_time() {
        let gov = TenantGovernor::new(TenantPolicy {
            rate: 50.0,
            burst: 1.0,
            ..TenantPolicy::default()
        });
        assert_eq!(gov.admit("t"), Admission::Admitted);
        assert!(matches!(gov.admit("t"), Admission::RateLimited { .. }));
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(gov.admit("t"), Admission::Admitted);
    }

    #[test]
    fn in_flight_quota_blocks_and_release_frees() {
        let gov = TenantGovernor::new(TenantPolicy {
            rate: 1000.0,
            burst: 1000.0,
            max_in_flight: 2,
            ..TenantPolicy::default()
        });
        assert_eq!(gov.admit("t"), Admission::Admitted);
        assert_eq!(gov.admit("t"), Admission::Admitted);
        assert_eq!(gov.admit("t"), Admission::QuotaExceeded);
        gov.release("t");
        assert_eq!(gov.admit("t"), Admission::Admitted);
    }

    #[test]
    fn tenants_are_isolated() {
        let gov = TenantGovernor::new(TenantPolicy {
            rate: 1.0,
            burst: 1.0,
            ..TenantPolicy::default()
        });
        assert_eq!(gov.admit("a"), Admission::Admitted);
        assert!(matches!(gov.admit("a"), Admission::RateLimited { .. }));
        // `a`'s exhaustion must not affect `b`.
        assert_eq!(gov.admit("b"), Admission::Admitted);
    }

    #[test]
    fn tenant_map_is_bounded() {
        let gov = TenantGovernor::new(TenantPolicy {
            rate: 1.0,
            burst: 1.0,
            max_tenants: 8,
            ..TenantPolicy::default()
        });
        for i in 0..100 {
            gov.admit(&format!("tenant-{i}"));
        }
        assert!(gov.buckets.lock().unwrap().len() <= 8);
    }

    #[test]
    fn tenant_key_normalisation() {
        assert_eq!(TenantGovernor::tenant_key(None), DEFAULT_TENANT);
        assert_eq!(TenantGovernor::tenant_key(Some("")), DEFAULT_TENANT);
        assert_eq!(TenantGovernor::tenant_key(Some("  acme  ")), "acme");
        let long = "x".repeat(65);
        assert_eq!(TenantGovernor::tenant_key(Some(&long)), DEFAULT_TENANT);
    }

    #[test]
    fn counters_render_sorted_and_complete() {
        let gov = TenantGovernor::new(TenantPolicy {
            rate: 1.0,
            burst: 1.0,
            ..TenantPolicy::default()
        });
        gov.admit("beta");
        gov.admit("alpha");
        gov.admit("alpha"); // rejected: bucket of 1
        let text = gov.render_json().render();
        let alpha = text.find("alpha").unwrap();
        let beta = text.find("beta").unwrap();
        assert!(alpha < beta, "{text}");
        assert!(
            text.contains("\"rejected\":1") || text.contains("\"rejected\": 1"),
            "{text}"
        );
    }
}
