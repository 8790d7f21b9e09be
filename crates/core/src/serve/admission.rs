//! Admission control and latency accounting for the query server: the
//! [`PermitPool`] that bounds concurrent evaluations and the lock-free
//! [`LatencyHistogram`] behind each endpoint's `stats` entry.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use super::Json;

const HIST_BUCKETS: usize = 40;

/// A lock-free latency histogram with power-of-two microsecond buckets:
/// bucket `i` counts samples in `[2^i, 2^(i+1))` µs (bucket 0 also
/// takes 0 µs). Recording is two relaxed atomic adds; percentiles are
/// read from a [`HistogramSnapshot`] and are upper bounds of the bucket
/// containing the rank (≤ 2× the true value by construction).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Record one sample.
    pub fn record(&self, micros: u64) {
        let idx = (63 - micros.max(1).leading_zeros() as usize).min(HIST_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(micros, Ordering::Relaxed);
        self.max_us.fetch_max(micros, Ordering::Relaxed);
    }

    /// A consistent-enough point-in-time copy for reporting.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            max_us: self.max_us.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a [`LatencyHistogram`].
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (bucket `i` spans `[2^i, 2^(i+1))` µs).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples in µs.
    pub sum_us: u64,
    /// Largest sample in µs.
    pub max_us: u64,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0.0..=1.0`) as the upper bound of the bucket
    /// holding that rank, clamped to the observed maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        #[allow(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            clippy::cast_precision_loss
        )]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = if i + 1 >= 64 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
                return upper.min(self.max_us);
            }
        }
        self.max_us
    }

    /// Render as a JSON object (`count`, `p50_us`…, plus the non-empty
    /// buckets as `[lower_bound_us, count]` pairs).
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| Json::Arr(vec![Json::num(1u64 << i), Json::num(c)]))
            .collect();
        let mean = self.sum_us.checked_div(self.count).unwrap_or(0);
        Json::obj(vec![
            ("count", Json::num(self.count)),
            ("mean_us", Json::num(mean)),
            ("p50_us", Json::num(self.quantile(0.50))),
            ("p95_us", Json::num(self.quantile(0.95))),
            ("p99_us", Json::num(self.quantile(0.99))),
            ("max_us", Json::num(self.max_us)),
            ("buckets", Json::Arr(buckets)),
        ])
    }
}

/// Counters describing a [`PermitPool`]'s behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct PoolStats {
    /// Total permits in the pool.
    pub permits: usize,
    /// Permits currently held.
    pub in_use: usize,
    /// High-water mark of `in_use`.
    pub peak_in_use: usize,
    /// Successful acquisitions.
    pub acquired: u64,
    /// Acquisitions that timed out (surfaced as `overloaded`).
    pub timeouts: u64,
}

struct PoolState {
    in_use: usize,
    peak_in_use: usize,
    acquired: u64,
    timeouts: u64,
}

/// A semaphore-style pool of evaluation permits (`Mutex` + `Condvar`;
/// the standard library has no semaphore and the workspace vendors no
/// dependencies). Bounded waiting: [`PermitPool::acquire`] gives up
/// after a timeout so overload turns into fast structured rejections
/// instead of an unbounded queue.
pub struct PermitPool {
    permits: usize,
    state: Mutex<PoolState>,
    cv: Condvar,
}

impl fmt::Debug for PermitPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PermitPool").field("stats", &self.stats()).finish_non_exhaustive()
    }
}

impl PermitPool {
    /// A pool of `permits` permits (at least 1).
    pub fn new(permits: usize) -> PermitPool {
        PermitPool {
            permits: permits.max(1),
            state: Mutex::new(PoolState { in_use: 0, peak_in_use: 0, acquired: 0, timeouts: 0 }),
            cv: Condvar::new(),
        }
    }

    /// Acquire a permit, waiting at most `timeout`. `None` on timeout.
    pub fn acquire(&self, timeout: Duration) -> Option<Permit<'_>> {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock().expect("permit pool poisoned");
        while st.in_use >= self.permits {
            let now = Instant::now();
            if now >= deadline {
                st.timeouts += 1;
                return None;
            }
            let (next, res) =
                self.cv.wait_timeout(st, deadline - now).expect("permit pool poisoned");
            st = next;
            if res.timed_out() && st.in_use >= self.permits {
                st.timeouts += 1;
                return None;
            }
        }
        st.in_use += 1;
        st.peak_in_use = st.peak_in_use.max(st.in_use);
        st.acquired += 1;
        Some(Permit { pool: self })
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        let st = self.state.lock().expect("permit pool poisoned");
        PoolStats {
            permits: self.permits,
            in_use: st.in_use,
            peak_in_use: st.peak_in_use,
            acquired: st.acquired,
            timeouts: st.timeouts,
        }
    }
}

/// RAII guard for one held permit; releases (and wakes one waiter) on
/// drop.
pub struct Permit<'a> {
    pool: &'a PermitPool,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut st = self.pool.state.lock().expect("permit pool poisoned");
        st.in_use -= 1;
        drop(st);
        self.pool.cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_bucket_upper_bounds() {
        let h = LatencyHistogram::default();
        for us in [1u64, 2, 3, 100, 1000, 10_000] {
            h.record(us);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.max_us, 10_000);
        assert!(s.quantile(0.5) >= 3 && s.quantile(0.5) <= 7, "p50={}", s.quantile(0.5));
        assert_eq!(s.quantile(1.0), 10_000);
        assert_eq!(LatencyHistogram::default().snapshot().quantile(0.99), 0);
        let json = s.to_json();
        assert_eq!(json.get("count"), Some(&Json::Num(6.0)));
    }

    #[test]
    fn permit_pool_bounds_and_times_out() {
        let pool = PermitPool::new(2);
        let a = pool.acquire(Duration::from_millis(10)).unwrap();
        let b = pool.acquire(Duration::from_millis(10)).unwrap();
        assert!(pool.acquire(Duration::from_millis(20)).is_none(), "pool is full");
        drop(a);
        let c = pool.acquire(Duration::from_millis(10)).unwrap();
        drop(b);
        drop(c);
        let stats = pool.stats();
        assert_eq!((stats.permits, stats.in_use, stats.peak_in_use), (2, 0, 2));
        assert_eq!((stats.acquired, stats.timeouts), (3, 1));
    }
}
