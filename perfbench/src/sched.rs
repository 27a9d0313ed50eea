//! Seeded open-loop arrival schedules and their latency accounting.

use crate::stats;
use std::time::Duration;

/// SplitMix64: a small, fast, fully specified generator, so a seed names
/// the same inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so independent
    /// input streams drawn from one seed do not share values.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The due times of `count` Poisson arrivals at `rate` requests/s, from
/// the start of a phase. The same generator state gives the same times.
pub fn poisson_dues(rng: &mut Rng, rate: f64, count: usize) -> Vec<Duration> {
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            t += -(1.0 - rng.unit()).ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// Latency of each request in milliseconds, counted from when it was
/// **due**, not from when the sender got round to it: a stalled sender
/// delays later requests, and that wait is part of what they see.
/// `done[i]` is when request `i`'s reply arrived (`None` if it never
/// did), on the same clock as `due`.
pub fn due_latencies_ms(due: &[Duration], done: &[Option<Duration>]) -> Vec<Option<f64>> {
    due.iter()
        .zip(done)
        .map(|(d, r)| r.map(|r| r.saturating_sub(*d).as_secs_f64() * 1e3))
        .collect()
}

/// Whether a phase's queue grew while it ran: the median latency of the
/// last quarter of requests (in due order) exceeds twice that of the
/// first quarter plus `slack_ms`. A stable queue keeps both alike; an
/// overloaded one makes every later request wait longer.
pub fn backlog_grew(latencies_in_due_order: &[f64], slack_ms: f64) -> bool {
    let n = latencies_in_due_order.len();
    if n < 8 {
        return false;
    }
    let q = n / 4;
    let first = stats::median(&latencies_in_due_order[..q]).unwrap_or(0.0);
    let last = stats::median(&latencies_in_due_order[n - q..]).unwrap_or(0.0);
    last > 2.0 * first + slack_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = poisson_dues(&mut Rng::new(7, 1), 200.0, 400);
        let b = poisson_dues(&mut Rng::new(7, 1), 200.0, 400);
        let c = poisson_dues(&mut Rng::new(8, 1), 200.0, 400);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn schedule_matches_the_rate() {
        let s = poisson_dues(&mut Rng::new(3, 0), 500.0, 10_000);
        assert_eq!(s.len(), 10_000);
        let rate = s.len() as f64 / s[s.len() - 1].as_secs_f64();
        assert!((rate - 500.0).abs() < 25.0, "rate {rate}");
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        // Exponential gaps: about a third of them exceed the mean gap.
        let long = s
            .windows(2)
            .filter(|w| (w[1] - w[0]).as_secs_f64() > 1.0 / 500.0)
            .count() as f64;
        assert!((long / 9_999.0 - (-1f64).exp()).abs() < 0.02, "{long}");
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        let ms = Duration::from_millis;
        // The second request was sent 30 ms late and answered 2 ms after
        // it left: it waited 32 ms, not 2.
        let due = [ms(0), ms(10), ms(20)];
        let done = [Some(ms(2)), Some(ms(42)), None];
        let lat = due_latencies_ms(&due, &done);
        assert_eq!(lat[0], Some(2.0));
        assert_eq!(lat[1], Some(32.0));
        assert_eq!(lat[2], None);
    }

    #[test]
    fn growing_queue_is_detected() {
        let steady: Vec<f64> = (0..100).map(|i| 5.0 + (i % 3) as f64).collect();
        assert!(!backlog_grew(&steady, 2.0));
        let growing: Vec<f64> = (0..100).map(|i| 5.0 + i as f64).collect();
        assert!(backlog_grew(&growing, 2.0));
    }
}
