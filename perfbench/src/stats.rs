//! Summary statistics and the load-generator accounting the benchmark
//! reports from: nearest-rank percentiles, open-loop latency charged from
//! each request's due time, and the goodput rung rule.

/// Nearest-rank percentile of `samples` (`p` in `(0, 100]`): the smallest
/// sample such that at least `p`% of the samples are at or below it.
/// Returns `None` for an empty slice. `+inf` samples (misses) sort last.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median by nearest rank (the lower middle for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// A percentile robust to a few disturbed stretches of a run: the median,
/// over consecutive windows of `window` samples (a short remainder joins
/// the last window), of each window's nearest-rank percentile.
pub fn windowed_percentile(samples: &[f64], p: f64, window: usize) -> Option<f64> {
    let n = samples.len();
    let windows = (n / window.max(1)).max(1);
    let per: Vec<f64> = (0..windows)
        .filter_map(|w| {
            let end = if w + 1 == windows {
                n
            } else {
                (w + 1) * window
            };
            percentile(&samples[w * window..end], p)
        })
        .collect();
    median(&per)
}

/// One open-loop request as the load generator saw it. All times are
/// seconds from a common origin.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    /// When the schedule said the request should go out.
    pub due: f64,
    /// When its connection became free (the previous response on the
    /// same connection arrived), or the connection's start time.
    pub conn_free: f64,
    /// When the generator started writing it.
    pub sent: f64,
    /// When its response was read; `None` if it never completed.
    pub done: Option<f64>,
    /// Whether the response was a 2xx with correct outputs.
    pub ok: bool,
}

impl Sent {
    /// Latency charged to this request: from its due time to its
    /// response. A request that waited behind a stalled one on its
    /// connection is charged that wait. Failures are misses (`+inf`).
    pub fn latency(&self) -> f64 {
        match (self.ok, self.done) {
            (true, Some(done)) => done - self.due,
            _ => f64::INFINITY,
        }
    }

    /// How late the generator itself was: the delay between the moment
    /// it could have sent (due, and the connection free) and the moment
    /// it did. Waiting for a busy connection is not generator lateness.
    pub fn lateness(&self) -> f64 {
        (self.sent - self.due.max(self.conn_free)).max(0.0)
    }
}

/// Requests per latency window: one long stall moves one window's
/// percentile, not the rung's figure.
pub const WINDOW_REQUESTS: usize = 1000;

/// What one rate rung measured.
#[derive(Debug, Clone)]
pub struct Rung {
    /// Scheduled arrival rate, requests per second.
    pub rate: f64,
    /// Scheduled length of the rung in seconds.
    pub seconds: f64,
    /// Latency of every scheduled request in schedule order; unsent and
    /// failed requests are `+inf`.
    pub latencies: Vec<f64>,
    /// Requests that were sent but failed (non-2xx, transport error or
    /// wrong outputs).
    pub failed: usize,
    /// Generator lateness of every sent request.
    pub lateness: Vec<f64>,
}

impl Rung {
    /// Summarize one rung: `scheduled` requests due every `1 / rate`
    /// seconds, of which `sent` went out.
    pub fn from_sent(rate: f64, seconds: f64, scheduled: usize, sent: &[Sent]) -> Rung {
        let mut latencies = vec![f64::INFINITY; scheduled];
        for s in sent {
            let i = (s.due * rate).round() as usize;
            if let Some(l) = latencies.get_mut(i) {
                *l = s.latency();
            }
        }
        Rung {
            rate,
            seconds,
            latencies,
            failed: sent.iter().filter(|s| !s.ok).count(),
            lateness: sent.iter().map(Sent::lateness).collect(),
        }
    }

    /// Requests sent.
    pub fn sent(&self) -> usize {
        self.lateness.len()
    }

    /// Latency percentile over windows of `WINDOW_REQUESTS` scheduled
    /// requests (see [`windowed_percentile`]), misses included.
    pub fn latency_pct(&self, p: f64) -> f64 {
        windowed_percentile(&self.latencies, p, WINDOW_REQUESTS).unwrap_or(f64::INFINITY)
    }

    /// Generator lateness percentile over sent requests.
    pub fn lateness_pct(&self, p: f64) -> f64 {
        percentile(&self.lateness, p).unwrap_or(0.0)
    }

    /// Requests per second that succeeded within `limit` seconds.
    pub fn goodput(&self, limit: f64) -> f64 {
        let good = self.latencies.iter().filter(|&&l| l <= limit).count();
        good as f64 / self.seconds
    }

    /// Whether the rung meets the service level: p99 within `limit`, no
    /// failures, and the generator no later than `max_late` at p99.
    pub fn passes(&self, limit: f64, max_late: f64) -> bool {
        self.failed == 0 && self.latency_pct(99.0) <= limit && self.lateness_pct(99.0) <= max_late
    }
}

/// The goodput rule: the highest-rate rung that passes. A failing rung
/// below a passing one does not cap it (one scheduler hiccup at a low
/// rate must not halve the result). `None` when no rung passes.
pub fn goodput_rung(rungs: &[Rung], limit: f64, max_late: f64) -> Option<&Rung> {
    rungs
        .iter()
        .filter(|r| r.passes(limit, max_late))
        .max_by(|a, b| a.rate.total_cmp(&b.rate))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.1), Some(1.0));
        // order of input does not matter; rank rounds up
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 90.0), Some(5.0));
        assert_eq!(percentile(&[], 50.0), None);
        // a miss is the slowest sample
        assert_eq!(percentile(&[1.0, f64::INFINITY], 99.0), Some(f64::INFINITY));
    }

    #[test]
    fn windowed_percentile_is_the_median_window() {
        // three windows of ten; the middle one is disturbed
        let mut xs = vec![1.0; 30];
        xs[10..20].fill(9.0);
        assert_eq!(windowed_percentile(&xs, 90.0, 10), Some(1.0));
        // a remainder joins the last window instead of forming its own
        xs.extend([9.0; 5]);
        assert_eq!(windowed_percentile(&xs, 90.0, 10), Some(9.0));
        assert_eq!(windowed_percentile(&xs[..5], 50.0, 10), Some(1.0));
        assert_eq!(windowed_percentile(&[], 50.0, 10), None);
    }

    fn sent(due: f64, conn_free: f64, sent: f64, done: f64) -> Sent {
        Sent {
            due,
            conn_free,
            sent,
            done: Some(done),
            ok: true,
        }
    }

    #[test]
    fn stalled_request_charges_the_requests_behind_it() {
        // one connection, due every 1 ms; the first request stalls for
        // 10 ms, so the next three go out late as the connection frees
        let reqs = [
            sent(0.000, 0.000, 0.000, 0.010),
            sent(0.001, 0.010, 0.010, 0.0102),
            sent(0.002, 0.0102, 0.0102, 0.0104),
            sent(0.003, 0.0104, 0.0104, 0.0106),
        ];
        let lat: Vec<f64> = reqs.iter().map(Sent::latency).collect();
        assert!((lat[0] - 0.010).abs() < 1e-12);
        // timed from due, not from send: each waited behind the stall
        assert!((lat[1] - 0.0092).abs() < 1e-12);
        assert!((lat[2] - 0.0084).abs() < 1e-12);
        assert!((lat[3] - 0.0076).abs() < 1e-12);
        // waiting for the busy connection is not generator lateness
        assert!(reqs.iter().all(|r| r.lateness() == 0.0));
        // a generator that oversleeps is late
        assert!((sent(0.005, 0.0, 0.0056, 0.006).lateness() - 0.0006).abs() < 1e-12);
        // a failure is a miss
        let mut bad = reqs[0];
        bad.ok = false;
        assert_eq!(bad.latency(), f64::INFINITY);
    }

    #[test]
    fn unsent_requests_count_as_misses() {
        // the second of two scheduled requests never went out
        let reqs = [sent(0.0, 0.0, 0.0, 0.001)];
        let r = Rung::from_sent(2.0, 1.0, 2, &reqs);
        assert_eq!(r.sent(), 1);
        assert_eq!(r.latencies[1], f64::INFINITY);
        assert_eq!(r.latency_pct(99.0), f64::INFINITY);
        assert!(!r.passes(0.005, 0.001));
    }

    #[test]
    fn one_stalled_window_does_not_move_the_percentile() {
        let w = WINDOW_REQUESTS;
        let mut r = rung(100.0, 0.001, 0, 0.0);
        r.latencies = vec![0.001; 3 * w];
        // a stall ruins every request of the middle window
        r.latencies[w..2 * w].fill(0.050);
        assert_eq!(r.latency_pct(99.0), 0.001);
        // two of three windows stalled: the figure follows them
        r.latencies[..w].fill(0.050);
        assert_eq!(r.latency_pct(99.0), 0.050);
        // a short run is one window
        r.latencies.truncate(w / 2);
        assert_eq!(r.latency_pct(50.0), 0.050);
    }

    fn rung(rate: f64, p99: f64, failed: usize, late: f64) -> Rung {
        Rung {
            rate,
            seconds: 1.0,
            latencies: vec![p99; 100],
            failed,
            lateness: vec![late; 100],
        }
    }

    #[test]
    fn goodput_picks_highest_passing_rung() {
        let limit = 0.005;
        let late = 0.002;
        let rungs = vec![
            rung(100.0, 0.001, 0, 0.0),
            rung(110.0, 0.009, 0, 0.0), // hiccup below a passing rung
            rung(120.0, 0.002, 0, 0.0),
            rung(130.0, 0.003, 1, 0.0),  // a failure disqualifies
            rung(140.0, 0.004, 0, 0.01), // generator too late to trust
            rung(150.0, 0.050, 0, 0.0),
        ];
        assert_eq!(
            goodput_rung(&rungs, limit, late).map(|r| r.rate),
            Some(120.0)
        );
        assert!(goodput_rung(&rungs[5..], limit, late).is_none());
        // goodput counts only requests inside the limit
        let mut r = rung(200.0, 0.001, 0, 0.0);
        r.latencies[0] = 0.006;
        r.latencies[1] = f64::INFINITY;
        assert!((r.goodput(limit) - 98.0).abs() < 1e-9);
    }
}
