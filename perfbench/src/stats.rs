//! Order statistics and the result line.

/// Nearest-rank percentile (`p` in `0..=1`) of unsorted samples; `0.0`
/// for an empty sample. Nearest rank never interpolates, so a p99 over
/// fewer than 100 samples is the maximum — a tail event is reported as
/// measured, not averaged away with its neighbour.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Arithmetic mean; `0.0` for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// `num / den`, or `0.0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Samples one [`Samples`] holds; 1.5 MiB each.
const SAMPLE_CAP: usize = 1 << 17;

/// A fixed-memory, time-ordered sample of `(seconds since the loop
/// started, value)`. The buffers are allocated and touched up front, so
/// the benchmark's own memory does not grow with throughput and
/// `peak_rss_mib` sees only the server's. Once full it keeps every other
/// sample and from then on records every second one, and so on.
pub struct Samples {
    stride: usize,
    seen: usize,
    at: Vec<f32>,
    value: Vec<f64>,
}

impl Samples {
    pub fn new() -> Samples {
        // Not zeros: zeroed allocations are mapped lazily, untouched.
        let mut at = vec![1.0; SAMPLE_CAP];
        let mut value = vec![1.0; SAMPLE_CAP];
        at.clear();
        value.clear();
        Samples {
            stride: 1,
            seen: 0,
            at,
            value,
        }
    }

    pub fn push(&mut self, at_s: f64, value: f64) {
        if self.seen % self.stride == 0 && self.at.len() == SAMPLE_CAP {
            for i in 0..SAMPLE_CAP / 2 {
                self.at[i] = self.at[2 * i];
                self.value[i] = self.value[2 * i];
            }
            self.at.truncate(SAMPLE_CAP / 2);
            self.value.truncate(SAMPLE_CAP / 2);
            self.stride *= 2;
        }
        if self.seen % self.stride == 0 {
            self.at.push(at_s as f32);
            self.value.push(value);
        }
        self.seen += 1;
    }

    /// Values recorded, kept or not.
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// Merge several samples into one time-ordered sample at their
    /// common (largest) stride; returns it with that stride.
    pub fn merge<'a>(parts: impl IntoIterator<Item = &'a Samples>) -> (Vec<(f64, f64)>, usize) {
        let parts: Vec<&Samples> = parts.into_iter().collect();
        let stride = parts.iter().map(|p| p.stride).max().unwrap_or(1);
        let mut all: Vec<(f64, f64)> = parts
            .iter()
            .flat_map(|p| {
                let keep = stride / p.stride;
                p.at.iter().zip(&p.value).step_by(keep)
            })
            .map(|(&t, &v)| (f64::from(t), v))
            .collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0));
        (all, stride)
    }
}

/// Loop time before the first measurement window. Requests sent in it
/// are counted and checked but not timed.
pub const WARMUP_S: f64 = 1.0;
/// Length of one measurement window.
pub const WINDOW_S: f64 = 1.0;

/// The windows a run's timing metrics are taken over: the loop after its
/// warm-up, cut into [`WINDOW_S`] windows, of which those whose host
/// steal share is at most the median window's are kept. Steal is time
/// the hypervisor gave this VM's vCPUs to other guests; it comes in
/// episodes of seconds that slow every request in flight, so the
/// windows it spared measure the program rather than its neighbours.
/// A timing metric is the median of its per-window values.
pub struct Windows(Vec<(f64, f64)>);

impl Windows {
    /// `steal`: `(seconds since the loop started, cumulative steal ticks,
    /// cumulative total ticks)`, ascending. Without readings every window
    /// is kept; a loop too short for one window is one window.
    pub fn quiet(elapsed_s: f64, steal: &[(f64, u64, u64)]) -> Windows {
        let n = ((elapsed_s - WARMUP_S) / WINDOW_S).floor().max(0.0) as usize;
        if n == 0 {
            return Windows(vec![(0.0, elapsed_s)]);
        }
        let share = |from: f64, to: f64| -> f64 {
            let before = steal.iter().rev().find(|s| s.0 <= from).or(steal.first());
            let after = steal.iter().find(|s| s.0 >= to).or(steal.last());
            match (before, after) {
                (Some(b), Some(a)) => ratio(
                    a.1.saturating_sub(b.1) as f64,
                    a.2.saturating_sub(b.2) as f64,
                ),
                _ => 0.0,
            }
        };
        let all: Vec<(f64, f64, f64)> = (0..n)
            .map(|i| {
                let from = WARMUP_S + i as f64 * WINDOW_S;
                (from, from + WINDOW_S, share(from, from + WINDOW_S))
            })
            .collect();
        let cut = median(&all.iter().map(|w| w.2).collect::<Vec<_>>());
        Windows(
            all.into_iter()
                .filter(|w| w.2 <= cut)
                .map(|w| (w.0, w.1))
                .collect(),
        )
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The slices of `(seconds since the loop started, value)` samples,
    /// ascending in time, that fall in each kept window.
    fn slices<'a>(&'a self, samples: &'a [(f64, f64)]) -> impl Iterator<Item = &'a [(f64, f64)]> {
        self.0.iter().map(move |&(from, to)| {
            let a = samples.partition_point(|s| s.0 < from);
            let b = samples.partition_point(|s| s.0 < to);
            &samples[a..b]
        })
    }

    /// The `p` percentile of samples: the median over the kept windows
    /// (those with samples) of each window's percentile.
    pub fn percentile(&self, samples: &[(f64, f64)], p: f64) -> f64 {
        let per: Vec<f64> = self
            .slices(samples)
            .filter(|w| !w.is_empty())
            .map(|w| percentile(&w.iter().map(|s| s.1).collect::<Vec<_>>(), p))
            .collect();
        median(&per)
    }

    /// Completions per second, the median over the kept windows of
    /// completions between a window's first and last sample over the time
    /// between them; each sample stands for `stride` completions.
    pub fn rate(&self, samples: &[(f64, f64)], stride: usize) -> f64 {
        let per: Vec<f64> = self
            .slices(samples)
            .filter_map(|w| {
                let (first, last) = (w.first()?.0, w.last()?.0);
                (last > first).then(|| ((w.len() - 1) * stride) as f64 / (last - first))
            })
            .collect();
        median(&per)
    }
}

/// Named metrics in report order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The benchmark's last stdout line: `correct`, `attempted`,
    /// `failed` and every metric with its unit.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                // Non-finite values are not JSON; they would mean a metric
                // with no samples, which the caller already maps to 0.
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 0.99), 5.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn windows_keep_the_least_stolen_half() {
        // Six one-second windows after the warm-up; steal ticks 0 5 0 9 1 0
        // out of 100 each. The median share is 0.00, so the four windows
        // that saw none are kept; so are all six without readings.
        let mut steal = vec![(WARMUP_S, 0, 0)];
        for (i, s) in [0u64, 5, 0, 9, 1, 0].iter().enumerate() {
            let (_, st, tot) = steal[i];
            steal.push((WARMUP_S + (i + 1) as f64, st + s, tot + 100));
        }
        let w = Windows::quiet(7.5, &steal);
        assert_eq!(w.0, vec![(1.0, 2.0), (3.0, 4.0), (6.0, 7.0)]);
        assert_eq!(Windows::quiet(7.5, &[]).len(), 6);
        assert_eq!(Windows::quiet(1.5, &[]).0, vec![(0.0, 1.5)]);

        // Window (1, 2) holds values 10..19, (3, 4) 30..39, (6, 7) 60..69:
        // medians 14 34 64, ten per second each.
        let samples: Vec<(f64, f64)> = (0..80).map(|i| (i as f64 / 10.0, i as f64)).collect();
        assert_eq!(w.percentile(&samples, 0.5), 34.0);
        assert_eq!(w.percentile(&[], 0.5), 0.0);
        assert!((w.rate(&samples, 2) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn samples_decimate_in_place() {
        let mut s = Samples::new();
        for i in 0..SAMPLE_CAP + 3 {
            s.push(i as f64, 1.0);
        }
        // Full at SAMPLE_CAP: halved to every second value, then
        // SAMPLE_CAP and SAMPLE_CAP + 2 recorded.
        assert_eq!(s.seen(), SAMPLE_CAP + 3);
        assert_eq!(s.at.len(), SAMPLE_CAP / 2 + 2);
        let other = Samples::new();
        let (merged, stride) = Samples::merge([&s, &other]);
        assert_eq!(stride, 2);
        assert_eq!(merged[1].0, 2.0);
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.put("a_us", 1.5, "us");
        assert_eq!(
            m.result_line(true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a_us\": {\"value\": 1.5, \"unit\": \"us\"}}}"
        );
    }
}
