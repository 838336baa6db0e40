//! Percentiles and the result line.

use std::fmt::Write as _;

/// Nearest-rank percentile of `samples` (`p` in `(0, 1]`), with the
/// number of samples strictly beyond its rank.
pub fn percentile(samples: &[f64], p: f64) -> Option<(f64, usize)> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some((sorted[rank - 1], sorted.len() - rank))
}

/// Median of `samples` (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).map(|(v, _)| v).unwrap_or(0.0)
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// A metric as printed: name, value, unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// A fixed computation owned by the benchmark, timed to tell host-speed
/// drift from program changes. Like the daemon it is bound by memory
/// latency as much as by arithmetic: a dependent walk through a 16 MiB
/// table (far beyond the caches) interleaved with integer mixing.
/// Returns milliseconds.
pub fn host_ref_ms() -> f64 {
    const SLOTS: usize = 1 << 21;
    let start = std::time::Instant::now();
    let mut table: Vec<u64> = (0..SLOTS as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 43)
        .collect();
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut slot = 0usize;
    for round in 0..250_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let next = (table[slot] ^ x) as usize & (SLOTS - 1);
        table[slot] = table[slot].wrapping_add(round);
        slot = next;
    }
    std::hint::black_box(&table);
    start.elapsed().as_secs_f64() * 1e3
}

/// `(steal, total)` CPU ticks of the whole machine from `/proc/stat`:
/// time the hypervisor ran other guests on this guest's CPUs, against all
/// time. Their growth over a phase shows how much of the host other
/// tenants took; `None` where the kernel does not report it.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user and nice.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Share of CPU time stolen by the hypervisor between two
/// [`cpu_ticks`] readings (0 when either is missing).
pub fn steal_share(start: Option<(u64, u64)>, end: Option<(u64, u64)>) -> f64 {
    match (start, end) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}
