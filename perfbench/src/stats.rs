//! Sample series, the report a run prints, and small shared helpers.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A series of timings or rates from one run.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Linear-interpolated quantile, `q` in [0, 1]; NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// One reported number with its unit and the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub n: usize,
    pub what: String,
}

/// Everything one section of a run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics of the final JSON line, by name.
    pub metrics: BTreeMap<String, Metric>,
    /// Metrics printed for people only (the named end-to-end view).
    pub info: BTreeMap<String, Metric>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, n: usize, what: &str) {
        self.metrics.insert(name.to_string(), Metric { value, unit, n, what: what.to_string() });
    }

    pub fn note(&mut self, name: &str, value: f64, unit: &'static str, n: usize, what: &str) {
        self.info.insert(name.to_string(), Metric { value, unit, n, what: what.to_string() });
    }

    pub fn count(&mut self, t: Tally) {
        self.attempted += t.attempted;
        self.failed += t.failed;
    }

    pub fn merge(&mut self, other: Report) {
        self.metrics.extend(other.metrics);
        self.info.extend(other.info);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Tally of operations attempted and failed inside a rank closure.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one op: `Ok(true)` passes; `Ok(false)` (wrong result) and
    /// `Err` fail.
    pub fn check<E: std::fmt::Debug>(&mut self, what: &str, r: Result<bool, E>) {
        self.attempted += 1;
        match r {
            Ok(true) => {}
            Ok(false) => {
                self.failed += 1;
                eprintln!("perfbench: wrong result from {what}");
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {what} failed: {e:?}");
            }
        }
    }

    pub fn add(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

/// SplitMix64: the input generator. Same seed, same inputs.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn vec(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.next_u64()).collect()
    }
}

/// The SplitMix64 finaliser; also the per-key hash of the sort checksum.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Busy-waits for `ns` nanoseconds (the sensitivity check's injected
/// slowdown; never used unless `--spin` is given).
pub fn spin(ns: f64) {
    if ns <= 0.0 {
        return;
    }
    let until = Instant::now() + Duration::from_nanos(ns as u64);
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}

/// A fixed amount of local work, independent of the host: the compute
/// phase that a nonblocking collective overlaps.
pub fn compute(steps: u64) -> u64 {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}
