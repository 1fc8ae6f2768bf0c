//! Order statistics and the process-level measurements.

use std::time::Instant;

/// A sample value the order statistics accept.
pub trait Sample: Copy {
    /// The value as `f64`.
    fn as_f64(self) -> f64;
}

impl Sample for f64 {
    fn as_f64(self) -> f64 {
        self
    }
}

impl Sample for u64 {
    fn as_f64(self) -> f64 {
        self as f64
    }
}

/// The `q`-quantile (`0.0..=1.0`) of `values` by nearest rank; 0 when
/// empty.
pub fn quantile<T: Sample>(values: &[T], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = values.iter().map(|&v| v.as_f64()).collect();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values`; 0 when empty.
pub fn median<T: Sample>(values: &[T]) -> f64 {
    quantile(values, 0.5)
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size (`VmHWM`) of this process in MB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over a byte stream, for the determinism digests.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
