//! A lightweight wall-clock benchmark timer replacing `criterion`.
//!
//! Each benchmark runs a warmup, then N timed samples, and reports the
//! median (plus min/max/mean) as one JSON line on stdout — easy to
//! append to the repo's `BENCH_*.json` perf-trajectory files:
//!
//! ```text
//! {"name":"minimize/8var","median_ns":412337,"min_ns":...,"samples":11}
//! ```
//!
//! Medians over a modest sample count are robust to scheduler noise
//! without criterion's statistical machinery; the goal here is a stable
//! trend line, not microsecond-exact confidence intervals.

use std::time::Instant;

/// One benchmark's aggregated timings (nanoseconds per iteration).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark name (slash-separated group/case, criterion-style).
    pub name: String,
    /// Median over the samples.
    pub median_ns: u128,
    /// Fastest sample.
    pub min_ns: u128,
    /// Slowest sample.
    pub max_ns: u128,
    /// Arithmetic mean.
    pub mean_ns: u128,
    /// Number of timed samples.
    pub samples: usize,
}

impl BenchResult {
    /// The result as one JSON object on a single line.
    pub fn json_line(&self) -> String {
        format!(
            "{{\"name\":{:?},\"median_ns\":{},\"min_ns\":{},\"max_ns\":{},\"mean_ns\":{},\"samples\":{}}}",
            self.name, self.median_ns, self.min_ns, self.max_ns, self.mean_ns, self.samples
        )
    }
}

/// Times one call of `f`, prints the JSON line, and returns the result
/// of `f` plus the measurement — the per-task wall-time hook the sweep
/// binaries use (no warmup: the task *is* the workload, e.g. a full
/// Figure 7 sweep at the configured thread count).
pub fn time_once<R>(name: &str, f: impl FnOnce() -> R) -> (R, BenchResult) {
    let t0 = Instant::now();
    let out = f();
    let ns = t0.elapsed().as_nanos();
    let result = BenchResult {
        name: name.to_string(),
        median_ns: ns,
        min_ns: ns,
        max_ns: ns,
        mean_ns: ns,
        samples: 1,
    };
    println!("{}", result.json_line());
    (out, result)
}

/// Runs benchmarks with a fixed warmup/sample policy.
#[derive(Debug, Clone)]
pub struct Bencher {
    warmup: usize,
    samples: usize,
}

impl Default for Bencher {
    fn default() -> Self {
        Bencher::new()
    }
}

impl Bencher {
    /// Default policy: 3 warmup iterations, 11 timed samples (env
    /// `A4A_BENCH_SAMPLES` overrides the sample count, e.g. for quick
    /// smoke runs).
    pub fn new() -> Bencher {
        let samples = std::env::var("A4A_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(11);
        Bencher { warmup: 3, samples }
    }

    /// A policy with an explicit sample count (for slow benchmarks).
    pub fn with_samples(samples: usize) -> Bencher {
        Bencher {
            samples: samples.max(1),
            ..Bencher::new()
        }
    }

    /// Times `f`, prints the JSON line, and returns the result.
    pub fn bench<R>(&self, name: &str, mut f: impl FnMut() -> R) -> BenchResult {
        for _ in 0..self.warmup {
            std::hint::black_box(f());
        }
        let mut ns: Vec<u128> = (0..self.samples)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(f());
                t0.elapsed().as_nanos()
            })
            .collect();
        ns.sort_unstable();
        let result = BenchResult {
            name: name.to_string(),
            median_ns: ns[ns.len() / 2],
            min_ns: ns[0],
            max_ns: ns[ns.len() - 1],
            mean_ns: ns.iter().sum::<u128>() / ns.len() as u128,
            samples: ns.len(),
        };
        println!("{}", result.json_line());
        result
    }
}

/// Writes `results` as JSON lines to the file named by the
/// `A4A_BENCH_OUT` environment variable and returns that path; does
/// nothing and returns `None` when it is unset. The lines have already
/// gone to stdout, so a plain run never touches a tracked baseline —
/// refreshing `BENCH_*.json` takes an explicit
/// `A4A_BENCH_OUT=BENCH_<name>.json`.
///
/// # Errors
///
/// Returns the I/O error when the file cannot be written.
pub fn write_results(results: &[BenchResult]) -> std::io::Result<Option<std::path::PathBuf>> {
    let Some(path) = std::env::var_os("A4A_BENCH_OUT") else {
        return Ok(None);
    };
    let out: String = results.iter().map(|r| r.json_line() + "\n").collect();
    std::fs::write(&path, out)?;
    Ok(Some(path.into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_produces_sane_timings() {
        let r = Bencher::with_samples(5).bench("selftest/spin", || {
            let mut acc = 0u64;
            for i in 0..1000u64 {
                acc = acc.wrapping_add(std::hint::black_box(i));
            }
            acc
        });
        assert_eq!(r.samples, 5);
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
        assert!(r.median_ns > 0);
    }

    #[test]
    fn json_line_is_well_formed() {
        let r = BenchResult {
            name: "group/case".into(),
            median_ns: 1,
            min_ns: 1,
            max_ns: 2,
            mean_ns: 1,
            samples: 3,
        };
        let j = r.json_line();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"name\":\"group/case\""));
        assert!(j.contains("\"median_ns\":1"));
    }
}
