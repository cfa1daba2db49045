//! The closed-loop pass runner shared by every workload.
//!
//! One client issues the workload's operations one after another, each
//! after the previous one completed, in a seed-shuffled order. Only the
//! operation itself is timed; its output is checked afterwards.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::Instant;

use a4a_rt::{Pool, Rng};

use crate::trace::Tracer;

/// The outcome of checking one operation's output.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Every check held.
    Pass,
    /// The program returned an error (or panicked): the operation failed.
    Failed(String),
    /// The program returned a result that fails a check: a wrong output.
    Wrong(String),
}

/// A checked operation: its verdict plus the work it accounted for.
#[derive(Debug, Clone, PartialEq)]
pub struct Checked {
    /// Pass, failure or wrong output.
    pub verdict: Verdict,
    /// Workload-specific work units (state-graph states, simulated µs).
    pub work: f64,
    /// Literal count of the synthesised netlist, if any.
    pub literals: u64,
    /// Deviation from the committed results in tolerance units.
    pub golden_dev: f64,
}

impl Checked {
    /// A verdict with no work attached.
    pub fn of(verdict: Verdict) -> Checked {
        Checked {
            verdict,
            work: 0.0,
            literals: 0,
            golden_dev: 0.0,
        }
    }
}

/// A benchmark workload: a fixed list of operations built in set-up.
pub trait Workload {
    /// What one operation returns.
    type Output;
    /// Number of operations in one pass.
    fn len(&self) -> usize;
    /// A short label for operation `i` (used in failure messages).
    fn label(&self, i: usize) -> String;
    /// Runs operation `i` through the program's public entry points.
    fn run(&self, i: usize) -> Self::Output;
    /// Runs operation `i` with spans around each layer call; may add
    /// probe spans (outside the operation's own span) that measure a
    /// layer on its own.
    fn run_traced(&self, i: usize, tr: &mut Tracer) -> Self::Output;
    /// Checks the output of operation `i`.
    fn check(&self, i: usize, out: Self::Output) -> Checked;
}

/// Everything one pass recorded.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Time of each operation (ms), in issue order.
    pub op_ms: Vec<f64>,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations that failed or produced a wrong output.
    pub failed: usize,
    /// Operations whose output failed a check.
    pub wrong: usize,
    /// Summed work units.
    pub work: f64,
    /// Summed literal counts.
    pub literals: u64,
    /// Largest golden deviation.
    pub golden_dev: f64,
    /// One message per failed or wrong operation.
    pub failures: Vec<String>,
}

impl Pass {
    /// Summed operation time (s): the pass's wall time as its client
    /// sees it, without the benchmark's own checks.
    pub fn wall_s(&self) -> f64 {
        self.op_ms.iter().sum::<f64>() / 1e3
    }
}

/// The 2-thread pool of the speed-up probes. It lives until the process
/// exits and is never dropped: `Pool`'s shutdown can miss an idle
/// worker's wakeup and then hang in `join`.
pub fn two_threads() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool::new(2))
}

/// The operation order of pass `pass`: a seeded Fisher–Yates shuffle.
pub fn order(len: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut rng = Rng::from_seed(seed ^ pass.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut idx: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        idx.swap(i, rng.usize_below(i + 1));
    }
    idx
}

/// Runs every operation once in `order`, traced when `tracer` is given.
pub fn run_pass<W: Workload>(w: &W, order: &[usize], mut tracer: Option<&mut Tracer>) -> Pass {
    let mut pass = Pass::default();
    for &i in order {
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| match tracer.as_deref_mut() {
            Some(tr) => {
                tr.set_op(i as u64);
                w.run_traced(i, tr)
            }
            None => w.run(i),
        }));
        pass.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let checked = match out {
            Ok(out) => w.check(i, out),
            Err(_) => Checked::of(Verdict::Failed("panicked".to_string())),
        };
        pass.attempted += 1;
        pass.work += checked.work;
        pass.literals += checked.literals;
        pass.golden_dev = pass.golden_dev.max(checked.golden_dev);
        match checked.verdict {
            Verdict::Pass => {}
            Verdict::Failed(why) => {
                pass.failed += 1;
                pass.failures.push(format!("failed {}: {why}", w.label(i)));
            }
            Verdict::Wrong(why) => {
                pass.failed += 1;
                pass.wrong += 1;
                pass.failures.push(format!("wrong {}: {why}", w.label(i)));
            }
        }
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_a_seeded_permutation() {
        let a = order(40, 7, 0);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..40).collect::<Vec<_>>());
        assert_eq!(a, order(40, 7, 0));
        assert_ne!(a, order(40, 7, 1));
        assert_ne!(a, order(40, 8, 0));
    }

    struct Toy;
    impl Workload for Toy {
        type Output = Result<u32, String>;
        fn len(&self) -> usize {
            4
        }
        fn label(&self, i: usize) -> String {
            format!("toy{i}")
        }
        fn run(&self, i: usize) -> Self::Output {
            match i {
                0 => Err("refused".into()),
                1 => panic!("boom"),
                _ => Ok(i as u32),
            }
        }
        fn run_traced(&self, i: usize, tr: &mut Tracer) -> Self::Output {
            tr.span("toy", || self.run(i))
        }
        fn check(&self, _: usize, out: Self::Output) -> Checked {
            match out {
                Err(e) => Checked::of(Verdict::Failed(e)),
                Ok(3) => Checked::of(Verdict::Wrong("three".into())),
                Ok(_) => Checked {
                    work: 2.0,
                    ..Checked::of(Verdict::Pass)
                },
            }
        }
    }

    #[test]
    fn failures_errors_panics_and_wrong_outputs_are_all_counted() {
        let pass = run_pass(&Toy, &[0, 1, 2, 3], None);
        assert_eq!(pass.attempted, 4);
        assert_eq!(pass.failed, 3);
        assert_eq!(pass.wrong, 1);
        assert_eq!(pass.work, 2.0);
        assert_eq!(pass.op_ms.len(), 4);
        assert_eq!(crate::stats::failed_frac(pass.failed, pass.attempted), 0.75);
        let mut tr = Tracer::new();
        let traced = run_pass(&Toy, &[2, 3], Some(&mut tr));
        assert_eq!(traced.failed, 1);
        assert_eq!(tr.totals()["toy"].calls, 2);
    }
}
