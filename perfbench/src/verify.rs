//! `verify_composed`: the `a4a verify` path — parse `.g` text, build
//! the state graph, run the sanity checks.
//!
//! Exploration does the work here and the minimiser is idle. Inputs are
//! seed-drawn compositions of handshake pipelines whose state counts sit
//! near fixed log-spaced targets from 10² to 4·10⁴, plus the `.g` of the
//! 20 built-in specifications. The seed draws each composition's
//! pipeline order and output signals, not its sizes: the cost of a pass
//! follows the state and edge counts, so runs with different seeds do
//! the same amount of work.

use a4a::stg::{prop_support, StateGraph, Stg, StgError, VerifyReport};
use a4a_rt::{Pool, Rng};
use std::time::Instant;

use crate::harness::{two_threads, Checked, Verdict, Workload};
use crate::layers::{bucket, Layers};
use crate::trace::Tracer;

const MAX_STATES: usize = 1_000_000;
/// Number of composed inputs, one per log-spaced size target.
const COMPOSED: usize = 30;
/// Smallest and largest composed state-count targets. The largest stays
/// well under the parser's 200 000-state budget for inferring initial
/// values.
const MIN_STATES: f64 = 100.0;
const MAX_TARGET: f64 = 40_000.0;
const PREFIXES: [&str; 4] = ["a", "b", "c", "d"];

struct Input {
    name: String,
    text: String,
    stg: Stg,
    states: usize,
}

/// The `.g` inputs of one pass.
pub struct VerifyComposed {
    inputs: Vec<Input>,
}

type Output = Result<(StateGraph, VerifyReport), StgError>;

/// The pipeline lengths (each 1–16 signals) of a composition of `k`
/// pipelines whose state count `Π 2n` is nearest to `target`, fewest
/// signals first on ties. It depends on `k` and `target` only, so every
/// seed gets the same sizes and (with the same `k`) the same number of
/// edges per state.
fn lengths_near(k: usize, target: f64) -> Vec<usize> {
    // Non-decreasing length tuples, so each multiset is visited once.
    fn walk(
        k: usize,
        min: usize,
        acc: &mut Vec<usize>,
        target: f64,
        best: &mut (f64, usize, Vec<usize>),
    ) {
        if acc.len() == k {
            // Products of small integers are exact, so equal sizes tie exactly.
            let states: f64 = acc.iter().map(|&n| 2.0 * n as f64).product();
            let key = ((states.ln() - target.ln()).abs(), acc.iter().sum::<usize>());
            if key < (best.0, best.1) {
                *best = (key.0, key.1, acc.clone());
            }
            return;
        }
        for n in min..=16 {
            acc.push(n);
            walk(k, n, acc, target, best);
            acc.pop();
        }
    }
    let mut best = (f64::INFINITY, usize::MAX, Vec::new());
    walk(k, 1, &mut Vec::new(), target, &mut best);
    best.2
}

/// A seed-drawn composition near `target` states: 2, 3 or 4 pipelines
/// (by target index, and at least enough to reach the target), in a
/// seed-shuffled order, each with seed-drawn output signals.
fn shape_near(rng: &mut Rng, j: usize, target: f64) -> Vec<(usize, u64)> {
    // A pipeline of 16 signals has 32 states.
    let k_min = (2..=4).find(|&k| 32f64.powi(k) >= target).unwrap_or(4) as usize;
    let mut lengths = lengths_near((2 + j % 3).max(k_min), target);
    for i in (1..lengths.len()).rev() {
        lengths.swap(i, rng.usize_below(i + 1));
    }
    lengths.into_iter().map(|n| (n, rng.next_u64())).collect()
}

fn compose(shape: &[(usize, u64)]) -> Result<Stg, StgError> {
    let mut parts = shape
        .iter()
        .zip(PREFIXES)
        .map(|(&(n, mask), prefix)| prop_support::pipeline_stg_with_prefix(n, mask, prefix));
    let first = parts.next().expect("at least two pipelines");
    parts.try_fold(first, |acc, p| acc.compose(&p))
}

impl VerifyComposed {
    /// Draws the composed inputs from `seed` and renders every input to
    /// `.g` text.
    pub fn setup(seed: u64) -> Result<VerifyComposed, String> {
        let mut rng = Rng::from_seed(seed);
        let mut inputs = Vec::new();
        for j in 0..COMPOSED {
            let frac = (j as f64 + 0.5) / COMPOSED as f64;
            let target = (MIN_STATES.ln() + frac * (MAX_TARGET / MIN_STATES).ln()).exp();
            let shape = shape_near(&mut rng, j, target);
            let stg = compose(&shape).map_err(|e| format!("compose {shape:?}: {e}"))?;
            let states = shape.iter().map(|&(n, _)| 2 * n).product();
            let dims: Vec<String> = shape.iter().map(|(n, _)| n.to_string()).collect();
            inputs.push(Input {
                name: format!("pipelines{}", dims.join("x")),
                text: stg.to_g(),
                stg,
                states,
            });
        }
        for (name, stg) in crate::flow::builtin_specs() {
            let states = stg
                .state_graph(MAX_STATES)
                .map_err(|e| format!("{name}: {e}"))?
                .state_count();
            inputs.push(Input {
                name: name.to_string(),
                text: stg.to_g(),
                stg,
                states,
            });
        }
        Ok(VerifyComposed { inputs })
    }

    /// The input with the most states.
    fn largest(&self) -> &Input {
        self.inputs
            .iter()
            .max_by_key(|i| i.states)
            .expect("inputs are never empty")
    }

    /// `state_graph` of the largest input on a 1-thread pool over a
    /// 2-thread pool (median of three alternating pairs).
    pub fn bfs_speedup_2t(&self) -> f64 {
        let stg = &self.largest().stg;
        let one = Pool::new(1);
        let pools = [&one, two_threads()];
        let mut t = [Vec::new(), Vec::new()];
        for _ in 0..3 {
            for (k, pool) in pools.iter().enumerate() {
                let t0 = Instant::now();
                let sg = stg.state_graph_with(pool, MAX_STATES);
                t[k].push(t0.elapsed().as_secs_f64());
                drop(std::hint::black_box(sg));
            }
        }
        let m = |v: &[f64]| crate::stats::median(v).unwrap_or(f64::NAN);
        m(&t[0]) / m(&t[1])
    }
}

impl Workload for VerifyComposed {
    type Output = Output;

    fn len(&self) -> usize {
        self.inputs.len()
    }

    fn label(&self, i: usize) -> String {
        self.inputs[i].name.clone()
    }

    fn run(&self, i: usize) -> Output {
        let stg = Stg::parse_g(&self.inputs[i].text)?;
        let sg = stg.state_graph(MAX_STATES)?;
        let report = stg.verify(&sg);
        Ok((sg, report))
    }

    fn run_traced(&self, i: usize, tr: &mut Tracer) -> Output {
        let input = &self.inputs[i];
        let op = tr.begin("op");
        let out = (|| {
            let stg = tr.span("stg.parse", || Stg::parse_g(&input.text))?;
            let span = tr.begin("stg.state_graph");
            let sg = stg.state_graph(MAX_STATES);
            tr.end(span);
            let sg = sg?;
            let ns = tr.duration(span) as f64;
            let class = bucket(sg.state_count());
            tr.add("stg.state_graph.states", sg.state_count() as f64);
            tr.add("stg.state_graph.edges", sg.edge_count() as f64);
            tr.add(&format!("stg.state_graph.ns.{class}"), ns);
            tr.add(
                &format!("stg.state_graph.states.{class}"),
                sg.state_count() as f64,
            );
            let report = tr.span("stg.verify", || stg.verify(&sg));
            Ok((sg, report))
        })();
        tr.end(op);
        // Raw Petri-net reachability of the same net: off the user path
        // today, the engine a unified explorer would put on it.
        let probe = tr.begin("probe");
        let span = tr.begin("petri.explore");
        let rg = input.stg.net().explore(MAX_STATES);
        tr.end(span);
        let ns = tr.duration(span) as f64;
        if let Ok(rg) = rg {
            let class = bucket(rg.state_count());
            tr.add(&format!("petri.explore.ns.{class}"), ns);
            tr.add(
                &format!("petri.explore.states.{class}"),
                rg.state_count() as f64,
            );
        }
        tr.end(probe);
        out
    }

    fn check(&self, i: usize, out: Output) -> Checked {
        let input = &self.inputs[i];
        let (sg, report) = match out {
            Ok(x) => x,
            Err(e) => return Checked::of(Verdict::Failed(e.to_string())),
        };
        let verdict = if !report.is_clean() {
            Verdict::Wrong(format!("sanity: {}", report.summary()))
        } else if sg.state_count() != input.states {
            Verdict::Wrong(format!(
                "{} states, expected {}",
                sg.state_count(),
                input.states
            ))
        } else {
            Verdict::Pass
        };
        Checked {
            work: sg.state_count() as f64,
            ..Checked::of(verdict)
        }
    }
}

/// Per-layer metrics of the traced passes (each value per pass).
pub fn layers(tr: &Tracer, passes: usize, out: &mut Layers) {
    let t = tr.totals();
    let n = passes as f64;
    let ms = |name: &str| t.get(name).map_or(0.0, |x| x.total_ns as f64 / 1e6) / n;
    let (parse, sg, verify) = (ms("stg.parse"), ms("stg.state_graph"), ms("stg.verify"));
    out.put("stg.parse.ms", parse);
    out.put("stg.state_graph.ms", sg);
    out.put(
        "stg.state_graph.states",
        tr.counter("stg.state_graph.states") / n,
    );
    out.put(
        "stg.state_graph.edges",
        tr.counter("stg.state_graph.edges") / n,
    );
    out.put("stg.verify.ms", verify);
    out.put("petri.explore.ms", ms("petri.explore"));
    for layer in ["stg.state_graph", "petri.explore"] {
        for class in ["small", "mid", "large"] {
            let ns = tr.counter(&format!("{layer}.ns.{class}"));
            let states = tr.counter(&format!("{layer}.states.{class}"));
            out.put(
                format!("{layer}.ns_per_state.{class}"),
                if states > 0.0 { ns / states } else { 0.0 },
            );
        }
    }
    out.put("share.explore", (parse + sg + verify) / ms("op"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composed_sizes_follow_the_targets_not_the_seed() {
        let a = VerifyComposed::setup(3).unwrap();
        let b = VerifyComposed::setup(4).unwrap();
        let sizes = |w: &VerifyComposed| -> Vec<usize> {
            w.inputs[..COMPOSED].iter().map(|i| i.states).collect()
        };
        let s = sizes(&a);
        assert_eq!(s, sizes(&b));
        assert!(s.windows(2).all(|w| w[0] <= w[1] * 11 / 10), "{s:?}");
        assert!((80..=130).contains(&s[0]), "{s:?}");
        assert!((30_000..=40_000).contains(&s[COMPOSED - 1]), "{s:?}");
        for class in ["small", "mid", "large"] {
            assert!(s.iter().any(|&n| bucket(n) == class), "{class}: {s:?}");
        }
        assert_eq!(a.inputs.len(), COMPOSED + 20);
        assert_ne!(
            a.inputs[5].text, b.inputs[5].text,
            "the seed draws the compositions"
        );
    }
}
