//! The repository's benchmark: the A4A flow and the paper's
//! mixed-signal experiments, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <flow_specs|verify_composed|paper_figures|all> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root (the figures workload reads the
//! committed `results/*.csv`). The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). See
//! `perfbench/README.md` for the workloads, metrics and findings.

mod figures;
mod flow;
mod golden;
mod harness;
mod layers;
mod probe;
mod stats;
mod trace;
mod verify;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use harness::{order, run_pass, Pass, Workload};
use layers::Layers;
use trace::Tracer;

/// The workloads, in the order a traced run measures them.
pub const WORKLOADS: [&str; 3] = ["flow_specs", "verify_composed", "paper_figures"];
/// A run holds at least this many operations, so at least ten lie
/// beyond the reported p90.
const MIN_OPS: usize = 100;
/// Set-up is repeated for about this long (s), at least
/// [`SETUP_MIN_REPS`] times; the median is reported. Single set-ups take
/// well under a millisecond to a few milliseconds, too short for one
/// sample to be steady on a shared machine.
const SETUP_SECONDS: f64 = 0.5;
const SETUP_MIN_REPS: usize = 5;
/// Where the traced run writes its spans (inside the checkout).
const TRACE_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

enum Bench {
    Flow(flow::FlowSpecs),
    Verify(verify::VerifyComposed),
    Figures(figures::PaperFigures),
}

fn setup(workload: &str, seed: u64) -> Result<Bench, String> {
    Ok(match workload {
        "flow_specs" => Bench::Flow(flow::FlowSpecs::setup()?),
        "verify_composed" => Bench::Verify(verify::VerifyComposed::setup(seed)?),
        _ => Bench::Figures(figures::PaperFigures::setup(Path::new("."))?),
    })
}

/// Sets the workload up repeatedly (see [`SETUP_SECONDS`]); returns the
/// last instance and the median set-up time (s).
fn setup_timed(workload: &str, seed: u64) -> Result<(Bench, f64), String> {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let bench = setup(workload, seed)?;
        times.push(t0.elapsed().as_secs_f64());
        if times.len() >= SETUP_MIN_REPS && start.elapsed().as_secs_f64() >= SETUP_SECONDS {
            return Ok((bench, stats::median(&times).expect("at least one set-up")));
        }
    }
}

/// Whole passes until `seconds` have passed and at least [`MIN_OPS`]
/// operations ran.
fn measure<W: Workload>(w: &W, seed: u64, seconds: f64) -> Vec<Pass> {
    let t0 = Instant::now();
    let mut passes = Vec::new();
    let mut ops = 0;
    while passes.is_empty() || ops < MIN_OPS || t0.elapsed().as_secs_f64() < seconds {
        let p = run_pass(w, &order(w.len(), seed, passes.len() as u64), None);
        ops += p.attempted;
        passes.push(p);
    }
    passes
}

/// Totals over a run's passes.
#[derive(Debug, Default)]
struct Totals {
    attempted: usize,
    failed: usize,
    wrong: usize,
    op_ms: Vec<f64>,
    walls: Vec<f64>,
    work: f64,
    literals: u64,
    golden_dev: f64,
    failures: Vec<String>,
}

impl Totals {
    fn add(&mut self, p: &Pass) {
        self.attempted += p.attempted;
        self.failed += p.failed;
        self.wrong += p.wrong;
        self.op_ms.extend(&p.op_ms);
        self.walls.push(p.wall_s());
        self.work += p.work;
        self.literals += p.literals;
        self.golden_dev = self.golden_dev.max(p.golden_dev);
        for f in &p.failures {
            if !self.failures.contains(f) {
                self.failures.push(f.clone());
            }
        }
    }

    fn of(passes: &[Pass]) -> Totals {
        let mut t = Totals::default();
        passes.iter().for_each(|p| t.add(p));
        t
    }

    /// Work units per second of operation time.
    fn work_per_s(&self) -> f64 {
        self.work / (self.op_ms.iter().sum::<f64>() / 1e3)
    }

    fn wall_s(&self) -> f64 {
        stats::median(&self.walls).unwrap_or(0.0)
    }
}

/// Peak resident set size of this process (MB), from `/proc`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit checked out in the working directory, read from `.git`
/// without running git (`unknown` outside a git checkout).
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(r)
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read("packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| "unknown".to_string()),
    }
}

fn run_header(args: &Args) -> String {
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"threads\":1,\"available_parallelism\":{parallelism},\"rev\":\"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_revision()
    )
}

/// A run's result line.
#[derive(Debug, Default)]
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, &'static str, f64)>,
}

impl Report {
    fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            // JSON has no NaN or infinity; a ratio over an empty layer
            // reads 0 and says so.
            let value = if value.is_finite() {
                *value
            } else {
                eprintln!("perfbench: {name} is {value}; reported as 0");
                0.0
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// One untraced run of `workload`: prints every named metric and returns
/// the end-to-end metrics.
fn untraced(workload: &str, seed: u64, seconds: f64) -> Result<Report, String> {
    let (bench, setup_s) = setup_timed(workload, seed)?;
    let passes = match &bench {
        Bench::Flow(w) => measure(w, seed, seconds),
        Bench::Verify(w) => measure(w, seed, seconds),
        Bench::Figures(w) => measure(w, seed, seconds),
    };
    let t = Totals::of(&passes);
    for f in &t.failures {
        eprintln!("# {workload}: {f}");
    }
    let failed_frac = stats::failed_frac(t.failed, t.attempted);
    let mut extra = format!(
        "# {workload}: passes={} ops={} ops_beyond_p90={} failed={} wrong={} failed_frac={failed_frac}",
        passes.len(),
        t.attempted,
        stats::count_above(&t.op_ms, 0.9),
        t.failed,
        t.wrong,
    );
    let walls: Vec<String> = t.walls.iter().map(|w| format!("{w:.4}")).collect();
    write!(extra, " pass_wall_s=[{}]", walls.join(",")).expect("writing to a String");
    match workload {
        "flow_specs" => write!(extra, " literals={}", t.literals / passes.len() as u64),
        "verify_composed" => write!(extra, " states_per_s={}", t.work_per_s()),
        _ => write!(
            extra,
            " sim_us_per_s={} golden_dev={}",
            t.work_per_s(),
            t.golden_dev
        ),
    }
    .expect("writing to a String");
    println!("{extra}");
    let values = [
        setup_s,
        t.wall_s(),
        stats::percentile(&t.op_ms, 0.5).unwrap_or(0.0),
        stats::percentile(&t.op_ms, 0.9).unwrap_or(0.0),
        1.0 - failed_frac,
        peak_rss_mb(),
    ];
    Ok(Report {
        correct: t.wrong == 0,
        attempted: t.attempted,
        failed: t.failed,
        metrics: layers::END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), unit, v))
            .collect(),
    })
}

/// Untraced and traced passes of one workload, alternating, for about
/// `seconds`: returns the totals of both and the tracer.
fn traced_passes<W: Workload>(w: &W, seed: u64, seconds: f64) -> (Totals, Totals, Tracer, usize) {
    let mut tr = Tracer::new();
    let (mut plain, mut traced) = (Totals::default(), Totals::default());
    let t0 = Instant::now();
    let mut pass = 0;
    while pass == 0 || t0.elapsed().as_secs_f64() < seconds {
        let ord = order(w.len(), seed, pass as u64);
        plain.add(&run_pass(w, &ord, None));
        traced.add(&run_pass(w, &ord, Some(&mut tr)));
        pass += 1;
    }
    (plain, traced, tr, pass)
}

/// The traced run: every workload in turn (each per-layer metric belongs
/// to one of them), about a third of `seconds` each. Writes the spans
/// and returns the per-layer metrics.
fn traced(args: &Args) -> Result<Report, String> {
    let header = run_header(args);
    let mut out = Layers::default();
    let (mut attempted, mut failed, mut wrong) = (0, 0, 0);
    let mut spans = String::new();
    let share = args.seconds / WORKLOADS.len() as f64;
    for workload in WORKLOADS {
        let bench = setup(workload, args.seed)?;
        let (plain, traced, tr) = match &bench {
            Bench::Flow(w) => {
                let (plain, traced, tr, n) = traced_passes(w, args.seed, share);
                flow::layers(&tr, n, &mut out);
                out.put("literals", traced.literals as f64 / n as f64);
                (plain, traced, tr)
            }
            Bench::Verify(w) => {
                let (plain, traced, tr, n) = traced_passes(w, args.seed, share);
                verify::layers(&tr, n, &mut out);
                out.put("rt.pool.bfs_speedup_2t", w.bfs_speedup_2t());
                out.put("states_per_s", plain.work_per_s());
                (plain, traced, tr)
            }
            Bench::Figures(w) => {
                let (plain, traced, tr, n) = traced_passes(w, args.seed, share);
                figures::layers(w, &tr, n, &mut out);
                out.put("sim_us_per_s", plain.work_per_s());
                out.put("golden_dev", plain.golden_dev.max(traced.golden_dev));
                (plain, traced, tr)
            }
        };
        for f in plain.failures.iter().chain(&traced.failures) {
            eprintln!("# {workload}: {f}");
        }
        let all = plain.attempted + traced.attempted;
        let bad = plain.failed + traced.failed;
        out.put(
            format!("failed_frac.{workload}"),
            stats::failed_frac(bad, all),
        );
        out.put(
            format!("trace.overhead.{workload}"),
            traced.wall_s() / plain.wall_s(),
        );
        attempted += all;
        failed += bad;
        wrong += plain.wrong + traced.wrong;
        let wl_header = format!("{{\"run\":{header},\"spans_of\":\"{workload}\"}}");
        spans.push_str(&tr.to_jsonl(&wl_header));
    }
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("{TRACE_DIR}: {e}"))?;
    let path = format!(
        "{TRACE_DIR}/trace-{}-seed{}.jsonl",
        args.workload, args.seed
    );
    std::fs::write(&path, spans).map_err(|e| format!("{path}: {e}"))?;
    println!("# spans written to {path}");
    let mut metrics = Vec::new();
    for (name, unit) in layers::per_layer() {
        let value = out
            .get(&name)
            .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
        metrics.push((name, unit, value));
    }
    Ok(Report {
        correct: wrong == 0,
        attempted,
        failed,
        metrics,
    })
}

/// Every workload untraced, one after another; metric names are
/// prefixed with the workload.
fn untraced_all(seed: u64, seconds: f64) -> Result<Report, String> {
    let mut all = Report {
        correct: true,
        ..Report::default()
    };
    for workload in WORKLOADS {
        let r = untraced(workload, seed, seconds)?;
        all.correct &= r.correct;
        all.attempted += r.attempted;
        all.failed += r.failed;
        all.metrics.extend(
            r.metrics
                .into_iter()
                .map(|(name, unit, v)| (format!("{workload}.{name}"), unit, v)),
        );
    }
    Ok(all)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // End-to-end runs are pinned to one thread: the library's global
    // pool reads this before its first use.
    std::env::set_var("A4A_THREADS", "1");
    println!("# perfbench run {}", run_header(&args));
    let result = if args.trace {
        traced(&args)
    } else if args.workload == "all" {
        untraced_all(args.seed, args.seconds)
    } else {
        untraced(&args.workload, args.seed, args.seconds)
    };
    match result {
        Ok(report) => {
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
