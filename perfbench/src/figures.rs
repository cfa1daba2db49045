//! `paper_figures`: one operation per figure unit — Table I, each Fig 6
//! series, and each Fig 7a/7b/7c grid point (all five series on a
//! one-point grid) — on a 1-thread pool.
//!
//! The co-simulation chain (RK2 buck → comparator bank → controller →
//! event delivery → waveform recorder) does all the work and the formal
//! side is idle. Sync series are driven by clock wakeups, async series
//! by sensor and ack events. The seed only shuffles the operation order.

use std::path::Path;
use std::time::Instant;

use a4a::analog::{metrics, Buck, BuckParams, CoilModel, Waveform};
use a4a::scenario::{self, ControllerKind};
use a4a::TestbenchBuilder;
use a4a_bench::experiments::{
    fig6_run, fig7a_on, fig7b_on, fig7c_on, table1, SweepPoint, Table1Row,
};
use a4a_rt::Pool;

use crate::golden::{self, Golden};
use crate::harness::{two_threads, Checked, Verdict, Workload};
use crate::layers::Layers;
use crate::probe::Probe;
use crate::trace::Tracer;

/// Simulated length of a Figure 7 cell (s).
const SWEEP_T_END: f64 = 8e-6;
/// Load of the Figure 7a/7c coil sweeps (Ω).
const SWEEP_LOAD: f64 = 6.0;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Unit {
    Table1,
    Fig6(ControllerKind),
    Fig7a(f64),
    Fig7b(f64),
    Fig7c(f64),
}

/// What one figure unit produced.
pub enum Output {
    /// Table I rows.
    Table1(Vec<Table1Row>),
    /// One Fig 6 series.
    Fig6 {
        /// Rejected short-circuit commands.
        shorts: usize,
        /// The 10 µs record.
        waveform: Waveform,
    },
    /// One Fig 7 grid point (x plus one y per series).
    Sweep(SweepPoint),
}

/// The figure units of one pass plus the committed results.
pub struct PaperFigures {
    units: Vec<Unit>,
    golden: Golden,
    pool: Pool,
}

/// The series labels in paper order.
pub fn series_labels() -> Vec<String> {
    ControllerKind::paper_series()
        .iter()
        .map(ControllerKind::label)
        .collect()
}

impl PaperFigures {
    /// Lists the figure units and reads the committed results from
    /// `results/` under `root`.
    pub fn setup(root: &Path) -> Result<PaperFigures, String> {
        let golden = Golden::load(&root.join("results"))?;
        let mut units = vec![Unit::Table1];
        units.extend(ControllerKind::paper_series().into_iter().map(Unit::Fig6));
        units.extend(scenario::coil_grid().into_iter().map(Unit::Fig7a));
        units.extend(scenario::load_grid().into_iter().map(Unit::Fig7b));
        units.extend(scenario::coil_grid().into_iter().map(Unit::Fig7c));
        Ok(PaperFigures {
            units,
            golden,
            pool: Pool::new(1),
        })
    }

    /// One co-simulation cell with the controller wrapped in a
    /// [`Probe`], spanned per layer.
    fn cell(
        tr: &mut Tracer,
        builder: TestbenchBuilder,
        kind: ControllerKind,
        t_end: f64,
    ) -> (Waveform, usize) {
        let mut tb = tr
            .span("core.cosim.build", || {
                builder.try_build(Probe::new(scenario::controller(kind, 4)))
            })
            .expect("figure cells configure a valid testbench");
        let run = tr.begin("core.cosim.run");
        let ran = tb.try_run_until(t_end);
        tr.end(run);
        ran.expect("figure co-simulation must not diverge");
        let s = tb.controller().stats();
        let label = kind.label();
        let counts = [
            ("on_sensor.calls", s.on_sensor),
            ("on_gate_ack.calls", s.on_gate_ack),
            ("on_wakeup.calls", s.on_wakeup),
            ("next_wakeup.calls", s.next_wakeup),
            ("commands", s.commands),
        ];
        for (name, count) in counts {
            tr.add(&format!("ctrl.{label}.{name}"), count as f64);
        }
        tr.add(
            &format!("ctrl.{label}.self_ns"),
            s.self_time.as_nanos() as f64,
        );
        tr.add(&format!("ctrl.{label}.run_ns"), tr.duration(run) as f64);
        tr.add("core.cosim.windows", s.debug_tracks as f64);
        tr.add("core.cosim.cells", 1.0);
        let shorts = tb.short_circuits();
        let waveform = tb.into_waveform();
        tr.add("analog.record.samples", waveform.len() as f64);
        tr.add("analog.record.events", waveform.events.len() as f64);
        (waveform, shorts)
    }

    fn sweep_traced(&self, tr: &mut Tracer, unit: Unit) -> SweepPoint {
        let (x, name) = match unit {
            Unit::Fig7a(x) => (x, "bench.experiments.fig7a"),
            Unit::Fig7b(x) => (x, "bench.experiments.fig7b"),
            Unit::Fig7c(x) => (x, "bench.experiments.fig7c"),
            _ => unreachable!("not a sweep unit"),
        };
        let op = tr.begin(name);
        let mut y = Vec::new();
        for kind in ControllerKind::paper_series() {
            let builder = match unit {
                Unit::Fig7b(r) => scenario::sweep_load(r),
                _ => scenario::sweep_coil(x, SWEEP_LOAD),
            };
            let (w, shorts) = Self::cell(tr, builder, kind, SWEEP_T_END);
            assert_eq!(shorts, 0, "{}: short circuit", kind.label());
            // The same per-cell reduction as `a4a_bench::experiments`.
            y.push(tr.span("analog.metrics", || match unit {
                Unit::Fig7c(l) => {
                    let coil = CoilModel::coilcraft(l);
                    let steady = w.window(3e-6, 8e-6);
                    let ac: f64 = (0..4)
                        .map(|k| {
                            let a = metrics::ac_rms_current(&steady, k);
                            a * a * coil.esr_hf
                        })
                        .sum();
                    ac * 1e6
                }
                _ => metrics::peak_current(&w) * 1e3,
            }));
        }
        tr.end(op);
        SweepPoint { x, y }
    }

    /// The whole Figure 7a sweep on a 1-thread pool over a 2-thread pool
    /// (median of two alternating pairs).
    pub fn sweep_speedup_2t(&self) -> f64 {
        let one = Pool::new(1);
        let pools = [&one, two_threads()];
        let grid = scenario::coil_grid();
        let mut t = [Vec::new(), Vec::new()];
        for _ in 0..2 {
            for (k, pool) in pools.iter().enumerate() {
                let t0 = Instant::now();
                std::hint::black_box(fig7a_on(pool, &grid));
                t[k].push(t0.elapsed().as_secs_f64());
            }
        }
        let m = |v: &[f64]| crate::stats::median(v).unwrap_or(f64::NAN);
        m(&t[0]) / m(&t[1])
    }
}

impl Workload for PaperFigures {
    type Output = Output;

    fn len(&self) -> usize {
        self.units.len()
    }

    fn label(&self, i: usize) -> String {
        match self.units[i] {
            Unit::Table1 => "table1".to_string(),
            Unit::Fig6(k) => format!("fig6/{}", k.label()),
            Unit::Fig7a(x) => format!("fig7a/{x}"),
            Unit::Fig7b(x) => format!("fig7b/{x}"),
            Unit::Fig7c(x) => format!("fig7c/{x}"),
        }
    }

    fn run(&self, i: usize) -> Output {
        match self.units[i] {
            Unit::Table1 => Output::Table1(table1()),
            Unit::Fig6(kind) => {
                let r = fig6_run(kind);
                Output::Fig6 {
                    shorts: r.short_circuits,
                    waveform: r.waveform,
                }
            }
            Unit::Fig7a(x) => Output::Sweep(fig7a_on(&self.pool, &[x]).remove(0)),
            Unit::Fig7b(x) => Output::Sweep(fig7b_on(&self.pool, &[x]).remove(0)),
            Unit::Fig7c(x) => Output::Sweep(fig7c_on(&self.pool, &[x]).remove(0)),
        }
    }

    fn run_traced(&self, i: usize, tr: &mut Tracer) -> Output {
        match self.units[i] {
            Unit::Table1 => Output::Table1(tr.span("bench.experiments.table1", table1)),
            Unit::Fig6(kind) => {
                let op = tr.begin("bench.experiments.fig6");
                let (waveform, shorts) =
                    Self::cell(tr, scenario::fig6(), kind, scenario::FIG6_T_END);
                // The headline metrics `fig6_run` computes.
                tr.span("analog.metrics", || {
                    let (a, b) = scenario::FIG6_NORMAL_WINDOW;
                    let normal = waveform.window(a, b);
                    std::hint::black_box((
                        metrics::voltage_ripple(&normal),
                        metrics::peak_current(&waveform),
                    ))
                });
                tr.end(op);
                Output::Fig6 { shorts, waveform }
            }
            unit => Output::Sweep(self.sweep_traced(tr, unit)),
        }
    }

    fn check(&self, i: usize, out: Output) -> Checked {
        let g = &self.golden;
        let (dev, sim_us, wrong) = match (self.units[i], out) {
            (Unit::Table1, Output::Table1(rows)) => {
                let dev = rows
                    .iter()
                    .map(|r| {
                        golden::labelled_dev(&g.table1, &r.label, &r.ns, golden::TABLE1_TOL_NS)
                    })
                    .fold(0.0, f64::max);
                let wrong = (rows.len() != g.table1.len()).then(|| format!("{} rows", rows.len()));
                (dev, 0.0, wrong)
            }
            (Unit::Fig6(kind), Output::Fig6 { shorts, waveform }) => {
                let mut wrong = (shorts > 0).then(|| format!("{shorts} short circuits"));
                if let Some(want) = g.fig6_of(&kind.label()) {
                    if waveform.csv() != want.analog || waveform.events_csv() != want.events {
                        wrong = Some("waveform differs from results/fig6_*.csv".to_string());
                    }
                }
                (0.0, scenario::FIG6_T_END * 1e6, wrong)
            }
            (unit, Output::Sweep(p)) => {
                let (rows, tol) = match unit {
                    Unit::Fig7a(_) => (&g.fig7a, golden::PEAK_TOL_MA),
                    Unit::Fig7b(_) => (&g.fig7b, golden::PEAK_TOL_MA),
                    _ => (&g.fig7c, golden::LOSS_TOL_UW),
                };
                let dev = golden::sweep_dev(rows, p.x, &p.y, tol);
                (dev, SWEEP_T_END * 1e6 * p.y.len() as f64, None)
            }
            _ => (0.0, 0.0, Some("output of another unit".to_string())),
        };
        let verdict = match wrong {
            Some(why) => Verdict::Wrong(why),
            None if dev > 1.0 => Verdict::Wrong(format!("golden_dev {dev}")),
            None => Verdict::Pass,
        };
        Checked {
            work: sim_us,
            golden_dev: dev,
            ..Checked::of(verdict)
        }
    }
}

/// `Buck::try_step` alone over `windows` steps spanning one 8 µs cell
/// (ns per step, median of five cells).
fn buck_ns_per_step(windows: usize) -> f64 {
    let windows = windows.max(1);
    let dt = SWEEP_T_END / windows as f64;
    let mut per_step = Vec::new();
    for _ in 0..5 {
        let mut buck = Buck::try_new(BuckParams::default()).expect("default buck is valid");
        buck.try_set_switch(0, true, false).expect("phase 0 exists");
        let t0 = Instant::now();
        for _ in 0..windows {
            buck.try_step(dt).expect("the buck integrates");
        }
        per_step.push(t0.elapsed().as_nanos() as f64 / windows as f64);
        std::hint::black_box(buck.output_voltage());
    }
    crate::stats::median(&per_step).unwrap_or(0.0)
}

/// Per-layer metrics of the traced passes (each value per pass).
pub fn layers(w: &PaperFigures, tr: &Tracer, passes: usize, out: &mut Layers) {
    let t = tr.totals();
    let n = passes as f64;
    let ms = |name: &str| t.get(name).map_or(0.0, |x| x.total_ns as f64 / 1e6) / n;
    let (build, run) = (ms("core.cosim.build"), ms("core.cosim.run"));
    let windows = tr.counter("core.cosim.windows");
    out.put("core.cosim.build_ms", build);
    out.put("core.cosim.run_ms", run);
    out.put("core.cosim.windows", windows / n);
    out.put("core.cosim.ns_per_window", run * 1e6 * n / windows.max(1.0));
    for label in series_labels() {
        let c = |name: &str| tr.counter(&format!("ctrl.{label}.{name}"));
        for name in [
            "on_sensor.calls",
            "on_gate_ack.calls",
            "on_wakeup.calls",
            "next_wakeup.calls",
            "commands",
        ] {
            out.put(format!("ctrl.{label}.{name}"), c(name) / n);
        }
        out.put(format!("ctrl.{label}.self_ms"), c("self_ns") / 1e6 / n);
        out.put(
            format!("ctrl.{label}.share"),
            c("self_ns") / c("run_ns").max(1.0),
        );
    }
    let cells = tr.counter("core.cosim.cells").max(1.0);
    out.put(
        "analog.buck.ns_per_step",
        buck_ns_per_step((windows / cells) as usize),
    );
    out.put(
        "analog.record.samples",
        tr.counter("analog.record.samples") / n,
    );
    out.put(
        "analog.record.events",
        tr.counter("analog.record.events") / n,
    );
    out.put("analog.metrics.ms", ms("analog.metrics"));
    let mut total = 0.0;
    for fig in ["table1", "fig6", "fig7a", "fig7b", "fig7c"] {
        let name = format!("bench.experiments.{fig}");
        total += ms(&name);
        out.put(format!("{name}.ms"), ms(&name));
    }
    out.put("share.cosim", (build + run) / total);
    out.put("rt.pool.sweep_speedup_2t", w.sweep_speedup_2t());
}
