//! Tracked wall-time benchmarks for the mixed-signal co-simulation hot
//! path — the loop every experiment bin (Table I cross-check, Figure 6
//! waveforms, the Figure 7 sweeps) spends nearly all of its time in.
//!
//! Four metrics, median-of-N via [`a4a_rt::bench::Bencher`]:
//!
//! * `cosim/buck_step_10us` — the bare [`Buck`] RK2 integration kernel:
//!   20 000 steps of 0.5 ns (a 10 µs run with no digital activity);
//! * `cosim/testbench_async_10us` — the full Figure 6 scenario under
//!   the asynchronous token-ring controller;
//! * `cosim/testbench_sync333_10us` — the same scenario at 333 MHz
//!   synchronous;
//! * `cosim/fig7a_cell_async` — one Figure 7a grid cell (4.7 µH, 6 Ω,
//!   async, 8 µs), the unit of work every sweep multiplies.
//!
//! Results go to stdout as JSON lines. When `A4A_BENCH_OUT` is set
//! they also go to that file; a plain run never touches the tracked
//! single-thread baseline `BENCH_cosim.json` (refresh it from the repo
//! root with `A4A_BENCH_OUT=BENCH_cosim.json`). `A4A_BENCH_SAMPLES`
//! trims the sample count for quick CI smoke runs.

use a4a::scenario::{self, ControllerKind};
use a4a_analog::{metrics, Buck, BuckParams};
use a4a_rt::bench::{write_results, Bencher};

fn main() {
    let bencher = Bencher::new();
    let mut results = Vec::new();

    results.push(bencher.bench("cosim/buck_step_10us", || {
        let mut b = Buck::new(BuckParams::default());
        b.set_switch(0, true, false);
        for _ in 0..20_000 {
            b.step(0.5e-9);
        }
        b.output_voltage()
    }));

    results.push(bencher.bench("cosim/testbench_async_10us", || {
        let ctrl = scenario::controller(ControllerKind::Async, 4);
        let mut tb = scenario::fig6().try_build(ctrl).expect("fig6 config valid");
        tb.try_run_until(scenario::FIG6_T_END)
            .expect("fig6 co-simulation must not diverge");
        tb.buck().output_voltage()
    }));

    results.push(bencher.bench("cosim/testbench_sync333_10us", || {
        let ctrl = scenario::controller(ControllerKind::Sync(333.0), 4);
        let mut tb = scenario::fig6().try_build(ctrl).expect("fig6 config valid");
        tb.try_run_until(scenario::FIG6_T_END)
            .expect("fig6 co-simulation must not diverge");
        tb.buck().output_voltage()
    }));

    results.push(bencher.bench("cosim/fig7a_cell_async", || {
        let ctrl = scenario::controller(ControllerKind::Async, 4);
        let mut tb = scenario::sweep_coil(4.7, 6.0)
            .try_build(ctrl)
            .expect("sweep config valid");
        tb.try_run_until(8e-6)
            .expect("sweep co-simulation must not diverge");
        metrics::peak_current(tb.waveform())
    }));

    if let Some(path) = write_results(&results).expect("write A4A_BENCH_OUT") {
        eprintln!("wrote {}", path.display());
    }
}
