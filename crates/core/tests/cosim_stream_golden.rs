//! Bit-exact golden for whole co-simulation runs.
//!
//! Each run below is reduced to one digest over the raw `f64` bits of
//! every recorded sample (time, output voltage, every phase current),
//! every recorded event (time bits, track name, value), the
//! short-circuit count, and the final `energy_in`/`energy_out` bits of
//! the power stage. A change anywhere in the window loop — integration,
//! comparators, controller delivery order, sampling — that moves a
//! single bit of a single value moves the digest.
//!
//! Regenerate (only for an intentional behaviour change) with:
//!
//! ```sh
//! A4A_BLESS=1 cargo test -q -p a4a --test cosim_stream_golden
//! ```

use a4a::scenario::{self, ControllerKind, FIG6_T_END};
use a4a::TestbenchBuilder;
use a4a_a2a::MetaParams;
use a4a_analog::BuckParams;
use a4a_ctrl::{BuckController, SyncController, SyncParams};
use a4a_sim::Time;

const GOLDEN: &str = include_str!("golden/cosim_stream_digests.txt");

/// FNV-1a over a byte stream (stable across platforms and releases).
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.bytes(&x.to_bits().to_le_bytes());
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

/// Runs `builder` with `ctrl` to `t_end` and renders one golden line:
/// `label digest samples events`.
fn run<C: BuckController>(label: &str, builder: TestbenchBuilder, ctrl: C, t_end: f64) -> String {
    let mut tb = builder.try_build(ctrl).expect("golden run configures");
    tb.try_run_until(t_end).expect("golden run must not diverge");
    let mut d = Digest::new();
    let w = tb.waveform();
    for (s, &t) in w.t.iter().enumerate() {
        d.f64(t);
        d.f64(w.v[s]);
        for phase in &w.i {
            d.f64(phase[s]);
        }
    }
    for &(t, track, value) in &w.events {
        d.f64(t);
        d.bytes(track.name().as_bytes());
        d.bytes(&[0, u8::from(value)]);
    }
    d.u64(tb.short_circuits() as u64);
    d.f64(tb.buck().energy_in());
    d.f64(tb.buck().energy_out());
    format!("{label} {:016x} {} {}", d.0, w.len(), w.events.len())
}

fn all_runs() -> Vec<String> {
    let mut lines = Vec::new();
    // One Figure 7a cell per paper series.
    for kind in ControllerKind::paper_series() {
        lines.push(run(
            &format!("fig7a_4.7uH_6ohm_{}", kind.label()),
            scenario::sweep_coil(4.7, 6.0),
            scenario::controller(kind, 4),
            8e-6,
        ));
    }
    // The Figure 6 scenario (with its high-load steps).
    for kind in [ControllerKind::Sync(100.0), ControllerKind::Async] {
        lines.push(run(
            &format!("fig6_{}", kind.label()),
            scenario::fig6(),
            scenario::controller(kind, 4),
            FIG6_T_END,
        ));
    }
    // Two phases.
    for kind in [ControllerKind::Sync(666.0), ControllerKind::Async] {
        lines.push(run(
            &format!("two_phase_{}", kind.label()),
            TestbenchBuilder::new().params(BuckParams::default().with_phases(2)),
            scenario::controller(kind, 2),
            6e-6,
        ));
    }
    // A coarser analog step.
    for kind in [ControllerKind::Sync(1000.0), ControllerKind::Async] {
        lines.push(run(
            &format!("dt_1ns_{}", kind.label()),
            scenario::sweep_coil(4.7, 6.0).dt(1e-9),
            scenario::controller(kind, 4),
            8e-6,
        ));
    }
    // A load dump that drives the bank through OV mode.
    lines.push(run(
        "ov_load_dump_ASYNC",
        TestbenchBuilder::new().load_step(3e-6, 60.0),
        scenario::controller(ControllerKind::Async, 4),
        8e-6,
    ));
    // Metastable synchroniser captures (seeded).
    let meta = MetaParams::with_seed(0.5, Time::from_ps(200.0), 2017);
    lines.push(run(
        "metastable_333MHz",
        scenario::sweep_coil(4.7, 6.0),
        SyncController::new(4, SyncParams::at_mhz(333.0).with_meta(meta)),
        8e-6,
    ));
    lines
}

#[test]
fn cosim_streams_are_bit_identical() {
    let got = all_runs().join("\n") + "\n";
    if std::env::var_os("A4A_BLESS").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/cosim_stream_digests.txt"
        );
        std::fs::write(path, &got).expect("write golden");
        eprintln!("blessed {path}");
        return;
    }
    for line in got.lines() {
        let events: usize = line
            .rsplit(' ')
            .next()
            .and_then(|n| n.parse().ok())
            .expect("rendered line ends in the event count");
        assert!(events > 50, "suspiciously few events: {line}");
    }
    for (g, w) in got.lines().zip(GOLDEN.lines()) {
        assert_eq!(g, w, "co-simulation stream diverges (got vs golden)");
    }
    assert_eq!(
        got.lines().count(),
        GOLDEN.lines().count(),
        "number of golden runs changed"
    );
}
