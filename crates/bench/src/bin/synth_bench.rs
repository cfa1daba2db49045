//! Tracked wall-time benchmarks for the formal-side hot path — the
//! STG → state-graph → two-level minimisation → speed-independence
//! pipeline that backs every verification claim in the repo (DESIGN.md
//! §2's exact-reachability substitution).
//!
//! Eight metrics, median-of-N via [`a4a_rt::bench::Bencher`]:
//!
//! * `synth/state_graph_token_ring_x1000` — 1000 state-graph builds of
//!   the composed token ring (the widest shipped net, 20 places);
//! * `synth/state_graph_mode_ctrl_x1000` — 1000 builds of the largest
//!   shipped module STG by state count (`mode_ctrl`, 22 states);
//! * `synth/reach_mode_ctrl_x1000` — 1000 raw Petri-net reachability
//!   explorations of the same net;
//! * `synth/state_graph_composed_pipelines` — one build of a 3-way
//!   composed handshake-pipeline product (the widest state space the
//!   repo constructs, thousands of states — where packed markings and
//!   the id-interner dominate);
//! * `synth/minimize_qm10` — a dense seeded 10-variable ON/OFF/DC
//!   partition (5/8 of the cube OFF), unlike any STG function; kept as
//!   the worst case for OFF-set-driven prime generation;
//! * `synth/minimize_phase_core` — every complex-gate and gC ON/OFF
//!   problem of the phase core (11 signals, 126 reachable codes),
//!   extracted once in set-up: the real STG instance the flow spends its
//!   minimisation time on;
//! * `synth/verify_si_celem` — conformance + hazard verification of the
//!   synthesised C-element against its specification;
//! * `synth/verify_g_composed_wide` — the `a4a verify` path (`.g` parse
//!   with initial values inferred, state graph, sanity checks) on three
//!   composed 16-signal pipelines: 48 signals, 32 768 states.
//!
//! Results go to stdout as JSON lines. When `A4A_BENCH_OUT` is set
//! they also go to that file; a plain run never touches the tracked
//! single-thread baseline `BENCH_synth.json` (refresh it from the repo
//! root with `A4A_BENCH_OUT=BENCH_synth.json`). `A4A_BENCH_SAMPLES`
//! trims the sample count for quick CI smoke runs.

use a4a_boolmin::Minimize;
use a4a_rt::bench::{write_results, Bencher};
use a4a_rt::Rng;
use a4a_stg::prop_support;
use a4a_synth::{extract_next_state, synthesize, verify_si, Region, SynthOptions, SynthStyle};

const CELEM: &str = "\
.model celem
.inputs a b
.outputs c
.graph
a+ c+
b+ c+
c+ a- b-
a- c-
b- c-
c- a+ b+
.marking { <c-,a+> <c-,b+> }
.end
";

fn main() {
    let bencher = Bencher::new();
    let mut results = Vec::new();

    let ring = a4a_ctrl::stgs::token_ring_stg();
    results.push(bencher.bench("synth/state_graph_token_ring_x1000", || {
        let mut states = 0usize;
        for _ in 0..1000 {
            let sg = ring.state_graph(500_000).expect("token ring is consistent");
            states += sg.state_count();
        }
        states
    }));

    let mode = a4a_ctrl::stgs::mode_ctrl_stg();
    results.push(bencher.bench("synth/state_graph_mode_ctrl_x1000", || {
        let mut states = 0usize;
        for _ in 0..1000 {
            let sg = mode.state_graph(500_000).expect("mode_ctrl is consistent");
            states += sg.state_count();
        }
        states
    }));

    results.push(bencher.bench("synth/reach_mode_ctrl_x1000", || {
        let mut states = 0usize;
        for _ in 0..1000 {
            let g = mode.net().explore(500_000).expect("mode_ctrl net is bounded");
            states += g.state_count();
        }
        states
    }));

    // A wide product state space: three independent 6-stage handshake
    // pipelines composed into one STG. Exercises the per-level parallel
    // fan-out and the interner at thousands of states.
    let a = prop_support::pipeline_stg_with_prefix(6, 0b101010, "a");
    let b = prop_support::pipeline_stg_with_prefix(6, 0b010101, "b");
    let c = prop_support::pipeline_stg_with_prefix(6, 0b110011, "c");
    let wide = a
        .compose(&b)
        .and_then(|ab| ab.compose(&c))
        .expect("prefixed pipelines compose");
    results.push(bencher.bench("synth/state_graph_composed_pipelines", || {
        let sg = wide.state_graph(500_000).expect("composed pipelines are consistent");
        sg.state_count()
    }));

    // A dense seeded ON/OFF/DC partition of the 10-variable minterm
    // space (~1/8 ON, ~5/8 OFF, rest don't-care).
    let mut rng = Rng::from_seed(0x5e_ed_a4_a5);
    let mut on = Vec::new();
    let mut off = Vec::new();
    for m in 0..(1u64 << 10) {
        match rng.next_u64() % 8 {
            0 => on.push(m),
            1..=5 => off.push(m),
            _ => {}
        }
    }
    results.push(bencher.bench("synth/minimize_qm10", || {
        let cover = a4a_boolmin::minimize(&Minimize::new(10).on(&on).off(&off))
            .expect("no contradiction by construction");
        cover.cube_count()
    }));

    // The ON/OFF problems `synthesize` hands the minimiser for the
    // phase core, in both styles.
    let core = a4a_ctrl::stgs::phase_core_stg();
    let sg = core.state_graph(500_000).expect("phase core is consistent");
    let mut problems: Vec<(Vec<u64>, Vec<u64>)> = Vec::new();
    for signal in core.signal_ids() {
        if !core.signal(signal).kind.is_implemented() {
            continue;
        }
        let ns = extract_next_state(&core, &sg, signal).expect("phase core has CSC");
        let rise = ns.region_codes(Region::ExcitedRise);
        let fall = ns.region_codes(Region::ExcitedFall);
        let mut set_off = ns.region_codes(Region::Stable0);
        set_off.extend(&fall);
        let mut reset_off = ns.region_codes(Region::Stable1);
        reset_off.extend(&rise);
        problems.push((ns.on_set(), ns.off_set()));
        problems.push((rise, set_off));
        problems.push((fall, reset_off));
    }
    let nvars = core.signal_count();
    results.push(bencher.bench("synth/minimize_phase_core", || {
        let mut literals = 0;
        for (on, off) in &problems {
            let cover = a4a_boolmin::minimize(&Minimize::new(nvars).on(on).off(off))
                .expect("next-state ON/OFF sets are disjoint");
            literals += cover.literal_count();
        }
        literals
    }));

    let stg = a4a_stg::Stg::parse_g(CELEM).expect("C-element spec parses");
    let synth =
        synthesize(&stg, &SynthOptions::new(SynthStyle::ComplexGate)).expect("C-element synthesises");
    results.push(bencher.bench("synth/verify_si_celem", || {
        let report = verify_si(&stg, synth.netlist(), 100_000).expect("verification completes");
        assert!(report.is_clean());
        report.states
    }));

    // The widest `.g` the verify path reads: every signal starts low, so
    // `to_g` writes no `.initial_state` and the parser infers the values.
    let wide_g = [("a", 0xa5a5), ("b", 0x5a5a), ("c", 0x3c3c)]
        .into_iter()
        .map(|(prefix, mask)| prop_support::pipeline_stg_with_prefix(16, mask, prefix))
        .reduce(|acc, p| acc.compose(&p).expect("prefixed pipelines compose"))
        .expect("three pipelines")
        .to_g();
    results.push(bencher.bench("synth/verify_g_composed_wide", || {
        let stg = a4a_stg::Stg::parse_g(&wide_g).expect("composed pipelines parse");
        let sg = stg.state_graph(1_000_000).expect("composed pipelines are consistent");
        assert!(stg.verify(&sg).is_clean());
        sg.state_count()
    }));

    if let Some(path) = write_results(&results).expect("write A4A_BENCH_OUT") {
        eprintln!("wrote {}", path.display());
    }
}
