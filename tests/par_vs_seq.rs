//! Differential suite: every client of the exploration engine —
//! state-graph construction, Petri-net reachability, SI verification
//! and the parser's initial-value inference — must be *bit-identical*
//! to the sequential baseline — same state counts, same codes, same
//! state numbering, same edge order, same verdicts, violations and
//! traces — for every thread count, **and** the packed (bit-per-place)
//! marking representation must be indistinguishable from the dense
//! `Vec<u32>` reference engine (`state_graph_ref_with` / a dense
//! initial marking).
//!
//! The corpus is every STG this repo ships (the controller modules, the
//! composed token ring, the A2A element zoo) plus randomly generated
//! handshake pipelines from `a4a_rt::prop`. `ci.sh` re-runs the whole
//! file at `A4A_THREADS=1`, `2`, and `8`, which additionally routes the
//! default `state_graph`/`explore` entry points (global pool) through
//! each thread count.

use a4a_boolmin::Expr;
use a4a_netlist::{GateLib, Netlist, NetlistBuilder};
use a4a_petri::{Marking, NetBuilder, PetriNet};
use a4a_rt::Pool;
use a4a_stg::{prop_support, StateGraph, Stg};
use a4a_synth::{synthesize, verify_si_with, SiReport, SynthOptions, SynthStyle};

/// Thread counts compared against the sequential pool-of-1 baseline.
const THREADS: [usize; 2] = [2, 8];

/// Asserts two state graphs are identical in every observable: count,
/// numbering (marking per id), codes, successor lists, and traces.
fn assert_sg_identical(label: &str, seq: &StateGraph, par: &StateGraph) {
    assert_eq!(
        seq.state_count(),
        par.state_count(),
        "{label}: state count differs"
    );
    assert_eq!(seq.edge_count(), par.edge_count(), "{label}: edge count");
    for s in seq.state_ids() {
        assert_eq!(seq.marking(s), par.marking(s), "{label}: marking of {s}");
        assert_eq!(seq.code(s), par.code(s), "{label}: code of {s}");
        assert_eq!(
            seq.successors(s),
            par.successors(s),
            "{label}: successors of {s}"
        );
        assert_eq!(seq.trace_to(s), par.trace_to(s), "{label}: trace to {s}");
    }
}

/// Builds the state graph sequentially and on each parallel pool, and
/// checks graphs plus verification verdicts match.
fn check_stg(label: &str, stg: &Stg, max_states: usize) {
    let seq_pool = Pool::new(1);
    let seq = stg
        .state_graph_with(&seq_pool, max_states)
        .unwrap_or_else(|e| panic!("{label}: sequential build failed: {e}"));
    // Packed vs reference: the dense engine must be indistinguishable.
    let reference = stg
        .state_graph_ref_with(&seq_pool, max_states)
        .unwrap_or_else(|e| panic!("{label}: reference build failed: {e}"));
    assert_sg_identical(&format!("{label} packed-vs-ref"), &reference, &seq);
    let seq_report = stg.verify(&seq);
    for threads in THREADS {
        let pool = Pool::new(threads);
        let par = stg
            .state_graph_with(&pool, max_states)
            .unwrap_or_else(|e| panic!("{label}: parallel({threads}) build failed: {e}"));
        assert_sg_identical(&format!("{label} t{threads}"), &seq, &par);
        let par_ref = stg
            .state_graph_ref_with(&pool, max_states)
            .unwrap_or_else(|e| panic!("{label}: reference({threads}) build failed: {e}"));
        assert_sg_identical(&format!("{label} t{threads} packed-vs-ref"), &par_ref, &par);
        let par_report = stg.verify(&par);
        assert_eq!(
            seq_report.deadlocks, par_report.deadlocks,
            "{label} t{threads}: deadlock verdicts"
        );
        assert_eq!(
            seq_report.persistence, par_report.persistence,
            "{label} t{threads}: persistence verdicts"
        );
        assert_eq!(
            seq_report.coding, par_report.coding,
            "{label} t{threads}: coding verdicts"
        );
        assert_eq!(
            seq_report.is_clean(),
            par_report.is_clean(),
            "{label} t{threads}: clean verdict"
        );
    }
}

/// Same comparison for raw Petri-net reachability.
fn check_net(label: &str, net: &PetriNet, max_states: usize) {
    let seq_pool = Pool::new(1);
    // The dense initial marking drives the reference engine; packing it
    // drives the fast path. Every observable must agree between the two
    // and across thread counts.
    let seq = net
        .explore_with(&seq_pool, net.initial_marking(), max_states)
        .unwrap_or_else(|e| panic!("{label}: sequential explore failed: {e}"));
    let packed = net
        .explore_with(
            &seq_pool,
            net.initial_marking().pack_if_safe(),
            max_states,
        )
        .unwrap_or_else(|e| panic!("{label}: packed explore failed: {e}"));
    assert_eq!(seq.state_count(), packed.state_count(), "{label} packed");
    for s in seq.state_ids() {
        assert_eq!(seq.marking(s), packed.marking(s), "{label} packed: {s}");
        assert_eq!(seq.successors(s), packed.successors(s), "{label} packed: {s}");
    }
    for threads in THREADS {
        let pool = Pool::new(threads);
        let par = net
            .explore_with(&pool, net.initial_marking(), max_states)
            .unwrap_or_else(|e| panic!("{label}: parallel({threads}) explore failed: {e}"));
        let par_packed = net
            .explore_with(&pool, net.initial_marking().pack_if_safe(), max_states)
            .unwrap_or_else(|e| panic!("{label}: packed({threads}) explore failed: {e}"));
        assert_eq!(seq.state_count(), par.state_count(), "{label} t{threads}");
        assert_eq!(seq.edge_count(), par.edge_count(), "{label} t{threads}");
        assert_eq!(
            par.state_count(),
            par_packed.state_count(),
            "{label} t{threads} packed"
        );
        for s in seq.state_ids() {
            assert_eq!(seq.marking(s), par.marking(s), "{label} t{threads}: {s}");
            assert_eq!(
                seq.successors(s),
                par.successors(s),
                "{label} t{threads}: {s}"
            );
            assert_eq!(
                par.marking(s),
                par_packed.marking(s),
                "{label} t{threads} packed: {s}"
            );
            assert_eq!(
                par.successors(s),
                par_packed.successors(s),
                "{label} t{threads} packed: {s}"
            );
        }
        assert_eq!(seq.deadlocks(), par.deadlocks(), "{label} t{threads}");
        assert_eq!(seq.is_safe(), par.is_safe(), "{label} t{threads}");
        assert_eq!(seq.bound(), par.bound(), "{label} t{threads}");
    }
}

#[test]
fn controller_modules_par_vs_seq() {
    for (name, stg) in a4a_ctrl::stgs::all_module_stgs() {
        check_stg(name, &stg, 500_000);
        check_net(name, stg.net(), 500_000);
    }
}

#[test]
fn a2a_zoo_par_vs_seq() {
    for (name, stg) in a4a_a2a::spec::all_specs() {
        check_stg(name, &stg, 500_000);
    }
}

#[test]
fn token_ring_par_vs_seq() {
    // The composed ring is the widest state space in the repo — the
    // case where frontier expansion actually fans out to the workers.
    let ring = a4a_ctrl::stgs::token_ring_stg();
    check_stg("token_ring", &ring, 500_000);
}

#[test]
fn random_pipelines_par_vs_seq() {
    a4a_rt::prop::check_with(
        &a4a_rt::Config::with_cases(24),
        "random_pipelines_par_vs_seq",
        |g| {
            let n = g.usize(1..9);
            let mask = g.u64(0..1 << n);
            let stg = prop_support::pipeline_stg(n, mask);
            check_stg(&format!("pipeline n={n} mask={mask:#b}"), &stg, 100_000);
            Ok(())
        },
    );
}

#[test]
fn composed_pipelines_par_vs_seq() {
    // Two independent pipelines composed share no signals, so the
    // product state space is wide (2n * 2m states) — a better stress of
    // per-level parallelism than a single ring. The fixed 5x5 product
    // has levels of up to 10 states, so the parallel expansion runs.
    let a = prop_support::pipeline_stg_with_prefix(5, 0b10110, "a");
    let b = prop_support::pipeline_stg_with_prefix(5, 0b01010, "b");
    let ab = a.compose(&b).unwrap();
    check_stg("composed 5x5", &ab, 200_000);
    check_net("composed 5x5", ab.net(), 200_000);
    a4a_rt::prop::check_with(
        &a4a_rt::Config::with_cases(8),
        "composed_pipelines_par_vs_seq",
        |g| {
            let n = g.usize(2..6);
            let m = g.usize(2..6);
            let a = prop_support::pipeline_stg_with_prefix(n, g.any_u64(), "a");
            let b = prop_support::pipeline_stg_with_prefix(m, g.any_u64(), "b");
            let ab = a.compose(&b).map_err(|e| {
                a4a_rt::PropError::Fail(format!("compose failed: {e}"))
            })?;
            check_stg(&format!("composed n={n} m={m}"), &ab, 200_000);
            Ok(())
        },
    );
}

#[test]
fn state_limit_trips_identically() {
    // The limit error must fire at the same discovery index for every
    // thread count.
    let ring = a4a_ctrl::stgs::token_ring_stg();
    let seq = ring.state_graph_with(&Pool::new(1), 10).unwrap_err();
    for threads in THREADS {
        let par = ring.state_graph_with(&Pool::new(threads), 10).unwrap_err();
        assert_eq!(format!("{seq}"), format!("{par}"), "t{threads}");
    }
}

#[test]
fn inconsistency_error_is_identical() {
    // An STG wide enough to hit the parallel path, with an inconsistent
    // signal buried in it: the reported transition and trace must not
    // depend on the thread count.
    let mut b = a4a_stg::StgBuilder::new("bad_wide");
    // Eight independent toggles make the second BFS level 8 states wide.
    let mut firsts = Vec::new();
    for i in 0..8 {
        let s = b.input(format!("x{i}"), false);
        let up = b.rise(s);
        let down = b.fall(s);
        b.connect_marked(down, up);
        b.connect(up, down);
        firsts.push(up);
    }
    // An inconsistent pair: two rises of the same signal in a cycle.
    let bad = b.input("bad", false);
    let r1 = b.rise(bad);
    let r2 = b.rise(bad);
    b.connect_marked(r2, r1);
    b.connect(r1, r2);
    let stg = b.build();
    let seq = stg.state_graph_with(&Pool::new(1), 100_000).unwrap_err();
    for threads in THREADS {
        let par = stg
            .state_graph_with(&Pool::new(threads), 100_000)
            .unwrap_err();
        assert_eq!(format!("{seq}"), format!("{par}"), "t{threads}");
    }
}

#[test]
fn unbounded_net_limit_identical() {
    let mut b = NetBuilder::new();
    let p = b.place_with_tokens("p", 1);
    let t = b.transition("t");
    b.arc_read(p, t);
    b.arc_tp(t, p);
    let net = b.build();
    let seq = net
        .explore_with(&Pool::new(1), net.initial_marking(), 16)
        .unwrap_err();
    for threads in THREADS {
        let par = net
            .explore_with(&Pool::new(threads), net.initial_marking(), 16)
            .unwrap_err();
        assert_eq!(seq, par, "t{threads}");
    }
}

#[test]
fn explore_from_arbitrary_marking_par_vs_seq() {
    let ring = a4a_ctrl::stgs::token_ring_stg();
    let net = ring.net();
    // Walk a few steps from the initial marking, then explore from
    // there on every pool.
    let mut m = net.initial_marking();
    for _ in 0..3 {
        let Some(t) = net.transition_ids().find(|&t| net.is_enabled(t, &m)) else {
            break;
        };
        m = net.fire(t, &m);
    }
    let seq = net
        .explore_with(&Pool::new(1), m.clone(), 500_000)
        .unwrap();
    for threads in THREADS {
        let par = net
            .explore_with(&Pool::new(threads), m.clone(), 500_000)
            .unwrap();
        assert_eq!(seq.state_count(), par.state_count(), "t{threads}");
        for s in seq.state_ids() {
            assert_eq!(seq.marking(s), par.marking(s), "t{threads}: {s}");
            assert_eq!(seq.successors(s), par.successors(s), "t{threads}: {s}");
        }
    }
}

#[test]
fn token_overflow_is_typed_and_identical() {
    // A place already at u32::MAX gains one more token on the first
    // firing: a typed TokenOverflow (not a panic), with the same payload
    // for every thread count and both marking representations.
    let mut b = NetBuilder::new();
    let src = b.place_with_tokens("src", 1);
    let sink = b.place_with_tokens("sink", u32::MAX);
    let t = b.transition("t");
    b.arc_pt(src, t);
    b.arc_tp(t, sink);
    let net = b.build();
    let seq = net
        .explore_with(&Pool::new(1), net.initial_marking(), 100)
        .unwrap_err();
    assert_eq!(
        seq,
        a4a_petri::ExploreError::TokenOverflow {
            place: "sink".into(),
            transition: "t".into(),
        }
    );
    for threads in THREADS {
        let par = net
            .explore_with(&Pool::new(threads), net.initial_marking(), 100)
            .unwrap_err();
        assert_eq!(seq, par, "t{threads}");
        // pack_if_safe leaves the unsafe marking dense, so this also
        // covers handing an explicitly packed-or-not marking in.
        let packed = net
            .explore_with(
                &Pool::new(threads),
                net.initial_marking().pack_if_safe(),
                100,
            )
            .unwrap_err();
        assert_eq!(seq, packed, "t{threads} packed");
    }
}

#[test]
fn oversized_state_limit_is_typed() {
    // Limits beyond the 32-bit id space are rejected up front instead of
    // silently truncating state ids.
    let ring = a4a_ctrl::stgs::token_ring_stg();
    let too_big = u32::MAX as usize + 1;
    assert_eq!(
        ring.state_graph(too_big).unwrap_err(),
        a4a_stg::StgError::LimitOverflow { limit: too_big }
    );
    assert_eq!(
        ring.net().explore(too_big).unwrap_err(),
        a4a_petri::ExploreError::LimitOverflow { limit: too_big }
    );
    // The largest representable limit is still accepted.
    assert!(ring.state_graph(u32::MAX as usize).is_ok());
}

/// Keeps `Marking` in the public-surface contract this suite relies on.
#[test]
fn marking_equality_is_structural() {
    let a = Marking::new(vec![1, 0, 2]);
    let b = Marking::new(vec![1, 0, 2]);
    assert_eq!(a, b);
}

#[test]
fn marking_equality_and_hash_cross_representation() {
    let dense = Marking::new(vec![1, 0, 1, 0, 1]);
    let packed = dense.clone().pack_if_safe();
    assert!(packed.is_packed());
    assert_eq!(dense, packed);
    assert_eq!(dense.fx_hash(), packed.fx_hash());
}

/// Every built-in specification: the controller modules, the A2A
/// elements, the token ring and the phase core.
fn builtin_specs() -> Vec<(&'static str, Stg)> {
    let mut specs = a4a_ctrl::stgs::all_module_stgs();
    specs.extend(a4a_a2a::spec::all_specs());
    specs.push(("token_ring", a4a_ctrl::stgs::token_ring_stg()));
    specs.push(("phase_core", a4a_ctrl::stgs::phase_core_stg()));
    specs
}

/// A netlist that drives each implemented signal from its successor in
/// signal order: it conforms to nothing, so the verifier reports both
/// unexpected edges and disabled excitations.
fn hazardous_netlist(stg: &Stg) -> Netlist {
    let lib = GateLib::tsmc90();
    let mut b = NetlistBuilder::new("hazardous");
    let nets: Vec<_> = stg
        .signals()
        .iter()
        .map(|s| {
            if s.kind.is_implemented() {
                b.net(s.name.clone())
            } else {
                b.input(s.name.clone())
            }
        })
        .collect();
    for s in stg.signal_ids() {
        if stg.signal(s).kind.is_implemented() {
            let out = nets[s.index()];
            let src = nets[(s.index() + 1) % nets.len()];
            if src == out {
                b.inv(out, src, &lib);
            } else {
                let f = Expr::or(vec![Expr::var(0), Expr::not(Expr::var(1))]);
                b.complex(out, &[src, out], f, &lib);
            }
        }
    }
    b.build().unwrap()
}

fn check_si(label: &str, stg: &Stg, netlist: &Netlist) -> SiReport {
    let seq = verify_si_with(&Pool::new(1), stg, netlist, 1_000_000)
        .unwrap_or_else(|e| panic!("{label}: sequential verify failed: {e}"));
    for threads in THREADS {
        let par = verify_si_with(&Pool::new(threads), stg, netlist, 1_000_000)
            .unwrap_or_else(|e| panic!("{label}: parallel({threads}) verify failed: {e}"));
        assert_eq!(seq.states, par.states, "{label} t{threads}: joint states");
        assert_eq!(
            seq.violations, par.violations,
            "{label} t{threads}: violations"
        );
    }
    seq
}

#[test]
fn si_reports_par_vs_seq() {
    let mut violations = 0;
    for (name, stg) in builtin_specs() {
        for style in [SynthStyle::ComplexGate, SynthStyle::GeneralizedC] {
            let syn = synthesize(&stg, &SynthOptions::new(style))
                .unwrap_or_else(|e| panic!("{name} {style:?}: {e}"));
            let report = check_si(&format!("{name} {style:?}"), &stg, syn.netlist());
            assert!(
                report.is_clean(),
                "{name} {style:?}: {:?}",
                report.violations
            );
        }
        let report = check_si(&format!("{name} hazardous"), &stg, &hazardous_netlist(&stg));
        violations += report.violations.len();
    }
    // Two independent pipelines: a product space whose BFS levels are
    // wide enough to fan out to the workers.
    let a = prop_support::pipeline_stg_with_prefix(4, 0b0110, "a");
    let b = prop_support::pipeline_stg_with_prefix(4, 0b1010, "b");
    let ab = a.compose(&b).unwrap();
    let syn = synthesize(&ab, &SynthOptions::new(SynthStyle::ComplexGate)).unwrap();
    assert!(check_si("composed", &ab, syn.netlist()).states >= 64);
    let report = check_si("composed hazardous", &ab, &hazardous_netlist(&ab));
    violations += report.violations.len();
    assert!(violations > 0, "the hazardous netlists must be caught");
}

// Initial-value inference runs on the global pool, so the tests below
// compare against known answers; `ci.sh` reruns them at
// `A4A_THREADS=1`, `2` and `8`.

/// The `.g` text of a composition of handshake pipelines, one per
/// (prefix, length, output mask, shift), whose ring tokens start `shift`
/// events in and with no `.initial_state`, plus the initial values the
/// shifts imply.
fn shifted_pipelines(pipelines: &[(&str, usize, u64, usize)]) -> (String, Vec<(String, bool)>) {
    let stg = pipelines
        .iter()
        .map(|&(p, n, mask, _)| prop_support::pipeline_stg_with_prefix(n, mask, p))
        .reduce(|acc, next| acc.compose(&next).unwrap())
        .unwrap();
    // The ring of pipeline `p` over `len` signals: rises, then falls.
    let event = |p: &str, len: usize, i: usize| {
        let sign = if i % (2 * len) < len { '+' } else { '-' };
        format!("{p}{}{sign}", i % len)
    };
    let arc = |p: &str, len: usize, i: usize| {
        format!("<{},{}>", event(p, len, i + 2 * len - 1), event(p, len, i))
    };
    let mut text = stg.to_g();
    assert!(!text.contains(".initial_state"), "every signal starts low");
    let mut expected = Vec::new();
    for &(p, n, _, k) in pipelines {
        text = text.replace(&arc(p, n, 0), &arc(p, n, k));
        expected.extend((0..n).map(|i| (format!("{p}{i}"), (i < k) != (i + n < k))));
    }
    (text, expected)
}

fn assert_initial_values(label: &str, parsed: &Stg, expected: &[(String, bool)]) {
    for (name, high) in expected {
        let s = parsed.signal_by_name(name).unwrap();
        assert_eq!(parsed.signal(s).initial, *high, "{label}: {name}");
    }
}

#[test]
fn inferred_initial_values_par_vs_seq() {
    // Composed pipelines whose ring tokens start `k` and `j` events in:
    // with `.initial_state` left out, the parser must infer exactly the
    // values those prefixes imply.
    for (n, m, k, j) in [(3, 4, 2, 5), (4, 4, 5, 1), (5, 3, 7, 3), (4, 5, 4, 9)] {
        let label = format!("n={n} m={m} k={k} j={j}");
        let (text, expected) = shifted_pipelines(&[("a", n, 0b0110, k), ("b", m, 0b1010, j)]);
        let parsed = Stg::parse_g(&text).unwrap_or_else(|e| panic!("{label}: {e}\n{text}"));
        assert_initial_values(&label, &parsed, &expected);
    }
}

#[test]
fn inference_stops_once_every_signal_is_seen() {
    // Four 16-signal pipelines: 64 signals and 32^4 = 1 048 576 states,
    // over five times the parser's inference budget. Inference only has
    // to reach each signal's first edge, so parsing succeeds; the full
    // state space still trips the limit when the state graph is built.
    let (text, expected) = shifted_pipelines(&[
        ("a", 16, 0xa5a5, 3),
        ("b", 16, 0x5a5a, 17),
        ("c", 16, 0x3c3c, 31),
        ("d", 16, 0xc3c3, 8),
    ]);
    let parsed = Stg::parse_g(&text).unwrap_or_else(|e| panic!("4x16: {e}"));
    assert_eq!(parsed.signal_count(), 64);
    assert_initial_values("4x16", &parsed, &expected);
    assert_eq!(
        parsed.state_graph(10_000).unwrap_err(),
        a4a_stg::StgError::StateLimit { limit: 10_000 }
    );
}

#[test]
fn signals_without_a_reachable_edge_default_to_low() {
    // `a` and `o` start high (their falls fire first); `b+` waits on a
    // place nothing marks, and `c` has no transition at all. Inference
    // explores the whole space looking for `b` and leaves `b` and `c` low.
    let text = "\
.model unreachable
.inputs a b c
.outputs o
.graph
a- o-
o- a+
a+ o+
o+ a-
p0 b+
b+ p0
.marking { <o+,a-> }
.end
";
    let parsed = Stg::parse_g(text).unwrap();
    let values: Vec<(&str, bool)> = parsed
        .signals()
        .iter()
        .map(|s| (s.name.as_str(), s.initial))
        .collect();
    assert_eq!(values, [("a", true), ("b", false), ("c", false), ("o", true)]);
    assert_eq!(parsed.state_graph(100).unwrap().state_count(), 4);
}

#[test]
fn inferred_initial_values_match_builtin_specs() {
    // Stripping `.initial_state` from a built-in spec's `.g` must give
    // back its declared initial values.
    for (name, stg) in builtin_specs() {
        let text: String = stg
            .to_g()
            .lines()
            .filter(|l| !l.starts_with(".initial_state"))
            .map(|l| format!("{l}\n"))
            .collect();
        let parsed = Stg::parse_g(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let values = |s: &Stg| s.signals().iter().map(|s| s.initial).collect::<Vec<_>>();
        assert_eq!(values(&parsed), values(&stg), "{name}");
    }
}
