//! Golden sanity-check reports: the complete `VerifyReport` — deadlocks,
//! output-persistence violations with the disabling transition and the
//! trace, and state-coding conflicts with their signals, all in order —
//! is pinned for every built-in specification, for small broken STGs
//! (one per kind of violation) and for seeded STGs with many coding
//! conflicts. A change to `Stg::verify` that reorders, drops or adds a
//! finding shows up here.
//!
//! Each report is rendered to text and pinned by its FxHash (a fixed
//! function, see `a4a_rt::hash`) next to its counts. On a mismatch the
//! test prints the complete table as it stands; paste it over `GOLDEN`
//! only when the change is intended and recorded.

use a4a_rt::{fx_hash_one, Rng};
use a4a_stg::{SignalKind, Stg, StgBuilder, VerifyReport};

/// Every built-in specification: the controller modules, the A2A
/// elements, the token ring and the phase core.
fn builtin_specs() -> Vec<(String, Stg)> {
    let mut specs = a4a_ctrl::stgs::all_module_stgs();
    specs.extend(a4a_a2a::spec::all_specs());
    specs.push(("token_ring", a4a_ctrl::stgs::token_ring_stg()));
    specs.push(("phase_core", a4a_ctrl::stgs::phase_core_stg()));
    specs.into_iter().map(|(n, s)| (n.to_string(), s)).collect()
}

/// A start place feeding `a+`, then `o+`, then nothing: one deadlock.
fn deadlock_stg() -> Stg {
    let mut b = StgBuilder::new("dl");
    let a = b.input("a", false);
    let o = b.output("o", false);
    let ap = b.rise(a);
    let op = b.rise(o);
    let p = b.place_with_tokens("start", 1);
    b.arc_pt(p, ap);
    b.connect(ap, op);
    b.build()
}

/// Input `a+` and output `o+` compete for one token.
fn choice_stg(output: bool) -> Stg {
    let mut b = StgBuilder::new(if output { "viol" } else { "choice" });
    let a = b.input("a", false);
    let o = if output {
        b.output("o", false)
    } else {
        b.input("o", false)
    };
    let ap = b.rise(a);
    let op = b.rise(o);
    let p = b.place_with_tokens("choice", 1);
    b.arc_pt(p, ap);
    b.arc_pt(p, op);
    b.build()
}

/// `a+ a- b+ b-` with `b` an output: the classic CSC conflict.
fn csc_stg() -> Stg {
    let mut b = StgBuilder::new("csc");
    let a = b.input("a", false);
    let o = b.output("b", false);
    let ap = b.rise(a);
    let am = b.fall(a);
    let bp = b.rise(o);
    let bm = b.fall(o);
    b.connect_marked(bm, ap);
    b.connect(ap, am);
    b.connect(am, bp);
    b.connect(bp, bm);
    b.build()
}

/// `a+ a- dummy c+ c-` over inputs only: a USC conflict and nothing else.
fn usc_stg() -> Stg {
    let mut b = StgBuilder::new("usc");
    let a = b.input("a", false);
    let c = b.input("c", false);
    let ap = b.rise(a);
    let am = b.fall(a);
    let d = b.dummy();
    let cp = b.rise(c);
    let cm = b.fall(c);
    b.connect_marked(cm, ap);
    b.connect(ap, am);
    b.connect(am, d);
    b.connect(d, cp);
    b.connect(cp, cm);
    b.build()
}

/// A seeded ring of `len` random toggles over `n` signals (signal 0 an
/// input, the others outputs by coin flip), closed by lowering whatever
/// is still high. Consistent by construction; its codes repeat, so it
/// has USC and CSC conflicts.
fn toggle_ring(rng: &mut Rng, n: usize, len: usize, prefix: &str) -> Stg {
    let mut b = StgBuilder::new(format!("{prefix}ring"));
    let signals: Vec<_> = (0..n)
        .map(|i| {
            let name = format!("{prefix}{i}");
            if i > 0 && rng.bool() {
                b.output(name, false)
            } else {
                b.input(name, false)
            }
        })
        .collect();
    let mut high = vec![false; n];
    let mut events = Vec::new();
    for _ in 0..len {
        let i = rng.usize_below(n);
        events.push(if high[i] { b.fall(signals[i]) } else { b.rise(signals[i]) });
        high[i] = !high[i];
    }
    for i in 0..n {
        if high[i] {
            events.push(b.fall(signals[i]));
        }
    }
    for w in events.windows(2) {
        b.connect(w[0], w[1]);
    }
    b.connect_marked(events[events.len() - 1], events[0]);
    b.build()
}

/// Seeded STGs with conflicts: single rings, products of two rings, and
/// a ring composed with the persistence violation; then the same rings
/// with every signal but the first made internal, so coding conflicts
/// on internal signals count too.
fn seeded_stgs() -> Vec<(String, Stg)> {
    let mut out = Vec::new();
    let mut rings = Vec::new();
    for seed in [1u64, 2, 3] {
        let mut rng = Rng::from_seed(seed);
        let a = toggle_ring(&mut rng, 4, 10, "a");
        let b = toggle_ring(&mut rng, 3, 8, "b");
        out.push((format!("ring{seed}"), a.clone()));
        out.push((format!("ring{seed}xring"), a.compose(&b).expect("disjoint")));
        out.push((
            format!("ring{seed}xviol"),
            b.compose(&choice_stg(true)).expect("disjoint"),
        ));
        rings.push((seed, a));
    }
    for (seed, ring) in rings {
        let internal = ring
            .signal_ids()
            .skip(1)
            .fold(ring.clone(), |stg, s| stg.with_signal_kind(s, SignalKind::Internal));
        out.push((format!("ring{seed}int"), internal));
    }
    out
}

/// Every finding of `report`, in order, with names resolved.
fn render(stg: &Stg, report: &VerifyReport) -> String {
    let edge = |e: a4a_stg::Edge| format!("{}{}", stg.signal(e.signal).name, e.polarity);
    let mut out = String::new();
    for s in &report.deadlocks {
        out.push_str(&format!("deadlock {s}\n"));
    }
    for v in &report.persistence {
        out.push_str(&format!(
            "persistence {} {} by {} [{}]\n",
            v.state,
            edge(v.disabled),
            v.by,
            v.trace.join(" ")
        ));
    }
    for c in &report.coding {
        let signals: Vec<&str> = c.signals.iter().map(|&s| stg.signal(s).name.as_str()).collect();
        out.push_str(&format!(
            "coding {} {} {:#x} [{}]\n",
            c.first,
            c.second,
            c.code,
            signals.join(" ")
        ));
    }
    out
}

/// (case, states, deadlocks, persistence violations, coding conflicts,
/// CSC conflicts, FxHash of the rendered report).
type Row = (String, usize, usize, usize, usize, usize, u64);

const GOLDEN: &[(&str, usize, usize, usize, usize, usize, u64)] = &[
    ("basic_buck", 19, 0, 0, 0, 0, 0x2b44f56ffae88a6b),
    ("decoupler", 10, 0, 0, 0, 0, 0x2b44f56ffae88a6b),
    ("merge", 15, 0, 0, 0, 0, 0x2b44f56ffae88a6b),
    ("token_ctrl", 20, 0, 0, 0, 0, 0x2b44f56ffae88a6b),
    ("mode_ctrl", 22, 0, 0, 2, 0, 0xb40d196d51d76915),
    ("pmos_delay_ctrl", 8, 0, 0, 0, 0, 0x2b44f56ffae88a6b),
    ("nmos_delay_ctrl", 8, 0, 0, 0, 0, 0x2b44f56ffae88a6b),
    ("ext_delay_ctrl", 8, 0, 0, 0, 0, 0x2b44f56ffae88a6b),
    ("hl_ctrl", 7, 0, 0, 0, 0, 0x2b44f56ffae88a6b),
    ("charge_ctrl", 16, 0, 0, 0, 0, 0x2b44f56ffae88a6b),
    ("wait", 8, 0, 0, 0, 0, 0x2b44f56ffae88a6b),
    ("wait0", 8, 0, 0, 0, 0, 0x2b44f56ffae88a6b),
    ("wait2", 6, 0, 0, 0, 0, 0x2b44f56ffae88a6b),
    ("rwait", 10, 0, 0, 0, 0, 0x2b44f56ffae88a6b),
    ("wait01", 8, 0, 0, 0, 0, 0x2b44f56ffae88a6b),
    ("wait10", 8, 0, 0, 0, 0, 0x2b44f56ffae88a6b),
    ("rwait0", 10, 0, 0, 0, 0, 0x2b44f56ffae88a6b),
    ("waitx", 14, 0, 0, 0, 0, 0x2b44f56ffae88a6b),
    ("token_ring", 14, 0, 0, 0, 0, 0x2b44f56ffae88a6b),
    ("phase_core", 126, 0, 0, 14, 0, 0x661dc1812581658b),
    ("dl", 3, 1, 0, 0, 0, 0x58f980a3f50ac343),
    ("choice", 3, 2, 0, 0, 0, 0x89db97776f0b0e8e),
    ("viol", 3, 2, 1, 0, 0, 0xc6a3473f4e97b3c9),
    ("csc", 4, 0, 0, 1, 1, 0x6c630cb4cddfa97c),
    ("usc", 5, 0, 0, 3, 0, 0x543ef3b489f9d0fb),
    ("ring1", 12, 0, 0, 3, 2, 0xe549871893e8b7a2),
    ("ring1xring", 120, 0, 0, 84, 32, 0x7a3238db42d76ee6),
    ("ring1xviol", 30, 0, 10, 9, 0, 0x74097f9227f736cf),
    ("ring2", 10, 0, 0, 4, 3, 0x99e9423c606703b8),
    ("ring2xring", 80, 0, 0, 194, 114, 0x4d000ffde8d58a15),
    ("ring2xviol", 24, 0, 8, 27, 9, 0x60694d152f91a931),
    ("ring3", 12, 0, 0, 10, 8, 0x27699ab7b30ada83),
    ("ring3xring", 120, 0, 0, 388, 224, 0x8820bdcc795a84d4),
    ("ring3xviol", 30, 0, 10, 27, 0, 0xc746c456f64ed5a1),
    ("ring1int", 12, 0, 0, 3, 3, 0xa264e88f9b365865),
    ("ring2int", 10, 0, 0, 4, 3, 0x99e9423c606703b8),
    ("ring3int", 12, 0, 0, 10, 8, 0x4d17c90f3de8be5c),
];

#[test]
fn verify_reports_are_pinned() {
    let mut cases = builtin_specs();
    cases.push(("dl".into(), deadlock_stg()));
    cases.push(("choice".into(), choice_stg(false)));
    cases.push(("viol".into(), choice_stg(true)));
    cases.push(("csc".into(), csc_stg()));
    cases.push(("usc".into(), usc_stg()));
    cases.extend(seeded_stgs());
    let mut got: Vec<Row> = Vec::new();
    for (name, stg) in &cases {
        let sg = stg
            .state_graph(1_000_000)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = stg.verify(&sg);
        got.push((
            name.clone(),
            sg.state_count(),
            report.deadlocks.len(),
            report.persistence.len(),
            report.coding.len(),
            report.csc_conflicts().len(),
            fx_hash_one(&render(stg, &report)),
        ));
    }
    let matches = got.len() == GOLDEN.len()
        && got.iter().zip(GOLDEN).all(|(g, w)| {
            (g.0.as_str(), g.1, g.2, g.3, g.4, g.5, g.6) == (w.0, w.1, w.2, w.3, w.4, w.5, w.6)
        });
    if !matches {
        let mut table = String::new();
        for (name, states, dl, pv, cc, csc, digest) in &got {
            table.push_str(&format!(
                "    ({name:?}, {states}, {dl}, {pv}, {cc}, {csc}, {digest:#018x}),\n"
            ));
        }
        panic!("verify reports moved; the table as it stands:\n{table}");
    }
}
