//! STG specifications of the A2A elements.
//!
//! These are the formal counterparts of the behavioural models in this
//! crate, written against an *idealised* environment: the non-persistent
//! input is represented as an ordinary input signal whose edges the
//! environment produces at protocol-legal moments. The element
//! implementations exist precisely to make the real, non-idealised
//! analog signals look like this to the controller.
//!
//! Each spec is consistent, deadlock-free, and output-persistent (see
//! the tests), and synthesisable with `a4a-synth` (exercised by the
//! workspace integration tests).

use a4a_stg::{Stg, StgBuilder};

/// STG of the WAIT element: `ri+ → sig+ → ao+ → ri- → ao-`, with the
/// input free to fall any time after the latch.
pub fn wait_stg() -> Stg {
    let mut b = StgBuilder::new("wait");
    let sig = b.input("sig", false);
    let ri = b.input("ri", false);
    let ao = b.output("ao", false);
    let rip = b.rise(ri);
    let sigp = b.rise(sig);
    let aop = b.rise(ao);
    let rim = b.fall(ri);
    let aom = b.fall(ao);
    let sigm = b.fall(sig);
    b.connect_marked(aom, rip);
    b.connect(rip, sigp);
    b.connect(sigp, aop);
    b.connect(aop, rim);
    b.connect(rim, aom);
    // The non-persistent input falls after the latch and is released
    // before the next request (the idealised environment re-arms only
    // once the condition cleared).
    b.connect(aop, sigm);
    b.connect_marked(sigm, rip);
    b.build()
}

/// STG of the WAIT0 element (waits for the input **low**; the input is
/// initially high).
pub fn wait0_stg() -> Stg {
    let mut b = StgBuilder::new("wait0");
    let sig = b.input("sig", true);
    let ri = b.input("ri", false);
    let ao = b.output("ao", false);
    let rip = b.rise(ri);
    let sigm = b.fall(sig);
    let aop = b.rise(ao);
    let rim = b.fall(ri);
    let aom = b.fall(ao);
    let sigp = b.rise(sig);
    b.connect_marked(aom, rip);
    b.connect(rip, sigm);
    b.connect(sigm, aop);
    b.connect(aop, rim);
    b.connect(rim, aom);
    b.connect(aop, sigp);
    b.connect_marked(sigp, rip);
    b.build()
}

/// STG of the WAIT2 element: one full handshake observes one full input
/// cycle (`sig+` before `ao+`, `sig-` before `ao-`).
pub fn wait2_stg() -> Stg {
    let mut b = StgBuilder::new("wait2");
    let sig = b.input("sig", false);
    let ri = b.input("ri", false);
    let ao = b.output("ao", false);
    let rip = b.rise(ri);
    let sigp = b.rise(sig);
    let aop = b.rise(ao);
    let rim = b.fall(ri);
    let sigm = b.fall(sig);
    let aom = b.fall(ao);
    b.connect_marked(aom, rip);
    b.connect(rip, sigp);
    b.connect(sigp, aop);
    b.connect(aop, rim);
    b.connect(rim, sigm);
    b.connect(sigm, aom);
    b.build()
}

/// STG of the RWAIT element: after `ri+` the environment either produces
/// the input (`sig+ → ao+ → ri- → ao-`) or cancels the wait
/// (`kill+ → ri- → kill-`), releasing the handshake without an
/// acknowledge.
pub fn rwait_stg() -> Stg {
    let mut b = StgBuilder::new("rwait");
    let sig = b.input("sig", false);
    let kill = b.input("kill", false);
    let ri = b.input("ri", false);
    let ao = b.output("ao", false);

    let rip = b.rise(ri);
    let sigp = b.rise(sig);
    let aop = b.rise(ao);
    let rim = b.fall(ri);
    let aom = b.fall(ao);
    let sigm = b.fall(sig);
    let killp = b.rise(kill);
    let rim2 = b.fall(ri);
    let killm = b.fall(kill);

    // Entry and free-choice between the signal and the cancel.
    let choice = b.place("choice");
    b.arc_tp(rip, choice);
    b.arc_pt(choice, sigp);
    b.arc_pt(choice, killp);
    // Acknowledged path: the input also clears before the next request.
    b.connect(sigp, aop);
    b.connect(aop, rim);
    b.connect(rim, aom);
    b.connect(aop, sigm);
    let sig_clear = b.place_with_tokens("sig_clear", 1);
    b.arc_tp(sigm, sig_clear);
    b.arc_pt(sig_clear, rip);
    // Cancelled path (no ack; sig never rose, so nothing to clear).
    b.connect(killp, rim2);
    b.connect(rim2, killm);
    b.arc_tp(killm, sig_clear);
    // Merge back to the entry.
    let done = b.place_with_tokens("done", 1);
    b.arc_tp(aom, done);
    b.arc_tp(killm, done);
    b.arc_pt(done, rip);
    b.build()
}

/// STG of the WAIT01 element with the input initially low — in that case
/// the edge wait coincides with the level wait, so the protocol equals
/// [`wait_stg`] (the behavioural difference appears only when the input
/// is high at arming, which the idealised environment excludes).
pub fn wait01_stg() -> Stg {
    Stg::parse_g(
        "\
.model wait01
.inputs sig ri
.outputs ao
.graph
ri+ sig+
sig+ ao+
ao+ ri- sig-
ri- ao-
ao- ri+
sig- ri+
.marking { <ao-,ri+> <sig-,ri+> }
.end
",
    )
    .expect("known-good spec")
}

/// STG of the WAIT10 element with the input initially high — the edge
/// wait coincides with the level wait for low, so the protocol equals
/// [`wait0_stg`].
pub fn wait10_stg() -> Stg {
    Stg::parse_g(
        "\
.model wait10
.inputs sig ri
.outputs ao
.graph
ri+ sig-
sig- ao+
ao+ ri- sig+
ri- ao-
ao- ri+
sig+ ri+
.marking { <ao-,ri+> <sig+,ri+> }
.initial_state sig
.end
",
    )
    .expect("known-good spec")
}

/// STG of the RWAIT0 element: [`rwait_stg`]'s protocol with the input
/// polarity flipped (waits for low; cancel releases the handshake).
pub fn rwait0_stg() -> Stg {
    let mut b = StgBuilder::new("rwait0");
    let sig = b.input("sig", true);
    let kill = b.input("kill", false);
    let ri = b.input("ri", false);
    let ao = b.output("ao", false);

    let rip = b.rise(ri);
    let sigm = b.fall(sig);
    let aop = b.rise(ao);
    let rim = b.fall(ri);
    let aom = b.fall(ao);
    let sigp = b.rise(sig);
    let killp = b.rise(kill);
    let rim2 = b.fall(ri);
    let killm = b.fall(kill);

    let choice = b.place("choice");
    b.arc_tp(rip, choice);
    b.arc_pt(choice, sigm);
    b.arc_pt(choice, killp);
    // Acknowledged path: the input returns high before the next request.
    b.connect(sigm, aop);
    b.connect(aop, rim);
    b.connect(rim, aom);
    b.connect(aop, sigp);
    let sig_clear = b.place_with_tokens("sig_clear", 1);
    b.arc_tp(sigp, sig_clear);
    b.arc_pt(sig_clear, rip);
    // Cancelled path.
    b.connect(killp, rim2);
    b.connect(rim2, killm);
    b.arc_tp(killm, sig_clear);
    let done = b.place_with_tokens("done", 1);
    b.arc_tp(aom, done);
    b.arc_tp(killm, done);
    b.arc_pt(done, rip);
    b.build()
}

/// STG of the WAITX element: after `ri+` the environment raises one of
/// the two inputs; the element answers on the matching dual-rail grant.
pub fn waitx_stg() -> Stg {
    let mut b = StgBuilder::new("waitx");
    let sig1 = b.input("sig1", false);
    let sig2 = b.input("sig2", false);
    let ri = b.input("ri", false);
    let g1 = b.output("g1", false);
    let g2 = b.output("g2", false);

    let rip = b.rise(ri);
    let s1p = b.rise(sig1);
    let g1p = b.rise(g1);
    let rim1 = b.fall(ri);
    let g1m = b.fall(g1);
    let s1m = b.fall(sig1);
    let s2p = b.rise(sig2);
    let g2p = b.rise(g2);
    let rim2 = b.fall(ri);
    let g2m = b.fall(g2);
    let s2m = b.fall(sig2);

    let choice = b.place("choice");
    b.arc_tp(rip, choice);
    b.arc_pt(choice, s1p);
    b.arc_pt(choice, s2p);
    // Winner 1: grant, release, and the input clears before re-request.
    b.connect(s1p, g1p);
    b.connect(g1p, rim1);
    b.connect(rim1, g1m);
    b.connect(g1p, s1m);
    // Winner 2.
    b.connect(s2p, g2p);
    b.connect(g2p, rim2);
    b.connect(rim2, g2m);
    b.connect(g2p, s2m);
    // Merge: the next request needs the handshake closed and the
    // winner's input cleared.
    let done = b.place_with_tokens("done", 1);
    b.arc_tp(g1m, done);
    b.arc_tp(g2m, done);
    b.arc_pt(done, rip);
    let clear = b.place_with_tokens("clear", 1);
    b.arc_tp(s1m, clear);
    b.arc_tp(s2m, clear);
    b.arc_pt(clear, rip);
    b.build()
}

/// Every element spec in this module, with its name.
pub fn all_specs() -> Vec<(&'static str, Stg)> {
    vec![
        ("wait", wait_stg()),
        ("wait0", wait0_stg()),
        ("wait2", wait2_stg()),
        ("rwait", rwait_stg()),
        ("wait01", wait01_stg()),
        ("wait10", wait10_stg()),
        ("rwait0", rwait0_stg()),
        ("waitx", waitx_stg()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_specs_are_clean() {
        for (name, stg) in all_specs() {
            let sg = stg
                .state_graph(100_000)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let report = stg.verify(&sg);
            assert!(
                report.is_clean(),
                "{name} spec not clean:\n{}",
                report.summary()
            );
            assert!(report.deadlocks.is_empty(), "{name} deadlocks");
        }
    }

    #[test]
    fn wait_state_count() {
        let stg = wait_stg();
        let sg = stg.state_graph(1000).unwrap();
        // ri/ao handshake (4 phases) with the sig cycle interleaved.
        assert!(sg.state_count() >= 6, "got {}", sg.state_count());
    }

    #[test]
    fn rwait_has_two_completion_paths() {
        let stg = rwait_stg();
        let sg = stg.state_graph(1000).unwrap();
        let kill = stg.signal_by_name("kill").unwrap();
        let ao = stg.signal_by_name("ao").unwrap();
        // There are reachable states with kill high and others with ao
        // high, but never both.
        let mut saw_kill = false;
        let mut saw_ao = false;
        for s in sg.state_ids() {
            let code = sg.code(s);
            let k = code & kill.mask() != 0;
            let a = code & ao.mask() != 0;
            saw_kill |= k;
            saw_ao |= a;
            assert!(!(k && a), "cancel and ack are exclusive");
        }
        assert!(saw_kill && saw_ao);
    }

    #[test]
    fn waitx_grants_are_mutually_exclusive() {
        let stg = waitx_stg();
        let sg = stg.state_graph(1000).unwrap();
        let g1 = stg.signal_by_name("g1").unwrap();
        let g2 = stg.signal_by_name("g2").unwrap();
        assert!(stg.check_mutual_exclusion(&sg, g1, g2).is_empty());
    }

    #[test]
    fn wait01_round_trips() {
        let stg = wait01_stg();
        assert_eq!(stg.name(), "wait01");
        assert!(stg.verify(&stg.state_graph(1000).unwrap()).is_clean());
    }
}
