//! Property-based tests for the Petri-net substrate: random token rings
//! and pipelines, checking conservation, determinism, and invariant
//! algebra.

use a4a_petri::{NetBuilder, PetriNet};
use a4a_rt::prop::{self, Gen, PropResult};
use a4a_rt::{prop_assert, prop_assert_eq};

/// A ring of `n` places with `tokens` initial tokens spread from place 0.
fn ring(n: usize, tokens: u32) -> PetriNet {
    let mut b = NetBuilder::new();
    let places: Vec<_> = (0..n)
        .map(|i| b.place_with_tokens(format!("p{i}"), if i == 0 { tokens } else { 0 }))
        .collect();
    for i in 0..n {
        let t = b.transition(format!("t{i}"));
        b.arc_pt(places[i], t);
        b.arc_tp(t, places[(i + 1) % n]);
    }
    b.build()
}

/// Rings conserve their token count in every reachable marking.
#[test]
fn ring_conserves_tokens() {
    prop::check("ring_conserves_tokens", |g: &mut Gen| -> PropResult {
        let n = g.usize(2..7);
        let tokens = g.u64(1..4) as u32;
        let net = ring(n, tokens);
        let gr = net.explore(200_000).unwrap();
        for s in gr.state_ids() {
            prop_assert_eq!(gr.marking(s).total_tokens(), u64::from(tokens));
        }
        // The all-ones weight vector is always an invariant of a ring.
        let ones = vec![1i64; n];
        prop_assert!(net.is_place_invariant(&ones));
        prop_assert!(net.covered_by_invariants());
        Ok(())
    });
}

/// Exploration is deterministic: two runs give identical graphs.
#[test]
fn exploration_deterministic() {
    prop::check("exploration_deterministic", |g: &mut Gen| -> PropResult {
        let n = g.usize(2..6);
        let tokens = g.u64(1..3) as u32;
        let net = ring(n, tokens);
        let g1 = net.explore(200_000).unwrap();
        let g2 = net.explore(200_000).unwrap();
        prop_assert_eq!(g1.state_count(), g2.state_count());
        for s in g1.state_ids() {
            prop_assert_eq!(g1.marking(s), g2.marking(s));
            prop_assert_eq!(g1.successors(s), g2.successors(s));
        }
        Ok(())
    });
}

/// Firing any enabled transition preserves every computed invariant.
#[test]
fn invariants_survive_any_firing() {
    prop::check("invariants_survive_any_firing", |g: &mut Gen| -> PropResult {
        let n = g.usize(2..6);
        let steps = g.vec(0..30, |g| g.usize(0..8));
        let net = ring(n, 2);
        let invariants = net.place_invariants();
        let mut marking = net.initial_marking();
        let sums: Vec<i64> = invariants.iter().map(|inv| inv.sum(&marking)).collect();
        for pick in steps {
            let enabled = net.enabled(&marking);
            if enabled.is_empty() {
                break;
            }
            let t = enabled[pick % enabled.len()];
            marking = net.fire(t, &marking);
            for (inv, &s0) in invariants.iter().zip(&sums) {
                prop_assert_eq!(inv.sum(&marking), s0);
            }
        }
        Ok(())
    });
}

/// A linear pipeline of length n has exactly n+1 reachable markings
/// (token positions) and one deadlock.
#[test]
fn pipeline_state_count() {
    prop::check("pipeline_state_count", |g: &mut Gen| -> PropResult {
        let n = g.usize(1..10);
        let mut b = NetBuilder::new();
        let places: Vec<_> = (0..=n)
            .map(|i| b.place_with_tokens(format!("p{i}"), u32::from(i == 0)))
            .collect();
        for i in 0..n {
            let t = b.transition(format!("t{i}"));
            b.arc_pt(places[i], t);
            b.arc_tp(t, places[i + 1]);
        }
        let net = b.build();
        let gr = net.explore(10_000).unwrap();
        prop_assert_eq!(gr.state_count(), n + 1);
        prop_assert_eq!(gr.deadlocks().len(), 1);
        // The trace to the deadlock has length n.
        let dead = gr.deadlocks()[0];
        prop_assert_eq!(gr.trace_to(dead).len(), n);
        Ok(())
    });
}

/// Product of k independent toggles has 2^k states.
#[test]
fn independent_components_multiply() {
    prop::check("independent_components_multiply", |g: &mut Gen| -> PropResult {
        let k = g.usize(1..5);
        let mut b = NetBuilder::new();
        for i in 0..k {
            let p0 = b.place_with_tokens(format!("a{i}"), 1);
            let p1 = b.place(format!("b{i}"));
            let t0 = b.transition(format!("t{i}_0"));
            let t1 = b.transition(format!("t{i}_1"));
            b.arc_pt(p0, t0);
            b.arc_tp(t0, p1);
            b.arc_pt(p1, t1);
            b.arc_tp(t1, p0);
        }
        let net = b.build();
        let gr = net.explore(100_000).unwrap();
        prop_assert_eq!(gr.state_count(), 1 << k);
        Ok(())
    });
}

/// Packed and dense representations of the same random safe marking
/// agree on every hash-lookup observable: equality, `fx_hash`, the
/// `std::hash::Hash` stream (via a hashed-set round trip), and the
/// per-place accessors.
#[test]
fn packed_and_dense_markings_agree() {
    use a4a_petri::Marking;
    prop::check("packed_and_dense_markings_agree", |g: &mut Gen| -> PropResult {
        let places = g.usize(0..200);
        let tokens: Vec<u32> = (0..places).map(|_| g.u64(0..2) as u32).collect();
        let dense = Marking::new(tokens.clone());
        let packed = dense.clone().pack_if_safe();
        prop_assert!(packed.is_packed() || places == 0 || !dense.is_safe());
        prop_assert_eq!(&dense, &packed);
        prop_assert_eq!(dense.fx_hash(), packed.fx_hash());
        prop_assert_eq!(dense.len(), packed.len());
        prop_assert_eq!(dense.total_tokens(), packed.total_tokens());
        prop_assert_eq!(
            dense.iter().collect::<Vec<_>>(),
            packed.iter().collect::<Vec<_>>()
        );
        // A set keyed on the std Hash stream must treat them as one key.
        let mut set: a4a_rt::FxHashSet<Marking> = a4a_rt::FxHashSet::default();
        set.insert(dense.clone());
        prop_assert!(set.contains(&packed));
        set.insert(packed.clone());
        prop_assert_eq!(set.len(), 1);
        // Round-tripping back to dense is lossless.
        prop_assert_eq!(packed.to_dense().iter().collect::<Vec<_>>(), tokens);
        Ok(())
    });
}

/// Distinct markings (safe or not) keep distinct interner semantics: an
/// unsafe marking never equals or fx-collides with its safe truncation.
#[test]
fn unsafe_and_safe_markings_stay_distinct() {
    use a4a_petri::Marking;
    prop::check("unsafe_and_safe_stay_distinct", |g: &mut Gen| -> PropResult {
        let places = g.usize(1..64);
        let hot = g.usize(0..places);
        let mut tokens: Vec<u32> = (0..places).map(|_| g.u64(0..2) as u32).collect();
        let safe = Marking::new(tokens.clone()).pack_if_safe();
        tokens[hot] += 2; // now unsafe at `hot`
        let unsafe_m = Marking::new(tokens).pack_if_safe();
        prop_assert!(!unsafe_m.is_packed());
        prop_assert!(safe != unsafe_m);
        prop_assert!(safe.fx_hash() != unsafe_m.fx_hash());
        Ok(())
    });
}

/// The enabling kernel and mask firing agree with the arc-list
/// definitions (`is_enabled` on every transition, `try_fire` of a dense
/// marking) on random nets: weighted, read and self-loop arcs, source
/// transitions, up to 160 places and 160 transitions, packed and dense
/// markings. A firing that puts a second token on a place must leave
/// the packed representation; every other firing of a packed marking
/// must stay packed.
#[test]
fn enabling_kernel_matches_arc_lists() {
    use a4a_petri::Marking;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    static WIDE: AtomicUsize = AtomicUsize::new(0);
    static FALLBACKS: AtomicUsize = AtomicUsize::new(0);
    static WEIGHTED: AtomicUsize = AtomicUsize::new(0);
    static SOURCES: AtomicUsize = AtomicUsize::new(0);
    prop::check("enabling_kernel_matches_arc_lists", |g: &mut Gen| -> PropResult {
        let places = g.usize(1..161);
        let transitions = g.usize(1..161);
        if places > 64 && transitions > 64 {
            WIDE.fetch_add(1, Relaxed);
        }
        let mut b = NetBuilder::new();
        let ps: Vec<_> = (0..places).map(|i| b.place(format!("p{i}"))).collect();
        for i in 0..transitions {
            let t = b.transition(format!("t{i}"));
            let weight = |g: &mut Gen| if g.u64(0..8) == 0 { 2 } else { 1 };
            // Arcs of each kind go to distinct places; a place may carry
            // arcs of several kinds (self-loops, read-and-produce).
            let arcs = |g: &mut Gen, max: usize| {
                let mut used = Vec::new();
                for _ in 0..g.usize(0..max) {
                    let p = g.usize(0..places);
                    if !used.contains(&p) {
                        used.push(p);
                    }
                }
                used.into_iter().map(|p| (ps[p], weight(g))).collect::<Vec<_>>()
            };
            let (consume, read, produce) = (arcs(g, 4), arcs(g, 3), arcs(g, 4));
            if consume.is_empty() && read.is_empty() {
                SOURCES.fetch_add(1, Relaxed);
            }
            if consume.iter().chain(&read).chain(&produce).any(|&(_, w)| w > 1) {
                WEIGHTED.fetch_add(1, Relaxed);
            }
            for (p, w) in consume {
                b.arc_pt_weighted(p, t, w);
            }
            for (p, w) in read {
                b.arc_read_weighted(p, t, w);
            }
            for (p, w) in produce {
                b.arc_tp_weighted(t, p, w);
            }
        }
        let net = b.build();
        let unsafe_marking = g.u64(0..4) == 0;
        let tokens: Vec<u32> = (0..places)
            .map(|_| match g.u64(0..8) {
                0..=3 => 0,
                7 if unsafe_marking => 2,
                _ => 1,
            })
            .collect();
        let dense = Marking::new(tokens);
        let packed = dense.clone().pack_if_safe();
        prop_assert_eq!(packed.is_packed(), dense.is_safe());
        let reference: Vec<_> = net
            .transition_ids()
            .filter(|&t| net.is_enabled(t, &dense))
            .collect();
        prop_assert_eq!(net.enabled(&dense), reference.clone());
        prop_assert_eq!(net.enabled(&packed), reference.clone());
        for t in reference {
            let want = net.try_fire(t, &dense).unwrap();
            let got = net.try_fire(t, &packed).unwrap();
            prop_assert_eq!(&got, &want);
            if packed.is_packed() {
                prop_assert_eq!(got.is_packed(), want.is_safe());
                if !want.is_safe() {
                    FALLBACKS.fetch_add(1, Relaxed);
                }
            }
        }
        Ok(())
    });
    for (what, count) in [
        ("nets over 64 places and 64 transitions", &WIDE),
        ("second-token fallbacks", &FALLBACKS),
        ("weighted transitions", &WEIGHTED),
        ("source transitions", &SOURCES),
    ] {
        assert!(count.load(Relaxed) > 0, "no case exercised {what}");
    }
}
