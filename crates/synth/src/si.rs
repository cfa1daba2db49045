//! Speed-independence verification by joint exploration of the circuit
//! and its STG specification.
//!
//! The circuit's reachable behaviour under the speed-independence model
//! (arbitrary gate delays) is explored together with the set of
//! specification states compatible with the trace so far. Two properties
//! are checked:
//!
//! * **conformance** — whenever a gate output changes, the specification
//!   must allow that edge;
//! * **semi-modularity** (output persistence at gate level, i.e. hazard
//!   freedom) — an excited gate must not be disabled by another signal
//!   changing before it fires.

use a4a_netlist::{GateId, GateKind, Netlist};
use a4a_petri::{ExploreError, StateSpace, Step};
use a4a_rt::Pool;
use a4a_stg::{Edge, Label, SgStateId, SignalId, SignalKind, Stg};

use crate::SynthError;

/// A violation discovered by [`verify_si`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SiViolation {
    /// The circuit produced an output edge the specification does not
    /// allow here.
    Unexpected {
        /// The offending edge, e.g. `gp+`.
        edge: String,
        /// The trace (edge names) leading to the violation.
        trace: Vec<String>,
    },
    /// An excited gate was disabled before firing: a potential hazard.
    Disabled {
        /// The signal whose excitation was revoked.
        signal: String,
        /// The edge whose firing revoked it.
        by: String,
        /// The trace (edge names) leading to the violation.
        trace: Vec<String>,
    },
}

/// Result of [`verify_si`].
#[derive(Debug, Clone, Default)]
pub struct SiReport {
    /// Joint states explored.
    pub states: usize,
    /// Violations found (bounded to the first few per kind).
    pub violations: Vec<SiViolation>,
}

impl SiReport {
    /// Returns `true` when the circuit conforms to the specification and
    /// is free of hazards under the SI delay model.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Violations recorded per report; exploration goes on past the cap so
/// `states` still counts the whole joint space.
const MAX_VIOLATIONS: usize = 16;

/// Verifies a synthesised netlist against its STG specification, on the
/// global thread pool ([`a4a_rt::Pool::global`]).
///
/// The netlist must use the one-net-per-signal form produced by
/// [`crate::synthesize`] (net names equal signal names).
///
/// # Errors
///
/// * [`SynthError::SignalMapping`] when a net has no same-named signal;
/// * [`SynthError::StateLimit`] when the joint exploration exceeds
///   `max_states`;
/// * [`SynthError::Stg`] when the specification itself cannot be
///   explored.
pub fn verify_si(stg: &Stg, netlist: &Netlist, max_states: usize) -> Result<SiReport, SynthError> {
    verify_si_with(a4a_rt::Pool::global(), stg, netlist, max_states)
}

/// [`verify_si`] on an explicit pool — the entry point the differential
/// tests use to compare thread counts in-process. The report (state
/// count, violations and their order and traces) is identical for every
/// pool size.
///
/// # Errors
///
/// As for [`verify_si`].
pub fn verify_si_with(
    pool: &Pool,
    stg: &Stg,
    netlist: &Netlist,
    max_states: usize,
) -> Result<SiReport, SynthError> {
    let sg = stg.state_graph_with(pool, max_states)?;

    // Map implemented signals to their driver gates.
    let mut gate_of: Vec<Option<GateId>> = vec![None; stg.signal_count()];
    for net in netlist.net_ids() {
        let name = &netlist.net(net).name;
        let signal = stg
            .signal_by_name(name)
            .ok_or_else(|| SynthError::SignalMapping { net: name.clone() })?;
        if let Some(gate) = netlist.driver(net) {
            gate_of[signal.index()] = Some(gate);
        }
    }
    // Signals implemented in the STG must be driven in the netlist; each
    // gets its gate and the signal masks of the gate's pins.
    let mut gates: Vec<(SignalId, &GateKind, Vec<u64>)> = Vec::new();
    for s in stg
        .signal_ids()
        .filter(|&s| stg.signal(s).kind.is_implemented())
    {
        let gate = gate_of[s.index()].ok_or_else(|| SynthError::SignalMapping {
            net: stg.signal(s).name.clone(),
        })?;
        let gate = netlist.gate(gate);
        let pins = gate
            .pins
            .iter()
            .map(|&p| {
                stg.signal_by_name(&netlist.net(p).name)
                    .expect("checked above")
                    .mask()
            })
            .collect();
        gates.push((s, &gate.kind, pins));
    }
    let is_excited = |(signal, kind, pins): &(SignalId, &GateKind, Vec<u64>), code: u64| {
        let mut values = [false; 64];
        for (v, &mask) in values.iter_mut().zip(pins) {
            *v = code & mask != 0;
        }
        let cur = code & signal.mask() != 0;
        kind.eval(&values[..pins.len()], cur) != cur
    };

    // Epsilon (dummy) closure over specification states, kept as a
    // sorted set.
    let closure = |mut set: Vec<SgStateId>| -> Vec<SgStateId> {
        set.sort_unstable();
        set.dedup();
        let mut todo = set.clone();
        while let Some(s) = todo.pop() {
            for &(t, succ) in sg.successors(s) {
                if stg.label(t) == Label::Dummy {
                    if let Err(at) = set.binary_search(&succ) {
                        set.insert(at, succ);
                        todo.push(succ);
                    }
                }
            }
        }
        set
    };
    // The closure of the successors through `edge` of the spec states in
    // `set`; empty when none of them enables `edge`.
    let advance = |set: &[SgStateId], edge: Edge| -> Vec<SgStateId> {
        let next = set
            .iter()
            .flat_map(|&s| sg.successors(s))
            .filter(|&&(t, _)| stg.label(t) == Label::Edge(edge))
            .map(|&(_, succ)| succ)
            .collect();
        closure(next)
    };
    let edge_name = |e: Edge| -> String {
        format!("{}{}", stg.signal(e.signal).name, e.polarity.suffix())
    };

    // A joint state is (code, spec states). A fault names the signal a
    // move disabled, or is `None` when the spec does not allow the move.
    type Joint = (u64, Vec<SgStateId>);
    let expand = |(code, spec): &Joint, out: &mut Vec<Step<Joint, Edge, Option<SignalId>>>| {
        let code = *code;
        let toggle = |s: SignalId| {
            if code & s.mask() != 0 {
                Edge::falling(s)
            } else {
                Edge::rising(s)
            }
        };
        let mut moves: Vec<(Edge, Vec<SgStateId>)> = Vec::new();
        // Environment: input edges enabled by the spec.
        for s in stg
            .signal_ids()
            .filter(|&s| stg.signal(s).kind == SignalKind::Input)
        {
            let next = advance(spec, toggle(s));
            if !next.is_empty() {
                moves.push((toggle(s), next));
            }
        }
        // Circuit: excited implemented signals, which the spec must allow.
        let excited: Vec<&(SignalId, &GateKind, Vec<u64>)> =
            gates.iter().filter(|g| is_excited(g, code)).collect();
        for g in &excited {
            let next = advance(spec, toggle(g.0));
            if next.is_empty() {
                out.push((toggle(g.0), Err(None)));
            } else {
                moves.push((toggle(g.0), next));
            }
        }
        for (edge, next) in moves {
            let new_code = code ^ edge.signal.mask();
            // Semi-modularity: every other excited signal stays excited.
            for g in &excited {
                if g.0 != edge.signal && !is_excited(g, new_code) {
                    out.push((edge, Err(Some(g.0))));
                }
            }
            out.push((edge, Ok((new_code, next))));
        }
    };
    let mut violations = Vec::new();
    let on_fault =
        |space: &StateSpace<Joint, Edge, u32>, from, edge, disabled: Option<SignalId>| {
            if violations.len() < MAX_VIOLATIONS {
                let mut trace: Vec<String> =
                    space.trace_to(from).into_iter().map(edge_name).collect();
                trace.push(edge_name(edge));
                violations.push(match disabled {
                    None => SiViolation::Unexpected {
                        edge: edge_name(edge),
                        trace,
                    },
                    Some(s) => SiViolation::Disabled {
                        signal: stg.signal(s).name.clone(),
                        by: edge_name(edge),
                        trace,
                    },
                });
            }
            Ok(())
        };
    let initial = (stg.initial_code(), closure(vec![SgStateId::INITIAL]));
    // The hook never stops and the state graph above already vetted the
    // limit, so the one error left is the joint state limit.
    let space = StateSpace::explore(pool, initial, max_states, expand, on_fault)
        .map_err(|_: ExploreError| SynthError::StateLimit { limit: max_states })?;
    Ok(SiReport {
        states: space.state_count(),
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synthesize, SynthOptions, SynthStyle};
    use a4a_boolmin::Expr;
    use a4a_netlist::{GateKind, GateLib, NetlistBuilder};

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

    #[test]
    fn synthesised_c_element_is_clean() {
        let stg = a4a_stg::Stg::parse_g(CELEM).unwrap();
        for style in [SynthStyle::ComplexGate, SynthStyle::GeneralizedC] {
            let synth = synthesize(&stg, &SynthOptions::new(style)).unwrap();
            let report = verify_si(&stg, synth.netlist(), 100_000).unwrap();
            assert!(report.is_clean(), "{style:?}: {:?}", report.violations);
            assert!(report.states >= 4);
        }
    }

    #[test]
    fn wrong_gate_caught_as_unexpected() {
        // Implement c = a (ignores b): fires c+ after a+ even when the
        // spec still waits for b+.
        let stg = a4a_stg::Stg::parse_g(CELEM).unwrap();
        let lib = GateLib::tsmc90();
        let mut b = NetlistBuilder::new("wrong");
        let a = b.input("a");
        let bb = b.input("b");
        let c = b.net("c");
        let _ = bb;
        b.complex(c, &[a], Expr::var(0), &lib);
        let netlist = b.build().unwrap();
        let report = verify_si(&stg, &netlist, 100_000).unwrap();
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, SiViolation::Unexpected { edge, .. } if edge == "c+")));
    }

    #[test]
    fn hazardous_gate_caught_as_disabled() {
        // Implement c as pure AND: after c+ with a=b=1, dropping a
        // excites c to fall... that conforms? In the spec c- only fires
        // after both a- and b-. AND fires c- after just a-: unexpected.
        // To get a Disabled violation instead, use OR for set-like
        // behaviour: c = a | b. From a=1,b=0,c=1 (not reachable here)...
        // Simpler: two-input spec where OR over-approximates. Keep this
        // test on the AND case and assert any violation is found.
        let stg = a4a_stg::Stg::parse_g(CELEM).unwrap();
        let lib = GateLib::tsmc90();
        let mut b = NetlistBuilder::new("and_impl");
        let a = b.input("a");
        let bb = b.input("b");
        let c = b.net("c");
        b.complex(
            c,
            &[a, bb],
            Expr::and(vec![Expr::var(0), Expr::var(1)]),
            &lib,
        );
        let netlist = b.build().unwrap();
        let report = verify_si(&stg, &netlist, 100_000).unwrap();
        assert!(!report.is_clean());
    }

    #[test]
    fn disabled_excitation_detected() {
        // Spec: inputs a, b concurrent; output o = a AND b is wrong when
        // the spec says o+ after a+ alone. Build spec: a+ -> o+ -> a- ->
        // o- with a free-running b toggling concurrently. Implement
        // o = a & b: b- while o excited disables it.
        let mut bld = a4a_stg::StgBuilder::new("dis");
        let a = bld.input("a", false);
        let bsig = bld.input("b", false);
        let o = bld.output("o", false);
        let ap = bld.rise(a);
        let op = bld.rise(o);
        let am = bld.fall(a);
        let om = bld.fall(o);
        bld.connect_marked(om, ap);
        bld.connect(ap, op);
        bld.connect(op, am);
        bld.connect(am, om);
        // b toggles freely.
        let bp = bld.rise(bsig);
        let bm = bld.fall(bsig);
        bld.connect_marked(bm, bp);
        bld.connect(bp, bm);
        let stg = bld.build();

        let lib = GateLib::tsmc90();
        let mut nb = NetlistBuilder::new("dis_impl");
        let an = nb.input("a");
        let bn = nb.input("b");
        let on = nb.net("o");
        nb.gate(
            on,
            &[an, bn],
            GateKind::Complex(Expr::and(vec![Expr::var(0), Expr::var(1)])),
            &lib,
        );
        let netlist = nb.build().unwrap();
        let report = verify_si(&stg, &netlist, 100_000).unwrap();
        assert!(report.violations.iter().any(|v| matches!(
            v,
            SiViolation::Disabled { signal, .. } if signal == "o"
        )), "{:?}", report.violations);
    }

    #[test]
    fn unmapped_net_rejected() {
        let stg = a4a_stg::Stg::parse_g(CELEM).unwrap();
        let lib = GateLib::tsmc90();
        let mut b = NetlistBuilder::new("extra");
        let a = b.input("a");
        let bb = b.input("b");
        let c = b.net("c");
        let extra = b.net("helper");
        b.buf(extra, a, &lib);
        b.complex(
            c,
            &[extra, bb],
            Expr::and(vec![Expr::var(0), Expr::var(1)]),
            &lib,
        );
        let netlist = b.build().unwrap();
        let err = verify_si(&stg, &netlist, 100_000).unwrap_err();
        assert!(matches!(err, SynthError::SignalMapping { net } if net == "helper"));
    }

    #[test]
    fn traces_lead_to_violation() {
        let stg = a4a_stg::Stg::parse_g(CELEM).unwrap();
        let lib = GateLib::tsmc90();
        let mut b = NetlistBuilder::new("wrong");
        let a = b.input("a");
        let _bb = b.input("b");
        let c = b.net("c");
        b.complex(c, &[a], Expr::var(0), &lib);
        let netlist = b.build().unwrap();
        let report = verify_si(&stg, &netlist, 100_000).unwrap();
        let v = report
            .violations
            .iter()
            .find_map(|v| match v {
                SiViolation::Unexpected { edge, trace } if edge == "c+" => Some(trace.clone()),
                _ => None,
            })
            .expect("violation with trace");
        assert_eq!(v.last().map(String::as_str), Some("c+"));
        assert!(v.len() >= 2, "needs at least one input move first: {v:?}");
    }
}
