//! `flow_specs`: the A4A flow on every built-in specification, in both
//! implementation styles.
//!
//! Minimisation does nearly all of the work (`phase_core` dominates),
//! while the 38 small operations expose per-call overhead. The seed only
//! shuffles the operation order.

use a4a::boolmin::{minimize, Minimize};
use a4a::netlist::verilog;
use a4a::stg::Stg;
use a4a::synth::{extract_next_state, synthesize, verify_si, Region, SynthOptions, SynthStyle};
use a4a::{A4aFlow, FlowError, FlowResult};

use crate::harness::{Checked, Verdict, Workload};
use crate::layers::Layers;
use crate::trace::Tracer;

/// State budget of every exploration, as in [`A4aFlow`].
const MAX_STATES: usize = 1_000_000;

struct Case {
    name: &'static str,
    style: SynthStyle,
    flow: A4aFlow,
    /// State count of the specification, for the `.g` round-trip check.
    states: usize,
}

/// The 20 built-in specifications × {complex gate, gC}.
pub struct FlowSpecs {
    cases: Vec<Case>,
}

/// Every built-in specification: the controller modules, the A2A
/// elements, the token ring and the phase core.
pub fn builtin_specs() -> Vec<(&'static str, Stg)> {
    let mut specs = a4a::ctrl::stgs::all_module_stgs();
    specs.extend(a4a::a2a::spec::all_specs());
    specs.push(("token_ring", a4a::ctrl::stgs::token_ring_stg()));
    specs.push(("phase_core", a4a::ctrl::stgs::phase_core_stg()));
    specs
}

fn style_tag(style: SynthStyle) -> &'static str {
    match style {
        SynthStyle::ComplexGate => "cg",
        SynthStyle::GeneralizedC => "gc",
    }
}

impl FlowSpecs {
    /// Builds the 40 flow runs.
    pub fn setup() -> Result<FlowSpecs, String> {
        let mut cases = Vec::new();
        for (name, stg) in builtin_specs() {
            let states = stg
                .state_graph(MAX_STATES)
                .map_err(|e| format!("{name}: {e}"))?
                .state_count();
            for style in [SynthStyle::ComplexGate, SynthStyle::GeneralizedC] {
                cases.push(Case {
                    name,
                    style,
                    flow: A4aFlow::new(stg.clone()).with_style(style),
                    states,
                });
            }
        }
        Ok(FlowSpecs { cases })
    }

    /// The flow's stages called one by one, outside the operation's
    /// span, so each layer's time is measured on its own.
    fn probe_stages(&self, case: &Case, tr: &mut Tracer) {
        let stg = case.flow.stg();
        let Ok(sg) = tr.span("stg.state_graph", || stg.state_graph(MAX_STATES)) else {
            return;
        };
        tr.span("stg.verify", || stg.verify(&sg));
        let nvars = stg.signal_count();
        let space = 2f64.powi(nvars as i32);
        for signal in stg.signal_ids() {
            if !stg.signal(signal).kind.is_implemented() {
                continue;
            }
            let Some(ns) = tr.span("synth.extract", || extract_next_state(stg, &sg, signal)) else {
                continue;
            };
            // The same ON/OFF problems `synthesize` hands the minimiser.
            let problems = match case.style {
                SynthStyle::ComplexGate => vec![(ns.on_set(), ns.off_set())],
                SynthStyle::GeneralizedC => {
                    let rise = ns.region_codes(Region::ExcitedRise);
                    let fall = ns.region_codes(Region::ExcitedFall);
                    let mut set_off = ns.region_codes(Region::Stable0);
                    set_off.extend(&fall);
                    let mut reset_off = ns.region_codes(Region::Stable1);
                    reset_off.extend(&rise);
                    vec![(rise, set_off), (fall, reset_off)]
                }
            };
            for (on, off) in problems {
                tr.add("boolmin.care", (on.len() + off.len()) as f64);
                tr.add("boolmin.space", space);
                let _ = tr.span("boolmin.minimize", || {
                    minimize(&Minimize::new(nvars).on(&on).off(&off))
                });
            }
        }
        let opts = SynthOptions::new(case.style);
        let Ok(syn) = tr.span("synth.synthesize", || synthesize(stg, &opts)) else {
            return;
        };
        let key = match case.style {
            SynthStyle::ComplexGate => "synth.literals.cg",
            SynthStyle::GeneralizedC => "synth.literals.gc",
        };
        tr.add(key, f64::from(syn.literal_count()));
        if let Ok(si) = tr.span("synth.verify_si", || {
            verify_si(stg, syn.netlist(), MAX_STATES)
        }) {
            tr.add("synth.verify_si.joint_states", si.states as f64);
        }
        tr.span("netlist.emit", || {
            (verilog::emit(syn.netlist()), syn.equations(stg), stg.to_g())
        });
    }
}

impl Workload for FlowSpecs {
    type Output = Result<FlowResult, FlowError>;

    fn len(&self) -> usize {
        self.cases.len()
    }

    fn label(&self, i: usize) -> String {
        let c = &self.cases[i];
        format!("{}/{}", c.name, style_tag(c.style))
    }

    fn run(&self, i: usize) -> Self::Output {
        self.cases[i].flow.run()
    }

    fn run_traced(&self, i: usize, tr: &mut Tracer) -> Self::Output {
        let case = &self.cases[i];
        let op = tr.begin("op");
        let out = tr.span("core.flow", || case.flow.run());
        tr.end(op);
        let probe = tr.begin("probe");
        self.probe_stages(case, tr);
        tr.end(probe);
        out
    }

    fn check(&self, i: usize, out: Self::Output) -> Checked {
        let case = &self.cases[i];
        let r = match out {
            Ok(r) => r,
            Err(e) => return Checked::of(Verdict::Failed(e.to_string())),
        };
        let literals = u64::from(r.synthesis.literal_count());
        let verdict = if !r.sanity.is_clean() {
            Verdict::Wrong(format!("sanity: {}", r.sanity.summary()))
        } else if !r.si.is_clean() {
            Verdict::Wrong(format!("SI violations: {:?}", r.si.violations))
        } else {
            match Stg::parse_g(&r.g_format).map(|s| s.state_graph(MAX_STATES)) {
                Err(e) => Verdict::Failed(format!(".g round trip: {e}")),
                Ok(Err(e)) => Verdict::Failed(format!(".g round trip: {e}")),
                Ok(Ok(sg)) if sg.state_count() != case.states => Verdict::Wrong(format!(
                    ".g round trip: {} states, expected {}",
                    sg.state_count(),
                    case.states
                )),
                Ok(Ok(_)) => Verdict::Pass,
            }
        };
        Checked {
            literals,
            ..Checked::of(verdict)
        }
    }
}

/// Per-layer metrics of the traced passes (each value per pass).
pub fn layers(tr: &Tracer, passes: usize, out: &mut Layers) {
    let t = tr.totals();
    let n = passes as f64;
    let ms = |name: &str| t.get(name).map_or(0.0, |x| x.total_ns as f64 / 1e6) / n;
    let flow = ms("core.flow");
    let (sg, verify, extract, minim) = (
        ms("stg.state_graph"),
        ms("stg.verify"),
        ms("synth.extract"),
        ms("boolmin.minimize"),
    );
    let (synth, si, emit) = (
        ms("synth.synthesize"),
        ms("synth.verify_si"),
        ms("netlist.emit"),
    );
    let other = synth - (sg + verify + extract + minim);
    out.put("synth.extract.ms", extract);
    out.put("boolmin.minimize.ms", minim);
    out.put(
        "boolmin.minimize.calls",
        t.get("boolmin.minimize").map_or(0.0, |x| x.calls as f64) / n,
    );
    out.put(
        "boolmin.care_frac",
        tr.counter("boolmin.care") / tr.counter("boolmin.space").max(1.0),
    );
    out.put("synth.synthesize.ms", synth);
    out.put("synth.synthesize.other_ms", other);
    out.put("synth.literals.cg", tr.counter("synth.literals.cg") / n);
    out.put("synth.literals.gc", tr.counter("synth.literals.gc") / n);
    out.put("synth.verify_si.ms", si);
    out.put(
        "synth.verify_si.joint_states",
        tr.counter("synth.verify_si.joint_states") / n,
    );
    out.put("netlist.emit.ms", emit);
    let stages = sg + verify + synth + si + emit;
    out.put("core.flow.ms", flow);
    out.put("core.flow.overhead_ms", flow - stages);
    // Within one flow run, `synthesize` repeats the state graph and the
    // sanity checks; the rest of it, plus the SI check, is boolmin + synth.
    out.put("share.boolmin_synth", (synth - sg - verify + si) / stages);
}
