//! §IV's verification claims, checked end to end across crates:
//!
//! "We verified that all STGs are consistent, deadlock-free, and
//! output-persistent. We also verified specific buck converter
//! properties, such as the absence of a short circuit in PMOS/NMOS
//! transistors [...]. All the gate-level implementations were also
//! verified to be deadlock-free, hazard-free and conformant to their
//! STG specifications."

use a4a::A4aFlow;
use a4a_stg::Stg;
use a4a_synth::{synthesize, verify_si, SynthOptions, SynthStyle};

fn all_specs() -> Vec<(&'static str, Stg)> {
    let mut specs = a4a_ctrl::stgs::all_module_stgs();
    specs.extend(a4a_a2a::spec::all_specs());
    specs
}

#[test]
fn every_module_stg_is_consistent_deadlock_free_and_persistent() {
    for (name, stg) in all_specs() {
        // Consistency: state_graph() fails on inconsistent specs.
        let sg = stg
            .state_graph(1_000_000)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = stg.verify(&sg);
        assert!(report.deadlocks.is_empty(), "{name} deadlocks");
        assert!(
            report.persistence.is_empty(),
            "{name} persistence: {:?}",
            report.persistence.first()
        );
        assert!(
            report.csc_conflicts().is_empty(),
            "{name} CSC conflicts block synthesis"
        );
    }
}

#[test]
fn every_module_synthesises_and_conforms_in_both_styles() {
    for (name, stg) in all_specs() {
        for style in [SynthStyle::ComplexGate, SynthStyle::GeneralizedC] {
            let synth = synthesize(&stg, &SynthOptions::new(style))
                .unwrap_or_else(|e| panic!("{name} {style:?}: {e}"));
            let report = verify_si(&stg, synth.netlist(), 1_000_000)
                .unwrap_or_else(|e| panic!("{name} {style:?}: {e}"));
            assert!(
                report.is_clean(),
                "{name} {style:?} violations: {:?}",
                report.violations.first()
            );
        }
    }
}

#[test]
fn basic_buck_short_circuit_property() {
    let stg = a4a_ctrl::stgs::basic_buck_stg();
    let sg = stg.state_graph(1_000_000).expect("consistent");
    let gp = stg.signal_by_name("gp").expect("gp");
    let gn = stg.signal_by_name("gn").expect("gn");
    let violations = stg.check_mutual_exclusion(&sg, gp, gn);
    assert!(
        violations.is_empty(),
        "PMOS and NMOS on together in {} states",
        violations.len()
    );
}

#[test]
fn flow_produces_verilog_and_g_for_every_module() {
    for (name, stg) in all_specs() {
        let result = A4aFlow::new(stg)
            .run()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(result.verilog.contains("module"), "{name} verilog");
        assert!(result.g_format.contains(".marking"), "{name} .g");
        // Round trip the emitted .g and re-run the flow on it.
        let back = Stg::parse_g(&result.g_format)
            .unwrap_or_else(|e| panic!("{name} reparse: {e}"));
        let again = A4aFlow::new(back)
            .run()
            .unwrap_or_else(|e| panic!("{name} reflow: {e}"));
        assert!(again.si.is_clean(), "{name} reflow violations");
    }
}

#[test]
fn timer_sharing_possibility() {
    // The paper: "the possibility of sharing some of the timers". The
    // three delay controllers have identical protocols, so one timer
    // implementation serves all: their state graphs are isomorphic in
    // size and their synthesised functions are identical.
    let pmos = a4a_ctrl::stgs::delay_ctrl_stg("pmos_delay_ctrl");
    let nmos = a4a_ctrl::stgs::delay_ctrl_stg("nmos_delay_ctrl");
    let ext = a4a_ctrl::stgs::ext_delay_ctrl_stg();
    let opts = SynthOptions::new(SynthStyle::ComplexGate);
    let eq = |stg: &Stg| {
        let synth = synthesize(stg, &opts).expect("synthesis");
        synth.equations(stg)
    };
    assert_eq!(eq(&pmos), eq(&nmos));
    assert_eq!(eq(&pmos), eq(&ext));
}

#[test]
fn every_builtin_spec_round_trips_through_dot_g() {
    // The 20 built-in specifications: modules, A2A elements, and the two
    // compositions, whose repeated transition pairs and instance names
    // `to_g` must write in a form `parse_g` reads back.
    let mut specs = all_specs();
    specs.push(("token_ring", a4a_ctrl::stgs::token_ring_stg()));
    specs.push(("phase_core", a4a_ctrl::stgs::phase_core_stg()));
    assert_eq!(specs.len(), 20);
    for (name, stg) in specs {
        let sg = stg.state_graph(1_000_000).unwrap();
        let back = Stg::parse_g(&stg.to_g()).unwrap_or_else(|e| panic!("{name}: {e}"));
        let back_sg = back
            .state_graph(1_000_000)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(back_sg.state_count(), sg.state_count(), "{name}: states");
        assert_eq!(back_sg.edge_count(), sg.edge_count(), "{name}: edges");
        let codes = |g: &a4a_stg::StateGraph| g.state_ids().map(|s| g.code(s)).collect::<Vec<_>>();
        assert_eq!(codes(&back_sg), codes(&sg), "{name}: codes in order");
    }
}
