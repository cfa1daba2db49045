//! Golden synthesis results: the equations and literal count of every
//! built-in specification in both implementation styles are pinned
//! exactly, so a change to next-state extraction, prime generation or
//! cover selection shows up as a diff here rather than as a silently
//! different circuit.
//!
//! On a mismatch the test prints the complete table as it stands; paste
//! it over `GOLDEN` only when the change is intended and recorded.

use a4a_stg::Stg;
use a4a_synth::{synthesize, SynthOptions, SynthStyle};

/// Every built-in specification: the controller modules, the A2A
/// elements, the token ring and the phase core.
fn builtin_specs() -> Vec<(&'static str, Stg)> {
    let mut specs = a4a_ctrl::stgs::all_module_stgs();
    specs.extend(a4a_a2a::spec::all_specs());
    specs.push(("token_ring", a4a_ctrl::stgs::token_ring_stg()));
    specs.push(("phase_core", a4a_ctrl::stgs::phase_core_stg()));
    specs
}

/// (spec, style, literal count, equations).
const GOLDEN: &[(&str, &str, u32, &str)] = &[
    ("basic_buck", "cg", 11, "gp = uv oc' gn_ack' + oc' gp_ack\ngn = uv' oc gp_ack' + uv' zc' gn_ack\n"),
    ("basic_buck", "gc", 9, "gp : set = uv oc' gn_ack' ; reset = oc\ngn : set = uv' oc gp_ack' ; reset = uv + zc\n"),
    ("decoupler", "cg", 6, "get_ack = get\npass = get_ack' tok_pass\ntok_pass = get_ack + pass_ack' tok_pass\n"),
    ("decoupler", "gc", 7, "get_ack : set = get ; reset = get'\npass : set = get_ack' tok_pass ; reset = tok_pass'\ntok_pass : set = get_ack ; reset = pass_ack\n"),
    ("merge", "cg", 8, "a1 = r2' ai a2'\na2 = r1' ai a1'\nro = r1 + r2\n"),
    ("merge", "gc", 10, "a1 : set = r1 ai ; reset = ai'\na2 : set = r2 ai ; reset = ai'\nro : set = r1 + r2 ; reset = r1' r2'\n"),
    ("token_ctrl", "cg", 8, "rd = ri\nrm = ri\nao = ad am + ri' ad + ri' am\n"),
    ("token_ctrl", "gc", 8, "rd : set = ri ; reset = ri'\nrm : set = ri ; reset = ri'\nao : set = ad am ; reset = ad' am'\n"),
    ("mode_ctrl", "cg", 13, "am = rm csc0\nrc = rm' uv_g ac' am' + rm' ov_g ac' am'\ncsc0 = uv_g + ov_g + ac\n"),
    ("mode_ctrl", "gc", 17, "am : set = rm csc0 ; reset = rm'\nrc : set = rm' uv_g ac' am' + rm' ov_g ac' am' ; reset = ac\ncsc0 : set = uv_g + ov_g ; reset = uv_g' ov_g' ac'\n"),
    ("pmos_delay_ctrl", "cg", 2, "rd = ri\nao = ad\n"),
    ("pmos_delay_ctrl", "gc", 4, "rd : set = ri ; reset = ri'\nao : set = ad ; reset = ad'\n"),
    ("nmos_delay_ctrl", "cg", 2, "rd = ri\nao = ad\n"),
    ("nmos_delay_ctrl", "gc", 4, "rd : set = ri ; reset = ri'\nao : set = ad ; reset = ad'\n"),
    ("ext_delay_ctrl", "cg", 2, "rd = ri\nao = ad\n"),
    ("ext_delay_ctrl", "gc", 4, "rd : set = ri ; reset = ri'\nao : set = ad ; reset = ad'\n"),
    ("hl_ctrl", "cg", 3, "ro = hl + ai' ro\n"),
    ("hl_ctrl", "gc", 3, "ro : set = hl ; reset = hl' ai\n"),
    ("charge_ctrl", "cg", 8, "gp = rc oc'\ngn = oc gp_ack' + zc' gn_ack\nac = gn_ack + zc\n"),
    ("charge_ctrl", "gc", 9, "gp : set = rc oc' ; reset = oc\ngn : set = oc gp_ack' ; reset = zc\nac : set = gn_ack ; reset = zc' gn_ack'\n"),
    ("wait", "cg", 4, "ao = sig ri + ri ao\n"),
    ("wait", "gc", 3, "ao : set = sig ri ; reset = ri'\n"),
    ("wait0", "cg", 4, "ao = sig' ri + ri ao\n"),
    ("wait0", "gc", 3, "ao : set = sig' ri ; reset = ri'\n"),
    ("wait2", "cg", 1, "ao = sig\n"),
    ("wait2", "gc", 2, "ao : set = sig ; reset = sig'\n"),
    ("rwait", "cg", 4, "ao = sig ri + ri ao\n"),
    ("rwait", "gc", 3, "ao : set = sig ri ; reset = ri'\n"),
    ("wait01", "cg", 4, "ao = sig ri + ri ao\n"),
    ("wait01", "gc", 3, "ao : set = sig ri ; reset = ri'\n"),
    ("wait10", "cg", 4, "ao = sig' ri + ri ao\n"),
    ("wait10", "gc", 3, "ao : set = sig' ri ; reset = ri'\n"),
    ("rwait0", "cg", 4, "ao = sig' ri + ri ao\n"),
    ("rwait0", "gc", 3, "ao : set = sig' ri ; reset = ri'\n"),
    ("waitx", "cg", 8, "g1 = sig1 ri + ri g1\ng2 = sig2 ri + ri g2\n"),
    ("waitx", "gc", 6, "g1 : set = sig1 ri ; reset = ri'\ng2 : set = sig2 ri ; reset = ri'\n"),
    ("token_ring", "cg", 16, "c10 = a01' tok_c01' + c10 tok_c10\na01 = c01\na10 = c10\nc01 = a10' tok_c01 + a01 tok_c10'\ntok_c01 = a10 + a01' tok_c01\ntok_c10 = a01 + a10' tok_c01'\n"),
    ("token_ring", "gc", 16, "c10 : set = a01' tok_c01' ; reset = tok_c01 tok_c10'\na01 : set = c01 ; reset = c01'\na10 : set = c10 ; reset = c10'\nc01 : set = a10' tok_c01 ; reset = tok_c01' tok_c10\ntok_c01 : set = a10 ; reset = a01\ntok_c10 : set = a01 ; reset = a10\n"),
    ("phase_core", "cg", 27, "ad = rd\nam = rm csc0\nrd = ri\nrm = ri csc0' + ri rm\nao = ad am + ad ao + am ao\nrc = ac' rc + am' rm' ov_g ac' + am' rm' uv_g ac'\ncsc0 = uv_g + ov_g + ac\n"),
    ("phase_core", "gc", 28, "ad : set = rd ; reset = rd'\nam : set = rm csc0 ; reset = rm'\nrd : set = ri ; reset = ri'\nrm : set = ri csc0' ; reset = ri'\nao : set = ad am ; reset = ad' am'\nrc : set = am' rm' uv_g ac' + am' rm' ov_g ac' ; reset = ac\ncsc0 : set = uv_g + ov_g ; reset = uv_g' ov_g' ac'\n"),
];

#[test]
fn synthesis_is_pinned_for_every_builtin_spec() {
    let mut got: Vec<(String, &str, u32, String)> = Vec::new();
    for (name, stg) in builtin_specs() {
        for (tag, style) in [("cg", SynthStyle::ComplexGate), ("gc", SynthStyle::GeneralizedC)] {
            let synth = synthesize(&stg, &SynthOptions::new(style))
                .unwrap_or_else(|e| panic!("{name} {tag}: {e}"));
            got.push((name.to_string(), tag, synth.literal_count(), synth.equations(&stg)));
        }
    }
    let matches = got.len() == GOLDEN.len()
        && got
            .iter()
            .zip(GOLDEN)
            .all(|((n, t, l, e), &(gn, gt, gl, ge))| n == gn && *t == gt && *l == gl && e == ge);
    if !matches {
        println!("const GOLDEN: &[(&str, &str, u32, &str)] = &[");
        for (n, t, l, e) in &got {
            println!("    ({n:?}, {t:?}, {l}, {e:?}),");
        }
        println!("];");
    }
    assert!(matches, "synthesis results moved; the current table is printed above");
    let total: u32 = got.iter().map(|&(_, _, l, _)| l).sum();
    assert_eq!(total, 284, "total literal count over all specs and styles");
}
