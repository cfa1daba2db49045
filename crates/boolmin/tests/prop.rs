//! Property-based tests: minimiser output is always semantically exact,
//! cube algebra obeys its laws.

use a4a_boolmin::{minimize, Cube, Expr, Minimize};
use a4a_rt::prop::{self, Gen, PropResult};
use a4a_rt::{prop_assert, prop_assert_eq};

/// Random partition of the 2^n minterm space into ON / OFF / DC.
fn partition(nvars: usize, seed: u64) -> (Vec<u64>, Vec<u64>) {
    let mut on = Vec::new();
    let mut off = Vec::new();
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    for m in 0..(1u64 << nvars) {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        match (state >> 33) % 3 {
            0 => on.push(m),
            1 => off.push(m),
            _ => {} // don't care
        }
    }
    (on, off)
}

/// The minimised cover is 1 on every ON minterm and 0 on every OFF
/// minterm, for arbitrary incompletely-specified functions.
#[test]
fn qm_is_exact() {
    prop::check("qm_is_exact", |g: &mut Gen| -> PropResult {
        let nvars = g.usize(1..7);
        let seed = g.any_u64();
        let (on, off) = partition(nvars, seed);
        let cover = minimize(&Minimize::new(nvars).on(&on).off(&off)).unwrap();
        prop_assert_eq!(cover.check(&on, &off), None);
        // And the expression form agrees everywhere.
        let expr = Expr::from_cover(&cover);
        for m in 0..(1u64 << nvars) {
            prop_assert_eq!(expr.eval(m), cover.eval(m));
        }
        Ok(())
    });
}

/// Every cube of the result is an implicant of ON ∪ DC (never covers
/// an OFF minterm).
#[test]
fn qm_cubes_avoid_off() {
    prop::check("qm_cubes_avoid_off", |g: &mut Gen| -> PropResult {
        let nvars = g.usize(1..7);
        let seed = g.any_u64();
        let (on, off) = partition(nvars, seed);
        let cover = minimize(&Minimize::new(nvars).on(&on).off(&off)).unwrap();
        for cube in cover.cubes() {
            for &m in &off {
                prop_assert!(!cube.covers_minterm(m));
            }
        }
        Ok(())
    });
}

/// Merging two cubes yields a cube covering exactly their union.
#[test]
fn merge_covers_union() {
    prop::check("merge_covers_union", |g: &mut Gen| -> PropResult {
        let nvars = g.usize(1..6);
        let (a, b) = (g.any_u64(), g.any_u64());
        let mask = (1u64 << nvars) - 1;
        let (a, b) = (a & mask, b & mask);
        let ca = Cube::minterm(nvars, a);
        let cb = Cube::minterm(nvars, b);
        if let Some(merged) = ca.merge(&cb) {
            for m in 0..=mask {
                let expected = m == a || m == b;
                prop_assert_eq!(merged.covers_minterm(m), expected, "m={:#b}", m);
            }
        } else {
            // No merge: the minterms differ in != 1 bit.
            prop_assert!((a ^ b).count_ones() != 1);
        }
        Ok(())
    });
}

/// Containment is consistent with minterm semantics.
#[test]
fn containment_semantics() {
    prop::check("containment_semantics", |g: &mut Gen| -> PropResult {
        let nvars = g.usize(1..5);
        let a = g.any_u64();
        let drop = g.usize(0..5);
        let mask = (1u64 << nvars) - 1;
        let small = Cube::minterm(nvars, a & mask);
        let big = small.with_free(drop % nvars);
        prop_assert!(big.contains(&small));
        for m in 0..=mask {
            if small.covers_minterm(m) {
                prop_assert!(big.covers_minterm(m));
            }
        }
        Ok(())
    });
}

/// from_cover/literal_count agree between Expr and Cover.
#[test]
fn expr_matches_cover() {
    prop::check("expr_matches_cover", |g: &mut Gen| -> PropResult {
        let nvars = g.usize(1..6);
        let seed = g.any_u64();
        let (on, off) = partition(nvars, seed);
        let cover = minimize(&Minimize::new(nvars).on(&on).off(&off)).unwrap();
        let expr = Expr::from_cover(&cover);
        prop_assert_eq!(expr.literal_count(), cover.literal_count());
        Ok(())
    });
}
