/// An analog comparator with hysteresis and propagation delay.
///
/// The comparator watches a continuous quantity sampled at simulation
/// steps; crossings inside a step are located by linear interpolation, so
/// event times have sub-step resolution — the analog equivalent of the
/// testbench's `cross()` in Verilog-A.
///
/// # Examples
///
/// ```
/// use a4a_analog::Comparator;
///
/// // Over-current: asserts above 0.2 A with 4 mA hysteresis, 1 ns delay.
/// let mut oc = Comparator::above(0.2, 0.004, 1e-9);
/// let (t, asserted) = oc.update(0.0, 0.0, 1e-6, 0.3).expect("crossed");
/// assert!(asserted);
/// assert!((t - (0.202 / 0.3 * 1e-6 + 1e-9)).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Comparator {
    /// `true`: asserts when the input is above the threshold.
    rise_above: bool,
    threshold: f64,
    hysteresis: f64,
    delay: f64,
    state: bool,
    /// The level the input must cross for the output to leave `state`
    /// (the deassert level while asserted, the assert level otherwise).
    /// Derived from the fields above; [`Comparator::arm`] refreshes it
    /// whenever the state, threshold or forced output changes.
    armed_level: f64,
    /// `true` when that crossing is upward (input at or above
    /// `armed_level`), `false` when downward.
    armed_upward: bool,
}

impl Comparator {
    /// A comparator asserting when the input exceeds `threshold`.
    pub fn above(threshold: f64, hysteresis: f64, delay: f64) -> Comparator {
        Comparator::new(true, threshold, hysteresis, delay)
    }

    /// A comparator asserting when the input falls below `threshold`.
    pub fn below(threshold: f64, hysteresis: f64, delay: f64) -> Comparator {
        Comparator::new(false, threshold, hysteresis, delay)
    }

    fn new(rise_above: bool, threshold: f64, hysteresis: f64, delay: f64) -> Comparator {
        let mut c = Comparator {
            rise_above,
            threshold,
            hysteresis,
            delay,
            state: false,
            armed_level: 0.0,
            armed_upward: false,
        };
        c.arm();
        c
    }

    /// Recomputes the armed crossing from the state and threshold.
    fn arm(&mut self) {
        self.armed_level = if self.state {
            self.deassert_level()
        } else {
            self.assert_level()
        };
        // Asserting crosses in the comparator's own direction,
        // deasserting in the opposite one.
        self.armed_upward = self.rise_above != self.state;
    }

    /// The current (already-propagated) output.
    pub fn output(&self) -> bool {
        self.state
    }

    /// Forces the output state (used when initialising a testbench in a
    /// known operating point).
    pub fn set_output(&mut self, state: bool) {
        self.state = state;
        self.arm();
    }

    /// Changes the reference threshold (the paper's OV-mode switch of
    /// `I_max`→`I_0` and `I_0`→`I_neg`). The next update evaluates
    /// against the new value.
    pub fn set_threshold(&mut self, threshold: f64) {
        self.threshold = threshold;
        self.arm();
    }

    /// The active threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The threshold the input must cross for the output to *assert*.
    fn assert_level(&self) -> f64 {
        if self.rise_above {
            self.threshold + self.hysteresis / 2.0
        } else {
            self.threshold - self.hysteresis / 2.0
        }
    }

    /// The threshold the input must cross for the output to *deassert*.
    fn deassert_level(&self) -> f64 {
        if self.rise_above {
            self.threshold - self.hysteresis / 2.0
        } else {
            self.threshold + self.hysteresis / 2.0
        }
    }

    /// Processes one linear segment of the input, from `(t0, x0)` to
    /// `(t1, x1)`. Returns the output change — `(event_time, new_state)`
    /// including propagation delay — or `None`.
    pub fn update(&mut self, t0: f64, x0: f64, t1: f64, x1: f64) -> Option<(f64, bool)> {
        let (level, upward) = (self.armed_level, self.armed_upward);
        let beyond = |x: f64| if upward { x >= level } else { x <= level };
        if !beyond(x1) {
            return None;
        }
        // Locate the crossing within the segment.
        let t_cross = if beyond(x0) || (x1 - x0).abs() < f64::EPSILON {
            t0
        } else {
            t0 + (level - x0) / (x1 - x0) * (t1 - t0)
        };
        self.state = !self.state;
        self.arm();
        Some((t_cross + self.delay, self.state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn above_asserts_on_rise() {
        let mut c = Comparator::above(1.0, 0.0, 0.0);
        assert_eq!(c.update(0.0, 0.0, 1.0, 0.5), None);
        let (t, s) = c.update(1.0, 0.5, 2.0, 1.5).unwrap();
        assert!(s);
        assert!((t - 1.5).abs() < 1e-12, "crossing at midpoint, got {t}");
        assert!(c.output());
    }

    #[test]
    fn below_asserts_on_fall() {
        let mut c = Comparator::below(3.3, 0.0, 0.0);
        assert_eq!(c.update(0.0, 5.0, 1.0, 4.0), None);
        let (t, s) = c.update(1.0, 4.0, 2.0, 2.6).unwrap();
        assert!(s);
        assert!((t - 1.5).abs() < 1e-12);
    }

    #[test]
    fn hysteresis_prevents_chatter() {
        let mut c = Comparator::above(1.0, 0.2, 0.0);
        // Rises just past the nominal threshold but not past +h/2.
        assert_eq!(c.update(0.0, 0.9, 1.0, 1.05), None);
        // Past the assert level.
        assert!(c.update(1.0, 1.05, 2.0, 1.2).is_some());
        // Dips below nominal but above the deassert level: stays on.
        assert_eq!(c.update(2.0, 1.2, 3.0, 0.95), None);
        // Below the deassert level: releases.
        let (_, s) = c.update(3.0, 0.95, 4.0, 0.8).unwrap();
        assert!(!s);
    }

    #[test]
    fn delay_shifts_event_time() {
        let mut c = Comparator::above(1.0, 0.0, 0.25);
        let (t, _) = c.update(0.0, 0.0, 1.0, 2.0).unwrap();
        assert!((t - 0.75).abs() < 1e-12, "0.5 crossing + 0.25 delay, got {t}");
    }

    #[test]
    fn threshold_change_applies_next_update() {
        let mut c = Comparator::above(0.2, 0.0, 0.0);
        assert_eq!(c.update(0.0, 0.1, 1.0, 0.15), None);
        c.set_threshold(0.12);
        // Input is flat at 0.15, already beyond the new threshold.
        let (t, s) = c.update(1.0, 0.15, 2.0, 0.15).unwrap();
        assert!(s);
        assert!((t - 1.0).abs() < 1e-12, "asserts at segment start");
    }

    #[test]
    fn set_output_initialises_state() {
        let mut c = Comparator::below(3.3, 0.0, 0.0);
        c.set_output(true);
        assert!(c.output());
        // Already asserted: rising past the deassert level releases.
        let (_, s) = c.update(0.0, 3.0, 1.0, 3.5).unwrap();
        assert!(!s);
    }

    /// Reference comparator without the cached crossing: it derives the
    /// level and direction from the formula on every update.
    struct Reference {
        rise_above: bool,
        threshold: f64,
        hysteresis: f64,
        delay: f64,
        state: bool,
    }

    impl Reference {
        fn update(&mut self, t0: f64, x0: f64, t1: f64, x1: f64) -> Option<(f64, bool)> {
            let (lo, hi) = (
                self.threshold - self.hysteresis / 2.0,
                self.threshold + self.hysteresis / 2.0,
            );
            let (level, target_state) = match (self.rise_above, self.state) {
                (true, false) => (hi, true),
                (true, true) => (lo, false),
                (false, false) => (lo, true),
                (false, true) => (hi, false),
            };
            let beyond = |x: f64| {
                if self.rise_above == target_state {
                    x >= level
                } else {
                    x <= level
                }
            };
            if !beyond(x1) {
                return None;
            }
            let t_cross = if beyond(x0) || (x1 - x0).abs() < f64::EPSILON {
                t0
            } else {
                t0 + (level - x0) / (x1 - x0) * (t1 - t0)
            };
            self.state = target_state;
            Some((t_cross + self.delay, target_state))
        }
    }

    /// The cached armed level and direction always equal the
    /// assert/deassert formula for the current state, and updates
    /// return bit-identical results to the uncached reference, over
    /// random interleavings of `update`, `set_threshold` and
    /// `set_output`.
    #[test]
    fn armed_crossing_matches_the_level_formula() {
        use a4a_rt::prop::{self, Gen, PropResult};
        use a4a_rt::{prop_assert, prop_assert_eq};

        let crossings = std::cell::Cell::new(0usize);
        prop::check("armed_crossing_matches_the_level_formula", |g: &mut Gen| -> PropResult {
            let rise_above = g.bool();
            let threshold = g.f64(-0.2..0.2);
            let hysteresis = g.f64(0.0..0.02);
            let delay = g.f64(0.0..2e-9);
            let mut c = if rise_above {
                Comparator::above(threshold, hysteresis, delay)
            } else {
                Comparator::below(threshold, hysteresis, delay)
            };
            let mut r = Reference {
                rise_above,
                threshold,
                hysteresis,
                delay,
                state: false,
            };
            let (mut t, mut x) = (0.0, g.f64(-0.3..0.3));
            for _ in 0..g.usize(1..200) {
                match g.choice(8) {
                    0 => {
                        let th = g.f64(-0.2..0.2);
                        c.set_threshold(th);
                        r.threshold = th;
                    }
                    1 => {
                        let out = g.bool();
                        c.set_output(out);
                        r.state = out;
                    }
                    _ => {
                        let (t1, x1) = (t + g.f64(1e-12..1e-9), g.f64(-0.3..0.3));
                        let got = c.update(t, x, t1, x1);
                        let want = r.update(t, x, t1, x1);
                        prop_assert_eq!(
                            got.map(|(te, v)| (te.to_bits(), v)),
                            want.map(|(te, v)| (te.to_bits(), v))
                        );
                        if got.is_some() {
                            crossings.set(crossings.get() + 1);
                        }
                        (t, x) = (t1, x1);
                    }
                }
                let formula = if c.state {
                    c.deassert_level()
                } else {
                    c.assert_level()
                };
                prop_assert_eq!(c.armed_level.to_bits(), formula.to_bits());
                prop_assert_eq!(c.armed_upward, c.rise_above != c.state);
                prop_assert!(c.state == r.state && c.threshold == r.threshold);
            }
            Ok(())
        });
        assert!(crossings.get() > 1000, "too few crossings: {}", crossings.get());
    }

    #[test]
    fn doc_example_numbers() {
        let mut oc = Comparator::above(0.2, 0.004, 1e-9);
        let (t, s) = oc.update(0.0, 0.0, 1e-6, 0.3).unwrap();
        assert!(s);
        // level = 0.202; crossing at 0.202/0.3 us = 0.6733 us.
        assert!((t - (0.202 / 0.3 * 1e-6 + 1e-9)).abs() < 1e-15);
    }
}
