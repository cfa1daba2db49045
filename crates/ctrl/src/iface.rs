use a4a_analog::{SensorKind, TrackId};
use a4a_sim::Time;

/// An action requested by a controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Drive a power transistor of one phase (`pmos == true` selects the
    /// PMOS rail; `value` is the *on* state, so `gp`/`gn` in the paper's
    /// active-high convention).
    Gate {
        /// Target phase.
        phase: usize,
        /// `true` = PMOS (`gp`), `false` = NMOS (`gn`).
        pmos: bool,
        /// New on/off state.
        value: bool,
    },
    /// Switch the sensor bank's current references between normal and OV
    /// mode (§II: `I_max`/`I_0` vs `I_0`/`I_neg`).
    OvMode(bool),
}

/// A time-stamped [`Command`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedCommand {
    /// When the command leaves the controller (gate-driver delay not yet
    /// included).
    pub time: Time,
    /// The action.
    pub command: Command,
}

/// A digital buck controller as seen by the mixed-signal testbench.
///
/// The testbench delivers sensor events ([`BuckController::on_sensor`])
/// and gate acknowledgements ([`BuckController::on_gate_ack`]), advances
/// the controller's internal timers/clock ([`BuckController::on_wakeup`]
/// at [`BuckController::next_wakeup`] deadlines), and drains the
/// produced [`TimedCommand`]s after every interaction.
///
/// # Call contract
///
/// The testbench integrates in windows (at most one analog step each)
/// and calls the window-rate methods sparingly:
///
/// - [`BuckController::debug_tracks_into`] exactly once per window,
///   after the window's deliveries.
/// - [`BuckController::next_wakeup`] once at the start of every window,
///   and again after every interaction: each `on_*` call (or the batch
///   of sensor events an OV-mode switch re-evaluates) is followed by a
///   command drain, which re-reads it. In between, the testbench uses
///   the value it read.
///
/// `next_wakeup` must therefore depend only on state that changes
/// through the `&mut self` methods; a wakeup that moved through
/// interior mutability or outside input would be missed until the next
/// window starts.
pub trait BuckController {
    /// Number of buck phases driven.
    fn phases(&self) -> usize;

    /// Delivers a sensor output change at its (sub-step interpolated)
    /// event time.
    fn on_sensor(&mut self, t: Time, kind: SensorKind, value: bool);

    /// Delivers a gate acknowledgement: the power transistor of `phase`
    /// crossed its threshold and is now on (`value == true`) or off.
    fn on_gate_ack(&mut self, t: Time, phase: usize, pmos: bool, value: bool);

    /// The controller's next internal deadline (clock edge or timer),
    /// if any. Read once per window and after every interaction; see
    /// the call contract above.
    fn next_wakeup(&self) -> Option<Time>;

    /// Advances internal time to `t`, processing due clock edges and
    /// timers.
    fn on_wakeup(&mut self, t: Time);

    /// Drains the commands produced since the last call, in time order.
    fn take_commands(&mut self) -> Vec<TimedCommand>;

    /// Allocation-free [`BuckController::take_commands`]: appends the
    /// drained commands to `out` (in time order) so the co-simulation
    /// loop can reuse one buffer across windows. The default forwards
    /// to `take_commands`; controllers on the hot path should override
    /// it to drain their internal queue without an intermediate Vec.
    fn take_commands_into(&mut self, out: &mut Vec<TimedCommand>) {
        out.extend(self.take_commands());
    }

    /// Appends the controller's internal debug tracks for waveform
    /// recording (e.g. `act`, `get & !pass`) as interned-id/value
    /// pairs. Track names must be interned once at construction
    /// ([`TrackId::intern`]) so this call, made exactly once per
    /// integration window, never allocates. Default: none.
    fn debug_tracks_into(&self, _out: &mut Vec<(TrackId, bool)>) {}
}

impl<T: BuckController + ?Sized> BuckController for Box<T> {
    fn phases(&self) -> usize {
        (**self).phases()
    }

    fn on_sensor(&mut self, t: Time, kind: SensorKind, value: bool) {
        (**self).on_sensor(t, kind, value);
    }

    fn on_gate_ack(&mut self, t: Time, phase: usize, pmos: bool, value: bool) {
        (**self).on_gate_ack(t, phase, pmos, value);
    }

    fn next_wakeup(&self) -> Option<Time> {
        (**self).next_wakeup()
    }

    fn on_wakeup(&mut self, t: Time) {
        (**self).on_wakeup(t);
    }

    fn take_commands(&mut self) -> Vec<TimedCommand> {
        (**self).take_commands()
    }

    fn take_commands_into(&mut self, out: &mut Vec<TimedCommand>) {
        (**self).take_commands_into(out);
    }

    fn debug_tracks_into(&self, out: &mut Vec<(TrackId, bool)>) {
        (**self).debug_tracks_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_equality() {
        let a = Command::Gate {
            phase: 1,
            pmos: true,
            value: true,
        };
        assert_eq!(
            a,
            Command::Gate {
                phase: 1,
                pmos: true,
                value: true
            }
        );
        assert_ne!(a, Command::OvMode(true));
    }

    #[test]
    fn timed_command_carries_time() {
        let tc = TimedCommand {
            time: Time::from_ns(3.0),
            command: Command::OvMode(false),
        };
        assert_eq!(tc.time, Time::from_ns(3.0));
    }
}
