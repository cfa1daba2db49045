//! A delegating [`BuckController`] that measures the controller layer.
//!
//! Window-rate calls (`next_wakeup`, `debug_tracks_into`, several per
//! integration window) are only counted: reading the clock on each of
//! them would triple a cell's run time. Event-rate calls (sensor events,
//! gate acks, wakeups, command drains) are counted and timed.

use std::cell::Cell;
use std::time::{Duration, Instant};

use a4a::analog::{SensorKind, TrackId};
use a4a::ctrl::{BuckController, TimedCommand};
use a4a::sim::Time;

/// What one controller did during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CtrlStats {
    /// `on_sensor` calls.
    pub on_sensor: u64,
    /// `on_gate_ack` calls.
    pub on_gate_ack: u64,
    /// `on_wakeup` calls.
    pub on_wakeup: u64,
    /// `next_wakeup` calls.
    pub next_wakeup: u64,
    /// `debug_tracks_into` calls: exactly one per integration window.
    pub debug_tracks: u64,
    /// Commands drained from the controller.
    pub commands: u64,
    /// Time spent inside the event-rate calls.
    pub self_time: Duration,
}

/// Wraps a controller, forwarding every call unchanged.
#[derive(Debug)]
pub struct Probe<C> {
    inner: C,
    stats: CtrlStats,
    next_wakeup: Cell<u64>,
    debug_tracks: Cell<u64>,
}

impl<C: BuckController> Probe<C> {
    /// Wraps `inner`.
    pub fn new(inner: C) -> Probe<C> {
        Probe {
            inner,
            stats: CtrlStats::default(),
            next_wakeup: Cell::new(0),
            debug_tracks: Cell::new(0),
        }
    }

    /// The counts and time recorded so far.
    pub fn stats(&self) -> CtrlStats {
        CtrlStats {
            next_wakeup: self.next_wakeup.get(),
            debug_tracks: self.debug_tracks.get(),
            ..self.stats
        }
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut C) -> R) -> R {
        let t0 = Instant::now();
        let out = f(&mut self.inner);
        self.stats.self_time += t0.elapsed();
        out
    }
}

impl<C: BuckController> BuckController for Probe<C> {
    fn phases(&self) -> usize {
        self.inner.phases()
    }

    fn on_sensor(&mut self, t: Time, kind: SensorKind, value: bool) {
        self.stats.on_sensor += 1;
        self.timed(|c| c.on_sensor(t, kind, value));
    }

    fn on_gate_ack(&mut self, t: Time, phase: usize, pmos: bool, value: bool) {
        self.stats.on_gate_ack += 1;
        self.timed(|c| c.on_gate_ack(t, phase, pmos, value));
    }

    fn next_wakeup(&self) -> Option<Time> {
        self.next_wakeup.set(self.next_wakeup.get() + 1);
        self.inner.next_wakeup()
    }

    fn on_wakeup(&mut self, t: Time) {
        self.stats.on_wakeup += 1;
        self.timed(|c| c.on_wakeup(t));
    }

    fn take_commands(&mut self) -> Vec<TimedCommand> {
        let cmds = self.timed(|c| c.take_commands());
        self.stats.commands += cmds.len() as u64;
        cmds
    }

    fn take_commands_into(&mut self, out: &mut Vec<TimedCommand>) {
        let before = out.len();
        self.timed(|c| c.take_commands_into(out));
        self.stats.commands += (out.len() - before) as u64;
    }

    fn debug_tracks_into(&self, out: &mut Vec<(TrackId, bool)>) {
        self.debug_tracks.set(self.debug_tracks.get() + 1);
        self.inner.debug_tracks_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a4a::scenario::{self, ControllerKind};

    /// One Figure 7a cell (4.7 µH, 6 Ω, 8 µs), plain and wrapped, must
    /// record byte-identical samples and events.
    #[test]
    fn wrapper_leaves_a_fig7a_cell_byte_identical() {
        for kind in [ControllerKind::Sync(333.0), ControllerKind::Async] {
            let mut plain = scenario::sweep_coil(4.7, 6.0)
                .try_build(scenario::controller(kind, 4))
                .unwrap();
            plain.try_run_until(8e-6).unwrap();
            let mut wrapped = scenario::sweep_coil(4.7, 6.0)
                .try_build(Probe::new(scenario::controller(kind, 4)))
                .unwrap();
            wrapped.try_run_until(8e-6).unwrap();
            let stats = wrapped.controller().stats();
            assert!(stats.debug_tracks > 1000, "{stats:?}");
            assert!(stats.next_wakeup >= stats.debug_tracks, "{stats:?}");
            assert!(stats.commands > 0 && stats.on_gate_ack > 0, "{stats:?}");
            assert_eq!(plain.short_circuits(), wrapped.short_circuits());
            let (a, b) = (plain.into_waveform(), wrapped.into_waveform());
            assert_eq!(a.csv(), b.csv(), "{}", kind.label());
            assert_eq!(a.events_csv(), b.events_csv(), "{}", kind.label());
        }
    }
}
