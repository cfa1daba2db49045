//! The conventional synchronous controller (Figure 5a).
//!
//! Every asynchronous input — the five sensor conditions and the gate
//! acknowledges — passes through a 2-flop synchroniser clocked by the
//! fast `fsm_clk`; the per-phase FSMs are clocked by the same clock and
//! register their outputs on the opposite edge (+½ period). A slow
//! `phase_clk` (one pulse per [`crate::PolicyTiming::activation_period`])
//! rotates the round-robin phase activator. The control policy is
//! identical to the asynchronous ring — only the *when* differs: every
//! decision pays the sample-and-synchronise latency of ~2.5–3.5 clock
//! periods, and an unserved activation pulse is simply lost when the
//! activator moves on.

use a4a_a2a::MetaState;
use a4a_analog::{SensorKind, TrackId};
use a4a_sim::Time;

use crate::{BuckController, Command, SyncParams, TimedCommand};

/// Charging state of one phase FSM (mirrors the asynchronous states).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PState {
    Idle,
    TurnPmosOn,
    PmosOn,
    TurnPmosOff,
    TurnNmosOn,
    NmosOn,
    TurnNmosOff { recharge: bool },
}

/// A flop-chain synchroniser for one asynchronous input bit, held as a
/// shift register: bit 0 is the first flop, bit `depth - 1` the last.
#[derive(Debug, Clone)]
struct Synchroniser {
    raw: bool,
    /// The raw value at the previous clock edge; a difference marks a
    /// marginal (metastability-prone) capture window.
    prev_raw: bool,
    stages: u64,
    /// Number of flops, at most 64; zero passes `raw` straight through.
    depth: u32,
}

impl Synchroniser {
    fn new(depth: u32) -> Synchroniser {
        Synchroniser {
            raw: false,
            prev_raw: false,
            stages: 0,
            depth,
        }
    }

    /// Samples the raw input on a clock edge, shifting the pipeline.
    /// A marginal capture (the raw value changed since the last edge)
    /// may go metastable and resolve to the *old* value, costing one
    /// extra period — the paper's footnote 1.
    fn clock(&mut self, meta: &mut Option<MetaState>) {
        let marginal = self.raw != self.prev_raw;
        self.prev_raw = self.raw;
        if self.depth == 0 {
            return;
        }
        let first = self.stages & 1 == 1;
        let mut captured = self.raw;
        if marginal && captured != first {
            if let Some(state) = meta {
                if state.resolution_delay() > Time::ZERO {
                    captured = first; // resolved the wrong way
                }
            }
        }
        let mask = u64::MAX >> (64 - self.depth);
        self.stages = ((self.stages << 1) | u64::from(captured)) & mask;
    }

    /// The synchronised value visible to the FSM.
    fn out(&self) -> bool {
        match self.depth {
            0 => self.raw,
            d => (self.stages >> (d - 1)) & 1 == 1,
        }
    }
}

#[derive(Debug, Clone)]
struct Phase {
    state: PState,
    armed: bool,
    recharge_queued: bool,
    gp: bool,
    gn: bool,
    pmos_min_until: Time,
    nmos_min_until: Time,
    first_cycle: bool,
    gp_ack: Synchroniser,
    gn_ack: Synchroniser,
    oc: Synchroniser,
    zc: Synchroniser,
}

impl Phase {
    fn new(depth: u32) -> Phase {
        Phase {
            state: PState::Idle,
            armed: false,
            recharge_queued: false,
            gp: false,
            gn: false,
            pmos_min_until: Time::ZERO,
            nmos_min_until: Time::ZERO,
            first_cycle: true,
            gp_ack: Synchroniser::new(depth),
            gn_ack: Synchroniser::new(depth),
            oc: Synchroniser::new(depth),
            zc: Synchroniser::new(depth),
        }
    }
}

/// The synchronous round-robin multiphase buck controller.
///
/// # Examples
///
/// ```
/// use a4a_ctrl::{BuckController, SyncController, SyncParams};
/// use a4a_sim::Time;
///
/// let mut ctrl = SyncController::new(4, SyncParams::at_mhz(333.0));
/// // The controller only acts on clock edges.
/// let first_edge = ctrl.next_wakeup().expect("clocked");
/// assert_eq!(first_edge, ctrl.params().period());
/// ctrl.on_wakeup(first_edge);
/// assert!(ctrl.take_commands().is_empty(), "nothing to do yet");
/// ```
#[derive(Debug)]
pub struct SyncController {
    params: SyncParams,
    phases: Vec<Phase>,
    hl: Synchroniser,
    uv: Synchroniser,
    ov: Synchroniser,
    /// Rising edge of the synchronised HL (to draft all phases once).
    hl_prev: bool,
    uv_prev: bool,
    next_edge: Time,
    /// Clock edges until the next phase-activator pulse.
    act_divider: u64,
    act_reload: u64,
    act_pointer: usize,
    ov_mode: bool,
    meta: Option<MetaState>,
    out: Vec<TimedCommand>,
    /// Interned name of the `act` debug track.
    track_act: TrackId,
}

impl SyncController {
    /// Creates the controller for `phases` buck phases.
    ///
    /// # Panics
    ///
    /// Panics when `phases` is zero or when `params.sync_stages`
    /// exceeds 64 (each synchroniser is a 64-bit shift register).
    pub fn new(phases: usize, params: SyncParams) -> Self {
        assert!(phases > 0, "at least one phase required");
        assert!(
            params.sync_stages <= 64,
            "at most 64 synchroniser stages, got {}",
            params.sync_stages
        );
        let period = params.period();
        let reload = (params.policy.activation_period.as_fs() + period.as_fs() - 1)
            / period.as_fs().max(1);
        let mut phase_vec: Vec<Phase> =
            (0..phases).map(|_| Phase::new(params.sync_stages)).collect();
        // Phase 0 starts active (mirrors the token starting at stage 0).
        phase_vec[0].armed = true;
        SyncController {
            phases: phase_vec,
            hl: Synchroniser::new(params.sync_stages),
            uv: Synchroniser::new(params.sync_stages),
            ov: Synchroniser::new(params.sync_stages),
            hl_prev: false,
            uv_prev: false,
            next_edge: period,
            act_divider: reload.max(1),
            act_reload: reload.max(1),
            act_pointer: 0,
            ov_mode: false,
            meta: if params.meta.probability > 0.0 {
                Some(params.meta.clone().into_state())
            } else {
                None
            },
            out: Vec::new(),
            track_act: TrackId::intern("act"),
            params,
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> &SyncParams {
        &self.params
    }

    /// The phase currently selected by the round-robin activator.
    pub fn active_phase(&self) -> usize {
        self.act_pointer
    }

    /// Emits a command at the output-register instant (edge + ½ period).
    fn emit(&mut self, edge: Time, command: Command) {
        self.out.push(TimedCommand {
            time: edge + self.params.period() / 2,
            command,
        });
    }

    fn clock_edge(&mut self, t: Time) {
        // 1. Synchronisers sample.
        self.hl.clock(&mut self.meta);
        self.uv.clock(&mut self.meta);
        self.ov.clock(&mut self.meta);
        for p in &mut self.phases {
            p.gp_ack.clock(&mut self.meta);
            p.gn_ack.clock(&mut self.meta);
            p.oc.clock(&mut self.meta);
            p.zc.clock(&mut self.meta);
        }
        let hl = self.hl.out();
        let uv = self.uv.out();
        let ov = self.ov.out();

        // 2. Phase activator (divided clock).
        self.act_divider -= 1;
        if self.act_divider == 0 {
            self.act_divider = self.act_reload;
            // The pulse moves on: an unconsumed arming is lost.
            self.phases[self.act_pointer].armed = false;
            self.act_pointer = (self.act_pointer + 1) % self.phases.len();
            self.phases[self.act_pointer].armed = true;
        }
        // HL drafts every phase.
        if hl && !self.hl_prev {
            for p in &mut self.phases {
                p.armed = true;
            }
        }
        self.hl_prev = hl;
        if uv && !self.uv_prev {
            for p in &mut self.phases {
                p.first_cycle = true;
            }
        }
        self.uv_prev = uv;

        // 3. OV mode register.
        if ov && !self.ov_mode {
            self.ov_mode = true;
            self.emit(t, Command::OvMode(true));
        } else if !ov && self.ov_mode {
            self.ov_mode = false;
            self.emit(t, Command::OvMode(false));
        }

        // 4. Per-phase FSMs.
        for k in 0..self.phases.len() {
            self.step_phase(t, k, uv, ov);
        }
    }

    fn step_phase(&mut self, t: Time, k: usize, uv: bool, ov: bool) {
        let (state, armed) = (self.phases[k].state, self.phases[k].armed);
        match state {
            PState::Idle => {
                if armed && ov {
                    // OV sinking: NMOS on until the (re-referenced) ZC.
                    self.phases[k].armed = false;
                    self.phases[k].state = PState::TurnNmosOn;
                    self.phases[k].gn = true;
                    self.emit(
                        t,
                        Command::Gate {
                            phase: k,
                            pmos: false,
                            value: true,
                        },
                    );
                } else if armed && uv {
                    self.phases[k].armed = false;
                    self.phases[k].state = PState::TurnPmosOn;
                    self.phases[k].gp = true;
                    self.emit(
                        t,
                        Command::Gate {
                            phase: k,
                            pmos: true,
                            value: true,
                        },
                    );
                }
            }
            PState::TurnPmosOn => {
                if self.phases[k].gp_ack.out() {
                    let ext = if self.phases[k].first_cycle {
                        self.phases[k].first_cycle = false;
                        self.params.policy.pext
                    } else {
                        Time::ZERO
                    };
                    self.phases[k].state = PState::PmosOn;
                    self.phases[k].pmos_min_until = t + self.params.policy.pmin + ext;
                }
            }
            PState::PmosOn => {
                if self.phases[k].oc.out() && t >= self.phases[k].pmos_min_until {
                    self.phases[k].state = PState::TurnPmosOff;
                    self.phases[k].gp = false;
                    self.emit(
                        t,
                        Command::Gate {
                            phase: k,
                            pmos: true,
                            value: false,
                        },
                    );
                }
            }
            PState::TurnPmosOff => {
                if !self.phases[k].gp_ack.out() {
                    self.phases[k].state = PState::TurnNmosOn;
                    self.phases[k].gn = true;
                    self.emit(
                        t,
                        Command::Gate {
                            phase: k,
                            pmos: false,
                            value: true,
                        },
                    );
                }
            }
            PState::TurnNmosOn => {
                if self.phases[k].gn_ack.out() {
                    self.phases[k].state = PState::NmosOn;
                    self.phases[k].nmos_min_until = t + self.params.policy.nmin;
                }
            }
            PState::NmosOn => {
                // Late/no-ZC scenario of Figure 2b: while (synchronised)
                // UV is asserted, charging chains without a new arming —
                // but only once the OC condition has released (the WAIT2
                // discipline), which bounds the peak current.
                if uv && !self.phases[k].oc.out() && t >= self.phases[k].nmos_min_until {
                    self.phases[k].state = PState::TurnNmosOff { recharge: true };
                    self.phases[k].gn = false;
                    self.emit(
                        t,
                        Command::Gate {
                            phase: k,
                            pmos: false,
                            value: false,
                        },
                    );
                } else if self.phases[k].zc.out() && t >= self.phases[k].nmos_min_until {
                    self.phases[k].state = PState::TurnNmosOff { recharge: false };
                    self.phases[k].gn = false;
                    self.emit(
                        t,
                        Command::Gate {
                            phase: k,
                            pmos: false,
                            value: false,
                        },
                    );
                }
            }
            PState::TurnNmosOff { recharge } => {
                if !self.phases[k].gn_ack.out() {
                    let recharge = recharge || self.phases[k].recharge_queued;
                    self.phases[k].recharge_queued = false;
                    if recharge {
                        self.phases[k].state = PState::TurnPmosOn;
                        self.phases[k].gp = true;
                        self.emit(
                            t,
                            Command::Gate {
                                phase: k,
                                pmos: true,
                                value: true,
                            },
                        );
                    } else {
                        self.phases[k].state = PState::Idle;
                    }
                }
            }
        }
    }
}

impl BuckController for SyncController {
    fn phases(&self) -> usize {
        self.phases.len()
    }

    fn on_sensor(&mut self, _t: Time, kind: SensorKind, value: bool) {
        match kind {
            SensorKind::Hl => self.hl.raw = value,
            SensorKind::Uv => self.uv.raw = value,
            SensorKind::Ov => self.ov.raw = value,
            SensorKind::Oc(k) => {
                if k < self.phases.len() {
                    self.phases[k].oc.raw = value;
                }
            }
            SensorKind::Zc(k) => {
                if k < self.phases.len() {
                    self.phases[k].zc.raw = value;
                }
            }
        }
    }

    fn on_gate_ack(&mut self, _t: Time, phase: usize, pmos: bool, value: bool) {
        if pmos {
            self.phases[phase].gp_ack.raw = value;
        } else {
            self.phases[phase].gn_ack.raw = value;
        }
    }

    fn next_wakeup(&self) -> Option<Time> {
        Some(self.next_edge)
    }

    fn on_wakeup(&mut self, t: Time) {
        while self.next_edge <= t {
            let edge = self.next_edge;
            self.next_edge += self.params.period();
            self.clock_edge(edge);
        }
    }

    fn take_commands(&mut self) -> Vec<TimedCommand> {
        let mut cmds = std::mem::take(&mut self.out);
        cmds.sort_by_key(|c| c.time);
        cmds
    }

    fn take_commands_into(&mut self, out: &mut Vec<TimedCommand>) {
        let start = out.len();
        out.append(&mut self.out);
        out[start..].sort_by_key(|c| c.time);
    }

    fn debug_tracks_into(&self, out: &mut Vec<(TrackId, bool)>) {
        out.push((self.track_act, self.phases[self.act_pointer].armed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(x: f64) -> Time {
        Time::from_ns(x)
    }

    struct Harness {
        ctrl: SyncController,
        acks: Vec<(Time, usize, bool, bool)>,
        log: Vec<TimedCommand>,
        ack_delay: Time,
    }

    impl Harness {
        fn new(phases: usize, mhz: f64) -> Harness {
            Harness {
                ctrl: SyncController::new(phases, SyncParams::at_mhz(mhz)),
                acks: Vec::new(),
                log: Vec::new(),
                ack_delay: Time::from_ns(2.5),
            }
        }

        fn drain(&mut self, now: Time) {
            loop {
                self.acks.sort_by_key(|a| a.0);
                let next_ack = self.acks.first().map(|a| a.0);
                let next_edge = self.ctrl.next_wakeup();
                match (next_ack, next_edge) {
                    (Some(ta), _) if ta <= now && next_edge.map(|te| ta <= te).unwrap_or(true) => {
                        let (t, phase, pmos, value) = self.acks.remove(0);
                        self.ctrl.on_gate_ack(t, phase, pmos, value);
                    }
                    (_, Some(te)) if te <= now => {
                        self.ctrl.on_wakeup(te);
                        for cmd in self.ctrl.take_commands() {
                            self.log.push(cmd);
                            if let Command::Gate { phase, pmos, value } = cmd.command {
                                self.acks.push((cmd.time + self.ack_delay, phase, pmos, value));
                            }
                        }
                    }
                    _ => break,
                }
            }
        }

        fn sensor(&mut self, t: Time, kind: SensorKind, v: bool) {
            self.drain(t);
            self.ctrl.on_sensor(t, kind, v);
        }

        fn gates(&self) -> Vec<(f64, usize, bool, bool)> {
            self.log
                .iter()
                .filter_map(|c| match c.command {
                    Command::Gate { phase, pmos, value } => {
                        Some((c.time.as_ns(), phase, pmos, value))
                    }
                    _ => None,
                })
                .collect()
        }
    }

    #[test]
    fn uv_reaction_is_sampled_and_synchronised() {
        // 100 MHz: period 10 ns. The phase must be armed by the
        // activator first (first pulse after 25 edges = 250 ns).
        let mut h = Harness::new(2, 100.0);
        h.drain(ns(260.0));
        h.sensor(ns(262.0), SensorKind::Uv, true);
        h.drain(ns(400.0));
        let gates = h.gates();
        let first = gates.iter().find(|(_, _, pmos, v)| *pmos && *v).unwrap();
        let latency = first.0 - 262.0;
        assert!(
            (23.0..=43.0).contains(&latency),
            "expected ~2.5-3.5 periods + sampling, got {latency}ns ({gates:?})"
        );
    }

    #[test]
    fn faster_clock_reacts_faster() {
        let measure = |mhz: f64| -> f64 {
            let mut h = Harness::new(2, mhz);
            h.drain(ns(260.0));
            h.sensor(ns(262.0), SensorKind::Uv, true);
            h.drain(ns(500.0));
            let gates = h.gates();
            gates
                .iter()
                .find(|(_, _, pmos, v)| *pmos && *v)
                .map(|g| g.0 - 262.0)
                .unwrap_or(f64::INFINITY)
        };
        let slow = measure(100.0);
        let fast = measure(1000.0);
        assert!(slow > fast, "{slow} vs {fast}");
        assert!(fast < 5.0, "1 GHz reacts within a few ns: {fast}");
        assert!(slow > 20.0, "100 MHz pays tens of ns: {slow}");
    }

    #[test]
    fn activation_pulse_rotates_and_expires() {
        let mut h = Harness::new(4, 100.0);
        h.drain(ns(240.0));
        assert_eq!(h.ctrl.active_phase(), 0);
        h.drain(ns(260.0));
        assert_eq!(h.ctrl.active_phase(), 1, "pointer rotates");
        h.drain(ns(510.0));
        assert_eq!(h.ctrl.active_phase(), 2);
        // No UV happened: no commands.
        assert!(h.gates().is_empty());
    }

    #[test]
    fn hl_drafts_all_phases() {
        let mut h = Harness::new(4, 333.0);
        h.drain(ns(10.0));
        h.sensor(ns(20.0), SensorKind::Uv, true);
        h.sensor(ns(20.1), SensorKind::Hl, true);
        h.drain(ns(100.0));
        let phases: std::collections::HashSet<usize> = h
            .gates()
            .iter()
            .filter(|(_, _, pmos, v)| *pmos && *v)
            .map(|(_, k, _, _)| *k)
            .collect();
        assert_eq!(phases.len(), 4, "{:?}", h.gates());
    }

    #[test]
    fn full_cycle_with_oc_and_zc() {
        let mut h = Harness::new(1, 333.0);
        h.drain(ns(10.0));
        h.sensor(ns(20.0), SensorKind::Hl, true);
        h.sensor(ns(20.0), SensorKind::Uv, true);
        h.drain(ns(60.0));
        // PMOS on; wait past PEXT, then OC. UV clears so the NMOS
        // phase is not taken over by a recharge.
        h.sensor(ns(400.0), SensorKind::Oc(0), true);
        h.sensor(ns(430.0), SensorKind::Uv, false);
        h.drain(ns(500.0));
        let gates = h.gates();
        assert!(
            gates.iter().any(|(_, _, pmos, v)| *pmos && !*v),
            "gp- after OC: {gates:?}"
        );
        assert!(
            gates.iter().any(|(_, _, pmos, v)| !*pmos && *v),
            "gn+ after gp-: {gates:?}"
        );
        h.sensor(ns(500.0), SensorKind::Oc(0), false);
        h.sensor(ns(600.0), SensorKind::Zc(0), true);
        h.drain(ns(700.0));
        let gates = h.gates();
        assert!(
            gates.iter().any(|(t, _, pmos, v)| !*pmos && !*v && *t > 600.0),
            "gn- after ZC: {gates:?}"
        );
    }

    #[test]
    fn break_before_make_respects_acks() {
        let mut h = Harness::new(1, 333.0);
        h.drain(ns(10.0));
        h.sensor(ns(20.0), SensorKind::Hl, true);
        h.sensor(ns(20.0), SensorKind::Uv, true);
        h.drain(ns(1000.0));
        h.sensor(ns(1000.0), SensorKind::Oc(0), true);
        h.drain(ns(1200.0));
        let gates = h.gates();
        let gp_off = gates
            .iter()
            .find(|(_, _, pmos, v)| *pmos && !*v)
            .expect("gp-");
        let gn_on = gates
            .iter()
            .find(|(_, _, pmos, v)| !*pmos && *v)
            .expect("gn+");
        // gn+ must come after gp- plus the ack round trip (2.5 ns) plus
        // synchronisation of the ack.
        assert!(gn_on.0 > gp_off.0 + 2.5, "{gates:?}");
    }

    #[test]
    fn ov_mode_commands_emitted() {
        let mut h = Harness::new(2, 333.0);
        h.drain(ns(300.0));
        h.sensor(ns(300.0), SensorKind::Ov, true);
        h.drain(ns(400.0));
        assert!(h.log.iter().any(|c| c.command == Command::OvMode(true)));
        h.sensor(ns(500.0), SensorKind::Ov, false);
        h.drain(ns(600.0));
        assert!(h.log.iter().any(|c| c.command == Command::OvMode(false)));
    }

    #[test]
    fn metastability_adds_cycles() {
        // With p=1 every marginal capture resolves the wrong way first,
        // costing exactly one extra period per synchroniser stage entry.
        let measure = |meta: a4a_a2a::MetaParams| -> f64 {
            let params = SyncParams::at_mhz(100.0).with_meta(meta);
            let mut h = Harness {
                ctrl: SyncController::new(2, params),
                acks: Vec::new(),
                log: Vec::new(),
                ack_delay: Time::from_ns(2.5),
            };
            h.drain(ns(260.0));
            h.sensor(ns(262.0), SensorKind::Uv, true);
            h.drain(ns(500.0));
            h.gates()
                .iter()
                .find(|(_, _, pmos, v)| *pmos && *v)
                .map(|g| g.0 - 262.0)
                .unwrap_or(f64::NAN)
        };
        let clean = measure(a4a_a2a::MetaParams::disabled());
        let meta = measure(a4a_a2a::MetaParams::with_seed(
            1.0,
            Time::from_ns(1.0),
            3,
        ));
        assert!(
            meta >= clean + 9.0,
            "metastable capture must cost at least a period: {clean} vs {meta}"
        );
    }

    /// Reference synchroniser: a `Vec<bool>` flop chain, one element
    /// per flop.
    struct VecSynchroniser {
        raw: bool,
        prev_raw: bool,
        stages: Vec<bool>,
    }

    impl VecSynchroniser {
        fn clock(&mut self, meta: &mut Option<a4a_a2a::MetaState>) {
            for i in (1..self.stages.len()).rev() {
                self.stages[i] = self.stages[i - 1];
            }
            let marginal = self.raw != self.prev_raw;
            self.prev_raw = self.raw;
            if let Some(first) = self.stages.first_mut() {
                let mut captured = self.raw;
                if marginal && captured != *first {
                    if let Some(state) = meta {
                        if state.resolution_delay() > Time::ZERO {
                            captured = *first;
                        }
                    }
                }
                *first = captured;
            }
        }

        fn out(&self) -> bool {
            *self.stages.last().unwrap_or(&self.raw)
        }
    }

    /// The bit-register synchroniser matches the `Vec` flop chain at
    /// depths 0..=8 under random input toggles, with metastable
    /// captures drawn from identically seeded states: the same output
    /// after every edge, and the same number of draws from the
    /// metastability stream.
    #[test]
    fn bit_register_synchroniser_matches_vec_reference() {
        use a4a_rt::prop::{self, Gen, PropResult};
        use a4a_rt::prop_assert_eq;

        prop::check("bit_register_synchroniser_matches_vec_reference", |g: &mut Gen| -> PropResult {
            let depth = g.usize(0..9) as u32;
            let probability = g.f64(0.05..1.0);
            let meta = a4a_a2a::MetaParams::with_seed(probability, ns(0.5), g.any_u64());
            let mut bits = Synchroniser::new(depth);
            let mut reference = VecSynchroniser {
                raw: false,
                prev_raw: false,
                stages: vec![false; depth as usize],
            };
            let (mut meta_bits, mut meta_ref) =
                (Some(meta.clone().into_state()), Some(meta.into_state()));
            for _ in 0..g.usize(1..300) {
                if g.choice(3) == 0 {
                    let raw = g.bool();
                    bits.raw = raw;
                    reference.raw = raw;
                }
                bits.clock(&mut meta_bits);
                reference.clock(&mut meta_ref);
                prop_assert_eq!(bits.out(), reference.out(), "depth {}", depth);
            }
            // Both consumed the same number of draws.
            let next = |m: &mut Option<a4a_a2a::MetaState>| m.as_mut().map(|m| m.resolution_delay());
            prop_assert_eq!(next(&mut meta_bits), next(&mut meta_ref));
            Ok(())
        });
    }

    #[test]
    fn sixty_four_stage_synchroniser_delays_by_64_edges() {
        let mut sync = Synchroniser::new(64);
        sync.raw = true;
        for _ in 0..63 {
            sync.clock(&mut None);
            assert!(!sync.out());
        }
        sync.clock(&mut None);
        assert!(sync.out(), "the 64th edge reaches the last flop");
    }

    #[test]
    #[should_panic(expected = "at most 64 synchroniser stages")]
    fn more_than_64_sync_stages_are_rejected() {
        let mut params = SyncParams::at_mhz(333.0);
        params.sync_stages = 65;
        let _ = SyncController::new(1, params);
    }

    #[test]
    fn no_short_circuit_in_sync_commands() {
        let mut h = Harness::new(2, 666.0);
        h.drain(ns(1.0));
        h.sensor(ns(10.0), SensorKind::Uv, true);
        h.sensor(ns(10.2), SensorKind::Hl, true);
        h.drain(ns(300.0));
        h.sensor(ns(300.0), SensorKind::Oc(0), true);
        h.drain(ns(400.0));
        h.sensor(ns(400.0), SensorKind::Zc(0), true);
        h.drain(ns(800.0));
        let mut gp = [false; 2];
        let mut gn = [false; 2];
        for (t, phase, pmos, value) in h.gates() {
            if pmos {
                gp[phase] = value;
            } else {
                gn[phase] = value;
            }
            assert!(!(gp[phase] && gn[phase]), "short at {t}ns phase {phase}");
        }
    }
}
