use std::fmt;

use crate::Marking;

/// Index of a place within its [`PetriNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlaceId(pub(crate) u32);

/// Index of a transition within its [`PetriNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransitionId(pub(crate) u32);

impl PlaceId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl TransitionId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PlaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for TransitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A place of a Petri net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Place {
    /// Human-readable name (unique within the net by construction).
    pub name: String,
    /// Tokens in the initial marking.
    pub initial_tokens: u32,
}

/// A transition of a Petri net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    /// Human-readable name (unique within the net by construction).
    pub name: String,
    pub(crate) consume: Vec<(PlaceId, u32)>,
    pub(crate) produce: Vec<(PlaceId, u32)>,
    pub(crate) read: Vec<(PlaceId, u32)>,
}

impl Transition {
    /// Places (with weights) this transition consumes tokens from.
    pub fn consumed(&self) -> &[(PlaceId, u32)] {
        &self.consume
    }

    /// Places (with weights) this transition produces tokens into.
    pub fn produced(&self) -> &[(PlaceId, u32)] {
        &self.produce
    }

    /// Places (with weights) this transition tests without consuming.
    pub fn read(&self) -> &[(PlaceId, u32)] {
        &self.read
    }
}

/// Kind of arc between a place and a transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArcKind {
    /// Place-to-transition arc: tokens are consumed when firing.
    Consume,
    /// Transition-to-place arc: tokens are produced when firing.
    Produce,
    /// Read (test) arc: tokens must be present but are not consumed.
    Read,
}

/// An immutable place/transition net with weighted arcs and read arcs.
///
/// Construct with [`NetBuilder`]. The net owns the *structure*; token state
/// lives in [`Marking`] values so many markings can be explored without
/// cloning the net.
#[derive(Debug, Clone)]
pub struct PetriNet {
    pub(crate) places: Vec<Place>,
    pub(crate) transitions: Vec<Transition>,
    kernel: Kernel,
}

/// The flat tables behind the packed-marking fast path of
/// [`PetriNet::for_each_enabled`] and [`PetriNet::try_fire`], built once
/// by [`NetBuilder::build`]. Bitsets are little-endian `u64` words.
#[derive(Debug, Clone)]
struct Kernel {
    /// Words per place bitset (one bit per place).
    place_words: usize,
    /// Words per transition bitset (one bit per transition).
    transition_words: usize,
    /// For each place, the transitions that consume or read it.
    consumers: Vec<u64>,
    /// Transitions with an empty preset: candidates in every marking.
    sources: Vec<u64>,
    /// Transitions whose arcs all weigh 1: the ones with masks.
    unit: Vec<u64>,
    /// For each transition, three place bitsets: `need` (consumed or
    /// read), `take` (consumed) and `give` (produced). Zero for
    /// transitions outside `unit`.
    masks: Vec<u64>,
}

impl Kernel {
    fn new(places: usize, transitions: &[Transition]) -> Kernel {
        let place_words = places.div_ceil(64);
        let transition_words = transitions.len().div_ceil(64);
        let mut k = Kernel {
            place_words,
            transition_words,
            consumers: vec![0; places * transition_words],
            sources: vec![0; transition_words],
            unit: vec![0; transition_words],
            masks: vec![0; transitions.len() * 3 * place_words],
        };
        for (i, tr) in transitions.iter().enumerate() {
            let (w, bit) = (i / 64, 1u64 << (i % 64));
            let preset = || tr.consume.iter().chain(&tr.read);
            for &(p, _) in preset() {
                k.consumers[p.index() * transition_words + w] |= bit;
            }
            if preset().next().is_none() {
                k.sources[w] |= bit;
            }
            if preset().chain(&tr.produce).any(|&(_, weight)| weight != 1) {
                continue;
            }
            k.unit[w] |= bit;
            let mut mark = |mask: usize, arcs: &[(PlaceId, u32)]| {
                for &(p, _) in arcs {
                    let p = p.index();
                    k.masks[(i * 3 + mask) * place_words + p / 64] |= 1 << (p % 64);
                }
            };
            mark(0, &tr.consume);
            mark(0, &tr.read);
            mark(1, &tr.consume);
            mark(2, &tr.produce);
        }
        k
    }

    /// The (need, take, give) masks of `t`, or `None` if `t` has a
    /// weighted arc.
    #[inline]
    fn masks(&self, t: TransitionId) -> Option<(&[u64], &[u64], &[u64])> {
        let i = t.index();
        if self.unit[i / 64] >> (i % 64) & 1 == 0 {
            return None;
        }
        let pw = self.place_words;
        let m = &self.masks[i * 3 * pw..(i + 1) * 3 * pw];
        Some((&m[..pw], &m[pw..2 * pw], &m[2 * pw..]))
    }
}

impl PetriNet {
    /// Returns a builder for incremental construction.
    pub fn builder() -> NetBuilder {
        NetBuilder::new()
    }

    /// Number of places.
    pub fn place_count(&self) -> usize {
        self.places.len()
    }

    /// Number of transitions.
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// All places in id order.
    pub fn places(&self) -> &[Place] {
        &self.places
    }

    /// All transitions in id order.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Looks a place up by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this net.
    pub fn place(&self, id: PlaceId) -> &Place {
        &self.places[id.index()]
    }

    /// Looks a transition up by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this net.
    pub fn transition(&self, id: TransitionId) -> &Transition {
        &self.transitions[id.index()]
    }

    /// Finds a place by name.
    pub fn place_by_name(&self, name: &str) -> Option<PlaceId> {
        self.places
            .iter()
            .position(|p| p.name == name)
            .map(|i| PlaceId(i as u32))
    }

    /// Finds a transition by name.
    pub fn transition_by_name(&self, name: &str) -> Option<TransitionId> {
        self.transitions
            .iter()
            .position(|t| t.name == name)
            .map(|i| TransitionId(i as u32))
    }

    /// Iterates over all transition ids.
    pub fn transition_ids(&self) -> impl Iterator<Item = TransitionId> {
        (0..self.transitions.len() as u32).map(TransitionId)
    }

    /// Iterates over all place ids.
    pub fn place_ids(&self) -> impl Iterator<Item = PlaceId> {
        (0..self.places.len() as u32).map(PlaceId)
    }

    /// The initial marking declared at construction time.
    pub fn initial_marking(&self) -> Marking {
        Marking::new(self.places.iter().map(|p| p.initial_tokens).collect())
    }

    /// Returns `true` if `t` is enabled in `marking`.
    ///
    /// A transition is enabled when every consumed place holds at least the
    /// arc weight and every read place holds at least the read weight.
    #[inline]
    pub fn is_enabled(&self, t: TransitionId, marking: &Marking) -> bool {
        let tr = self.transition(t);
        tr.consume.iter().all(|&(p, w)| marking.tokens(p) >= w)
            && tr.read.iter().all(|&(p, w)| marking.tokens(p) >= w)
    }

    /// All transitions enabled in `marking`, in id order.
    pub fn enabled(&self, marking: &Marking) -> Vec<TransitionId> {
        let mut out = Vec::new();
        self.for_each_enabled(marking, |t| out.push(t));
        out
    }

    /// Calls `f` for every transition enabled in `marking`, in id order:
    /// the enabling kernel every explorer expands its states with.
    ///
    /// On a packed marking ([`Marking::pack_if_safe`]) only candidates
    /// are tested: the transitions that consume or read a marked place,
    /// plus those with an empty preset. A candidate whose arcs all weigh
    /// 1 is enabled when its preset mask is covered (`m & need == need`);
    /// any other goes through [`PetriNet::is_enabled`]. A dense marking
    /// tests every transition with [`PetriNet::is_enabled`], the arc-list
    /// definition the fast path is held to.
    pub fn for_each_enabled(&self, marking: &Marking, mut f: impl FnMut(TransitionId)) {
        let Some(packed) = marking.packed_words() else {
            for t in self.transition_ids() {
                if self.is_enabled(t, marking) {
                    f(t);
                }
            }
            return;
        };
        let k = &self.kernel;
        let tw = k.transition_words;
        for w in 0..tw {
            let mut candidates = k.sources[w];
            for (pw, mut bits) in packed.words().enumerate() {
                while bits != 0 {
                    let p = pw * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    candidates |= k.consumers[p * tw + w];
                }
            }
            while candidates != 0 {
                let t = TransitionId((w * 64) as u32 + candidates.trailing_zeros());
                candidates &= candidates - 1;
                let enabled = match k.masks(t) {
                    Some((need, _, _)) => packed.covers(need),
                    None => self.is_enabled(t, marking),
                };
                if enabled {
                    f(t);
                }
            }
        }
    }

    /// Fires `t` in `marking`, returning the successor marking.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not enabled — callers must check with
    /// [`PetriNet::is_enabled`] first — or on token overflow (a place
    /// pushed past `u32::MAX` tokens; use [`PetriNet::try_fire`] to get
    /// a typed error instead).
    pub fn fire(&self, t: TransitionId, marking: &Marking) -> Marking {
        self.try_fire(t, marking)
            .unwrap_or_else(|e| panic!("token overflow: {e}"))
    }

    /// Fires `t` in `marking`, returning the successor marking, or a
    /// typed [`TokenOverflow`] when a produced place would exceed
    /// `u32::MAX` tokens — the fallible form the state-space explorers
    /// use so an absurdly unbounded net fails cleanly mid-BFS.
    ///
    /// A packed marking fires a transition whose arcs all weigh 1 with
    /// word masks, `(m & !take) | give`; when a produced place already
    /// holds a token it takes the arc path, which leaves the marking
    /// dense.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not enabled — callers must check with
    /// [`PetriNet::is_enabled`] first.
    pub fn try_fire(&self, t: TransitionId, marking: &Marking) -> Result<Marking, TokenOverflow> {
        let tr = self.transition(t);
        let masks = self.kernel.masks(t);
        let enabled = match (marking.packed_words(), masks) {
            (Some(packed), Some((need, _, _))) => packed.covers(need),
            _ => self.is_enabled(t, marking),
        };
        assert!(enabled, "transition {} is not enabled", tr.name);
        if let Some(next) = masks.and_then(|(_, take, give)| marking.fire_masked(take, give)) {
            return Ok(next);
        }
        let mut next = marking.clone();
        for &(p, w) in &tr.consume {
            next.remove(p, w);
        }
        for &(p, w) in &tr.produce {
            next.checked_add(p, w).map_err(|()| TokenOverflow {
                place: p,
                transition: t,
            })?;
        }
        Ok(next)
    }
}

/// Firing pushed a place's token counter past `u32::MAX`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenOverflow {
    /// The place whose counter overflowed.
    pub place: PlaceId,
    /// The transition whose firing overflowed it.
    pub transition: TransitionId,
}

impl fmt::Display for TokenOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "firing {} overflows the token counter of {}",
            self.transition, self.place
        )
    }
}

impl std::error::Error for TokenOverflow {}

/// Incremental builder for [`PetriNet`].
///
/// Names are deduplicated: adding a place or transition with an existing
/// name panics, because silent merging would corrupt STG semantics.
#[derive(Debug, Clone, Default)]
pub struct NetBuilder {
    places: Vec<Place>,
    transitions: Vec<Transition>,
}

impl NetBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a place with zero initial tokens.
    ///
    /// # Panics
    ///
    /// Panics if a place with the same name already exists.
    pub fn place(&mut self, name: impl Into<String>) -> PlaceId {
        self.place_with_tokens(name, 0)
    }

    /// Adds a place holding `tokens` in the initial marking.
    ///
    /// # Panics
    ///
    /// Panics if a place with the same name already exists.
    pub fn place_with_tokens(&mut self, name: impl Into<String>, tokens: u32) -> PlaceId {
        let name = name.into();
        assert!(
            !self.places.iter().any(|p| p.name == name),
            "duplicate place name {name:?}"
        );
        let id = PlaceId(self.places.len() as u32);
        self.places.push(Place {
            name,
            initial_tokens: tokens,
        });
        id
    }

    /// Adds a transition.
    ///
    /// # Panics
    ///
    /// Panics if a transition with the same name already exists.
    pub fn transition(&mut self, name: impl Into<String>) -> TransitionId {
        let name = name.into();
        assert!(
            !self.transitions.iter().any(|t| t.name == name),
            "duplicate transition name {name:?}"
        );
        let id = TransitionId(self.transitions.len() as u32);
        self.transitions.push(Transition {
            name,
            consume: Vec::new(),
            produce: Vec::new(),
            read: Vec::new(),
        });
        id
    }

    /// Adds a place→transition (consuming) arc with weight 1.
    pub fn arc_pt(&mut self, p: PlaceId, t: TransitionId) {
        self.arc_pt_weighted(p, t, 1);
    }

    /// Adds a weighted place→transition (consuming) arc.
    ///
    /// # Panics
    ///
    /// Panics on zero weight or duplicate arc.
    pub fn arc_pt_weighted(&mut self, p: PlaceId, t: TransitionId, weight: u32) {
        assert!(weight > 0, "arc weight must be positive");
        let tr = &mut self.transitions[t.index()];
        assert!(
            !tr.consume.iter().any(|&(q, _)| q == p),
            "duplicate consume arc {}->{}",
            p,
            t
        );
        tr.consume.push((p, weight));
    }

    /// Adds a transition→place (producing) arc with weight 1.
    pub fn arc_tp(&mut self, t: TransitionId, p: PlaceId) {
        self.arc_tp_weighted(t, p, 1);
    }

    /// Adds a weighted transition→place (producing) arc.
    ///
    /// # Panics
    ///
    /// Panics on zero weight or duplicate arc.
    pub fn arc_tp_weighted(&mut self, t: TransitionId, p: PlaceId, weight: u32) {
        assert!(weight > 0, "arc weight must be positive");
        let tr = &mut self.transitions[t.index()];
        assert!(
            !tr.produce.iter().any(|&(q, _)| q == p),
            "duplicate produce arc {}->{}",
            t,
            p
        );
        tr.produce.push((p, weight));
    }

    /// Adds a read (test) arc with weight 1: `t` requires a token in `p`
    /// but does not consume it.
    pub fn arc_read(&mut self, p: PlaceId, t: TransitionId) {
        self.arc_read_weighted(p, t, 1);
    }

    /// Adds a weighted read arc.
    ///
    /// # Panics
    ///
    /// Panics on zero weight or duplicate arc.
    pub fn arc_read_weighted(&mut self, p: PlaceId, t: TransitionId, weight: u32) {
        assert!(weight > 0, "arc weight must be positive");
        let tr = &mut self.transitions[t.index()];
        assert!(
            !tr.read.iter().any(|&(q, _)| q == p),
            "duplicate read arc {}->{}",
            p,
            t
        );
        tr.read.push((p, weight));
    }

    /// Finalises the builder into an immutable net.
    pub fn build(self) -> PetriNet {
        PetriNet {
            kernel: Kernel::new(self.places.len(), &self.transitions),
            places: self.places,
            transitions: self.transitions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle() -> (PetriNet, TransitionId, TransitionId) {
        let mut b = NetBuilder::new();
        let p0 = b.place_with_tokens("p0", 1);
        let p1 = b.place("p1");
        let t0 = b.transition("t0");
        let t1 = b.transition("t1");
        b.arc_pt(p0, t0);
        b.arc_tp(t0, p1);
        b.arc_pt(p1, t1);
        b.arc_tp(t1, p0);
        (b.build(), t0, t1)
    }

    #[test]
    fn initial_marking_reflects_tokens() {
        let (net, _, _) = cycle();
        let m = net.initial_marking();
        assert_eq!(m.tokens(PlaceId(0)), 1);
        assert_eq!(m.tokens(PlaceId(1)), 0);
    }

    #[test]
    fn enabledness_and_firing() {
        let (net, t0, t1) = cycle();
        let m0 = net.initial_marking();
        assert!(net.is_enabled(t0, &m0));
        assert!(!net.is_enabled(t1, &m0));
        let m1 = net.fire(t0, &m0);
        assert!(!net.is_enabled(t0, &m1));
        assert!(net.is_enabled(t1, &m1));
        let m2 = net.fire(t1, &m1);
        assert_eq!(m2, m0);
    }

    #[test]
    #[should_panic(expected = "not enabled")]
    fn firing_disabled_transition_panics() {
        let (net, _, t1) = cycle();
        let m0 = net.initial_marking();
        let _ = net.fire(t1, &m0);
    }

    #[test]
    fn read_arc_does_not_consume() {
        let mut b = NetBuilder::new();
        let ctx = b.place_with_tokens("ctx", 1);
        let src = b.place_with_tokens("src", 1);
        let dst = b.place("dst");
        let t = b.transition("t");
        b.arc_read(ctx, t);
        b.arc_pt(src, t);
        b.arc_tp(t, dst);
        let net = b.build();
        let m0 = net.initial_marking();
        assert!(net.is_enabled(TransitionId(0), &m0));
        let m1 = net.fire(TransitionId(0), &m0);
        assert_eq!(m1.tokens(ctx), 1, "read arc preserved the token");
        assert_eq!(m1.tokens(src), 0);
        assert_eq!(m1.tokens(dst), 1);
    }

    #[test]
    fn read_arc_requires_token() {
        let mut b = NetBuilder::new();
        let ctx = b.place("ctx");
        let src = b.place_with_tokens("src", 1);
        let t = b.transition("t");
        b.arc_read(ctx, t);
        b.arc_pt(src, t);
        let net = b.build();
        assert!(!net.is_enabled(TransitionId(0), &net.initial_marking()));
    }

    #[test]
    fn weighted_arcs() {
        let mut b = NetBuilder::new();
        let p = b.place_with_tokens("p", 3);
        let q = b.place("q");
        let t = b.transition("t");
        b.arc_pt_weighted(p, t, 2);
        b.arc_tp_weighted(t, q, 5);
        let net = b.build();
        let m1 = net.fire(TransitionId(0), &net.initial_marking());
        assert_eq!(m1.tokens(p), 1);
        assert_eq!(m1.tokens(q), 5);
        assert!(!net.is_enabled(TransitionId(0), &m1), "only 1 token left");
    }

    #[test]
    fn lookup_by_name() {
        let (net, t0, _) = cycle();
        assert_eq!(net.place_by_name("p1"), Some(PlaceId(1)));
        assert_eq!(net.transition_by_name("t0"), Some(t0));
        assert_eq!(net.place_by_name("zz"), None);
        assert_eq!(net.transition_by_name("zz"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate place name")]
    fn duplicate_place_panics() {
        let mut b = NetBuilder::new();
        b.place("p");
        b.place("p");
    }

    #[test]
    #[should_panic(expected = "duplicate transition name")]
    fn duplicate_transition_panics() {
        let mut b = NetBuilder::new();
        b.transition("t");
        b.transition("t");
    }

    #[test]
    fn enabled_lists_in_id_order() {
        let mut b = NetBuilder::new();
        let p = b.place_with_tokens("p", 1);
        let t0 = b.transition("a");
        let t1 = b.transition("b");
        b.arc_read(p, t0);
        b.arc_read(p, t1);
        let net = b.build();
        assert_eq!(net.enabled(&net.initial_marking()), vec![t0, t1]);
    }
}
