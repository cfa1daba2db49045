//! Reader and writer for the `.g` (astg) interchange format used by
//! Petrify, Punf/MPSat, and Workcraft.
//!
//! Supported directives: `.model`, `.inputs`, `.outputs`, `.internal`,
//! `.dummy`, `.graph`, `.marking`, `.initial_state` (an extension listing
//! signals that start high; when absent, initial values are inferred from
//! the first edge reachable for each signal), and `.end`.

use std::collections::HashMap;
use std::fmt::Write as _;

use a4a_petri::{Marking, NetBuilder, PlaceId, StateSpace, Step, TransitionId};

use crate::{Label, Polarity, Signal, SignalId, SignalKind, Stg, StgError};

impl Stg {
    /// Parses an STG from `.g` text.
    ///
    /// # Errors
    ///
    /// Returns [`StgError::Parse`] on malformed input. Without an
    /// `.initial_state` line, initial values are inferred by exploring
    /// breadth-first only until every signal with an edge transition has
    /// shown its first edge; only the states explored up to that stop
    /// can fail it, with [`StgError::StateLimit`] if they exceed an
    /// internal budget of markings or [`StgError::TokenOverflow`] if one
    /// of their firings overflows a place's token counter. Limits and
    /// overflows further out surface when the state graph is built.
    ///
    /// # Examples
    ///
    /// ```
    /// let text = "\
    /// .model hs
    /// .inputs req
    /// .outputs ack
    /// .graph
    /// req+ ack+
    /// ack+ req-
    /// req- ack-
    /// ack- req+
    /// .marking { <ack-,req+> }
    /// .end
    /// ";
    /// let stg = a4a_stg::Stg::parse_g(text)?;
    /// assert_eq!(stg.signal_count(), 2);
    /// assert_eq!(stg.state_graph(100)?.state_count(), 4);
    /// # Ok::<(), a4a_stg::StgError>(())
    /// ```
    pub fn parse_g(text: &str) -> Result<Stg, StgError> {
        Parser::new(text).parse()
    }

    /// Serialises the STG to `.g` text.
    ///
    /// Implicit places (single producer, single consumer, generated by
    /// [`crate::StgBuilder::connect`]) are folded back into direct
    /// transition–transition lines, one per transition pair; other places
    /// appear explicitly with sanitised names.
    pub fn to_g(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, ".model {}", sanitise(&self.name));
        // One directive per run of same-kind signals keeps the signal
        // order, and with it every state code, through `parse_g`.
        for run in self.signals.chunk_by(|a, b| a.kind == b.kind) {
            let dir = match run[0].kind {
                SignalKind::Input => ".inputs",
                SignalKind::Output => ".outputs",
                SignalKind::Internal => ".internal",
            };
            let names: Vec<&str> = run.iter().map(|s| s.name.as_str()).collect();
            let _ = writeln!(out, "{dir} {}", names.join(" "));
        }
        let dummies: Vec<String> = self
            .net
            .transition_ids()
            .filter(|&t| self.label(t) == Label::Dummy)
            .map(|t| self.transition_name(t))
            .collect();
        if !dummies.is_empty() {
            let _ = writeln!(out, ".dummy {}", dummies.join(" "));
        }
        let _ = writeln!(out, ".graph");

        // Identify implicit places: exactly one producer, one consumer, no
        // read arcs, weight 1 both sides, and not initially holding more
        // than one token.
        let np = self.net.place_count();
        let mut producers: Vec<Vec<TransitionId>> = vec![Vec::new(); np];
        let mut consumers: Vec<Vec<TransitionId>> = vec![Vec::new(); np];
        let mut readers: Vec<Vec<TransitionId>> = vec![Vec::new(); np];
        let mut weighted = vec![false; np];
        for t in self.net.transition_ids() {
            let tr = self.net.transition(t);
            for &(p, w) in tr.produced() {
                producers[p.index()].push(t);
                weighted[p.index()] |= w != 1;
            }
            for &(p, w) in tr.consumed() {
                consumers[p.index()].push(t);
                weighted[p.index()] |= w != 1;
            }
            for &(p, _) in tr.read() {
                readers[p.index()].push(t);
            }
        }
        // Two rules keep the round trip exact. A `.g` file names one
        // implicit place per (producer, consumer) pair, so later places of
        // a pair stay explicit. And the parser numbers transitions by
        // first appearance while lines go out in transition order, so a
        // place whose consumer would appear ahead of its turn stays
        // explicit too: transition ids, and with them state numbering,
        // survive `parse_g`.
        let mut implicit = vec![false; np];
        let mut folded = Vec::new(); // consumers `t` has an implicit place to
        let mut appeared = 0; // transitions 0..appeared are named so far
        for t in self.net.transition_ids() {
            let produced = self.net.transition(t).produced();
            if t.index() == appeared && !produced.is_empty() {
                appeared += 1;
            }
            folded.clear();
            for &(p, _) in produced {
                let i = p.index();
                implicit[i] = consumers[i].len() == 1
                    && producers[i].len() == 1
                    && readers[i].is_empty()
                    && !weighted[i]
                    && self.net.place(p).initial_tokens <= 1
                    && consumers[i][0].index() <= appeared
                    && !folded.contains(&consumers[i][0]);
                if implicit[i] {
                    folded.push(consumers[i][0]);
                    if consumers[i][0].index() == appeared {
                        appeared += 1;
                    }
                }
            }
        }

        // Adjacency lines. For each transition: direct successors through
        // implicit places, plus explicit-place successors.
        for t in self.net.transition_ids() {
            let tname = self.transition_name(t);
            let mut targets = Vec::new();
            for &(p, _) in self.net.transition(t).produced() {
                if implicit[p.index()] {
                    targets.push(self.transition_name(consumers[p.index()][0]));
                } else {
                    targets.push(place_alias(p));
                }
            }
            if !targets.is_empty() {
                let _ = writeln!(out, "{tname} {}", targets.join(" "));
            }
        }
        // Explicit place -> transition lines.
        for p in self.net.place_ids() {
            if implicit[p.index()] {
                continue;
            }
            let mut targets: Vec<String> = consumers[p.index()]
                .iter()
                .map(|&t| self.transition_name(t))
                .collect();
            // Read arcs are encoded as a consume+produce pair in standard
            // .g, so emit the reader both as target and as a producer of
            // the place.
            for &t in &readers[p.index()] {
                targets.push(self.transition_name(t));
            }
            if !targets.is_empty() {
                let _ = writeln!(out, "{} {}", place_alias(p), targets.join(" "));
            }
        }
        for p in self.net.place_ids() {
            for &t in &readers[p.index()] {
                let _ = writeln!(out, "{} {}", self.transition_name(t), place_alias(p));
            }
        }

        // Marking.
        let mut marked = Vec::new();
        for p in self.net.place_ids() {
            let tokens = self.net.place(p).initial_tokens;
            if tokens == 0 {
                continue;
            }
            let entry = if implicit[p.index()] {
                format!(
                    "<{},{}>",
                    self.transition_name(producers[p.index()][0]),
                    self.transition_name(consumers[p.index()][0])
                )
            } else {
                place_alias(p)
            };
            if tokens == 1 {
                marked.push(entry);
            } else {
                marked.push(format!("{entry}={tokens}"));
            }
        }
        let _ = writeln!(out, ".marking {{ {} }}", marked.join(" "));

        // Initial state extension: list of high signals.
        let high: Vec<&str> = self
            .signals
            .iter()
            .filter(|s| s.initial)
            .map(|s| s.name.as_str())
            .collect();
        if !high.is_empty() {
            let _ = writeln!(out, ".initial_state {}", high.join(" "));
        }
        let _ = writeln!(out, ".end");
        out
    }
}

fn place_alias(p: PlaceId) -> String {
    format!("p{}", p.index())
}

fn sanitise(name: &str) -> String {
    let cleaned: String = name
        .chars()
        .map(|c| if c.is_alphanumeric() || c == '_' { c } else { '_' })
        .collect();
    if cleaned.is_empty() {
        "model".to_string()
    } else {
        cleaned
    }
}

struct Parser<'a> {
    text: &'a str,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum NodeRef {
    /// A labelled transition occurrence, e.g. `a+/2`.
    Transition(String),
    /// An explicit place, e.g. `p3`.
    Place(String),
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser { text }
    }

    fn parse(self) -> Result<Stg, StgError> {
        let mut model = String::from("model");
        let mut signals: Vec<Signal> = Vec::new();
        let mut dummy_names: Vec<String> = Vec::new();
        let mut graph_lines: Vec<(usize, Vec<String>)> = Vec::new();
        let mut marking_tokens: Vec<(usize, String)> = Vec::new();
        let mut initial_high: Option<Vec<String>> = None;
        let mut in_graph = false;

        for (lineno, raw) in self.text.lines().enumerate() {
            let lineno = lineno + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix(".model") {
                model = rest.trim().to_string();
                in_graph = false;
            } else if let Some(rest) = strip_directive(line, &[".inputs"]) {
                add_signals(&mut signals, rest, SignalKind::Input, lineno)?;
                in_graph = false;
            } else if let Some(rest) = strip_directive(line, &[".outputs"]) {
                add_signals(&mut signals, rest, SignalKind::Output, lineno)?;
                in_graph = false;
            } else if let Some(rest) = strip_directive(line, &[".internal", ".int"]) {
                add_signals(&mut signals, rest, SignalKind::Internal, lineno)?;
                in_graph = false;
            } else if let Some(rest) = strip_directive(line, &[".dummy"]) {
                dummy_names.extend(rest.split_whitespace().map(str::to_string));
                in_graph = false;
            } else if line == ".graph" {
                in_graph = true;
            } else if let Some(rest) = strip_directive(line, &[".marking"]) {
                in_graph = false;
                let inner = rest
                    .trim()
                    .trim_start_matches('{')
                    .trim_end_matches('}')
                    .trim();
                // Tokens may be plain names or <t1,t2> pairs; the angle
                // form contains no spaces in well-formed files.
                for token in inner.split_whitespace() {
                    marking_tokens.push((lineno, token.to_string()));
                }
            } else if let Some(rest) = strip_directive(line, &[".initial_state"]) {
                initial_high = Some(rest.split_whitespace().map(str::to_string).collect());
                in_graph = false;
            } else if line == ".end" {
                break;
            } else if line.starts_with('.') {
                return Err(StgError::Parse {
                    line: lineno,
                    message: format!("unknown directive {line:?}"),
                });
            } else if in_graph {
                graph_lines.push((
                    lineno,
                    line.split_whitespace().map(str::to_string).collect(),
                ));
            } else {
                return Err(StgError::Parse {
                    line: lineno,
                    message: format!("unexpected content outside .graph: {line:?}"),
                });
            }
        }

        // Classify every token in the graph section.
        let signal_names: HashMap<&str, SignalId> = signals
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name.as_str(), SignalId(i as u32)))
            .collect();
        let classify = |token: &str| -> NodeRef {
            if dummy_names.iter().any(|d| d == token) {
                return NodeRef::Transition(token.to_string());
            }
            if parse_edge_name(token, &signal_names).is_some() {
                NodeRef::Transition(token.to_string())
            } else {
                NodeRef::Place(token.to_string())
            }
        };

        // First pass: create transitions and explicit places.
        let mut net = NetBuilder::new();
        let mut labels: Vec<Label> = Vec::new();
        let mut transitions: HashMap<String, TransitionId> = HashMap::new();
        let mut places: HashMap<String, PlaceId> = HashMap::new();
        let ensure_transition =
            |name: &str,
             net: &mut NetBuilder,
             labels: &mut Vec<Label>,
             transitions: &mut HashMap<String, TransitionId>|
             -> TransitionId {
                if let Some(&t) = transitions.get(name) {
                    return t;
                }
                let label = if dummy_names.iter().any(|d| d == name) {
                    Label::Dummy
                } else {
                    let (sig, pol) = parse_edge_name(name, &signal_names)
                        .expect("classified as transition");
                    Label::Edge(crate::Edge {
                        signal: sig,
                        polarity: pol,
                    })
                };
                let t = net.transition(name.to_string());
                labels.push(label);
                transitions.insert(name.to_string(), t);
                t
            };

        for (lineno, tokens) in &graph_lines {
            if tokens.len() < 2 {
                return Err(StgError::Parse {
                    line: *lineno,
                    message: "graph line needs a source and at least one target".into(),
                });
            }
            for token in tokens {
                match classify(token) {
                    NodeRef::Transition(name) => {
                        ensure_transition(&name, &mut net, &mut labels, &mut transitions);
                    }
                    NodeRef::Place(name) => {
                        places
                            .entry(name.clone())
                            .or_insert_with(|| net.place(name.clone()));
                    }
                }
            }
        }

        // Second pass: arcs. Transition->transition creates an implicit
        // place keyed by the pair for later marking lookup. Duplicate
        // arcs of any kind are reported as parse errors (the net builder
        // would reject them with a panic otherwise).
        let mut implicit: HashMap<(String, String), PlaceId> = HashMap::new();
        let mut explicit_arcs: std::collections::HashSet<(String, String)> =
            std::collections::HashSet::new();
        for (lineno, tokens) in &graph_lines {
            let src = classify(&tokens[0]);
            for target in &tokens[1..] {
                let dst = classify(target);
                match (&src, &dst) {
                    (NodeRef::Transition(a), NodeRef::Transition(b)) => {
                        let ta = transitions[a.as_str()];
                        let tb = transitions[b.as_str()];
                        let key = (a.clone(), b.clone());
                        if implicit.contains_key(&key) {
                            return Err(StgError::Parse {
                                line: *lineno,
                                message: format!("duplicate arc {a} -> {b}"),
                            });
                        }
                        let p = net.place(format!("<{a},{b}>"));
                        net.arc_tp(ta, p);
                        net.arc_pt(p, tb);
                        implicit.insert(key, p);
                    }
                    (NodeRef::Transition(a), NodeRef::Place(b)) => {
                        if !explicit_arcs.insert((a.clone(), b.clone())) {
                            return Err(StgError::Parse {
                                line: *lineno,
                                message: format!("duplicate arc {a} -> {b}"),
                            });
                        }
                        net.arc_tp(transitions[a.as_str()], places[b.as_str()]);
                    }
                    (NodeRef::Place(a), NodeRef::Transition(b)) => {
                        if !explicit_arcs.insert((a.clone(), b.clone())) {
                            return Err(StgError::Parse {
                                line: *lineno,
                                message: format!("duplicate arc {a} -> {b}"),
                            });
                        }
                        net.arc_pt(places[a.as_str()], transitions[b.as_str()]);
                    }
                    (NodeRef::Place(a), NodeRef::Place(b)) => {
                        return Err(StgError::Parse {
                            line: *lineno,
                            message: format!("place-to-place arc {a} -> {b} is not allowed"),
                        });
                    }
                }
            }
        }

        // Marking.
        let mut initial_tokens: HashMap<PlaceId, u32> = HashMap::new();
        for (lineno, token) in &marking_tokens {
            let (name, count) = match token.split_once('=') {
                Some((n, c)) => (
                    n,
                    c.parse::<u32>().map_err(|_| StgError::Parse {
                        line: *lineno,
                        message: format!("bad token count in {token:?}"),
                    })?,
                ),
                None => (token.as_str(), 1),
            };
            let place = if let Some(inner) = name.strip_prefix('<').and_then(|s| s.strip_suffix('>'))
            {
                let (a, b) = inner.split_once(',').ok_or_else(|| StgError::Parse {
                    line: *lineno,
                    message: format!("malformed implicit place {name:?}"),
                })?;
                *implicit
                    .get(&(a.to_string(), b.to_string()))
                    .ok_or_else(|| StgError::Parse {
                        line: *lineno,
                        message: format!("implicit place {name:?} does not exist"),
                    })?
            } else {
                *places.get(name).ok_or_else(|| StgError::Parse {
                    line: *lineno,
                    message: format!("marked place {name:?} does not exist"),
                })?
            };
            *initial_tokens.entry(place).or_insert(0) += count;
        }

        // Rebuild net with initial tokens (NetBuilder fixes tokens at place
        // creation, so rebuild through a fresh builder preserving ids).
        let proto = net.build();
        let mut net2 = NetBuilder::new();
        for p in proto.place_ids() {
            let tokens = initial_tokens.get(&p).copied().unwrap_or(0);
            net2.place_with_tokens(proto.place(p).name.clone(), tokens);
        }
        for t in proto.transition_ids() {
            let id = net2.transition(proto.transition(t).name.clone());
            debug_assert_eq!(id, t);
        }
        for t in proto.transition_ids() {
            for &(p, w) in proto.transition(t).consumed() {
                net2.arc_pt_weighted(p, t, w);
            }
            for &(p, w) in proto.transition(t).produced() {
                net2.arc_tp_weighted(t, p, w);
            }
            for &(p, w) in proto.transition(t).read() {
                net2.arc_read_weighted(p, t, w);
            }
        }
        let net = net2.build();

        // Initial signal values: explicit directive or inference.
        match initial_high {
            Some(high) => {
                for name in &high {
                    let name = name.trim_start_matches('!');
                    if !signals.iter().any(|s| s.name == name) {
                        return Err(StgError::Parse {
                            line: 0,
                            message: format!(".initial_state mentions unknown signal {name:?}"),
                        });
                    }
                }
                for s in &mut signals {
                    s.initial = high.iter().any(|h| h == &s.name);
                }
            }
            None => {
                infer_initial_values(&net, &labels, &mut signals)?;
            }
        }

        let stg = Stg {
            name: model,
            net,
            signals,
            labels,
        };
        Ok(stg)
    }
}

fn strip_directive<'a>(line: &'a str, names: &[&str]) -> Option<&'a str> {
    for n in names {
        if let Some(rest) = line.strip_prefix(n) {
            if rest.is_empty() || rest.starts_with(char::is_whitespace) {
                return Some(rest.trim());
            }
        }
    }
    None
}

fn add_signals(
    signals: &mut Vec<Signal>,
    rest: &str,
    kind: SignalKind,
    lineno: usize,
) -> Result<(), StgError> {
    for name in rest.split_whitespace() {
        if signals.iter().any(|s| s.name == name) {
            return Err(StgError::Parse {
                line: lineno,
                message: format!("signal {name:?} declared twice"),
            });
        }
        if signals.len() >= 64 {
            return Err(StgError::Parse {
                line: lineno,
                message: "at most 64 signals are supported".into(),
            });
        }
        signals.push(Signal {
            name: name.to_string(),
            kind,
            initial: false,
        });
    }
    Ok(())
}

/// Parses `name+`, `name-`, `name+/2` against declared signals.
fn parse_edge_name(
    token: &str,
    signals: &HashMap<&str, SignalId>,
) -> Option<(SignalId, Polarity)> {
    let base = token.split('/').next().unwrap_or(token);
    let (name, pol) = if let Some(n) = base.strip_suffix('+') {
        (n, Polarity::Rising)
    } else if let Some(n) = base.strip_suffix('-') {
        (n, Polarity::Falling)
    } else {
        return None;
    };
    signals.get(name).map(|&s| (s, pol))
}

/// Infers the initial value of each signal from the first reachable edge:
/// a first-seen rising edge means the signal started low, and vice versa.
/// Signals with no reachable edge default to low.
///
/// A state is a (marking, parity) pair, where parity bit `i` records
/// whether signal `i` flipped an odd number of times. "First seen" is
/// breadth-first discovery order: (state id, transition id) over the
/// explored graph, which runs on the global pool. The scan runs in the
/// explorer's merge order and stops it after the state where the last
/// signal with an edge transition gets its first edge, so the values,
/// like the states explored, do not depend on the thread count.
fn infer_initial_values(
    net: &a4a_petri::PetriNet,
    labels: &[Label],
    signals: &mut [Signal],
) -> Result<(), StgError> {
    const BUDGET: usize = 200_000;
    let expand = |&(ref marking, parity): &(Marking, u64),
                  out: &mut Vec<Step<(Marking, u64), TransitionId, StgError>>| {
        net.for_each_enabled(marking, |t| {
            let next_parity = match labels[t.index()] {
                Label::Edge(e) => parity ^ e.signal.mask(),
                Label::Dummy => parity,
            };
            let next = net.try_fire_named(t, marking).map_err(StgError::from);
            out.push((t, next.map(|next| (next, next_parity))));
        });
    };
    let mut inferred: Vec<Option<bool>> = vec![None; signals.len()];
    // Signals without any edge transition can never be seen.
    let mut unseen = {
        let mut with_edges = 0u64;
        for label in labels {
            if let Label::Edge(e) = label {
                with_edges |= e.signal.mask();
            }
        }
        with_edges.count_ones()
    };
    let done = |space: &StateSpace<(Marking, u64), TransitionId, u32>, id: u32| {
        let parity = space.state(id).1;
        for &(t, _) in space.successors(id) {
            if let Label::Edge(e) = labels[t.index()] {
                let value = &mut inferred[e.signal.index()];
                if value.is_none() {
                    // Value before firing = initial ^ flipped; must be !target.
                    let flipped = parity & e.signal.mask() != 0;
                    *value = Some(!e.polarity.target_value() ^ flipped);
                    unseen -= 1;
                }
            }
        }
        unseen == 0
    };
    let initial = (net.initial_marking().pack_if_safe(), 0);
    StateSpace::explore_until(
        a4a_rt::Pool::global(),
        initial,
        BUDGET,
        expand,
        |_, _, _, e| Err(e),
        done,
    )?;
    for (s, value) in signals.iter_mut().zip(inferred) {
        s.initial = value.unwrap_or(false);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StgBuilder;

    const HANDSHAKE: &str = "\
.model hs
.inputs req
.outputs ack
.graph
req+ ack+
ack+ req-
req- ack-
ack- req+
.marking { <ack-,req+> }
.end
";

    #[test]
    fn parse_handshake() {
        let stg = Stg::parse_g(HANDSHAKE).unwrap();
        assert_eq!(stg.name(), "hs");
        assert_eq!(stg.signal_count(), 2);
        let sg = stg.state_graph(100).unwrap();
        assert_eq!(sg.state_count(), 4);
        assert!(stg.verify(&sg).is_clean());
    }

    #[test]
    fn initial_values_inferred() {
        let stg = Stg::parse_g(HANDSHAKE).unwrap();
        let req = stg.signal_by_name("req").unwrap();
        let ack = stg.signal_by_name("ack").unwrap();
        assert!(!stg.signal(req).initial, "req+ fires first");
        assert!(!stg.signal(ack).initial);
    }

    #[test]
    fn initial_state_directive_overrides() {
        let text = HANDSHAKE.replace(".end", ".initial_state req\n.end");
        let stg = Stg::parse_g(&text).unwrap();
        let req = stg.signal_by_name("req").unwrap();
        assert!(stg.signal(req).initial);
        // With a wrong initial value the state graph is inconsistent.
        assert!(stg.state_graph(100).is_err());
    }

    #[test]
    fn explicit_places_and_counts() {
        let text = "\
.model counters
.inputs a
.graph
p0 a+
a+ p1
p1 a-
a- p0
.marking { p0=1 }
.end
";
        let stg = Stg::parse_g(text).unwrap();
        let sg = stg.state_graph(100).unwrap();
        assert_eq!(sg.state_count(), 2);
    }

    #[test]
    fn dummy_declared() {
        let text = "\
.model d
.inputs a
.dummy start
.graph
start a+
a+ a-
a- start
.marking { <a-,start> }
.end
";
        let stg = Stg::parse_g(text).unwrap();
        let dummies: Vec<_> = stg
            .net()
            .transition_ids()
            .filter(|&t| stg.label(t) == Label::Dummy)
            .collect();
        assert_eq!(dummies.len(), 1);
        assert_eq!(stg.state_graph(100).unwrap().state_count(), 3);
    }

    #[test]
    fn multiple_occurrences_of_one_edge() {
        let text = "\
.model multi
.inputs a b
.graph
a+ b+
b+ a-
a- b-
b- a+/2
a+/2 a-/2
a-/2 a+
.marking { <a-/2,a+> }
.end
";
        let stg = Stg::parse_g(text).unwrap();
        let a = stg.signal_by_name("a").unwrap();
        assert_eq!(stg.transitions_of(a).len(), 4);
        let sg = stg.state_graph(100).unwrap();
        assert_eq!(sg.state_count(), 6);
    }

    #[test]
    fn errors_are_reported_with_lines() {
        let err = Stg::parse_g(".model x\n.bogus\n").unwrap_err();
        assert!(matches!(err, StgError::Parse { line: 2, .. }));

        let err = Stg::parse_g(".model x\nstray line\n").unwrap_err();
        assert!(matches!(err, StgError::Parse { line: 2, .. }));

        let err = Stg::parse_g(
            ".model x\n.inputs a\n.graph\na+ a-\na- a+\n.marking { <a+,zz> }\n.end\n",
        )
        .unwrap_err();
        assert!(matches!(err, StgError::Parse { .. }));
    }

    #[test]
    fn duplicate_explicit_arcs_rejected() {
        let text = "\
.model d
.inputs a
.graph
p0 a+
p0 a+
a+ p0
.marking { p0 }
.end
";
        let err = Stg::parse_g(text).unwrap_err();
        assert!(matches!(err, StgError::Parse { .. }), "{err:?}");
        assert!(err.to_string().contains("duplicate arc"));
    }

    #[test]
    fn duplicate_signal_rejected() {
        let err = Stg::parse_g(".model x\n.inputs a\n.outputs a\n").unwrap_err();
        assert!(matches!(err, StgError::Parse { .. }));
    }

    #[test]
    fn round_trip_preserves_behaviour() {
        let stg = Stg::parse_g(HANDSHAKE).unwrap();
        let text = stg.to_g();
        let back = Stg::parse_g(&text).unwrap();
        let sg1 = stg.state_graph(100).unwrap();
        let sg2 = back.state_graph(100).unwrap();
        assert_eq!(sg1.state_count(), sg2.state_count());
        assert_eq!(sg1.edge_count(), sg2.edge_count());
        assert_eq!(back.signal_count(), stg.signal_count());
    }

    #[test]
    fn round_trip_with_initial_high_signal() {
        let mut b = StgBuilder::new("inv");
        let a = b.input("a", true);
        let o = b.output("o", false);
        let am = b.fall(a);
        let op = b.rise(o);
        let ap = b.rise(a);
        let om = b.fall(o);
        b.connect_marked(om, am);
        b.connect(am, op);
        b.connect(op, ap);
        b.connect(ap, om);
        let stg = b.build();
        let text = stg.to_g();
        assert!(text.contains(".initial_state a"));
        let back = Stg::parse_g(&text).unwrap();
        assert!(back.signal(back.signal_by_name("a").unwrap()).initial);
        assert_eq!(back.state_graph(100).unwrap().state_count(), 4);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = format!("# header comment\n\n{HANDSHAKE}");
        let stg = Stg::parse_g(&text).unwrap();
        assert_eq!(stg.signal_count(), 2);
    }
}
