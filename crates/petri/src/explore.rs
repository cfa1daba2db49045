//! The breadth-first explorer behind every explicit state space of the
//! flow: reachability, STG state graphs, the SI joint space and `.g`
//! initial-value inference. Clients bring a state type and an `expand`
//! closure; interning, numbering, limits, parallel expansion, fault
//! order and traces live here.

use std::hash::Hash;

use a4a_rt::{fx_hash_one, IdTable, Pool};

use crate::ExploreError;

/// Frontiers narrower than this are expanded inline: the per-state work
/// is a handful of vector ops, so shipping one or two states to the
/// pool costs more than it saves.
const PAR_FRONTIER_MIN: usize = 8;

/// A dense state index: the explorer numbers states `0, 1, 2, ...` in
/// discovery order and hands them out as the client's id type.
pub trait StateIndex: Copy {
    /// The id of the state at arena position `index`.
    fn from_index(index: u32) -> Self;
    /// The arena position of this id.
    fn index(self) -> usize;
}

impl StateIndex for u32 {
    fn from_index(index: u32) -> Self {
        index
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One outcome of expanding a state: the edge label plus either the
/// successor state or the fault that firing the edge commits.
pub type Step<S, L, F> = (L, Result<S, F>);

/// An explored state space: states in breadth-first discovery order
/// (the initial state is id 0), their labelled successor lists, and for
/// each state the (label, predecessor) pair it was discovered through.
#[derive(Debug, Clone)]
pub struct StateSpace<S, L, I> {
    states: Vec<S>,
    links: Vec<Links<L, I>>,
}

/// The edges of one state (beside the arena, so `states` stays a slice).
#[derive(Debug, Clone)]
struct Links<L, I> {
    /// How the state was discovered; `None` for the initial state.
    parent: Option<(L, I)>,
    successors: Vec<(L, I)>,
}

impl<S, L: Copy, I: StateIndex> StateSpace<S, L, I> {
    /// Explores breadth-first from `initial` on `pool`.
    ///
    /// `expand(state, out)` appends the state's steps to `out` in a
    /// fixed order. Each BFS level occupies a contiguous id range; wide
    /// levels are expanded in parallel, then every level is merged
    /// sequentially in (state id, step) order, so numbering, edge
    /// order, limit trip points and fault order are *identical for
    /// every thread count*.
    ///
    /// Faults reach `on_fault(space, from, label, fault)` in merge order,
    /// with the space explored so far (so `space.trace_to(from)` works).
    /// Returning `Err` stops exploration with that error; returning
    /// `Ok` drops the step and goes on.
    ///
    /// # Errors
    ///
    /// [`ExploreError::LimitOverflow`] if `max_states` exceeds the
    /// 32-bit id space, [`ExploreError::StateLimit`] when more than
    /// `max_states` states are discovered (both converted into `E`), or
    /// whatever `on_fault` stops with.
    pub fn explore<F, E>(
        pool: &Pool,
        initial: S,
        max_states: usize,
        expand: impl Fn(&S, &mut Vec<Step<S, L, F>>) + Sync,
        on_fault: impl FnMut(&Self, I, L, F) -> Result<(), E>,
    ) -> Result<Self, E>
    where
        S: Hash + Eq + Send + Sync,
        L: Send,
        F: Send,
        E: From<ExploreError>,
    {
        Self::explore_until(pool, initial, max_states, expand, on_fault, |_, _| false)
    }

    /// [`StateSpace::explore`] with a stop condition: after each state's
    /// steps are merged, `done(space, id)` is asked whether to stop, in
    /// merge order. On `true` exploration ends at once and returns the
    /// space as it stands: every state discovered so far, with complete
    /// successor lists for `id` and the states merged before it and
    /// empty ones after. Like everything the merge decides, where it
    /// stops is the same for every thread count.
    ///
    /// # Errors
    ///
    /// As for [`StateSpace::explore`], for the states merged before the
    /// stop.
    pub fn explore_until<F, E>(
        pool: &Pool,
        initial: S,
        max_states: usize,
        expand: impl Fn(&S, &mut Vec<Step<S, L, F>>) + Sync,
        mut on_fault: impl FnMut(&Self, I, L, F) -> Result<(), E>,
        mut done: impl FnMut(&Self, I) -> bool,
    ) -> Result<Self, E>
    where
        S: Hash + Eq + Send + Sync,
        L: Send,
        F: Send,
        E: From<ExploreError>,
    {
        if max_states > u32::MAX as usize {
            return Err(ExploreError::LimitOverflow { limit: max_states }.into());
        }
        let mut table = IdTable::new();
        table.insert(fx_hash_one(&initial), 0);
        let mut space = StateSpace {
            states: vec![initial],
            links: vec![Links {
                parent: None,
                successors: Vec::new(),
            }],
        };
        let mut level_start = 0usize;
        // Narrow levels are expanded inline into one reused buffer; wide
        // ones in parallel, one list per state to ship between threads.
        // Either way every state's steps go through the one merge.
        let mut scratch = Vec::new();
        while level_start < space.states.len() {
            let level_end = space.states.len();
            let parallel = pool.threads() > 1 && level_end - level_start >= PAR_FRONTIER_MIN;
            let mut expanded = if parallel {
                let states = &space.states;
                pool.par_map_range(level_start..level_end, |i| {
                    let mut out = Vec::new();
                    expand(&states[i], &mut out);
                    out
                })
            } else {
                Vec::new()
            }
            .into_iter();
            for i in level_start..level_end {
                let mut steps = expanded.next().unwrap_or_else(|| {
                    let mut out = std::mem::take(&mut scratch);
                    expand(&space.states[i], &mut out);
                    out
                });
                space.merge_firings(i, steps.drain(..), max_states, &mut table, &mut on_fault)?;
                scratch = steps;
                if done(&space, I::from_index(i as u32)) {
                    return Ok(space);
                }
            }
            level_start = level_end;
        }
        Ok(space)
    }

    /// Merges one state's steps in order: the single code path both the
    /// sequential and the parallel expansion fund the determinism
    /// contract with.
    fn merge_firings<F, E>(
        &mut self,
        from: usize,
        steps: impl Iterator<Item = Step<S, L, F>>,
        max_states: usize,
        table: &mut IdTable,
        on_fault: &mut impl FnMut(&Self, I, L, F) -> Result<(), E>,
    ) -> Result<(), E>
    where
        S: Hash + Eq,
        E: From<ExploreError>,
    {
        let from_id = I::from_index(from as u32);
        for (label, outcome) in steps {
            let next = match outcome {
                Ok(next) => next,
                Err(fault) => {
                    on_fault(self, from_id, label, fault)?;
                    continue;
                }
            };
            let hash = fx_hash_one(&next);
            let id = match table.get(hash, |id| self.states[id as usize] == next) {
                Some(id) => id,
                None => {
                    if self.states.len() >= max_states {
                        return Err(ExploreError::StateLimit { limit: max_states }.into());
                    }
                    let id = self.states.len() as u32;
                    table.insert(hash, id);
                    self.states.push(next);
                    self.links.push(Links {
                        parent: Some((label, from_id)),
                        successors: Vec::new(),
                    });
                    id
                }
            };
            self.links[from].successors.push((label, I::from_index(id)));
        }
        Ok(())
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.links.iter().map(|l| l.successors.len()).sum()
    }

    /// All states, indexed by id.
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// The state with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this space.
    pub fn state(&self, id: I) -> &S {
        &self.states[id.index()]
    }

    /// Outgoing edges of `id` as (label, successor) pairs, in expansion
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this space.
    pub fn successors(&self, id: I) -> &[(L, I)] {
        &self.links[id.index()].successors
    }

    /// Iterates over all state ids in discovery order.
    pub fn state_ids(&self) -> impl Iterator<Item = I> {
        (0..self.states.len() as u32).map(I::from_index)
    }

    /// A shortest label sequence (e.g. the transitions fired) from the
    /// initial state to `id`; empty for the initial state itself. Walks
    /// the parent links of the breadth-first discovery backwards.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this space.
    pub fn trace_to(&self, id: I) -> Vec<L> {
        let mut trace = Vec::new();
        let mut cur = id;
        while let Some((label, prev)) = self.links[cur.index()].parent {
            trace.push(label);
            cur = prev;
        }
        trace.reverse();
        trace
    }
}
