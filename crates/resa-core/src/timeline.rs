//! The indexed availability timeline: a chunked breakpoint list of
//! `m(t) = m − U(t)` under a directory of per-chunk summaries.
//!
//! # Mapping back to the paper (§2)
//!
//! Section 2 of *"Analysis of Scheduling Algorithms with Reservations"*
//! models the cluster as the piecewise-constant availability function
//! `m(t) = m − U(t)`, where `U(t)` is the total width of the reservations
//! active at `t` (the *reservation deficit*). Every algorithm the paper
//! analyses is driven by three primitives over `m(t)`:
//!
//! * **range-minimum** — "do `q` processors stay free throughout
//!   `[t, t + p)`?" is `min_{s ∈ [t, t+p)} m(s) ≥ q`; this is the feasibility
//!   test of the list-scheduling event loop;
//! * **earliest fit** — the first `t` at which that test succeeds, the core
//!   of FCFS, conservative backfilling and the shadow-time computation of
//!   EASY;
//! * **reserve** — starting a job subtracts its width from `m(t)` over its
//!   execution window, exactly like an extra reservation (the paper treats
//!   running jobs and reservations uniformly through `U(t)`).
//!
//! [`crate::profile::ResourceProfile`] implements these primitives by
//! binary search plus linear scans over a normalized breakpoint list —
//! worst-case `O(B)` per query over `B` breakpoints, and every `reserve`
//! renormalizes the whole list. [`AvailabilityTimeline`] stores the same
//! function in chunks of at most `C` = 64 breakpoints (`CHUNK_CAP`) under a
//! directory of `B / C` chunk heads, so that a write costs what it changes
//! (§2's regimes — α-restricted, non-increasing — are statements about many
//! standing reservations at once, which is exactly large `B`):
//!
//! * `capacity_at` is two binary searches, `O(log(B / C) + log C)`;
//! * `min_capacity_in` reads the head summaries of the chunks its window
//!   covers whole and scans the (at most two) edge chunks: `O(B / C + C)`
//!   worst case, `O(C)` for a window inside one chunk;
//! * `reserve` / `release` insert a missing endpoint by a memmove inside one
//!   chunk (`O(C)`; a full chunk splits in two first), update the leaves of
//!   the two edge chunks and add a pending delta to the heads in between —
//!   `O(C + chunks covered)`, independent of `B` for a short window;
//! * [`AvailabilityTimeline::earliest_fit`] keeps a cursor and alternates
//!   *first leaf below `width` in the window* and *first leaf at least
//!   `width` after the violation*; both skip whole chunks on the head's
//!   min / max and scan inside one, so a query costs
//!   `O(chunks skipped + leaves of the blocked regions crossed)` — the naive
//!   resumable scan's bound with `C`-fold skipping, and no per-region
//!   re-search;
//! * `retire_before` drops the heads behind the clock and trims one chunk.
//!
//! Outside transactions the timeline is kept *normalized*: a range update
//! can only make its own two endpoints redundant, so they are checked and
//! merged away on the spot. Under an outstanding mark breakpoints are never
//! removed (see below), so adjacent leaves may carry equal capacities until
//! the outermost mark resolves. The conversion is lossless either way:
//! `AvailabilityTimeline::from(&p).to_profile() == p` for every normalized
//! profile `p`, and both backends answer every [`CapacityQuery`] identically
//! (property-tested in this crate — with `C` = 4 under `cfg(test)`, so a few
//! dozen breakpoints already split, merge and cross chunks — and
//! schedule-for-schedule in `resa-algos`).
//!
//! # Memory layout
//!
//! Two levels. The **directory** is one contiguous `Vec` of 32-byte chunk
//! heads — first breakpoint, min and max capacity of the chunk, a
//! chunk-wide pending delta not yet applied to its leaves, and the pointer
//! to the leaf block — two heads per cache line, searched and scanned
//! without touching a leaf. A **leaf block** holds up to `C` breakpoint
//! times and (raw, pending-free) capacities in two parallel arrays plus the
//! free area of its own finite leaves (only
//! [`AvailabilityTimeline::earliest_time_with_area`] reads it, so it stays
//! out of the head). Leaf blocks are reference counted:
//! [`crate::snapshot::Snapshotable::freeze`] clones the directory and bumps
//! the counts (`O(B / C)`), the writer's next mutation copies only the
//! blocks it touches (`Arc::make_mut`), and a block nobody shares is
//! mutated in place — the sequential service never copies one. Blocks freed
//! by merges and retirement are kept for the next split, and
//! [`AvailabilityTimeline::reserve_capacity`] pre-allocates them, so the
//! steady state allocates nothing.
//!
//! Why two levels and not a tree over the directory: at `C` = 64 the
//! largest directory any benchmark workload builds is `B / C` ≈ 4 026 / 64
//! ≈ 100 heads (`serve-probe`), which a linear scan crosses in fifty cache
//! lines. A third level (or a tree over the heads) is due when a measured
//! `B / C` makes directory scans show up in a trace — not before.
//!
//! The transactional undo log is an **arena**: a slab whose backing store is
//! never freed — a rollback truncates it to the mark's watermark and a final
//! commit empties it, so once the high-water mark is reached, logging a
//! speculative update never allocates.
//!
//! # Speculative scheduling: the transactional layer (§ conclusion)
//!
//! The paper's local-search discussion (and any branch-and-bound
//! certification of its guarantees) is built on *speculation*: try a
//! placement, evaluate the makespan, undo it. On a copy-on-probe substrate
//! every speculative step costs a full clone (`O(B)`); the transactional
//! layer makes the undo cost proportional to what the speculation actually
//! touched instead:
//!
//! * [`AvailabilityTimeline::checkpoint`] returns a [`TxnMark`] — an `O(1)`
//!   position in an undo log; nested marks follow stack discipline;
//! * every `reserve` / `release` executed while a mark is outstanding
//!   appends its inverse to the log;
//! * [`AvailabilityTimeline::rollback_to`] replays the inverses back to the
//!   mark — `O(ops since the mark · C)`, *not* `O(B)`;
//! * [`AvailabilityTimeline::commit`] accepts the speculation; when the last
//!   outstanding mark commits, the log is dropped so committed steady-state
//!   operation stays zero-overhead.
//!
//! Rollback restores the represented availability *function* exactly. No
//! breakpoint is removed under an outstanding mark — the undo log re-derives
//! leaf ranges from breakpoint times — so the endpoints a speculative
//! reserve split stay split until the outermost mark resolves, which merges
//! exactly the instants the transaction inserted or touched (property tests
//! in `resa-core` replay every interleaving against a naive
//! [`ResourceProfile`]). Bulk construction from a complete schedule goes
//! through [`AvailabilityTimeline::from_placements`], which sweeps all
//! reservation and placement events once (`O(B log B)`) instead of `n`
//! sequential `reserve` calls — the right entry point whenever a whole
//! schedule is (re)indexed, e.g. at the start of a local-search run.

use crate::capacity::CapacityQuery;
use crate::error::ProfileError;
use crate::profile::ResourceProfile;
use crate::reservation::Reservation;
use crate::schedule::Placement;
use crate::time::{Dur, Time};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Breakpoints per leaf block (`C`): 64 times and 64 capacities are 1 KiB,
/// what a copy-on-write copy and the memmove of an insertion cost. Small
/// under `cfg(test)` so that the crate's property tests, which draw a few
/// dozen breakpoints, run across chunk boundaries.
#[cfg(not(test))]
const CHUNK_CAP: usize = 64;
#[cfg(test)]
const CHUNK_CAP: usize = 4;

/// Leaves a bulk build puts in each chunk: three quarters, so the first
/// insertions after `from_profile` do not each split a full chunk.
const BULK_FILL: usize = CHUNK_CAP - CHUNK_CAP / 4;

/// A leaf position: `(chunk, index inside the chunk)`.
type Pos = (usize, usize);

/// One leaf block: the breakpoints `times[..len]` (sorted) with their raw
/// capacities. Leaf `i` covers `[times[i], times[i + 1])`, the last one up
/// to the next chunk's first breakpoint (or for ever in the last chunk);
/// its capacity is `caps[i]` plus the owning head's pending delta.
#[derive(Debug, Clone)]
struct Leaf {
    len: usize,
    /// Raw free area (capacity × duration) of leaves `0..len - 1`; the last
    /// leaf's span depends on the next chunk and is added by the reader.
    inner_area: i128,
    times: [u64; CHUNK_CAP],
    caps: [i64; CHUNK_CAP],
}

impl Leaf {
    fn empty() -> Self {
        Leaf {
            len: 0,
            inner_area: 0,
            times: [0; CHUNK_CAP],
            caps: [0; CHUNK_CAP],
        }
    }

    #[inline]
    fn times(&self) -> &[u64] {
        &self.times[..self.len]
    }

    #[inline]
    fn caps(&self) -> &[i64] {
        &self.caps[..self.len]
    }

    fn insert(&mut self, at: usize, t: u64, cap: i64) {
        self.times.copy_within(at..self.len, at + 1);
        self.caps.copy_within(at..self.len, at + 1);
        self.times[at] = t;
        self.caps[at] = cap;
        self.len += 1;
    }

    /// Drop leaves `from..to`, closing the gap.
    fn remove(&mut self, from: usize, to: usize) {
        self.times.copy_within(to..self.len, from);
        self.caps.copy_within(to..self.len, from);
        self.len -= to - from;
    }

    /// Append `other`'s leaves, shifting their raw capacities by `shift`.
    fn append(&mut self, other: &Leaf, shift: i64) {
        let end = self.len + other.len;
        self.times[self.len..end].copy_from_slice(other.times());
        for (dst, &cap) in self.caps[self.len..end].iter_mut().zip(other.caps()) {
            *dst = cap + shift;
        }
        self.len = end;
    }

    /// Move leaves `keep..` into the (empty) block `right`.
    fn split_off(&mut self, keep: usize, right: &mut Leaf) {
        right.len = self.len - keep;
        right.times[..right.len].copy_from_slice(&self.times[keep..self.len]);
        right.caps[..right.len].copy_from_slice(&self.caps[keep..self.len]);
        self.len = keep;
    }

    /// Re-derive `inner_area` and return the raw `(min, max)` capacity.
    fn summarize(&mut self) -> (i64, i64) {
        let (mut lo, mut hi, mut area) = (i64::MAX, i64::MIN, 0i128);
        for (i, &cap) in self.caps().iter().enumerate() {
            lo = lo.min(cap);
            hi = hi.max(cap);
            if i + 1 < self.len {
                area += cap as i128 * (self.times[i + 1] - self.times[i]) as i128;
            }
        }
        self.inner_area = area;
        (lo, hi)
    }
}

/// One directory entry: what a search or a scan needs to know about a chunk
/// without touching its leaf block. 32 bytes.
#[derive(Debug, Clone)]
struct Head {
    /// The chunk's first breakpoint (`leaf.times[0]`; 0 in the first chunk).
    first: u64,
    /// Minimum and maximum capacity over the chunk's leaves, pending delta
    /// included.
    min: u32,
    max: u32,
    /// Delta every leaf of the chunk is owed: a range update covering the
    /// whole chunk adds here instead of rewriting (and un-sharing) the block.
    pending: i64,
    leaf: Arc<Leaf>,
}

/// The directory plus the read side of the timeline. A clone shares every
/// leaf block, which is all [`crate::snapshot::TimelineSnapshot`] is: the
/// frozen view and the live timeline answer reads through this one type.
#[derive(Debug, Clone)]
pub(crate) struct Directory {
    base: u32,
    /// Total number of leaves (`B`).
    leaves: usize,
    heads: Vec<Head>,
}

impl Directory {
    /// Chunk the normalized-or-not step list `steps` (sorted, first at 0).
    pub(crate) fn from_steps(base: u32, steps: &[(Time, u32)]) -> Self {
        debug_assert!(!steps.is_empty() && steps[0].0 == Time::ZERO);
        debug_assert!(steps.windows(2).all(|w| w[0].0 < w[1].0));
        let heads = steps
            .chunks(BULK_FILL)
            .map(|group| {
                let mut leaf = Leaf::empty();
                for &(t, cap) in group {
                    leaf.insert(leaf.len, t.ticks(), i64::from(cap));
                }
                let (lo, hi) = leaf.summarize();
                Head {
                    first: leaf.times[0],
                    min: lo as u32,
                    max: hi as u32,
                    pending: 0,
                    leaf: Arc::new(leaf),
                }
            })
            .collect();
        Directory {
            base,
            leaves: steps.len(),
            heads,
        }
    }

    #[inline]
    pub(crate) fn base(&self) -> u32 {
        self.base
    }

    /// The leaf covering instant `t`.
    #[inline]
    fn locate(&self, t: u64) -> Pos {
        // The first chunk starts at 0, so both partition points are >= 1.
        let c = self.heads.partition_point(|h| h.first <= t) - 1;
        let i = self.heads[c].leaf.times().partition_point(|&bt| bt <= t) - 1;
        (c, i)
    }

    #[inline]
    fn cap(&self, (c, i): Pos) -> u32 {
        let head = &self.heads[c];
        (head.leaf.caps[i] + head.pending) as u32
    }

    #[inline]
    fn time(&self, (c, i): Pos) -> u64 {
        self.heads[c].leaf.times[i]
    }

    /// Whether every leaf of chunk `c` starts before `end`.
    #[inline]
    fn ends_before(&self, c: usize, end: u64) -> bool {
        self.heads.get(c + 1).is_some_and(|next| next.first <= end)
    }

    pub(crate) fn capacity_at(&self, t: Time) -> u32 {
        self.cap(self.locate(t.ticks()))
    }

    /// `(min, max)` capacity over the leaves meeting `[start, end)`; the
    /// leaf of `start` always counts (empty windows degenerate to it).
    fn minmax_in(&self, start: u64, end: u64) -> (u32, u32) {
        let (c0, i0) = self.locate(start);
        let (mut lo, mut hi) = (u32::MAX, 0u32);
        for c in c0..self.heads.len() {
            let head = &self.heads[c];
            let from = if c == c0 { i0 } else { 0 };
            if c > c0 && head.first >= end {
                break;
            }
            if from == 0 && self.ends_before(c, end) {
                lo = lo.min(head.min);
                hi = hi.max(head.max);
                continue;
            }
            let (times, caps) = (head.leaf.times(), head.leaf.caps());
            for i in from..times.len() {
                if i > from && times[i] >= end {
                    break;
                }
                let cap = (caps[i] + head.pending) as u32;
                lo = lo.min(cap);
                hi = hi.max(cap);
            }
        }
        (lo, hi)
    }

    pub(crate) fn min_capacity_in(&self, start: Time, dur: Dur) -> u32 {
        let end = start.ticks().saturating_add(dur.ticks());
        self.minmax_in(start.ticks(), end).0
    }

    /// First leaf at or after `at` that starts before `end` with capacity
    /// below `width`; the leaf at `at` itself always counts.
    fn first_below(&self, at: Pos, end: u64, width: u32) -> Option<Pos> {
        if self.cap(at) < width {
            return Some(at);
        }
        let (c0, i0) = at;
        for c in c0..self.heads.len() {
            let head = &self.heads[c];
            let from = if c == c0 { i0 + 1 } else { 0 };
            if c > c0 && head.first >= end {
                return None;
            }
            if head.min >= width {
                if self.ends_before(c, end) {
                    continue;
                }
                return None;
            }
            let raw = i64::from(width) - head.pending;
            let leaves = head.leaf.times()[from..]
                .iter()
                .zip(&head.leaf.caps()[from..]);
            for (k, (&bt, &cap)) in leaves.enumerate() {
                if bt >= end {
                    return None;
                }
                if cap < raw {
                    return Some((c, from + k));
                }
            }
        }
        None
    }

    /// First leaf at or after `from` with capacity at least `width`.
    fn first_at_least(&self, (c0, i0): Pos, width: u32) -> Option<Pos> {
        for c in c0..self.heads.len() {
            let head = &self.heads[c];
            if head.max < width {
                continue;
            }
            let raw = i64::from(width) - head.pending;
            let from = if c == c0 { i0 } else { 0 };
            if let Some(k) = head.leaf.caps()[from..].iter().position(|&cap| cap >= raw) {
                return Some((c, from + k));
            }
        }
        None
    }

    pub(crate) fn earliest_fit(&self, width: u32, dur: Dur, not_before: Time) -> Option<Time> {
        if width == 0 {
            return Some(not_before);
        }
        if width > self.base {
            return None;
        }
        let mut t = not_before.ticks();
        let mut at = self.locate(t);
        loop {
            let end = t.saturating_add(dur.ticks());
            let Some((c, i)) = self.first_below(at, end, width) else {
                return Some(Time(t));
            };
            // Every leaf after the cursor starts after `t`, so the jump
            // never moves backwards.
            at = self.first_at_least((c, i + 1), width)?;
            t = self.time(at);
        }
    }

    pub(crate) fn next_change_after(&self, t: Time) -> Option<Time> {
        let (c0, i0) = self.locate(t.ticks());
        let cap = self.cap((c0, i0));
        for c in c0..self.heads.len() {
            let head = &self.heads[c];
            if head.min == cap && head.max == cap {
                continue;
            }
            let raw = i64::from(cap) - head.pending;
            let from = if c == c0 { i0 + 1 } else { 0 };
            if let Some(k) = head.leaf.caps()[from..].iter().position(|&cap| cap != raw) {
                return Some(Time(head.leaf.times[from + k]));
            }
        }
        None
    }

    /// Append the `(leaf start, capacity)` pairs of the leaves meeting
    /// `[start, end)` to `out`, merging runs of equal capacity.
    fn collect_range(&self, start: u64, end: u64, out: &mut Vec<(Time, u32)>) {
        let (c0, i0) = self.locate(start);
        for c in c0..self.heads.len() {
            let head = &self.heads[c];
            let from = if c == c0 { i0 } else { 0 };
            let (times, caps) = (head.leaf.times(), head.leaf.caps());
            for i in from..times.len() {
                if times[i] >= end {
                    return;
                }
                let cap = (caps[i] + head.pending) as u32;
                if out.last().is_none_or(|&(_, last)| last != cap) {
                    out.push((Time(times[i]), cap));
                }
            }
        }
    }

    pub(crate) fn to_profile(&self) -> ResourceProfile {
        let mut steps = Vec::with_capacity(self.leaves);
        for head in &self.heads {
            let leaf = &head.leaf;
            for (&t, &cap) in leaf.times().iter().zip(leaf.caps()) {
                steps.push((Time(t), (cap + head.pending) as u32));
            }
        }
        ResourceProfile::from_steps(self.base, steps)
    }
}

/// Leaf blocks no chunk uses, kept for the next split. A cloned timeline
/// starts with none (a shared block could not be written to anyway).
#[derive(Debug, Default)]
struct SpareBlocks(Vec<Arc<Leaf>>);

impl Clone for SpareBlocks {
    fn clone(&self) -> Self {
        SpareBlocks::default()
    }
}

impl SpareBlocks {
    /// An unshared block: a kept one, or a fresh allocation.
    fn take(&mut self) -> Arc<Leaf> {
        self.0.pop().unwrap_or_else(|| Arc::new(Leaf::empty()))
    }

    /// Keep `block` for reuse if nobody else (a snapshot, a clone) holds it.
    fn give(&mut self, mut block: Arc<Leaf>) {
        if Arc::get_mut(&mut block).is_some() {
            self.0.push(block);
        }
    }
}

/// Chunk-indexed availability timeline; the fast backend of
/// [`CapacityQuery`]: a directory of chunk summaries over copy-on-write leaf
/// blocks, with an arena-backed undo log — see the module docs.
#[derive(Debug, Clone)]
pub struct AvailabilityTimeline {
    /// The chunked function itself; everything a read needs.
    dir: Directory,
    /// The undo arena: inverse operations of every `reserve`/`release`
    /// executed while a transaction mark is outstanding; empty in
    /// steady-state committed operation. A rollback truncates it to the
    /// mark's watermark and the final commit empties it, capacity retained
    /// either way, so steady-state speculation logs without allocating.
    undo: Vec<UndoOp>,
    /// The outstanding [`TxnMark`]s — `(undo-log length, generation)` —
    /// innermost last.
    marks: Vec<(usize, u64)>,
    /// Monotone counter stamped into every issued mark, so a resolved mark
    /// can never alias a live one that happens to share its stack position
    /// and log length.
    mark_gen: u64,
    /// Instants that became breakpoints under the outstanding marks: what
    /// the outermost resolution checks for redundancy (with the endpoints of
    /// the ops it keeps). Bounded by the breakpoints inserted, not the ops
    /// tried, and reset with capacity retained like the undo arena.
    split_log: Vec<u64>,
    spare: SpareBlocks,
}

#[derive(Debug, Clone, Copy)]
struct UndoOp {
    start: u64,
    end: u64,
    delta: i64,
}

/// An `O(1)` checkpoint of the timeline's transaction state, created by
/// [`AvailabilityTimeline::checkpoint`] and consumed by
/// [`AvailabilityTimeline::rollback_to`] or
/// [`AvailabilityTimeline::commit`]. Marks nest with stack discipline: the
/// innermost outstanding mark must be resolved first (rolling back or
/// committing an outer mark implicitly resolves the marks nested inside it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnMark {
    /// Position of this mark in the mark stack.
    depth: usize,
    /// Undo-log length when the mark was taken.
    undo_len: usize,
    /// Issue generation (see `AvailabilityTimeline::mark_gen`).
    gen: u64,
}

impl PartialEq for AvailabilityTimeline {
    /// Timelines compare by the function they represent, not by their
    /// internal breakpoint decomposition.
    fn eq(&self, other: &Self) -> bool {
        self.to_profile() == other.to_profile()
    }
}

impl Eq for AvailabilityTimeline {}

impl AvailabilityTimeline {
    /// A timeline with constant capacity `machines` (no reservations).
    pub fn constant(machines: u32) -> Self {
        Self::from_steps(machines, &[(Time::ZERO, machines)])
    }

    /// Build the timeline induced by a set of reservations on `machines`
    /// processors. Returns the time and deficit of the first violation if the
    /// reservations are infeasible, mirroring
    /// [`ResourceProfile::from_reservations`].
    pub fn from_reservations(
        machines: u32,
        reservations: &[Reservation],
    ) -> Result<Self, (Time, u32)> {
        ResourceProfile::from_reservations(machines, reservations).map(|p| Self::from_profile(&p))
    }

    /// Index a normalized profile. Lossless: [`Self::to_profile`] returns an
    /// equal profile.
    pub fn from_profile(profile: &ResourceProfile) -> Self {
        Self::from_steps(profile.base(), profile.steps())
    }

    /// Collapse the timeline back into the canonical normalized
    /// representation.
    pub fn to_profile(&self) -> ResourceProfile {
        self.dir.to_profile()
    }

    /// Total number of machines in the cluster.
    #[inline]
    pub fn base(&self) -> u32 {
        self.dir.base
    }

    /// Number of breakpoints currently indexed (`B`): the normalized
    /// profile's count outside transactions, plus the redundant endpoints
    /// speculation has split while a mark is outstanding.
    #[inline]
    pub fn breakpoints(&self) -> usize {
        self.dir.leaves
    }

    /// Pre-size the internal buffers for a run expected to touch about
    /// `breakpoints` distinct breakpoints and log up to `undo_ops`
    /// speculative updates, so the steady state is reached without any
    /// growth reallocation.
    pub fn reserve_capacity(&mut self, breakpoints: usize, undo_ops: usize) {
        // Splits leave chunks half full at worst.
        let chunks = breakpoints.div_ceil(CHUNK_CAP / 2);
        self.dir
            .heads
            .reserve(chunks.saturating_sub(self.dir.heads.len()));
        let spare = &mut self.spare.0;
        spare.reserve(chunks.saturating_sub(spare.len()));
        let missing = chunks.saturating_sub(self.dir.heads.len() + spare.len());
        spare.extend((0..missing).map(|_| Arc::new(Leaf::empty())));
        self.undo.reserve(undo_ops.saturating_sub(self.undo.len()));
        self.split_log
            .reserve((2 * undo_ops).saturating_sub(self.split_log.len()));
    }

    /// The frozen view of the current function: the directory, sharing
    /// every leaf block (`O(B / C)`).
    pub(crate) fn freeze_directory(&self) -> Directory {
        self.dir.clone()
    }

    fn from_steps(base: u32, steps: &[(Time, u32)]) -> Self {
        AvailabilityTimeline {
            dir: Directory::from_steps(base, steps),
            undo: Vec::new(),
            marks: Vec::new(),
            mark_gen: 0,
            split_log: Vec::new(),
            spare: SpareBlocks::default(),
        }
    }

    // -- chunk maintenance --------------------------------------------------

    /// Mutate chunk `c`'s leaf block — copied first when a snapshot or a
    /// clone still shares it — then re-derive the head's summaries.
    fn edit<R>(&mut self, c: usize, change: impl FnOnce(&mut Leaf) -> R) -> R {
        let head = &mut self.dir.heads[c];
        let leaf = Arc::make_mut(&mut head.leaf);
        let out = change(leaf);
        if leaf.len > 0 {
            let (lo, hi) = leaf.summarize();
            debug_assert!(lo + head.pending >= 0 && hi + head.pending <= i64::from(self.dir.base));
            head.first = leaf.times[0];
            head.min = (lo + head.pending) as u32;
            head.max = (hi + head.pending) as u32;
        }
        out
    }

    /// Make `t` start a leaf, splitting the leaf it falls inside (the new
    /// leaf inherits its capacity): a memmove inside one chunk, after
    /// splitting that chunk in two when it is full. An append keeps the
    /// full chunk whole and opens the next one with `t`, so ascending
    /// insertions fill chunks instead of leaving a trail of half-empty ones.
    fn ensure_breakpoint(&mut self, t: u64) {
        let (mut c, i) = self.dir.locate(t);
        let leaf = &self.dir.heads[c].leaf;
        if leaf.times[i] == t {
            return;
        }
        let (cap, mut at) = (leaf.caps[i], i + 1);
        if leaf.len == CHUNK_CAP {
            let keep = if at == CHUNK_CAP {
                CHUNK_CAP
            } else {
                CHUNK_CAP / 2
            };
            let mut right = self.spare.take();
            let block = Arc::get_mut(&mut right).expect("spare blocks are unshared");
            self.edit(c, |left| left.split_off(keep, block));
            let head = Head {
                first: t,
                min: 0,
                max: 0,
                pending: self.dir.heads[c].pending,
                leaf: right,
            };
            self.dir.heads.insert(c + 1, head);
            if at >= keep {
                (c, at) = (c + 1, at - keep);
            } else {
                self.edit(c + 1, |_| ());
            }
        }
        self.edit(c, |leaf| leaf.insert(at, t, cap));
        self.dir.leaves += 1;
        if !self.marks.is_empty() {
            self.split_log.push(t);
        }
    }

    /// Remove the breakpoint at `t` if it is redundant (its leaf has the
    /// capacity of the one before it); a chunk left empty leaves the
    /// directory, one left small joins a small neighbour. Never called
    /// under an outstanding mark: the undo log re-derives leaf ranges from
    /// breakpoint times, so merging away a logged endpoint would corrupt
    /// rollback.
    fn merge_if_redundant(&mut self, t: u64) {
        debug_assert!(self.marks.is_empty());
        let (c, i) = self.dir.locate(t);
        if t == 0 || self.dir.time((c, i)) != t {
            return;
        }
        let before = if i > 0 {
            (c, i - 1)
        } else {
            (c - 1, self.dir.heads[c - 1].leaf.len - 1)
        };
        if self.dir.cap(before) != self.dir.cap((c, i)) {
            return;
        }
        self.dir.leaves -= 1;
        if self.edit(c, |leaf| {
            leaf.remove(i, i + 1);
            leaf.len
        }) == 0
        {
            let emptied = self.dir.heads.remove(c);
            self.spare.give(emptied.leaf);
            return;
        }
        // Keep the directory from filling with slivers: two neighbours that
        // fit in half a block become one.
        let len = |c: usize| self.dir.heads.get(c).map_or(CHUNK_CAP, |h| h.leaf.len);
        let left = if len(c) + len(c + 1) <= CHUNK_CAP / 2 {
            c
        } else if c > 0 && len(c - 1) + len(c) <= CHUNK_CAP / 2 {
            c - 1
        } else {
            return;
        };
        let right = self.dir.heads.remove(left + 1);
        let shift = right.pending - self.dir.heads[left].pending;
        self.edit(left, |leaf| leaf.append(&right.leaf, shift));
        self.spare.give(right.leaf);
    }

    /// Add `delta` to every leaf of `[start, end)`, both of which start a
    /// leaf: the edge chunks rewrite their leaves, a chunk covered whole
    /// only has its head adjusted.
    fn range_add(&mut self, start: u64, end: u64, delta: i64) {
        let (c0, i0) = self.dir.locate(start);
        for c in c0..self.dir.heads.len() {
            let from = if c == c0 { i0 } else { 0 };
            if c > c0 && self.dir.heads[c].first >= end {
                break;
            }
            if from == 0 && self.dir.ends_before(c, end) {
                let head = &mut self.dir.heads[c];
                head.pending += delta;
                head.min = (i64::from(head.min) + delta) as u32;
                head.max = (i64::from(head.max) + delta) as u32;
                continue;
            }
            self.edit(c, |leaf| {
                // (`max`: a window saturated at the end of time is empty.)
                let to = leaf.times().partition_point(|&bt| bt < end).max(from);
                for cap in &mut leaf.caps[from..to] {
                    *cap += delta;
                }
            });
        }
    }

    /// One range update with its endpoints: split, add, then either log the
    /// inverse (under a mark) or merge the endpoints the update made
    /// redundant — the only two leaves whose difference to their
    /// predecessor changed, so a normalized timeline stays normalized.
    fn update(&mut self, start: u64, end: u64, delta: i64) {
        self.ensure_breakpoint(start);
        self.ensure_breakpoint(end);
        self.range_add(start, end, delta);
        if self.marks.is_empty() {
            self.merge_if_redundant(start);
            self.merge_if_redundant(end);
        } else {
            self.undo.push(UndoOp { start, end, delta });
        }
    }

    /// Forget the availability function before `t` (the streaming
    /// counterpart of normalization; see
    /// [`ResourceProfile::retire_before`] for the contract): the chunks
    /// entirely before the leaf containing `t` leave the directory, that
    /// leaf's chunk is trimmed and the leaf extended back to time zero.
    /// No-op while a transaction mark is outstanding — the undo log
    /// re-derives leaf ranges from breakpoint times, so dropping logged
    /// endpoints would corrupt rollback.
    pub fn retire_before(&mut self, t: Time) {
        if !self.marks.is_empty() {
            return;
        }
        let (c, i) = self.dir.locate(t.ticks());
        if (c, i) == (0, 0) {
            return;
        }
        for head in self.dir.heads.drain(..c) {
            self.dir.leaves -= head.leaf.len;
            self.spare.give(head.leaf);
        }
        self.dir.leaves -= i;
        self.edit(0, |leaf| {
            leaf.remove(0, i);
            leaf.times[0] = 0;
        });
    }

    // -- transactional layer ------------------------------------------------

    /// Open a transaction: every subsequent successful `reserve`/`release`
    /// is logged until the returned mark is resolved by
    /// [`Self::rollback_to`] or [`Self::commit`]. Marks nest (stack
    /// discipline); resolving an outer mark implicitly resolves the marks
    /// nested inside it. `O(1)`.
    pub fn checkpoint(&mut self) -> TxnMark {
        debug_assert!(
            !self.marks.is_empty() || self.undo.is_empty(),
            "the undo arena must be empty outside transactions"
        );
        self.mark_gen += 1;
        let mark = TxnMark {
            depth: self.marks.len(),
            undo_len: self.undo.len(),
            gen: self.mark_gen,
        };
        self.marks.push((mark.undo_len, mark.gen));
        mark
    }

    /// Undo every `reserve`/`release` executed since `mark` was taken,
    /// restoring the represented availability function exactly (breakpoints
    /// split by the undone operations stay split until the outermost mark
    /// resolves — harmless, reads skip equal neighbours). Consumes `mark`
    /// and every mark nested inside it. Costs `O(ops since the mark · C)`,
    /// independent of `B`.
    ///
    /// # Panics
    /// Panics if `mark` is not outstanding on this timeline (already
    /// resolved, resolved out of stack order, or from another timeline).
    pub fn rollback_to(&mut self, mark: TxnMark) {
        self.validate_mark(mark);
        while self.undo.len() > mark.undo_len {
            let op = self.undo.pop().expect("guarded by the length check");
            self.range_add(op.start, op.end, -op.delta);
        }
        self.resolve(mark);
    }

    /// Accept everything executed since `mark` was taken. Consumes `mark`
    /// and every mark nested inside it; when the last outstanding mark
    /// commits the undo arena's cursor resets (capacity retained), so
    /// committed steady-state operation carries no logging overhead.
    ///
    /// # Panics
    /// Panics if `mark` is not outstanding on this timeline (see
    /// [`Self::rollback_to`]).
    pub fn commit(&mut self, mark: TxnMark) {
        self.validate_mark(mark);
        self.resolve(mark);
    }

    /// Pop `mark` and everything nested inside it. When that leaves the
    /// timeline mark-free, normalize what the transaction touched: the
    /// instants it inserted and the endpoints of the ops it kept are the
    /// only leaves whose difference to their predecessor can have vanished.
    fn resolve(&mut self, mark: TxnMark) {
        self.marks.truncate(mark.depth);
        if !self.marks.is_empty() {
            return;
        }
        while let Some(op) = self.undo.pop() {
            self.merge_if_redundant(op.start);
            self.merge_if_redundant(op.end);
        }
        while let Some(t) = self.split_log.pop() {
            self.merge_if_redundant(t);
        }
    }

    /// Whether a transaction mark is currently outstanding.
    #[inline]
    pub fn in_transaction(&self) -> bool {
        !self.marks.is_empty()
    }

    fn validate_mark(&self, mark: TxnMark) {
        assert!(
            self.marks.get(mark.depth) == Some(&(mark.undo_len, mark.gen)),
            "TxnMark not outstanding: already resolved, resolved out of stack order, \
             or issued by another timeline"
        );
    }

    // -- bulk construction --------------------------------------------------

    /// Build the availability left by `instance`'s reservations *and* a set
    /// of job placements in one event sweep: `O(B log B)` over
    /// `B = 2·(n' + |placements|)` events, against `n` sequential
    /// [`CapacityQuery::reserve`] calls on an incrementally grown timeline.
    /// This is the right entry point whenever a whole schedule is
    /// (re)indexed at once — e.g. when the local search re-anchors its
    /// persistent timeline on an accepted rebuild. The sweep emits only
    /// instants where the capacity actually changes, so the resulting
    /// timeline starts fully normalized.
    ///
    /// Fails with [`ProfileError::InsufficientCapacity`] at the first
    /// instant where the placements (plus reservations) exceed the cluster,
    /// with `requested` the total width demanded there and `available` the
    /// cluster size.
    ///
    /// # Panics
    /// Panics if a placement references a job the instance does not contain.
    pub fn from_placements(
        instance: &crate::instance::ResaInstance,
        placements: &[Placement],
    ) -> Result<Self, ProfileError> {
        let machines = instance.machines();
        // One indexed lookup per placement, not a per-placement linear scan.
        let by_id: HashMap<crate::job::JobId, &crate::job::Job> =
            instance.jobs().iter().map(|j| (j.id, j)).collect();
        let mut events: Vec<(u64, i64)> =
            Vec::with_capacity(2 * (placements.len() + instance.n_reservations()));
        for r in instance.reservations() {
            events.push((r.start.ticks(), r.width as i64));
            events.push((r.end().ticks(), -(r.width as i64)));
        }
        for p in placements {
            let job = by_id
                .get(&p.job)
                .expect("placements reference instance jobs");
            let end = p.start.ticks().saturating_add(job.duration.ticks());
            events.push((p.start.ticks(), job.width as i64));
            events.push((end, -(job.width as i64)));
        }
        events.sort_unstable();
        let mut steps: Vec<(Time, u32)> = vec![(Time::ZERO, machines)];
        // i128 so even pathological event counts cannot overflow the running
        // usage sum (each event contributes at most u32::MAX).
        let mut usage: i128 = 0;
        let mut i = 0;
        while i < events.len() {
            let t = events[i].0;
            let mut delta = 0i128;
            while i < events.len() && events[i].0 == t {
                delta += events[i].1 as i128;
                i += 1;
            }
            if delta == 0 {
                continue;
            }
            usage += delta;
            let cap = machines as i128 - usage;
            if cap < 0 {
                return Err(ProfileError::InsufficientCapacity {
                    at: Time(t),
                    requested: u32::try_from(usage).unwrap_or(u32::MAX),
                    available: machines,
                });
            }
            debug_assert!(
                cap <= machines as i128,
                "placement releases exceed reserves"
            );
            if t == 0 {
                steps[0].1 = cap as u32;
            } else {
                steps.push((Time(t), cap as u32));
            }
        }
        Ok(Self::from_steps(machines, &steps))
    }

    // -- area queries -------------------------------------------------------

    /// Smallest time `T` such that the free area available in `[0, T)` is
    /// at least `area`; `None` if the demand can never be met (final
    /// capacity zero with demand remaining). Mirrors
    /// [`ResourceProfile::earliest_time_with_area`] answer-for-answer
    /// (property-tested), but skips every chunk whose finite area falls
    /// short of the remaining demand and scans only the one that meets it —
    /// the branch-and-bound area lower bound calls this at every search
    /// node.
    pub fn earliest_time_with_area(&self, area: u128) -> Option<Time> {
        if area == 0 {
            return Some(Time::ZERO);
        }
        let heads = &self.dir.heads;
        let mut remaining = area;
        for (c, head) in heads.iter().enumerate() {
            let (times, caps) = (head.leaf.times(), head.leaf.caps());
            let last = times.len() - 1;
            // Where the chunk's last leaf ends; the timeline's last leaf is
            // open-ended and holds whatever demand reaches it.
            let chunk_end = heads.get(c + 1).map(|next| next.first);
            if let Some(chunk_end) = chunk_end {
                let total = head.leaf.inner_area
                    + head.pending as i128 * (times[last] - times[0]) as i128
                    + (caps[last] + head.pending) as i128 * (chunk_end - times[last]) as i128;
                debug_assert!(total >= 0);
                // Clamp defensively: a (bug-induced) negative area must not
                // wrap to a huge u128 and corrupt the scan in release builds.
                let total = total.max(0) as u128;
                if total < remaining {
                    remaining -= total;
                    continue;
                }
            }
            for i in 0..=last {
                let cap = (caps[i] + head.pending).max(0) as u128;
                let leaf_end = times.get(i + 1).copied().or(chunk_end);
                match leaf_end {
                    Some(leaf_end) => {
                        let area = cap * (leaf_end - times[i]) as u128;
                        if area < remaining {
                            remaining -= area;
                            continue;
                        }
                    }
                    None if cap == 0 => return None,
                    None => {}
                }
                // `extra` can exceed u64 for astronomic demands; saturate to
                // the time horizon instead of silently truncating the u128.
                let extra = u64::try_from(remaining.div_ceil(cap)).unwrap_or(u64::MAX);
                return Some(Time(times[i].saturating_add(extra)));
            }
        }
        None
    }
}

impl CapacityQuery for AvailabilityTimeline {
    fn base(&self) -> u32 {
        self.dir.base
    }

    fn capacity_at(&self, t: Time) -> u32 {
        self.dir.capacity_at(t)
    }

    fn min_capacity_in(&self, start: Time, dur: Dur) -> u32 {
        self.dir.min_capacity_in(start, dur)
    }

    fn earliest_fit(&self, width: u32, dur: Dur, not_before: Time) -> Option<Time> {
        self.dir.earliest_fit(width, dur, not_before)
    }

    fn next_change_after(&self, t: Time) -> Option<Time> {
        self.dir.next_change_after(t)
    }

    fn capacity_profile_in(&self, start: Time, end: Time, out: &mut Vec<(Time, u32)>) {
        out.clear();
        if end <= start {
            return;
        }
        self.dir.collect_range(start.ticks(), end.ticks(), out);
        if let Some(first) = out.first_mut() {
            // The first covered leaf may begin before the window.
            first.0 = first.0.max(start);
        }
    }

    fn retire_before(&mut self, t: Time) {
        AvailabilityTimeline::retire_before(self, t)
    }

    fn reserve(&mut self, start: Time, dur: Dur, width: u32) -> Result<(), ProfileError> {
        if dur.is_zero() {
            return Err(ProfileError::EmptyWindow);
        }
        if width == 0 {
            return Ok(());
        }
        let end = start.ticks().saturating_add(dur.ticks());
        let (min, _) = self.dir.minmax_in(start.ticks(), end);
        if min < width {
            // Locate the first violating instant, mirroring the profile's
            // error reporting.
            let first = self.dir.locate(start.ticks());
            let leaf = self
                .dir
                .first_below(first, end, width)
                .expect("min < width implies a violating leaf");
            let at = if leaf == first {
                start
            } else {
                Time(self.dir.time(leaf))
            };
            return Err(ProfileError::InsufficientCapacity {
                at,
                requested: width,
                available: min,
            });
        }
        self.update(start.ticks(), end, -i64::from(width));
        Ok(())
    }

    fn release(&mut self, start: Time, dur: Dur, width: u32) -> Result<(), ProfileError> {
        if dur.is_zero() {
            return Err(ProfileError::EmptyWindow);
        }
        if width == 0 {
            return Ok(());
        }
        let end = start.ticks().saturating_add(dur.ticks());
        let (_, max) = self.dir.minmax_in(start.ticks(), end);
        let raised = i64::from(max) + i64::from(width);
        if raised > i64::from(self.dir.base) {
            return Err(ProfileError::ReleaseAboveBase {
                at: start,
                capacity: raised as u32,
                base: self.dir.base,
            });
        }
        self.update(start.ticks(), end, i64::from(width));
        Ok(())
    }
}

impl From<&ResourceProfile> for AvailabilityTimeline {
    fn from(profile: &ResourceProfile) -> Self {
        AvailabilityTimeline::from_profile(profile)
    }
}

impl From<&AvailabilityTimeline> for ResourceProfile {
    fn from(timeline: &AvailabilityTimeline) -> Self {
        timeline.to_profile()
    }
}

impl fmt::Display for AvailabilityTimeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "timeline[{} leaves] ≙ {}",
            self.breakpoints(),
            self.to_profile()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(id: usize, width: u32, dur: u64, start: u64) -> Reservation {
        Reservation::new(id, width, dur, start)
    }

    #[test]
    fn constant_timeline() {
        let tl = AvailabilityTimeline::constant(8);
        assert_eq!(tl.base(), 8);
        assert_eq!(tl.capacity_at(Time(0)), 8);
        assert_eq!(tl.capacity_at(Time(1_000_000)), 8);
        assert_eq!(tl.min_capacity_in(Time(5), Dur(100)), 8);
    }

    #[test]
    fn from_reservations_matches_profile() {
        let rs = [r(0, 4, 5, 2), r(1, 2, 2, 8)];
        let p = ResourceProfile::from_reservations(10, &rs).unwrap();
        let tl = AvailabilityTimeline::from_reservations(10, &rs).unwrap();
        for t in 0..15 {
            assert_eq!(tl.capacity_at(Time(t)), p.capacity_at(Time(t)), "t={t}");
        }
        assert_eq!(tl.to_profile(), p);
    }

    #[test]
    fn infeasible_reservations_same_error() {
        let rs = [r(0, 3, 5, 0), r(1, 2, 5, 2)];
        assert_eq!(
            AvailabilityTimeline::from_reservations(4, &rs).unwrap_err(),
            ResourceProfile::from_reservations(4, &rs).unwrap_err()
        );
    }

    #[test]
    fn conversion_is_lossless() {
        let p = ResourceProfile::from_reservations(10, &[r(0, 4, 5, 2), r(1, 9, 3, 20)]).unwrap();
        let tl = AvailabilityTimeline::from(&p);
        assert_eq!(ResourceProfile::from(&tl), p);
    }

    #[test]
    fn earliest_fit_simple() {
        let tl = AvailabilityTimeline::from_reservations(10, &[r(0, 8, 4, 2)]).unwrap();
        assert_eq!(tl.earliest_fit(4, Dur(3), Time(0)), Some(Time(6)));
        assert_eq!(tl.earliest_fit(2, Dur(3), Time(0)), Some(Time(0)));
        assert_eq!(tl.earliest_fit(4, Dur(2), Time(0)), Some(Time(0)));
        assert_eq!(tl.earliest_fit(2, Dur(1), Time(5)), Some(Time(5)));
        assert_eq!(tl.earliest_fit(4, Dur(3), Time(3)), Some(Time(6)));
        assert_eq!(tl.earliest_fit(11, Dur(1), Time(0)), None);
        assert_eq!(tl.earliest_fit(0, Dur(3), Time(7)), Some(Time(7)));
    }

    #[test]
    fn earliest_fit_multiple_holes() {
        let tl = AvailabilityTimeline::from_reservations(
            6,
            &[r(0, 4, 2, 2), r(1, 4, 2, 6), r(2, 5, 2, 10)],
        )
        .unwrap();
        assert_eq!(tl.earliest_fit(3, Dur(3), Time(0)), Some(Time(12)));
        assert_eq!(tl.earliest_fit(3, Dur(2), Time(0)), Some(Time(0)));
        assert_eq!(tl.earliest_fit(3, Dur(2), Time(1)), Some(Time(4)));
    }

    #[test]
    fn reserve_and_release_roundtrip() {
        let mut tl = AvailabilityTimeline::constant(8);
        let original = tl.clone();
        tl.reserve(Time(3), Dur(4), 5).unwrap();
        assert_eq!(tl.capacity_at(Time(3)), 3);
        assert_eq!(tl.capacity_at(Time(6)), 3);
        assert_eq!(tl.capacity_at(Time(7)), 8);
        tl.release(Time(3), Dur(4), 5).unwrap();
        assert_eq!(tl, original);
    }

    #[test]
    fn reserve_insufficient_is_atomic_and_matches_profile_error() {
        let rs = [r(0, 6, 4, 2)];
        let mut tl = AvailabilityTimeline::from_reservations(8, &rs).unwrap();
        let mut p = ResourceProfile::from_reservations(8, &rs).unwrap();
        let before = tl.to_profile();
        let e_tl = CapacityQuery::reserve(&mut tl, Time(0), Dur(4), 4).unwrap_err();
        let e_p = p.reserve(Time(0), Dur(4), 4).unwrap_err();
        assert_eq!(e_tl, e_p);
        assert_eq!(tl.to_profile(), before, "failed reserve must not modify");
    }

    #[test]
    fn release_above_base_rejected() {
        let mut tl = AvailabilityTimeline::constant(8);
        let err = CapacityQuery::release(&mut tl, Time(0), Dur(1), 1).unwrap_err();
        assert!(matches!(err, ProfileError::ReleaseAboveBase { .. }));
    }

    #[test]
    fn zero_duration_and_zero_width() {
        let mut tl = AvailabilityTimeline::constant(8);
        assert_eq!(
            CapacityQuery::reserve(&mut tl, Time(0), Dur(0), 1).unwrap_err(),
            ProfileError::EmptyWindow
        );
        CapacityQuery::reserve(&mut tl, Time(0), Dur(5), 0).unwrap();
        assert_eq!(tl.capacity_at(Time(0)), 8);
        assert_eq!(tl.min_capacity_in(Time(3), Dur(0)), 8);
    }

    #[test]
    fn next_change_after_matches_profile() {
        let rs = [r(0, 4, 5, 2)];
        let p = ResourceProfile::from_reservations(10, &rs).unwrap();
        let tl = AvailabilityTimeline::from_reservations(10, &rs).unwrap();
        for t in 0..10 {
            assert_eq!(
                CapacityQuery::next_change_after(&tl, Time(t)),
                p.next_change_after(Time(t)),
                "t={t}"
            );
        }
    }

    #[test]
    fn next_change_skips_equal_capacity_splits() {
        // Reserving and releasing leaves split leaves with equal capacities;
        // next_change_after must still report only true changes.
        let mut tl = AvailabilityTimeline::constant(8);
        tl.reserve(Time(2), Dur(2), 3).unwrap();
        tl.reserve(Time(4), Dur(2), 3).unwrap();
        // Capacity: 8 on [0,2), 5 on [2,6), 8 after — with a silent split at 4.
        assert_eq!(
            CapacityQuery::next_change_after(&tl, Time(2)),
            Some(Time(6))
        );
        assert_eq!(CapacityQuery::next_change_after(&tl, Time(6)), None);
    }

    #[test]
    fn interleaved_updates_match_profile() {
        let mut tl = AvailabilityTimeline::constant(16);
        let mut p = ResourceProfile::constant(16);
        let script: &[(u64, u64, u32)] =
            &[(0, 5, 4), (3, 9, 6), (5, 2, 3), (12, 30, 10), (1, 2, 2)];
        for &(s, d, w) in script {
            CapacityQuery::reserve(&mut tl, Time(s), Dur(d), w).unwrap();
            p.reserve(Time(s), Dur(d), w).unwrap();
            assert_eq!(tl.to_profile(), p);
        }
        for &(s, d, w) in script.iter().rev() {
            CapacityQuery::release(&mut tl, Time(s), Dur(d), w).unwrap();
            p.release(Time(s), Dur(d), w).unwrap();
            assert_eq!(tl.to_profile(), p);
        }
    }

    #[test]
    fn display_mentions_profile() {
        let tl = AvailabilityTimeline::constant(4);
        assert!(tl.to_string().contains("m=4"));
    }

    #[test]
    fn rollback_undoes_reserves_and_releases() {
        let mut tl = AvailabilityTimeline::from_reservations(8, &[r(0, 3, 4, 2)]).unwrap();
        let before = tl.to_profile();
        let mark = tl.checkpoint();
        tl.reserve(Time(0), Dur(10), 2).unwrap();
        tl.release(Time(3), Dur(2), 3).unwrap();
        tl.reserve(Time(20), Dur(5), 8).unwrap();
        assert_ne!(tl.to_profile(), before);
        tl.rollback_to(mark);
        assert_eq!(tl.to_profile(), before);
        assert!(!tl.in_transaction());
    }

    #[test]
    fn commit_keeps_changes_and_clears_the_log() {
        let mut tl = AvailabilityTimeline::constant(8);
        let mark = tl.checkpoint();
        tl.reserve(Time(1), Dur(4), 3).unwrap();
        tl.commit(mark);
        assert!(!tl.in_transaction());
        assert_eq!(tl.capacity_at(Time(2)), 5);
        assert!(tl.undo.is_empty(), "commit of the last mark drops the log");
    }

    #[test]
    fn nested_marks_roll_back_independently() {
        let mut tl = AvailabilityTimeline::constant(8);
        let outer = tl.checkpoint();
        tl.reserve(Time(0), Dur(5), 2).unwrap();
        let inner = tl.checkpoint();
        tl.reserve(Time(0), Dur(5), 4).unwrap();
        assert_eq!(tl.capacity_at(Time(0)), 2);
        tl.rollback_to(inner);
        assert_eq!(tl.capacity_at(Time(0)), 6, "inner speculation undone");
        tl.rollback_to(outer);
        assert_eq!(tl.capacity_at(Time(0)), 8, "outer speculation undone");
    }

    #[test]
    fn outer_rollback_consumes_committed_inner_marks() {
        let mut tl = AvailabilityTimeline::constant(8);
        let outer = tl.checkpoint();
        let inner = tl.checkpoint();
        tl.reserve(Time(0), Dur(5), 4).unwrap();
        tl.commit(inner);
        assert_eq!(tl.capacity_at(Time(0)), 4);
        // The outer mark can still undo work committed by the inner one.
        tl.rollback_to(outer);
        assert_eq!(tl.capacity_at(Time(0)), 8);
        assert!(tl.undo.is_empty());
    }

    #[test]
    fn failed_reserve_logs_nothing() {
        let mut tl = AvailabilityTimeline::constant(4);
        let mark = tl.checkpoint();
        assert!(CapacityQuery::reserve(&mut tl, Time(0), Dur(2), 5).is_err());
        assert!(tl.undo.is_empty());
        tl.rollback_to(mark);
        assert_eq!(tl.capacity_at(Time(0)), 4);
    }

    #[test]
    #[should_panic(expected = "not outstanding")]
    fn stale_mark_panics() {
        let mut tl = AvailabilityTimeline::constant(4);
        let mark = tl.checkpoint();
        tl.commit(mark);
        tl.rollback_to(mark);
    }

    #[test]
    #[should_panic(expected = "not outstanding")]
    fn stale_mark_cannot_alias_a_live_one() {
        // A resolved mark whose stack position and log length coincide with
        // a live mark must still be rejected (generation counter).
        let mut tl = AvailabilityTimeline::constant(4);
        let stale = tl.checkpoint();
        tl.reserve(Time(0), Dur(2), 1).unwrap();
        tl.rollback_to(stale);
        let _live = tl.checkpoint(); // same depth, same undo length
        tl.rollback_to(stale);
    }

    #[test]
    fn from_placements_matches_sequential_reserves() {
        use crate::instance::ResaInstanceBuilder;
        let inst = ResaInstanceBuilder::new(8)
            .job(4, 10u64)
            .job(2, 5u64)
            .job_released_at(8, 2u64, 20u64)
            .reservation(6, 4u64, 3u64)
            .build()
            .unwrap();
        let placements = vec![
            Placement {
                job: crate::job::JobId(1),
                start: Time(0),
            },
            Placement {
                job: crate::job::JobId(0),
                start: Time(7),
            },
            Placement {
                job: crate::job::JobId(2),
                start: Time(20),
            },
        ];
        let bulk = AvailabilityTimeline::from_placements(&inst, &placements).unwrap();
        let mut sequential = inst.timeline();
        for p in &placements {
            let j = inst.job(p.job).unwrap();
            sequential.reserve(p.start, j.duration, j.width).unwrap();
        }
        assert_eq!(bulk.to_profile(), sequential.to_profile());
    }

    #[test]
    fn from_placements_rejects_overcommitment() {
        use crate::instance::ResaInstanceBuilder;
        let inst = ResaInstanceBuilder::new(4)
            .job(3, 5u64)
            .job(3, 5u64)
            .build()
            .unwrap();
        let placements = vec![
            Placement {
                job: crate::job::JobId(0),
                start: Time(0),
            },
            Placement {
                job: crate::job::JobId(1),
                start: Time(2),
            },
        ];
        let err = AvailabilityTimeline::from_placements(&inst, &placements).unwrap_err();
        assert_eq!(
            err,
            ProfileError::InsufficientCapacity {
                at: Time(2),
                requested: 6,
                available: 4,
            }
        );
    }

    #[test]
    fn earliest_time_with_area_matches_profile() {
        let rs = [r(0, 4, 5, 2), r(1, 9, 3, 20)];
        let p = ResourceProfile::from_reservations(10, &rs).unwrap();
        let tl = AvailabilityTimeline::from(&p);
        for area in 0..400u128 {
            assert_eq!(
                tl.earliest_time_with_area(area),
                p.earliest_time_with_area(area),
                "area={area}"
            );
        }
    }

    #[test]
    fn earliest_time_with_area_none_when_tail_is_full() {
        // Final capacity zero: demand beyond the finite area is unmeetable.
        let p = ResourceProfile::from_steps(4, vec![(Time(0), 4), (Time(5), 0)]);
        let tl = AvailabilityTimeline::from(&p);
        assert_eq!(tl.earliest_time_with_area(20), Some(Time(5)));
        assert_eq!(tl.earliest_time_with_area(21), None);
        assert_eq!(p.earliest_time_with_area(21), None);
    }

    /// Jobs completing near the end of representable time: reserves, range
    /// queries and the transactional layer must not overflow the `i64`
    /// arithmetic of the lazy deltas or the `i128` area augmentation.
    #[test]
    fn extreme_horizon_reserve_release_roundtrip() {
        let far = i64::MAX as u64 - 100;
        let mut tl = AvailabilityTimeline::constant(u32::MAX);
        let original = tl.to_profile();
        tl.reserve(Time(far), Dur(50), u32::MAX).unwrap();
        assert_eq!(tl.capacity_at(Time(far)), 0);
        assert_eq!(tl.capacity_at(Time(far + 50)), u32::MAX);
        assert_eq!(tl.min_capacity_in(Time(0), Dur(u64::MAX)), 0);
        let mark = tl.checkpoint();
        tl.reserve(Time(10), Dur(far - 20), 7).unwrap();
        assert_eq!(tl.capacity_at(Time(far - 11)), u32::MAX - 7);
        tl.rollback_to(mark);
        tl.release(Time(far), Dur(50), u32::MAX).unwrap();
        assert_eq!(tl.to_profile(), original);
    }

    #[test]
    fn extreme_horizon_earliest_fit_does_not_wrap() {
        // Everything but the last 5 ticks of time is fully reserved.
        let far = i64::MAX as u64;
        let mut tl = AvailabilityTimeline::constant(4);
        tl.reserve(Time(0), Dur(far), 4).unwrap();
        assert_eq!(tl.earliest_fit(1, Dur(3), Time::ZERO), Some(Time(far)));
        // A window whose end saturates past u64::MAX still terminates.
        assert_eq!(
            tl.earliest_fit(1, Dur(u64::MAX), Time::ZERO),
            Some(Time(far))
        );
    }

    #[test]
    fn astronomic_area_demand_saturates_instead_of_truncating() {
        // Final capacity 1: meeting `area` takes `area` extra ticks, which
        // exceeds u64 for u128-sized demands. The answer must saturate at
        // Time::MAX, not wrap around to a small time.
        let p = ResourceProfile::from_steps(4, vec![(Time(0), 4), (Time(10), 1)]);
        let tl = AvailabilityTimeline::from(&p);
        assert_eq!(
            tl.earliest_time_with_area(u64::MAX as u128 * 16),
            Some(Time::MAX)
        );
        // Sanity: small demands are unaffected.
        assert_eq!(tl.earliest_time_with_area(40), Some(Time(10)));
    }

    #[test]
    fn area_tracking_survives_updates_and_rollbacks() {
        let mut tl = AvailabilityTimeline::constant(8);
        let mut p = ResourceProfile::constant(8);
        tl.reserve(Time(2), Dur(3), 5).unwrap();
        p.reserve(Time(2), Dur(3), 5).unwrap();
        let mark = tl.checkpoint();
        tl.reserve(Time(4), Dur(6), 3).unwrap();
        tl.rollback_to(mark);
        for area in 0..200u128 {
            assert_eq!(
                tl.earliest_time_with_area(area),
                p.earliest_time_with_area(area),
                "area={area}"
            );
        }
    }

    // -- chunked layout, arena, normalization ----------------------------------

    impl AvailabilityTimeline {
        /// Directory invariants the reads rely on: heads mirror their
        /// blocks, chunks are non-empty and sorted, the leaf count adds up,
        /// and outside transactions no breakpoint is redundant. Called by
        /// the crate's property tests after every step.
        pub(crate) fn check_layout(&self) {
            let heads = &self.dir.heads;
            assert_eq!(heads[0].first, 0);
            let mut leaves = 0;
            for (c, head) in heads.iter().enumerate() {
                let leaf = &head.leaf;
                assert!(leaf.len >= 1 && leaf.len <= CHUNK_CAP, "chunk {c}");
                assert_eq!(head.first, leaf.times[0], "chunk {c}");
                assert!(leaf.times().windows(2).all(|w| w[0] < w[1]), "chunk {c}");
                if let Some(next) = heads.get(c + 1) {
                    assert!(leaf.times[leaf.len - 1] < next.first, "chunk {c}");
                }
                let mut fresh = Leaf::clone(leaf);
                let (lo, hi) = fresh.summarize();
                assert_eq!(i64::from(head.min), lo + head.pending, "chunk {c}");
                assert_eq!(i64::from(head.max), hi + head.pending, "chunk {c}");
                assert_eq!(leaf.inner_area, fresh.inner_area, "chunk {c}");
                leaves += leaf.len;
            }
            assert_eq!(leaves, self.breakpoints());
            if !self.in_transaction() {
                assert_eq!(leaves, self.to_profile().steps().len(), "not normalized");
            }
        }
    }

    #[test]
    fn undo_arena_retains_capacity_across_transactions() {
        let mut tl = AvailabilityTimeline::constant(64);
        let mark = tl.checkpoint();
        for i in 0..50u64 {
            tl.reserve(Time(i * 3), Dur(2), 1).unwrap();
        }
        tl.rollback_to(mark);
        let warmed = tl.undo.capacity();
        assert!(warmed >= 50, "high-water capacity must be retained");
        // A second transaction of the same shape must not grow the arena.
        let mark = tl.checkpoint();
        for i in 0..50u64 {
            tl.reserve(Time(i * 3), Dur(2), 1).unwrap();
        }
        tl.commit(mark);
        assert!(tl.undo.is_empty(), "final commit resets the bump cursor");
        assert_eq!(tl.undo.capacity(), warmed, "slab reused, not regrown");
        tl.check_layout();
    }

    #[test]
    fn speculative_probe_churn_is_compacted_at_transaction_boundaries() {
        // checkpoint → reserve → rollback in a loop splits two leaves per
        // probe; resolving the outermost mark must merge them back instead
        // of letting B grow by ~2 per probe.
        let mut tl = AvailabilityTimeline::constant(8);
        let baseline = tl.to_profile();
        for i in 0..500u64 {
            let mark = tl.checkpoint();
            tl.reserve(Time(10 * i), Dur(3), 2).unwrap();
            assert_eq!(tl.breakpoints(), 3 - usize::from(i == 0));
            tl.rollback_to(mark);
            assert_eq!(
                tl.breakpoints(),
                1,
                "B must not grow under pure speculation"
            );
        }
        assert_eq!(tl.to_profile(), baseline, "function unchanged");
        tl.check_layout();
    }

    #[test]
    fn committed_churn_is_compacted_on_rebuilds() {
        // Reserve/release pairs outside transactions: each update merges the
        // endpoints it made redundant, so the timeline stays normalized.
        let mut tl = AvailabilityTimeline::constant(8);
        let mut p = ResourceProfile::constant(8);
        for i in 0..300u64 {
            tl.reserve(Time(3 * i), Dur(2), 1).unwrap();
            tl.release(Time(3 * i), Dur(2), 1).unwrap();
            assert_eq!(tl.breakpoints(), 1, "B must not grow under committed churn");
        }
        // Later updates stay correct, and normalized.
        for i in 0..40u64 {
            tl.reserve(Time(7 * i), Dur(5), (i % 3) as u32 + 1).unwrap();
            p.reserve(Time(7 * i), Dur(5), (i % 3) as u32 + 1).unwrap();
            assert_eq!(tl.breakpoints(), p.steps().len());
        }
        assert_eq!(tl.to_profile(), p);
        tl.check_layout();
    }

    #[test]
    fn compaction_never_runs_under_an_outstanding_mark() {
        // Splits logged inside a transaction must survive until it resolves
        // (rollback derives leaf ranges from breakpoint times) — including
        // across an inner rollback that leaves the outer mark outstanding —
        // and rollback must restore the function exactly.
        let mut tl = AvailabilityTimeline::constant(8);
        for i in 0..20u64 {
            tl.reserve(Time(50 * i), Dur(20), 3).unwrap();
        }
        let before = tl.to_profile();
        let settled = tl.breakpoints();
        let outer = tl.checkpoint();
        tl.reserve(Time(5), Dur(1000), 2).unwrap();
        let inner = tl.checkpoint();
        for i in 0..100u64 {
            tl.reserve(Time(1000 + 7 * i), Dur(3), 2).unwrap();
        }
        tl.rollback_to(inner);
        assert_eq!(
            tl.breakpoints(),
            settled + 2 + 200,
            "no breakpoint leaves under the outer mark"
        );
        tl.check_layout();
        tl.rollback_to(outer);
        assert_eq!(tl.to_profile(), before);
        assert_eq!(tl.breakpoints(), settled, "the outermost resolution merges");
        tl.check_layout();
    }

    #[test]
    fn reserve_capacity_presizes_without_changing_the_function() {
        let mut tl = AvailabilityTimeline::constant(16);
        let baseline = tl.to_profile();
        tl.reserve_capacity(256, 128);
        assert_eq!(tl.to_profile(), baseline);
        assert!(tl.undo.capacity() >= 128);
        assert!(tl.dir.heads.capacity() >= 256 / CHUNK_CAP);
        assert!((tl.spare.0.len() + 1) * CHUNK_CAP / 2 >= 256);
        tl.reserve(Time(5), Dur(5), 4).unwrap();
        assert_eq!(tl.capacity_at(Time(6)), 12);
    }

    #[test]
    fn splits_merges_and_retirement_keep_the_directory_consistent() {
        // Ascending, descending and interleaved insertions, then removal in
        // another order, then retirement: the layout invariants and the
        // profile oracle hold after every step, and blocks are recycled.
        let mut tl = AvailabilityTimeline::constant(8);
        let mut p = ResourceProfile::constant(8);
        let starts: Vec<u64> = (0..40)
            .map(|i| if i % 2 == 0 { 10 * i } else { 1000 - 10 * i })
            .collect();
        for &s in &starts {
            tl.reserve(Time(s), Dur(4), 1 + (s % 3) as u32).unwrap();
            p.reserve(Time(s), Dur(4), 1 + (s % 3) as u32).unwrap();
            tl.check_layout();
            assert_eq!(tl.to_profile(), p);
        }
        assert!(tl.dir.heads.len() > 4, "the script must cross chunks");
        for &s in starts.iter().step_by(3) {
            tl.release(Time(s), Dur(4), 1 + (s % 3) as u32).unwrap();
            p.release(Time(s), Dur(4), 1 + (s % 3) as u32).unwrap();
            tl.check_layout();
            assert_eq!(tl.to_profile(), p);
        }
        for t in [15u64, 300, 301, 700, 2000] {
            tl.retire_before(Time(t));
            p.retire_before(Time(t));
            tl.check_layout();
            assert_eq!(tl.to_profile(), p);
        }
        assert_eq!(tl.dir.heads.len(), 1);
        assert!(!tl.spare.0.is_empty(), "freed blocks are kept for reuse");
    }

    #[test]
    fn a_window_over_whole_chunks_leaves_their_blocks_shared() {
        // Copy-on-write economy: a reserve across the whole timeline rewrites
        // the two edge chunks only; the chunks in between take a pending
        // delta and keep sharing their block with the frozen directory.
        let mut tl = AvailabilityTimeline::constant(8);
        for i in 0..40u64 {
            tl.reserve(Time(100 + 10 * i), Dur(4), 1).unwrap();
        }
        let frozen = tl.freeze_directory();
        let before = frozen.to_profile();
        tl.reserve(Time(1), Dur(10_000), 2).unwrap();
        let shared = (tl.dir.heads.iter())
            .filter(|h| frozen.heads.iter().any(|f| Arc::ptr_eq(&f.leaf, &h.leaf)))
            .count();
        assert!(
            shared + 3 >= frozen.heads.len() && shared > 0,
            "{shared} of {} blocks still shared",
            frozen.heads.len()
        );
        assert_eq!(frozen.to_profile(), before, "the frozen view is untouched");
        let mut p = before.clone();
        p.reserve(Time(1), Dur(10_000), 2).unwrap();
        assert_eq!(tl.to_profile(), p);
        tl.check_layout();
    }
}
