//! The indexed availability timeline: a segment tree over the breakpoints of
//! `m(t) = m − U(t)`.
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
//! worst-case `O(B)` per query over `B` breakpoints (an `earliest_fit` from
//! the present over a busy cluster walks every intervening breakpoint, and
//! every `reserve` renormalizes the whole list).
//! [`AvailabilityTimeline`] stores the same function in a segment tree
//! indexed by breakpoint: each node carries the min and max capacity of its
//! leaf range plus a lazy additive delta, so
//!
//! * `capacity_at` / `min_capacity_in` are single `O(log B)` descents;
//! * `reserve` / `release` are lazy range-adds, `O(log B)` once the window
//!   endpoints exist as breakpoints (inserting a missing endpoint rebuilds
//!   the leaf array in `O(B)` — amortized across a scheduling run this
//!   matches the naive profile's own `O(B)` insertion cost);
//! * [`AvailabilityTimeline::earliest_fit`] replaces the naive forward scan
//!   with tree descents: *find the first leaf below `width` in the window*
//!   and *find the first leaf at least `width` after the violation* are both
//!   `O(log B)`, and each loop iteration permanently skips one maximal
//!   blocked region, so a query costs `O((1 + k) log B)` with `k` the number
//!   of blocked regions actually crossed — `k = 0` for the common
//!   fits-immediately case, against `O(B)` for the naive scan. (When a query
//!   must cross a heavily fragmented prefix, `k` approaches `B` and the
//!   naive resumable scan's `O(B + k)` is the better fit.)
//!
//! The timeline is *not* kept normalized (adjacent leaves may carry equal
//! capacities after updates); normalization only happens when converting
//! back to a [`ResourceProfile`] — and, since PR 6, opportunistically when a
//! rebuild is already being paid for (see *Memory layout* below) — which
//! makes the conversion lossless:
//! `AvailabilityTimeline::from(&p).to_profile() == p` for every normalized
//! profile `p`, and both backends answer every [`CapacityQuery`] identically
//! (property-tested in this crate and schedule-for-schedule in
//! `resa-algos`).
//!
//! # Memory layout (PR 6)
//!
//! The tree nodes live in a flat, cache-line-aligned structure-of-arrays:
//! four parallel lanes (`min`, `max`, `lazy`, `area`), each a contiguous
//! array of 64-byte-aligned chunks, indexed in the classic implicit-heap
//! (Eytzinger) order — node `i`'s children are `2i` and `2i + 1`, so a
//! descent is pure index arithmetic with no pointers to chase. The SoA
//! split matters because the hot descents are *field-sparse*: `first_below`
//! reads only `min` + `lazy`, `first_at_least` only `max` + `lazy`, and the
//! 16-byte `area` augmentation (only the branch-and-bound lower bound reads
//! it) no longer pads every node it shares a cache line with. Eight 8-byte
//! entries fill one 64-byte line, so a descent touches about one line per
//! two levels per lane instead of one 40-byte straddling struct per level.
//!
//! Two allocation sinks on the steady path are also gone:
//!
//! * the transactional undo log is an **arena** (`UndoArena`): a
//!   length-tracked slab whose backing store is never freed — a rollback
//!   resets the bump cursor to the mark's watermark and a final commit
//!   resets it to zero, so once the high-water mark is reached, logging a
//!   speculative update never allocates;
//! * breakpoint insertion materializes leaf capacities into a **reused
//!   scratch buffer** instead of a fresh `Vec` per split.
//!
//! Finally, rebuilds **batch-normalize**: when no transaction mark is
//! outstanding and enough splits have accumulated, the rebuild that an
//! endpoint insertion (or a rollback/commit) was going to pay for anyway
//! also merges runs of equal-capacity leaves. Speculative probing splits
//! leaves that rollback leaves behind as degenerate segments; without
//! compaction a probe-heavy workload grows `B` without bound and every
//! later `O(B)` rebuild and `O(log B)` descent pays for dead history.
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
//!   mark — `O(ops since the mark · log B)`, *not* `O(B)`;
//! * [`AvailabilityTimeline::commit`] accepts the speculation; when the last
//!   outstanding mark commits, the log is dropped so committed steady-state
//!   operation stays zero-overhead.
//!
//! Rollback restores the represented availability *function* exactly (the
//! breakpoints a speculative reserve split stay split until the next
//! compacting rebuild; property tests in `resa-core` replay every
//! interleaving against a naive [`ResourceProfile`] and against the pinned
//! reference layout). Bulk construction from a complete schedule goes
//! through [`AvailabilityTimeline::from_placements`], which sweeps all
//! reservation and placement events once (`O(B log B)`) instead of `n`
//! sequential `reserve` calls (`O(n · B)`) — the right entry point whenever
//! a whole schedule is (re)indexed, e.g. at the start of a local-search run.

use crate::capacity::CapacityQuery;
use crate::error::ProfileError;
use crate::profile::ResourceProfile;
use crate::reservation::Reservation;
use crate::schedule::Placement;
use crate::time::{Dur, Time};
use std::collections::HashMap;
use std::fmt;

/// Entries per cache-line-aligned chunk: eight 8-byte values fill one
/// 64-byte line exactly (the `i128` area lane spans two lines per chunk).
const LANES: usize = 8;

/// Splits tolerated beyond `B/8` before a steady-state rebuild compacts
/// degenerate leaves; keeps tiny timelines from churning and amortizes the
/// `O(B)` compaction over at least this many `O(log B)` operations.
const COMPACT_SLACK: usize = 64;

/// One cache-line-aligned block of lane entries. The alignment guarantees a
/// chunk never straddles a line boundary, so `chunk = i / 8` touches exactly
/// one line of the lane (`forbid(unsafe_code)` rules out raw aligned
/// allocation; an aligned newtype over a plain `Vec` gets the same layout).
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct Chunk<T>([T; LANES]);

/// One field of the structure-of-arrays tree: a contiguous, 64-byte-aligned
/// array of `T`, grown geometrically and never shrunk.
#[derive(Debug, Clone)]
struct Lane<T> {
    chunks: Vec<Chunk<T>>,
}

impl<T: Copy + Default> Lane<T> {
    fn with_slots(slots: usize) -> Self {
        Lane {
            chunks: vec![Chunk([T::default(); LANES]); slots.div_ceil(LANES)],
        }
    }

    #[inline(always)]
    fn get(&self, i: usize) -> T {
        self.chunks[i / LANES].0[i % LANES]
    }

    #[inline(always)]
    fn set(&mut self, i: usize, v: T) {
        self.chunks[i / LANES].0[i % LANES] = v;
    }

    fn grow(&mut self, slots: usize) {
        let need = slots.div_ceil(LANES);
        if need > self.chunks.len() {
            self.chunks.resize(need, Chunk([T::default(); LANES]));
        }
    }

    fn slots(&self) -> usize {
        self.chunks.len() * LANES
    }
}

/// The flat segment tree: implicit-heap node order (children of `i` at `2i`
/// and `2i + 1`), one lane per field so a descent touches only the lanes it
/// reads — `first_below` streams `mins` + `lazy`, `first_at_least` streams
/// `maxs` + `lazy`, and the 16-byte `area` augmentation stays out of both.
#[derive(Debug, Clone)]
struct FlatTree {
    /// Minimum capacity of each node's leaf range (own lazy applied,
    /// ancestors' pending).
    mins: Lane<i64>,
    /// Maximum capacity of each node's leaf range.
    maxs: Lane<i64>,
    /// Pending additive delta not yet applied to the node's descendants.
    lazy: Lane<i64>,
    /// Free area (capacity × duration) over the *finite* leaves of the
    /// node's range — the open-ended last leaf contributes zero and is
    /// handled analytically by
    /// [`AvailabilityTimeline::earliest_time_with_area`].
    area: Lane<i128>,
}

impl FlatTree {
    fn with_slots(slots: usize) -> Self {
        FlatTree {
            mins: Lane::with_slots(slots),
            maxs: Lane::with_slots(slots),
            lazy: Lane::with_slots(slots),
            area: Lane::with_slots(slots),
        }
    }

    fn grow(&mut self, slots: usize) {
        self.mins.grow(slots);
        self.maxs.grow(slots);
        self.lazy.grow(slots);
        self.area.grow(slots);
    }

    fn slots(&self) -> usize {
        self.mins.slots()
    }
}

/// Arena-backed undo log: a length-tracked slab over storage that is never
/// freed while the timeline lives. Pushing past the high-water mark grows
/// the slab once; a rollback resets the bump cursor to the [`TxnMark`]'s
/// watermark and the final commit resets it to zero with capacity retained,
/// so steady-state speculation logs without allocating.
#[derive(Debug, Clone, Default)]
struct UndoArena {
    ops: Vec<UndoOp>,
    high_water: usize,
}

impl UndoArena {
    #[inline]
    fn push(&mut self, op: UndoOp) {
        self.ops.push(op);
        if self.ops.len() > self.high_water {
            self.high_water = self.ops.len();
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<UndoOp> {
        self.ops.pop()
    }

    #[inline]
    fn len(&self) -> usize {
        self.ops.len()
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Reset the bump cursor to zero; the slab (sized by `high_water`) is
    /// kept for the next transaction.
    #[inline]
    fn reset(&mut self) {
        self.ops.clear();
    }
}

/// Segment-tree-indexed availability timeline; the fast backend of
/// [`CapacityQuery`]. Since PR 6 the tree lives in a flat cache-line-aligned
/// SoA layout with an arena-backed undo log — see the module docs.
#[derive(Debug, Clone)]
pub struct AvailabilityTimeline {
    /// Total number of machines in the cluster (`m`).
    base: u32,
    /// Breakpoint times, sorted, first entry always 0. Leaf `i` covers
    /// `[times[i], times[i+1])`; the last leaf extends to infinity.
    times: Vec<u64>,
    /// The flat segment tree (1-indexed, `4 × leaves` slots). A node's
    /// stored min/max/area include its own lazy delta but not its
    /// ancestors'.
    tree: FlatTree,
    /// Inverse operations of every `reserve`/`release` executed while a
    /// transaction mark is outstanding; empty in steady-state committed
    /// operation.
    undo: UndoArena,
    /// The outstanding [`TxnMark`]s — `(undo-log length, generation)` —
    /// innermost last.
    marks: Vec<(usize, u64)>,
    /// Monotone counter stamped into every issued mark, so a resolved mark
    /// can never alias a live one that happens to share its stack position
    /// and log length.
    mark_gen: u64,
    /// Reused leaf-capacity buffer for rebuilds (no allocation per split in
    /// the steady state).
    caps_scratch: Vec<u32>,
    /// Endpoint splits since the last compacting rebuild; drives the
    /// batch-normalization trigger.
    splits_since_compaction: usize,
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
        Self::from_parts(machines, vec![0], vec![machines])
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
        let times: Vec<u64> = profile.steps().iter().map(|&(t, _)| t.ticks()).collect();
        let caps: Vec<u32> = profile.steps().iter().map(|&(_, c)| c).collect();
        Self::from_parts(profile.base(), times, caps)
    }

    /// Collapse the timeline back into the canonical normalized
    /// representation.
    pub fn to_profile(&self) -> ResourceProfile {
        let caps = self.leaf_caps();
        let steps: Vec<(Time, u32)> = self
            .times
            .iter()
            .zip(caps)
            .map(|(&t, c)| (Time(t), c))
            .collect();
        ResourceProfile::from_steps(self.base, steps)
    }

    /// Total number of machines in the cluster.
    #[inline]
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Number of breakpoints currently indexed (`B`). Unlike the normalized
    /// profile this may count segments with equal adjacent capacities
    /// (bounded by the batch-normalization trigger; see the module docs).
    #[inline]
    pub fn breakpoints(&self) -> usize {
        self.times.len()
    }

    /// Pre-size the internal buffers for a run expected to touch about
    /// `breakpoints` distinct breakpoints and log up to `undo_ops`
    /// speculative updates, so the steady state is reached without any
    /// growth reallocation.
    pub fn reserve_capacity(&mut self, breakpoints: usize, undo_ops: usize) {
        self.times
            .reserve(breakpoints.saturating_sub(self.times.len()));
        self.caps_scratch
            .reserve((breakpoints + 2).saturating_sub(self.caps_scratch.capacity()));
        self.tree.grow(4 * breakpoints.next_power_of_two().max(1));
        self.undo
            .ops
            .reserve(undo_ops.saturating_sub(self.undo.ops.len()));
    }

    fn from_parts(base: u32, times: Vec<u64>, caps: Vec<u32>) -> Self {
        debug_assert!(!times.is_empty() && times[0] == 0);
        debug_assert!(times.windows(2).all(|w| w[0] < w[1]));
        debug_assert_eq!(times.len(), caps.len());
        let n = times.len();
        let mut tl = AvailabilityTimeline {
            base,
            times,
            tree: FlatTree::with_slots(4 * n),
            undo: UndoArena::default(),
            marks: Vec::new(),
            mark_gen: 0,
            caps_scratch: Vec::new(),
            splits_since_compaction: 0,
        };
        tl.build(1, 0, n - 1, &caps);
        tl
    }

    fn build(&mut self, node: usize, lo: usize, hi: usize, caps: &[u32]) {
        self.tree.lazy.set(node, 0);
        if lo == hi {
            let c = caps[lo] as i64;
            self.tree.mins.set(node, c);
            self.tree.maxs.set(node, c);
            self.tree
                .area
                .set(node, c as i128 * self.finite_span(lo, lo));
            return;
        }
        let mid = (lo + hi) / 2;
        self.build(2 * node, lo, mid, caps);
        self.build(2 * node + 1, mid + 1, hi, caps);
        self.pull(node);
    }

    fn pull(&mut self, node: usize) {
        let (l, r) = (2 * node, 2 * node + 1);
        self.tree
            .mins
            .set(node, self.tree.mins.get(l).min(self.tree.mins.get(r)));
        self.tree
            .maxs
            .set(node, self.tree.maxs.get(l).max(self.tree.maxs.get(r)));
        self.tree
            .area
            .set(node, self.tree.area.get(l) + self.tree.area.get(r));
    }

    /// Total duration of the *finite* leaves in the inclusive range
    /// `[lo, hi]` (the open-ended last leaf contributes zero).
    #[inline]
    fn finite_span(&self, lo: usize, hi: usize) -> i128 {
        let end = (hi + 1).min(self.times.len() - 1);
        (self.times[end] - self.times[lo]) as i128
    }

    /// Leaf index covering time `t`.
    fn leaf_of(&self, t: Time) -> usize {
        // times[0] == 0 and t >= 0, so the partition point is >= 1.
        self.times.partition_point(|&bt| bt <= t.ticks()) - 1
    }

    /// Last leaf index whose segment starts strictly before `end`.
    fn last_leaf_before(&self, end: u64) -> usize {
        self.times.partition_point(|&bt| bt < end) - 1
    }

    /// Inclusive leaf range covered by the half-open window `[start, end)`;
    /// degenerates to the single leaf of `start` for empty windows.
    fn window_leaves(&self, start: Time, end: u64) -> (usize, usize) {
        let l = self.leaf_of(start);
        let r = if end > start.ticks() {
            self.last_leaf_before(end)
        } else {
            l
        };
        (l, r)
    }

    // -- read-only tree descents (lazy deltas accumulate along the path) ----

    fn query_min(&self, node: usize, lo: usize, hi: usize, l: usize, r: usize, acc: i64) -> i64 {
        if r < lo || hi < l {
            return i64::MAX;
        }
        if l <= lo && hi <= r {
            return self.tree.mins.get(node) + acc;
        }
        let mid = (lo + hi) / 2;
        let acc = acc + self.tree.lazy.get(node);
        self.query_min(2 * node, lo, mid, l, r, acc)
            .min(self.query_min(2 * node + 1, mid + 1, hi, l, r, acc))
    }

    fn query_max(&self, node: usize, lo: usize, hi: usize, l: usize, r: usize, acc: i64) -> i64 {
        if r < lo || hi < l {
            return i64::MIN;
        }
        if l <= lo && hi <= r {
            return self.tree.maxs.get(node) + acc;
        }
        let mid = (lo + hi) / 2;
        let acc = acc + self.tree.lazy.get(node);
        self.query_max(2 * node, lo, mid, l, r, acc)
            .max(self.query_max(2 * node + 1, mid + 1, hi, l, r, acc))
    }

    /// First leaf in the inclusive `window` with capacity `< width`, if any.
    /// Streams only the `mins` and `lazy` lanes.
    fn first_below(
        &self,
        node: usize,
        lo: usize,
        hi: usize,
        window: (usize, usize),
        width: i64,
        acc: i64,
    ) -> Option<usize> {
        let (l, r) = window;
        if r < lo || hi < l || self.tree.mins.get(node) + acc >= width {
            return None;
        }
        if lo == hi {
            return Some(lo);
        }
        let mid = (lo + hi) / 2;
        let acc = acc + self.tree.lazy.get(node);
        self.first_below(2 * node, lo, mid, window, width, acc)
            .or_else(|| self.first_below(2 * node + 1, mid + 1, hi, window, width, acc))
    }

    /// First leaf with index `≥ from` and capacity `≥ width`, if any.
    /// Streams only the `maxs` and `lazy` lanes.
    fn first_at_least(
        &self,
        node: usize,
        lo: usize,
        hi: usize,
        from: usize,
        width: i64,
        acc: i64,
    ) -> Option<usize> {
        if hi < from || self.tree.maxs.get(node) + acc < width {
            return None;
        }
        if lo == hi {
            return Some(lo);
        }
        let mid = (lo + hi) / 2;
        let acc = acc + self.tree.lazy.get(node);
        self.first_at_least(2 * node, lo, mid, from, width, acc)
            .or_else(|| self.first_at_least(2 * node + 1, mid + 1, hi, from, width, acc))
    }

    /// First leaf with index `≥ from` whose capacity differs from `cap`.
    fn first_differing(
        &self,
        node: usize,
        lo: usize,
        hi: usize,
        from: usize,
        cap: i64,
        acc: i64,
    ) -> Option<usize> {
        if hi < from
            || (self.tree.mins.get(node) + acc == cap && self.tree.maxs.get(node) + acc == cap)
        {
            return None;
        }
        if lo == hi {
            return Some(lo);
        }
        let mid = (lo + hi) / 2;
        let acc = acc + self.tree.lazy.get(node);
        self.first_differing(2 * node, lo, mid, from, cap, acc)
            .or_else(|| self.first_differing(2 * node + 1, mid + 1, hi, from, cap, acc))
    }

    // -- range update -------------------------------------------------------

    fn range_add(&mut self, node: usize, lo: usize, hi: usize, l: usize, r: usize, delta: i64) {
        if r < lo || hi < l {
            return;
        }
        if l <= lo && hi <= r {
            self.tree.mins.set(node, self.tree.mins.get(node) + delta);
            self.tree.maxs.set(node, self.tree.maxs.get(node) + delta);
            self.tree.lazy.set(node, self.tree.lazy.get(node) + delta);
            self.tree.area.set(
                node,
                self.tree.area.get(node) + delta as i128 * self.finite_span(lo, hi),
            );
            return;
        }
        let mid = (lo + hi) / 2;
        self.range_add(2 * node, lo, mid, l, r, delta);
        self.range_add(2 * node + 1, mid + 1, hi, l, r, delta);
        let lazy = self.tree.lazy.get(node);
        self.tree.mins.set(
            node,
            self.tree
                .mins
                .get(2 * node)
                .min(self.tree.mins.get(2 * node + 1))
                + lazy,
        );
        self.tree.maxs.set(
            node,
            self.tree
                .maxs
                .get(2 * node)
                .max(self.tree.maxs.get(2 * node + 1))
                + lazy,
        );
        self.tree.area.set(
            node,
            self.tree.area.get(2 * node)
                + self.tree.area.get(2 * node + 1)
                + lazy as i128 * self.finite_span(lo, hi),
        );
    }

    /// Append the `(leaf start, capacity)` pairs of the inclusive leaf range
    /// `[l, r]` to `out`, merging runs of equal capacity — a single descent
    /// touching `O(log B + k)` nodes for `k` emitted leaves.
    fn collect_range(
        &self,
        node: usize,
        lo: usize,
        hi: usize,
        window: (usize, usize),
        acc: i64,
        out: &mut Vec<(Time, u32)>,
    ) {
        let (l, r) = window;
        if r < lo || hi < l {
            return;
        }
        if lo == hi {
            let v = (self.tree.mins.get(node) + acc) as u32;
            match out.last() {
                Some(&(_, cap)) if cap == v => {}
                _ => out.push((Time(self.times[lo]), v)),
            }
            return;
        }
        let mid = (lo + hi) / 2;
        let acc = acc + self.tree.lazy.get(node);
        self.collect_range(2 * node, lo, mid, window, acc, out);
        self.collect_range(2 * node + 1, mid + 1, hi, window, acc, out);
    }

    /// Materialize the capacity of every leaf (applying pending deltas) into
    /// a fresh `Vec` — conversion paths only; rebuilds use the scratch
    /// buffer instead.
    fn leaf_caps(&self) -> Vec<u32> {
        let n = self.times.len();
        let mut caps = vec![0u32; n];
        self.collect(1, 0, n - 1, 0, &mut caps);
        caps
    }

    fn collect(&self, node: usize, lo: usize, hi: usize, acc: i64, caps: &mut [u32]) {
        if lo == hi {
            let v = self.tree.mins.get(node) + acc;
            debug_assert!((0..=self.base as i64).contains(&v));
            caps[lo] = v as u32;
            return;
        }
        let mid = (lo + hi) / 2;
        let acc = acc + self.tree.lazy.get(node);
        self.collect(2 * node, lo, mid, acc, caps);
        self.collect(2 * node + 1, mid + 1, hi, acc, caps);
    }

    /// Whether enough splits have accumulated to make the next rebuild (or a
    /// standalone one) batch-normalize degenerate leaves away.
    #[inline]
    fn compaction_due(&self) -> bool {
        self.splits_since_compaction > COMPACT_SLACK + self.times.len() / 8
    }

    /// Grow the tree lanes to hold `4 × leaves` slots (geometric, no
    /// shrink — compaction leaves the spare slots warm for regrowth).
    fn grow_tree(&mut self, leaves: usize) {
        if self.tree.slots() < 4 * leaves {
            self.tree.grow(4 * leaves.next_power_of_two());
        }
    }

    /// Ensure both window endpoints start a leaf, splitting (and rebuilding
    /// the tree once) for whichever of them falls inside a leaf. `O(log B)`
    /// when both breakpoints already exist, `O(B)` otherwise — leaf
    /// capacities are materialized into the reused scratch buffer, the lanes
    /// only grow, and `build` resets the lazy slots it visits, so an
    /// insertion costs two passes over the tree and no allocation in the
    /// steady state. When no transaction mark is outstanding and enough
    /// splits have accumulated, the same rebuild also merges runs of
    /// equal-capacity leaves (the endpoints just ensured are protected from
    /// the merge — the caller's `window_leaves` + `range_add` needs them).
    /// Compaction must never run under an outstanding mark: the undo log
    /// re-derives leaf ranges from breakpoint times, so merging away a
    /// logged endpoint would corrupt rollback.
    fn ensure_breakpoints(&mut self, a: u64, b: u64) {
        let missing = |times: &[u64], t: u64| times.binary_search(&t).is_err();
        let need_a = missing(&self.times, a);
        let need_b = missing(&self.times, b);
        if !need_a && !need_b {
            return;
        }
        let steady = self.marks.is_empty();
        let n = self.times.len();
        let mut caps = std::mem::take(&mut self.caps_scratch);
        caps.clear();
        caps.resize(n, 0);
        self.collect(1, 0, n - 1, 0, &mut caps);
        for t in [a, b] {
            let idx = self.times.partition_point(|&bt| bt <= t);
            if idx > 0 && self.times[idx - 1] == t {
                continue;
            }
            // The new leaf inherits the capacity of the leaf it splits.
            caps.insert(idx, caps[idx - 1]);
            self.times.insert(idx, t);
            self.splits_since_compaction += 1;
        }
        if steady && self.compaction_due() {
            let mut kept = 0usize;
            for i in 0..self.times.len() {
                let t = self.times[i];
                if kept == 0 || caps[i] != caps[kept - 1] || t == a || t == b {
                    self.times[kept] = t;
                    caps[kept] = caps[i];
                    kept += 1;
                }
            }
            self.times.truncate(kept);
            caps.truncate(kept);
            self.splits_since_compaction = 0;
        }
        let n = self.times.len();
        self.grow_tree(n);
        self.build(1, 0, n - 1, &caps);
        self.caps_scratch = caps;
    }

    /// Standalone compacting rebuild, run when a transaction boundary leaves
    /// the timeline mark-free with enough accumulated splits. This is what
    /// keeps `B` bounded under pure speculative probing (checkpoint → probe
    /// → rollback in a loop), where `ensure_breakpoints` itself always runs
    /// under a mark and must defer.
    fn maybe_compact(&mut self) {
        debug_assert!(self.marks.is_empty());
        if !self.compaction_due() {
            return;
        }
        let n = self.times.len();
        let mut caps = std::mem::take(&mut self.caps_scratch);
        caps.clear();
        caps.resize(n, 0);
        self.collect(1, 0, n - 1, 0, &mut caps);
        let mut kept = 0usize;
        for i in 0..n {
            if kept == 0 || caps[i] != caps[kept - 1] {
                self.times[kept] = self.times[i];
                caps[kept] = caps[i];
                kept += 1;
            }
        }
        self.times.truncate(kept);
        caps.truncate(kept);
        self.splits_since_compaction = 0;
        self.build(1, 0, kept - 1, &caps);
        self.caps_scratch = caps;
    }

    /// Forget the availability function before `t` (the streaming
    /// counterpart of batch normalization; see
    /// [`ResourceProfile::retire_before`] for the contract): leaves entirely
    /// before the one containing `t` are dropped, that leaf is extended back
    /// to time zero, and equal-capacity runs merge while the rebuild is
    /// being paid for anyway. No-op while a transaction mark is outstanding —
    /// the undo log re-derives leaf ranges from breakpoint times, so
    /// dropping logged endpoints would corrupt rollback.
    pub fn retire_before(&mut self, t: Time) {
        if !self.marks.is_empty() {
            return;
        }
        let idx = self.times.partition_point(|&bt| bt <= t.ticks()) - 1;
        if idx == 0 {
            return;
        }
        let n = self.times.len();
        let mut caps = std::mem::take(&mut self.caps_scratch);
        caps.clear();
        caps.resize(n, 0);
        self.collect(1, 0, n - 1, 0, &mut caps);
        let mut kept = 0usize;
        for i in idx..n {
            if kept == 0 || caps[i] != caps[kept - 1] {
                self.times[kept] = self.times[i];
                caps[kept] = caps[i];
                kept += 1;
            }
        }
        self.times.truncate(kept);
        caps.truncate(kept);
        self.times[0] = 0;
        self.splits_since_compaction = 0;
        self.build(1, 0, kept - 1, &caps);
        self.caps_scratch = caps;
    }

    fn n(&self) -> usize {
        self.times.len()
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
    /// split by the undone operations stay split until the next compacting
    /// rebuild — harmless, the timeline is not kept normalized). Consumes
    /// `mark` and every mark nested inside it. Costs
    /// `O(ops since the mark · log B)`, independent of `B` when the
    /// speculation touched nothing.
    ///
    /// # Panics
    /// Panics if `mark` is not outstanding on this timeline (already
    /// resolved, resolved out of stack order, or from another timeline).
    pub fn rollback_to(&mut self, mark: TxnMark) {
        self.validate_mark(mark);
        while self.undo.len() > mark.undo_len {
            let op = self.undo.pop().expect("guarded by the length check");
            let (l, r) = self.window_leaves(Time(op.start), op.end);
            let n = self.n();
            self.range_add(1, 0, n - 1, l, r, -op.delta);
        }
        self.marks.truncate(mark.depth);
        if self.marks.is_empty() {
            self.maybe_compact();
        }
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
        self.marks.truncate(mark.depth);
        if self.marks.is_empty() {
            self.undo.reset();
            self.maybe_compact();
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

    /// Record the inverse of a just-applied range update when a transaction
    /// is open.
    #[inline]
    fn log_update(&mut self, start: Time, end: u64, delta: i64) {
        if !self.marks.is_empty() {
            self.undo.push(UndoOp {
                start: start.ticks(),
                end,
                delta,
            });
        }
    }

    // -- bulk construction --------------------------------------------------

    /// Build the availability left by `instance`'s reservations *and* a set
    /// of job placements in one event sweep: `O(B log B)` over
    /// `B = 2·(n' + |placements|)` events, against `O(n · B)` for `n`
    /// sequential [`CapacityQuery::reserve`] calls on an incrementally
    /// grown tree. This is the right entry point whenever a whole schedule
    /// is (re)indexed at once — e.g. when the local search re-anchors its
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
        let mut times: Vec<u64> = vec![0];
        let mut caps: Vec<u32> = vec![machines];
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
                caps[0] = cap as u32;
            } else {
                times.push(t);
                caps.push(cap as u32);
            }
        }
        Ok(Self::from_parts(machines, times, caps))
    }

    // -- area queries -------------------------------------------------------

    /// Smallest time `T` such that the free area available in `[0, T)` is
    /// at least `area`; `None` if the demand can never be met (final
    /// capacity zero with demand remaining). Mirrors
    /// [`ResourceProfile::earliest_time_with_area`] answer-for-answer
    /// (property-tested), but runs as one `O(log B)` descent over the
    /// area-augmented tree instead of a linear sweep — the branch-and-bound
    /// area lower bound calls this at every search node.
    pub fn earliest_time_with_area(&self, area: u128) -> Option<Time> {
        if area == 0 {
            return Some(Time::ZERO);
        }
        self.area_descent(1, 0, self.n() - 1, 0, area)
    }

    fn area_descent(
        &self,
        node: usize,
        lo: usize,
        hi: usize,
        acc: i64,
        remaining: u128,
    ) -> Option<Time> {
        if lo == hi {
            let cap = self.tree.mins.get(node) + acc;
            debug_assert!(cap >= 0);
            if cap == 0 {
                // Only reachable on the open-ended last leaf (a finite leaf
                // is entered only when it holds the remaining demand).
                return None;
            }
            // `extra` can exceed u64 for astronomic demands; saturate to the
            // time horizon instead of silently truncating the u128.
            let extra = remaining.div_ceil(cap as u128);
            let extra = u64::try_from(extra).unwrap_or(u64::MAX);
            return Some(Time(self.times[lo].saturating_add(extra)));
        }
        let mid = (lo + hi) / 2;
        let acc = acc + self.tree.lazy.get(node);
        let left = self.tree.area.get(2 * node) + acc as i128 * self.finite_span(lo, mid);
        debug_assert!(left >= 0);
        // Clamp defensively: a (bug-induced) negative area must not wrap to a
        // huge u128 and corrupt the descent in release builds.
        let left = left.max(0);
        if left as u128 >= remaining {
            self.area_descent(2 * node, lo, mid, acc, remaining)
        } else {
            self.area_descent(2 * node + 1, mid + 1, hi, acc, remaining - left as u128)
        }
    }
}

impl CapacityQuery for AvailabilityTimeline {
    fn base(&self) -> u32 {
        self.base
    }

    fn capacity_at(&self, t: Time) -> u32 {
        let leaf = self.leaf_of(t);
        self.query_min(1, 0, self.n() - 1, leaf, leaf, 0) as u32
    }

    fn min_capacity_in(&self, start: Time, dur: Dur) -> u32 {
        if dur.is_zero() {
            return self.capacity_at(start);
        }
        let end = start.ticks().saturating_add(dur.ticks());
        let (l, r) = self.window_leaves(start, end);
        self.query_min(1, 0, self.n() - 1, l, r, 0) as u32
    }

    fn earliest_fit(&self, width: u32, dur: Dur, not_before: Time) -> Option<Time> {
        if width == 0 {
            return Some(not_before);
        }
        if width > self.base {
            return None;
        }
        let n = self.n();
        let w = width as i64;
        let mut t = not_before;
        loop {
            let end = t.ticks().saturating_add(dur.ticks());
            let (l, r) = self.window_leaves(t, end);
            match self.first_below(1, 0, n - 1, (l, r), w, 0) {
                None => return Some(t),
                Some(violation) => {
                    let next = self.first_at_least(1, 0, n - 1, violation + 1, w, 0)?;
                    t = t.max(Time(self.times[next]));
                }
            }
        }
    }

    fn next_change_after(&self, t: Time) -> Option<Time> {
        let cap = self.capacity_at(t) as i64;
        let from = self.leaf_of(t) + 1;
        if from >= self.n() {
            return None;
        }
        self.first_differing(1, 0, self.n() - 1, from, cap, 0)
            .map(|leaf| Time(self.times[leaf]))
    }

    fn capacity_profile_in(&self, start: Time, end: Time, out: &mut Vec<(Time, u32)>) {
        out.clear();
        if end <= start {
            return;
        }
        let (l, r) = self.window_leaves(start, end.ticks());
        self.collect_range(1, 0, self.n() - 1, (l, r), 0, out);
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
        let (l, r) = self.window_leaves(start, end);
        let n = self.n();
        let min = self.query_min(1, 0, n - 1, l, r, 0);
        if min < width as i64 {
            // Locate the first violating instant, mirroring the profile's
            // error reporting.
            let leaf = self
                .first_below(1, 0, n - 1, (l, r), width as i64, 0)
                .expect("min < width implies a violating leaf");
            let at = if leaf == l {
                start
            } else {
                Time(self.times[leaf])
            };
            return Err(ProfileError::InsufficientCapacity {
                at,
                requested: width,
                available: min as u32,
            });
        }
        self.ensure_breakpoints(start.ticks(), end);
        let (l, r) = self.window_leaves(start, end);
        let n = self.n();
        self.range_add(1, 0, n - 1, l, r, -(width as i64));
        self.log_update(start, end, -(width as i64));
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
        let (l, r) = self.window_leaves(start, end);
        let n = self.n();
        let max = self.query_max(1, 0, n - 1, l, r, 0);
        if max + width as i64 > self.base as i64 {
            return Err(ProfileError::ReleaseAboveBase {
                at: start,
                capacity: (max + width as i64) as u32,
                base: self.base,
            });
        }
        self.ensure_breakpoints(start.ticks(), end);
        let (l, r) = self.window_leaves(start, end);
        let n = self.n();
        self.range_add(1, 0, n - 1, l, r, width as i64);
        self.log_update(start, end, width as i64);
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

    // -- PR 6: flat layout, arena, compaction --------------------------------

    #[test]
    fn undo_arena_retains_capacity_across_transactions() {
        let mut tl = AvailabilityTimeline::constant(64);
        let mark = tl.checkpoint();
        for i in 0..50u64 {
            tl.reserve(Time(i * 3), Dur(2), 1).unwrap();
        }
        tl.rollback_to(mark);
        let warmed = tl.undo.ops.capacity();
        assert!(warmed >= 50, "high-water capacity must be retained");
        // A second transaction of the same shape must not grow the arena.
        let mark = tl.checkpoint();
        for i in 0..50u64 {
            tl.reserve(Time(i * 3), Dur(2), 1).unwrap();
        }
        tl.commit(mark);
        assert!(tl.undo.is_empty(), "final commit resets the bump cursor");
        assert_eq!(tl.undo.ops.capacity(), warmed, "slab reused, not regrown");
    }

    #[test]
    fn speculative_probe_churn_is_compacted_at_transaction_boundaries() {
        // checkpoint → reserve → rollback in a loop leaves degenerate splits
        // behind; the standalone compaction at mark resolution must keep B
        // bounded instead of letting it grow by ~2 per probe.
        let mut tl = AvailabilityTimeline::constant(8);
        let baseline = tl.to_profile();
        for i in 0..500u64 {
            let mark = tl.checkpoint();
            tl.reserve(Time(10 * i), Dur(3), 2).unwrap();
            tl.rollback_to(mark);
        }
        assert!(
            tl.breakpoints() < 2 * COMPACT_SLACK + 16,
            "B = {} must stay bounded under pure speculation",
            tl.breakpoints()
        );
        assert_eq!(tl.to_profile(), baseline, "function unchanged");
    }

    #[test]
    fn committed_churn_is_compacted_on_rebuilds() {
        // Reserve/release pairs leave equal-capacity splits; once enough
        // accumulate, the next endpoint insertion's rebuild merges them.
        let mut tl = AvailabilityTimeline::constant(8);
        let mut p = ResourceProfile::constant(8);
        for i in 0..300u64 {
            tl.reserve(Time(3 * i), Dur(2), 1).unwrap();
            tl.release(Time(3 * i), Dur(2), 1).unwrap();
        }
        assert!(
            tl.breakpoints() < 2 * COMPACT_SLACK + 16,
            "B = {} must stay bounded under committed churn",
            tl.breakpoints()
        );
        // Compaction preserved the function and later updates stay correct.
        for i in 0..40u64 {
            tl.reserve(Time(7 * i), Dur(5), (i % 3) as u32 + 1).unwrap();
            p.reserve(Time(7 * i), Dur(5), (i % 3) as u32 + 1).unwrap();
        }
        assert_eq!(tl.to_profile(), p);
    }

    #[test]
    fn compaction_never_runs_under_an_outstanding_mark() {
        // Accumulate enough splits that compaction is overdue, then open a
        // transaction: splits logged inside it must survive (rollback derives
        // leaf ranges from breakpoint times) and rollback must restore the
        // function exactly.
        let mut tl = AvailabilityTimeline::constant(8);
        for i in 0..200u64 {
            let m = tl.checkpoint();
            tl.reserve(Time(5 * i), Dur(2), 3).unwrap();
            // Leave the splits in place by committing, not rolling back.
            tl.commit(m);
            tl.release(Time(5 * i), Dur(2), 3).unwrap();
        }
        let before = tl.to_profile();
        let mark = tl.checkpoint();
        for i in 0..100u64 {
            tl.reserve(Time(1000 + 7 * i), Dur(3), 2).unwrap();
        }
        tl.rollback_to(mark);
        assert_eq!(tl.to_profile(), before);
    }

    #[test]
    fn reserve_capacity_presizes_without_changing_the_function() {
        let mut tl = AvailabilityTimeline::constant(16);
        let baseline = tl.to_profile();
        tl.reserve_capacity(256, 128);
        assert_eq!(tl.to_profile(), baseline);
        assert!(tl.undo.ops.capacity() >= 128);
        assert!(tl.tree.slots() >= 4 * 256);
        tl.reserve(Time(5), Dur(5), 4).unwrap();
        assert_eq!(tl.capacity_at(Time(6)), 12);
    }
}
