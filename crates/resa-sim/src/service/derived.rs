//! The derived index of a session. Its fields are private: a cache changes
//! through one of the transitions below or not at all, and the tests hold
//! the result against [`Derived::rebuild`] after every op.

#[cfg(any(test, doc))]
use super::ScheduleService;
use super::{Authoritative, ServiceStats, ServiceWindow, WindowKind};
use crate::op::Horizon;
use resa_core::prelude::*;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// What is a function of the [`Authoritative`] state, kept incrementally so
/// no request pays for the session's length.
#[derive(Debug, Clone, Default)]
pub(super) struct Derived {
    /// Future arrivals `(release, position)` as a min-heap; entries are
    /// unique, so the pop order is the sorted order — the batch engine's
    /// tie-break (job id) is the second component.
    pending: BinaryHeap<Reverse<(Time, usize)>>,
    /// Outstanding completions `(completion, position)` as a min-heap. A
    /// drain preemption cannot cheaply delete its victim's entry, so the
    /// heap may hold *ghosts*; `completion_of` says which entries are real.
    running: BinaryHeap<Reverse<(Time, usize)>>,
    /// Future decision instants induced by the overlay (reservations,
    /// drains, deadline-committed placements): `(instant, net width
    /// change)` over the effective windows, time-ordered, instants after
    /// `now` with a non-zero net only — exactly the *normalized* breakpoints
    /// of the overlay profile, the availability-change events of the batch
    /// engine (edges that cancel produce no decision point). A window that
    /// joins or leaves the overlay updates its own two edges, the clock pops
    /// the front, and the last edge is the latest end among the live windows.
    edges: VecDeque<(Time, i64)>,
    /// `Some(completion)` while the job occupies the substrate (committed or
    /// running), `None` otherwise; parallel to the catalog.
    completion_of: Vec<Option<Time>>,
    /// Jobs occupying the substrate right now (running or committed).
    running_count: usize,
    /// Accepted, not cancelled reservations: `stats().reservations`.
    active_reservations: usize,
    /// Latest release date among the jobs in the catalog and their total
    /// duration: with the last overlay edge, the overflow guard's
    /// [`Horizon`].
    latest_release: Time,
    work: u128,
    /// Largest completion time among started jobs.
    makespan: Time,
}

impl Derived {
    /// Derive everything from `auth` alone, occupying `substrate` (an empty
    /// cluster) with the *future suffix* of every standing window and
    /// unfinished run — capacity before `now` is never consulted again
    /// (queries clamp to `now`, policies decide at `now`), so the
    /// availability function agrees with a live session's on `[now, ∞)`,
    /// which is everything observable. Panics on an inconsistent `auth`.
    pub(super) fn rebuild<C: CapacityQuery>(auth: &Authoritative, substrate: &mut C) -> Derived {
        let now = auth.now;
        let mut d = Derived::default();
        let mut occupy = |start: Time, end: Time, width: u32| {
            let from = start.max(now);
            if end > from {
                substrate
                    .reserve(from, end.since(from), width)
                    .expect("the original substrate accepted this window");
            }
        };
        for (pos, job) in auth.jobs.iter().enumerate() {
            d.enrolled(job);
            // Not yet released and not queued; only a committed job is
            // placed ahead of its release.
            if job.release > now && !auth.flags[pos].guaranteed {
                d.arrives_later(pos, job.release);
            }
        }
        // A withdrawn window released its remainder at withdrawal time
        // (which was <= now): only the standing ones still shape the future.
        for kind in WindowKind::ALL {
            for w in auth.windows[kind as usize].iter().filter(|w| !w.released) {
                d.window_opened(kind, w, now);
                occupy(w.start, w.end, w.width);
            }
        }
        // A run whose completion lies strictly after `now` is still running
        // or committed: completions are drained at their instant.
        for p in auth.schedule.placements() {
            let pos = auth.pos_of(p.job);
            let (job, completion) = (auth.jobs[pos], auth.completion(p));
            if completion > now {
                occupy(p.start, completion, job.width);
                d.started(pos, completion);
                if auth.flags[pos].guaranteed {
                    d.shift_overlay(now, (p.start, completion), i64::from(job.width));
                }
            }
        }
        d.makespan = auth.makespan();
        d
    }

    /// Pre-size for `jobs` more jobs and `windows` more overlay windows.
    pub(super) fn reserve(&mut self, jobs: usize, windows: usize) {
        self.pending.reserve(jobs);
        self.running.reserve(jobs);
        self.completion_of.reserve(jobs);
        self.edges.reserve(2 * windows);
    }

    // -- transitions ----------------------------------------------------------

    /// `job` joined the catalog (at the next position).
    pub(super) fn enrolled(&mut self, job: &Job) {
        self.completion_of.push(None);
        self.latest_release = self.latest_release.max(job.release);
        self.work += u128::from(job.duration.0);
    }

    /// The job at `pos` is released at the future instant `release`.
    pub(super) fn arrives_later(&mut self, pos: usize, release: Time) {
        self.pending.push(Reverse((release, pos)));
    }

    /// The job at `pos` took its place on the substrate until `completion`.
    pub(super) fn started(&mut self, pos: usize, completion: Time) {
        self.running.push(Reverse((completion, pos)));
        self.completion_of[pos] = Some(completion);
        self.running_count += 1;
        self.makespan = self.makespan.max(completion);
    }

    /// A drain killed the run of the job at `pos`, whose duration shrank by
    /// the `banked` ticks a checkpoint saved. The heap entry stays behind as
    /// a ghost; [`Derived::starts_revoked`] follows the last victim.
    pub(super) fn preempted(&mut self, pos: usize, banked: Dur) {
        self.completion_of[pos] = None;
        self.running_count -= 1;
        self.work -= u128::from(banked.0);
    }

    /// Placements left the schedule — the only event that can move `C_max`
    /// *down*, so it is re-derived.
    pub(super) fn starts_revoked(&mut self, auth: &Authoritative) {
        self.makespan = auth.makespan();
    }

    /// `w` joined the overlay table of `kind`.
    pub(super) fn window_opened(&mut self, kind: WindowKind, w: &ServiceWindow, now: Time) {
        if kind == WindowKind::Reservation {
            self.active_reservations += usize::from(w.is_effective());
        }
        self.shift_overlay(now, (w.start, w.end), i64::from(w.width));
    }

    /// `w` (as it stood until now) was withdrawn and gave back its
    /// not-yet-elapsed remainder `[from, w.end)`.
    pub(super) fn window_withdrawn(
        &mut self,
        kind: WindowKind,
        w: &ServiceWindow,
        from: Time,
        now: Time,
    ) {
        if kind == WindowKind::Reservation {
            self.active_reservations -= usize::from(w.is_effective());
        }
        self.shift_overlay(now, (from, w.end), -i64::from(w.width));
    }

    /// `width` processors leave (`> 0`) or rejoin (`< 0`) the overlay over
    /// `[start, end)`: two insert-or-cancel steps on the edge list. Edges at
    /// or before `now` are never kept — no decision is owed in the past.
    pub(super) fn shift_overlay(&mut self, now: Time, (start, end): (Time, Time), width: i64) {
        for (at, delta) in [(start, -width), (end, width)] {
            if at <= now {
                continue;
            }
            let i = self.edges.partition_point(|&(t, _)| t < at);
            match self.edges.get_mut(i) {
                Some(edge) if edge.0 == at => {
                    edge.1 += delta;
                    if edge.1 == 0 {
                        self.edges.remove(i);
                    }
                }
                _ => self.edges.insert(i, (at, delta)),
            }
        }
    }

    /// The clock reached `at`: the next job completing exactly then, ghosts
    /// discarded on the way.
    pub(super) fn pop_completion(&mut self, at: Time) -> Option<usize> {
        while let Some(&Reverse((t, pos))) = self.running.peek() {
            if t != at {
                break;
            }
            self.running.pop();
            if self.completion_of[pos] == Some(t) {
                self.completion_of[pos] = None;
                self.running_count -= 1;
                return Some(pos);
            }
        }
        None
    }

    /// The clock reached `at`: the next job released exactly then.
    pub(super) fn pop_arrival(&mut self, at: Time) -> Option<usize> {
        let &Reverse((t, pos)) = self.pending.peek()?;
        (t == at).then(|| {
            self.pending.pop();
            pos
        })
    }

    /// The clock reached `at`: drop the overlay edge there, if any.
    pub(super) fn pop_edge(&mut self, at: Time) -> bool {
        let due = self.edges.front().is_some_and(|&(t, _)| t == at);
        if due {
            self.edges.pop_front();
        }
        due
    }

    /// The first `k` catalog positions were compacted away with `gone` ticks
    /// of work. No heap names them: their completions drained, and a ghost
    /// sits no later than its job's eventual completion.
    pub(super) fn compacted(&mut self, k: usize, gone: u128) {
        self.work -= gone;
        self.completion_of.drain(..k);
        for heap in [&mut self.running, &mut self.pending] {
            *heap = std::mem::take(heap)
                .into_iter()
                .map(|Reverse((t, pos))| Reverse((t, pos - k)))
                .collect();
        }
    }

    // -- reads ----------------------------------------------------------------

    /// The earliest outstanding event instant, if any. Breakpoints count
    /// unconditionally: filtering them on a non-empty waiting set would
    /// differ from the batch engine only in skipped no-op decisions, and
    /// keeping them also pops the edges as time passes.
    pub(super) fn next_event(&self) -> Option<Time> {
        let completion = self.running.peek().map(|&Reverse((t, _))| t);
        let arrival = self.pending.peek().map(|&Reverse((t, _))| t);
        let edge = self.edges.front().map(|&(t, _)| t);
        [completion, arrival, edge].into_iter().flatten().min()
    }

    /// Every job occupying the substrate as `(position, completion)`,
    /// unordered, in `O(running)`. Ghosts are skipped, but a checkpointed
    /// victim restarted at the instant it was killed completes when its
    /// ghost would have and is listed twice.
    pub(super) fn occupying(&self) -> impl Iterator<Item = (usize, Time)> + '_ {
        self.running
            .iter()
            .map(|&Reverse((t, pos))| (pos, t))
            .filter(|&(pos, t)| self.completion_of[pos] == Some(t))
    }

    /// See [`ScheduleService::horizon`].
    pub(super) fn horizon(&self, now: Time) -> Horizon {
        Horizon {
            anchor: now
                .max(self.latest_release)
                .max(self.edges.back().map_or(Time::ZERO, |&(t, _)| t)),
            work: self.work,
        }
    }

    /// The session's counters; `decisions` is the caller's.
    pub(super) fn stats(
        &self,
        auth: &Authoritative,
        machines: u32,
        decisions: u64,
    ) -> ServiceStats {
        let submitted = auth.base + auth.jobs.len();
        let (pending, waiting) = (self.pending.len(), auth.waiting.len());
        ServiceStats {
            now: auth.now,
            machines,
            submitted,
            pending,
            waiting,
            running: self.running_count,
            // Every job is in exactly one of the four stages.
            completed: submitted - pending - waiting - self.running_count,
            reservations: self.active_reservations,
            decisions,
            makespan: self.makespan,
        }
    }
}

/// The rebuild oracle: the incrementally kept index held against
/// [`Derived::rebuild`].
#[cfg(test)]
mod oracle {
    use super::*;
    use resa_core::capacity::Speculate;

    impl Derived {
        /// Break a cache on purpose, so a test can show the oracle notices.
        pub(in crate::service) fn miscount_running(&mut self) {
            self.running_count += 1;
        }

        /// The heaps as sorted sets of `(instant, position)`, ghosts and
        /// duplicates dropped.
        fn heaps(&self) -> [Vec<(Time, usize)>; 2] {
            let running = self.occupying().map(|(pos, t)| (t, pos));
            let pending = self.pending.iter().map(|&Reverse(entry)| entry);
            [running.collect(), pending.collect()].map(|mut set: Vec<_>| {
                set.sort_unstable();
                set.dedup();
                set
            })
        }
    }

    impl<C: CapacityQuery + Speculate> ScheduleService<C> {
        /// The oracle of every cache: derived state checked against the
        /// state it is derived from. Rebuilds [`Derived`] from the
        /// authoritative state onto a fresh linear profile and compares it
        /// with the incrementally maintained copy — the heaps as sets of
        /// real entries, the substrate as its availability on `[now, ∞)`,
        /// the release high-water mark through the horizon it feeds (a
        /// compacted job's release is behind the clock), everything else
        /// field by field.
        pub(crate) fn assert_derived_matches_rebuild(&self) {
            let now = self.auth.now;
            let mut fresh = ResourceProfile::constant(self.machines);
            let rebuilt = Derived::rebuild(&self.auth, &mut fresh);
            let live = &self.derived;
            assert_eq!(live.heaps(), rebuilt.heaps(), "heaps at {now}");
            assert_eq!(live.edges, rebuilt.edges, "overlay edges at {now}");
            assert_eq!(live.completion_of, rebuilt.completion_of, "at {now}");
            assert_eq!(
                (live.running_count, live.makespan),
                (rebuilt.running_count, rebuilt.makespan),
                "running / makespan at {now}"
            );
            assert_eq!(live.active_reservations, rebuilt.active_reservations);
            assert_eq!(live.horizon(now), rebuilt.horizon(now), "horizon at {now}");
            let (mut kept, mut expected) = (Vec::new(), Vec::new());
            self.substrate
                .capacity_profile_in(now, Time::MAX, &mut kept);
            fresh.capacity_profile_in(now, Time::MAX, &mut expected);
            assert_eq!(kept, expected, "availability on [{now}, ∞)");
        }
    }
}
