//! The three rules of §2.2 as one decision each, shared by the on-line
//! policies (`resa-sim`) and the off-line schedulers (`resa-algos`).
//!
//! A decision runs at one instant `now` over a rank-ordered [`WaitList`] of
//! positions into a job slice and starts what its rule admits:
//!
//! * [`fcfs`] — start successive heads while they fit;
//! * [`easy`] — FCFS, then start later jobs that do not delay the blocked
//!   head's earliest start (its *shadow*);
//! * [`greedy`] — start every job that fits, the LSRC rule.
//!
//! Each start is reserved on the substrate in place, unlinked from the list
//! and reported to `on_start` with its position, in decision order. The
//! capacity free at `now` is read once per pass and lowered by each start;
//! a job wider than it is skipped without a query, any other confirms its
//! fit with one `min_capacity_in`. A job released after `now` never starts
//! (the off-line loops hold such jobs; an on-line queue never does).

use crate::capacity::CapacityQuery;
use crate::job::Job;
use crate::time::{Dur, Time};
use crate::waitlist::WaitList;

/// One pass at `now`: the substrate and the capacity left free at `now`.
struct Pass<'a, C> {
    substrate: &'a mut C,
    now: Time,
    free_now: u32,
}

impl<'a, C: CapacityQuery> Pass<'a, C> {
    fn new(substrate: &'a mut C, now: Time) -> Self {
        let free_now = substrate.capacity_at(now);
        Pass {
            substrate,
            now,
            free_now,
        }
    }

    /// Whether `job` can start at `now`. The shortcuts on `free_now` (skip
    /// a wider job; stop the greedy pass when it reaches 0; lower it by a
    /// start's width) need a non-empty job, which validation guarantees.
    fn fits(&self, job: &Job) -> bool {
        debug_assert!(job.width >= 1 && !job.duration.is_zero());
        job.release <= self.now
            && job.width <= self.free_now
            && self.substrate.min_capacity_in(self.now, job.duration) >= job.width
    }

    /// Reserve `job` from `now` and unlink it.
    fn start(&mut self, waiting: &mut WaitList, i: usize, job: &Job) {
        self.substrate
            .reserve(self.now, job.duration, job.width)
            .expect("capacity just checked");
        self.free_now -= job.width;
        waiting.remove(i);
    }

    /// Start successive heads of `waiting` while they fit; the first head
    /// that does not, if any.
    fn heads(
        &mut self,
        jobs: &[Job],
        waiting: &mut WaitList,
        on_start: &mut impl FnMut(usize),
    ) -> Option<usize> {
        while let Some(h) = waiting.front() {
            if !self.fits(&jobs[h]) {
                return Some(h);
            }
            self.start(waiting, h, &jobs[h]);
            on_start(h);
        }
        None
    }
}

/// Strict FCFS at `now`: start the heads of `waiting` while they fit, never
/// look past the first that does not.
pub fn fcfs<C: CapacityQuery>(
    substrate: &mut C,
    now: Time,
    jobs: &[Job],
    waiting: &mut WaitList,
    mut on_start: impl FnMut(usize),
) {
    Pass::new(substrate, now).heads(jobs, waiting, &mut on_start);
}

/// Greedy (LSRC) at `now`: start every job of `waiting` that fits, in rank
/// order.
pub fn greedy<C: CapacityQuery>(
    substrate: &mut C,
    now: Time,
    jobs: &[Job],
    waiting: &mut WaitList,
    mut on_start: impl FnMut(usize),
) {
    let mut pass = Pass::new(substrate, now);
    let mut cursor = waiting.front();
    // Widths are at least 1, so nothing fits once no processor is free.
    while let Some(i) = cursor.filter(|_| pass.free_now > 0) {
        cursor = waiting.next_of(i);
        if pass.fits(&jobs[i]) {
            pass.start(waiting, i, &jobs[i]);
            on_start(i);
        }
    }
}

/// What an EASY decision leaves for a caller that moves its own clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EasyPass {
    /// The blocked head's shadow, or `None` when the list was emptied.
    pub shadow: Option<Time>,
    /// Jobs started behind the blocked head.
    pub backfills: u64,
    /// Whether a released job behind the head was refused: only then can a
    /// capacity change before the shadow start something.
    pub candidate_left: bool,
}

/// EASY backfilling at `now`: FCFS, then every later job that fits now and
/// leaves the blocked head able to start at its shadow, its earliest fit
/// from `max(now, release)`. The head may be unreleased.
pub fn easy<C: CapacityQuery>(
    substrate: &mut C,
    now: Time,
    jobs: &[Job],
    waiting: &mut WaitList,
    mut on_start: impl FnMut(usize),
) -> EasyPass {
    let mut pass = Pass::new(substrate, now);
    let Some(h) = pass.heads(jobs, waiting, &mut on_start) else {
        return EasyPass::default();
    };
    let head = jobs[h];
    let shadow = pass
        .substrate
        .earliest_fit(head.width, head.duration, now.max(head.release))
        .expect("feasible instances always admit a fit");
    let mut guard = ShadowGuard::new(shadow, &head, &*pass.substrate);
    let mut out = EasyPass {
        shadow: Some(shadow),
        ..EasyPass::default()
    };
    let mut cursor = waiting.next_of(h);
    while let Some(i) = cursor {
        cursor = waiting.next_of(i);
        let job = &jobs[i];
        if job.release > now {
            continue;
        }
        if !pass.fits(job) || !guard.admits(now, job, &*pass.substrate) {
            out.candidate_left = true;
            continue;
        }
        pass.start(waiting, i, job);
        on_start(i);
        out.backfills += 1;
        guard.on_admit(now, job.duration, &*pass.substrate);
    }
    out
}

/// The EASY admission rule around a blocked head's shadow window
/// `[shadow, shadow + p_head)`. A candidate starting now delays the head
/// iff its run overlaps that window with fewer than `q_head + q_cand`
/// processors free there: reserving a candidate can only push the shadow
/// later, so "the shadow does not move" and "the head still fits at the
/// shadow" are the same condition.
struct ShadowGuard {
    shadow: Time,
    shadow_end: Time,
    head_width: u32,
    /// Spare capacity over the whole shadow window beyond the head's own
    /// width; candidates at most this wide are admitted without a query.
    extra: i64,
}

impl ShadowGuard {
    fn new<C: CapacityQuery>(shadow: Time, head: &Job, substrate: &C) -> Self {
        let mut guard = ShadowGuard {
            shadow,
            shadow_end: shadow + head.duration,
            head_width: head.width,
            extra: 0,
        };
        guard.reread(substrate);
        guard
    }

    fn reread<C: CapacityQuery>(&mut self, substrate: &C) {
        let window = self.shadow_end.since(self.shadow);
        self.extra = substrate.min_capacity_in(self.shadow, window) as i64 - self.head_width as i64;
    }

    /// Whether `job`, which fits at `now`, leaves the head its shadow. At
    /// most one range-minimum query, none on the fast paths.
    fn admits<C: CapacityQuery>(&self, now: Time, job: &Job, substrate: &C) -> bool {
        let end = now + job.duration;
        end <= self.shadow || (job.width as i64) <= self.extra || {
            let overlap: Dur = end.min(self.shadow_end).since(self.shadow);
            substrate.min_capacity_in(self.shadow, overlap) as u64
                >= self.head_width as u64 + job.width as u64
        }
    }

    /// An admitted start whose run reaches the shadow window lowers the
    /// spare capacity there.
    fn on_admit<C: CapacityQuery>(&mut self, now: Time, duration: Dur, substrate: &C) {
        if now + duration > self.shadow {
            self.reread(substrate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ResourceProfile;

    fn list(n: usize) -> WaitList {
        let mut l = WaitList::with_capacity(n);
        for i in 0..n {
            l.push_back(i);
        }
        l
    }

    fn queue() -> Vec<Job> {
        vec![
            Job::new(0usize, 3, 4u64), // fits
            Job::new(1usize, 4, 2u64), // blocked behind J0
            Job::new(2usize, 1, 4u64), // harmless backfill
            Job::new(3usize, 1, 6u64), // would delay J1
        ]
    }

    #[test]
    fn each_rule_starts_what_it_admits() {
        let jobs = queue();
        let run = |rule: fn(&mut ResourceProfile, &[Job], &mut WaitList, &mut Vec<usize>)| {
            let mut p = ResourceProfile::constant(4);
            let mut waiting = list(jobs.len());
            let mut started = Vec::new();
            rule(&mut p, &jobs, &mut waiting, &mut started);
            assert_eq!(waiting.len(), jobs.len() - started.len());
            started
        };
        let fcfs_run = run(|p, j, w, s| fcfs(p, Time::ZERO, j, w, |i| s.push(i)));
        let greedy_run = run(|p, j, w, s| greedy(p, Time::ZERO, j, w, |i| s.push(i)));
        let easy_run = run(|p, j, w, s| {
            let pass = easy(p, Time::ZERO, j, w, |i| s.push(i));
            assert_eq!(pass.shadow, Some(Time(4)));
            assert_eq!(pass.backfills, 1);
            assert!(pass.candidate_left, "J3 was refused");
        });
        assert_eq!(fcfs_run, vec![0]);
        assert_eq!(greedy_run, vec![0, 2]);
        assert_eq!(easy_run, vec![0, 2]);
    }

    #[test]
    fn easy_holds_an_unreleased_head() {
        // The head is released at 5: its shadow is taken from there, and a
        // released job that ends by then backfills at once.
        let jobs = vec![
            Job::released_at(0usize, 4, 2u64, 5u64),
            Job::new(1usize, 2, 5u64),
            Job::new(2usize, 2, 6u64),
            Job::released_at(3usize, 1, 1u64, 1u64),
        ];
        let mut p = ResourceProfile::constant(4);
        let mut waiting = list(jobs.len());
        let mut started = Vec::new();
        let pass = easy(&mut p, Time::ZERO, &jobs, &mut waiting, |i| started.push(i));
        assert_eq!(started, vec![1]);
        assert_eq!(pass.shadow, Some(Time(5)));
        assert!(pass.candidate_left, "J2 would delay the head");
        assert_eq!(waiting.iter().collect::<Vec<_>>(), vec![0, 2, 3]);
        assert_eq!(p.capacity_at(Time(4)), 2);
    }
}
