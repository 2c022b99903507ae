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
//! a job wider than it is skipped without a query, and the greedy and EASY
//! walks end when it reaches 0. Any other job is first held against the
//! pass's `Staircase` of the failing range minima it has read from `now`.
//! EASY then asks its shadow guard, which keeps a staircase of its own over
//! the shadow window, and only a job neither refutes confirms its fit with
//! one `min_capacity_in`. A job released after `now` never starts (the
//! off-line loops hold such jobs; an on-line queue never does).

use crate::capacity::CapacityQuery;
use crate::job::Job;
use crate::time::{Dur, Time};
use crate::waitlist::WaitList;

/// One pass at `now`: the substrate, the capacity left free at `now` and
/// the range minima read from `now` so far.
struct Pass<'a, C> {
    substrate: &'a mut C,
    now: Time,
    free_now: u32,
    read: Staircase,
}

impl<'a, C: CapacityQuery> Pass<'a, C> {
    fn new(substrate: &'a mut C, now: Time) -> Self {
        let free_now = substrate.capacity_at(now);
        Pass {
            substrate,
            now,
            free_now,
            read: Staircase::default(),
        }
    }

    /// Whether `job` can start at `now`: [`Pass::may_fit`], then
    /// [`Pass::confirms`].
    fn fits(&mut self, job: &Job) -> bool {
        self.may_fit(job) && self.confirms(job)
    }

    /// Whether `job` passes the filters that need no query: it is released,
    /// no wider than `free_now`, and no range minimum read before refutes
    /// it. The shortcuts on `free_now` (skip a wider job; end a walk when it
    /// reaches 0; lower it by a start's width) need a non-empty job, which
    /// validation guarantees.
    fn may_fit(&self, job: &Job) -> bool {
        debug_assert!(job.width >= 1 && !job.duration.is_zero());
        job.release <= self.now
            && job.width <= self.free_now
            && !self.read.refutes(job.width, job.duration)
    }

    /// Whether `job`, past [`Pass::may_fit`], fits over its whole run: one
    /// `min_capacity_in`, kept in the staircase when it fails.
    fn confirms(&mut self, job: &Job) -> bool {
        let min = self.substrate.min_capacity_in(self.now, job.duration);
        if min < job.width {
            self.read.record(job.duration, min);
        }
        min >= job.width
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

/// How many range minima a [`Staircase`] holds.
const STAIRS: usize = 8;

/// The `(duration, min)` pairs that failing `min_capacity_in(from,
/// duration)` calls returned within one pass, all from one instant `from`
/// (`now` for a [`Pass`], the shadow for a [`ShadowGuard`]): durations
/// ascending, minima strictly descending, so no pair is implied by another.
/// A read that confirms a fit is not kept: that is the start path, and
/// keeping it saves at most 0.2 % of the queries `tests/decision_work.rs`
/// counts (the guard keeps its whole window's minimum all the same). Each stays an upper bound on the minimum it read until the pass
/// ends, for two reasons: the minimum over `[from, from + d)` is
/// non-increasing in `d`, and a start only lowers capacity. Then `width`
/// processors cannot be free over `duration` from `from` if some pair has
/// `d ≤ duration` and `min < width`, so that test answers exactly, without
/// a query.
#[derive(Default)]
struct Staircase {
    len: usize,
    steps: [(Dur, u32); STAIRS],
}

impl Staircase {
    /// Whether a pair read earlier rules out `width` processors over
    /// `duration` from `from`. The minima descend, so the first pair below
    /// `width` decides.
    fn refutes(&self, width: u32, duration: Dur) -> bool {
        self.steps[..self.len]
            .iter()
            .take_while(|&&(d, _)| d <= duration)
            .any(|&(_, min)| min < width)
    }

    /// Remember that the minimum over `duration` read `min`. A pair implied
    /// by one already held is dropped; the pairs the new one implies make
    /// room for it; when none does and the array is full, the new pair is
    /// dropped.
    fn record(&mut self, duration: Dur, min: u32) {
        let held = &self.steps[..self.len];
        let upto = held.partition_point(|&(d, _)| d <= duration);
        if upto > 0 && held[upto - 1].1 <= min {
            return;
        }
        let at = held.partition_point(|&(d, _)| d < duration);
        let end = at + held[at..].iter().take_while(|&&(_, m)| m >= min).count();
        if end == at && self.len == STAIRS {
            return;
        }
        self.steps.copy_within(end..self.len, at + 1);
        self.steps[at] = (duration, min);
        self.len = self.len + at + 1 - end;
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
    // Widths are at least 1, so nothing starts once no processor is free.
    while let Some(i) = cursor.filter(|_| pass.free_now > 0) {
        cursor = waiting.next_of(i);
        let job = &jobs[i];
        if job.release > now {
            continue;
        }
        if !pass.may_fit(job) || !guard.admits(now, job, &*pass.substrate) || !pass.confirms(job) {
            out.candidate_left = true;
            continue;
        }
        pass.start(waiting, i, job);
        on_start(i);
        out.backfills += 1;
        guard.on_admit(now, job.duration, &*pass.substrate);
    }
    // Any released job the walk did not reach is refused as well.
    out.candidate_left = out.candidate_left
        || std::iter::successors(cursor, |&i| waiting.next_of(i)).any(|i| jobs[i].release <= now);
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
    /// The failing `min_capacity_in(shadow, overlap)` reads of the pass,
    /// held against `q_head + q_cand`, and the whole window's minimum,
    /// given again by each admit that reaches the window.
    read: Staircase,
}

impl ShadowGuard {
    fn new<C: CapacityQuery>(shadow: Time, head: &Job, substrate: &C) -> Self {
        let mut guard = ShadowGuard {
            shadow,
            shadow_end: shadow + head.duration,
            head_width: head.width,
            extra: 0,
            read: Staircase::default(),
        };
        guard.reread(substrate);
        guard
    }

    /// Read the whole window's minimum: it sets `extra`, and it refutes a
    /// candidate that covers the window and is wider than `extra`.
    fn reread<C: CapacityQuery>(&mut self, substrate: &C) {
        let window = self.shadow_end.since(self.shadow);
        let min = substrate.min_capacity_in(self.shadow, window);
        self.extra = min as i64 - self.head_width as i64;
        self.read.record(window, min);
    }

    /// The verdict on `job`, started at `now`, that needs no query, if any:
    /// admitted when it ends by the shadow or is at most `extra` wide,
    /// refused when it needs more than `u32::MAX` processors or a read held
    /// rules out the processors it needs over its overlap.
    fn settled(&self, now: Time, job: &Job) -> Option<bool> {
        let end = now + job.duration;
        if end <= self.shadow || (job.width as i64) <= self.extra {
            return Some(true);
        }
        let Some(need) = self.head_width.checked_add(job.width) else {
            return Some(false);
        };
        self.read.refutes(need, self.overlap(end)).then_some(false)
    }

    /// How long a run ending at `end`, past the shadow, overlaps the window.
    fn overlap(&self, end: Time) -> Dur {
        end.min(self.shadow_end).since(self.shadow)
    }

    /// Whether `job`, started at `now`, leaves the head its shadow. At most
    /// one range-minimum query, none when [`ShadowGuard::settled`] answers.
    fn admits<C: CapacityQuery>(&mut self, now: Time, job: &Job, substrate: &C) -> bool {
        if let Some(verdict) = self.settled(now, job) {
            return verdict;
        }
        let overlap = self.overlap(now + job.duration);
        let need = self.head_width + job.width;
        let min = substrate.min_capacity_in(self.shadow, overlap);
        let refused = min < need;
        if refused {
            self.read.record(overlap, min);
        }
        !refused
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
    use crate::timeline::AvailabilityTimeline;
    use proptest::prelude::*;

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

    /// Durations strictly ascending, minima strictly descending.
    fn is_staircase(stairs: &Staircase) -> bool {
        stairs.steps[..stairs.len]
            .windows(2)
            .all(|w| w[0].0 < w[1].0 && w[0].1 > w[1].1)
    }

    #[test]
    fn a_full_staircase_drops_the_new_pair() {
        let mut stairs = Staircase::default();
        for k in 0..STAIRS as u64 {
            stairs.record(Dur(2 * (k + 1)), 80 - 10 * k as u32);
        }
        assert_eq!(stairs.len, STAIRS);
        assert!(is_staircase(&stairs));
        let full = stairs.steps;
        // Neither implied by a held pair nor implying one: no room.
        stairs.record(Dur(3), 75);
        stairs.record(Dur(2 * STAIRS as u64 + 1), 0);
        assert_eq!((stairs.len, stairs.steps), (STAIRS, full));
        // A pair that implies held ones replaces them.
        stairs.record(Dur(3), 60);
        assert_eq!(stairs.len, STAIRS - 1);
        assert_eq!(
            &stairs.steps[..3],
            &[(Dur(2), 80), (Dur(3), 60), (Dur(8), 50)]
        );
        assert!(is_staircase(&stairs));
    }

    #[derive(Debug, Clone, Copy)]
    enum Rule {
        Fcfs,
        Easy,
        Greedy,
    }

    /// The three rules with one `min_capacity_in` per released job and no
    /// shortcut; EASY admits a candidate by reserving it and asking whether
    /// the head still fits at its shadow.
    fn reference(
        rule: Rule,
        p: &mut ResourceProfile,
        now: Time,
        jobs: &[Job],
        order: &[usize],
    ) -> Vec<usize> {
        let fits = |p: &ResourceProfile, j: &Job| {
            j.release <= now && p.min_capacity_in(now, j.duration) >= j.width
        };
        let mut started = Vec::new();
        let mut rest = order.iter().copied();
        let mut blocked = None;
        for i in rest.by_ref() {
            if !fits(p, &jobs[i]) {
                blocked = Some(i);
                break;
            }
            p.reserve(now, jobs[i].duration, jobs[i].width).unwrap();
            started.push(i);
        }
        let Some(h) = blocked else {
            return started;
        };
        let head = jobs[h];
        match rule {
            Rule::Fcfs => {}
            Rule::Greedy => {
                for i in rest {
                    if fits(p, &jobs[i]) {
                        p.reserve(now, jobs[i].duration, jobs[i].width).unwrap();
                        started.push(i);
                    }
                }
            }
            Rule::Easy => {
                let shadow = p
                    .earliest_fit(head.width, head.duration, now.max(head.release))
                    .unwrap();
                for i in rest {
                    let job = jobs[i];
                    if !fits(p, &job) {
                        continue;
                    }
                    p.reserve(now, job.duration, job.width).unwrap();
                    if p.min_capacity_in(shadow, head.duration) >= head.width {
                        started.push(i);
                    } else {
                        p.release(now, job.duration, job.width).unwrap();
                    }
                }
            }
        }
        started
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Pairs held by a staircase stay a staircase, and while none was
        /// dropped for room it refutes exactly what the pairs recorded imply;
        /// after that, never more.
        #[test]
        fn the_staircase_refutes_what_its_reads_imply(
            reads in proptest::collection::vec((1u64..=24, 0u32..=24), 0usize..=24),
        ) {
            let mut stairs = Staircase::default();
            for (k, &(d, min)) in reads.iter().enumerate() {
                stairs.record(Dur(d), min);
                prop_assert!(is_staircase(&stairs));
                let seen = &reads[..=k];
                for width in 1..=25 {
                    for p in 1..=25 {
                        let implied = seen.iter().any(|&(d, m)| d <= p && m < width);
                        let refuted = stairs.refutes(width, Dur(p));
                        prop_assert!(!refuted || implied);
                        if k < STAIRS {
                            prop_assert_eq!(refuted, implied, "width {} over {}", width, p);
                        }
                    }
                }
            }
        }

        /// Each verdict the shadow guard reaches without a query is the
        /// one `min_capacity_in(shadow, overlap)` gives, over a walk that
        /// admits (and reserves) what fits now and leaves the head its
        /// shadow. The guard's reads hold from any instant, so the shadow is
        /// drawn, not searched, and each candidate by where its run ends
        /// relative to it: a dip in the window's last tick and an overlap
        /// one tick short of the window are both common.
        #[test]
        fn the_guard_settles_only_what_the_query_would(
            m in 2u32..=16,
            reservations in proptest::collection::vec((0u64..80, 1u64..=30, 1u32..=16), 0usize..=12),
            now in 0u64..40,
            lead in 0u64..=30,
            head in (1u32..=16, 1u64..=24),
            candidates in proptest::collection::vec((1u32..=16, 0u64..=32), 1usize..=40),
        ) {
            let mut profile = ResourceProfile::constant(m);
            for &(start, dur, width) in &reservations {
                let _ = profile.reserve(Time(start), Dur(dur), width.min(m));
            }
            let now = Time(now);
            let head = Job::new(0usize, head.0.min(m), head.1);
            let shadow = now + Dur(lead);
            let mut guard = ShadowGuard::new(shadow, &head, &profile);
            // A run ends `past_shadow - 4` ticks after the shadow.
            for (i, &(w, past_shadow)) in (1usize..).zip(&candidates) {
                let d = (lead + past_shadow).saturating_sub(4).max(1);
                let job = Job::new(i, w.min(m), d);
                let end = now + job.duration;
                let leaves_the_shadow = end <= shadow
                    || profile.min_capacity_in(shadow, guard.overlap(end)) >= head.width + job.width;
                if let Some(verdict) = guard.settled(now, &job) {
                    prop_assert_eq!(verdict, leaves_the_shadow, "candidate {}", i);
                }
                prop_assert_eq!(guard.admits(now, &job, &profile), leaves_the_shadow);
                if leaves_the_shadow && profile.min_capacity_in(now, job.duration) >= job.width {
                    profile.reserve(now, job.duration, job.width).unwrap();
                    guard.on_admit(now, job.duration, &profile);
                }
            }
        }

        /// Each rule starts the positions, in the order, that the
        /// query-every-job reference starts, and leaves the same profile.
        #[test]
        fn each_rule_matches_its_reference(
            m in 2u32..=16,
            reservations in proptest::collection::vec((0u64..80, 1u64..=30, 1u32..=16), 0usize..=12),
            now in 0u64..60,
            raw in proptest::collection::vec((1u32..=16, 1u64..=40, 0u64..=70), 1usize..=40),
            order_seed in 0u64..u64::MAX,
        ) {
            let mut profile = ResourceProfile::constant(m);
            for &(start, dur, width) in &reservations {
                // A reservation that does not fit is left out.
                let _ = profile.reserve(Time(start), Dur(dur), width.min(m));
            }
            let jobs: Vec<Job> = (0..).zip(&raw)
                .map(|(i, &(w, d, r))| Job::released_at(i, w.min(m), d, r))
                .collect();
            let mut order: Vec<usize> = (0..jobs.len()).collect();
            let mut state = order_seed;
            for i in (1..order.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                order.swap(i, (state >> 33) as usize % (i + 1));
            }
            let now = Time(now);
            for rule in [Rule::Fcfs, Rule::Easy, Rule::Greedy] {
                let mut expected_profile = profile.clone();
                let expected = reference(rule, &mut expected_profile, now, &jobs, &order);
                let mut timeline = AvailabilityTimeline::from_profile(&profile);
                let mut waiting = WaitList::with_capacity(jobs.len());
                order.iter().for_each(|&i| waiting.push_back(i));
                let mut started = Vec::new();
                match rule {
                    Rule::Fcfs => fcfs(&mut timeline, now, &jobs, &mut waiting, |i| started.push(i)),
                    Rule::Greedy => greedy(&mut timeline, now, &jobs, &mut waiting, |i| started.push(i)),
                    Rule::Easy => drop(easy(&mut timeline, now, &jobs, &mut waiting, |i| started.push(i))),
                }
                prop_assert_eq!(&started, &expected, "{:?}", rule);
                prop_assert_eq!(timeline.to_profile(), expected_profile, "{:?}", rule);
                prop_assert_eq!(waiting.len(), jobs.len() - started.len());
            }
        }
    }
}
