//! Failure/maintenance drains: windows that do not take "no" for an answer
//! from running jobs, and the victim search that makes room for them.

use super::{DrainMode, Effects, ScheduleService, ServiceError, WindowKind};
use resa_core::capacity::Speculate;
use resa_core::prelude::*;

impl<C: CapacityQuery + Speculate> ScheduleService<C> {
    /// Inject a failure or maintenance *drain*: `width` machines withdrawn
    /// during `[start, start + duration)`, inserted mid-run. Unlike
    /// [`ScheduleService::reserve`], a drain does not take "no" for an
    /// answer from running jobs: when the window does not fit the remaining
    /// capacity, the *minimal* set of non-guaranteed running jobs whose runs
    /// overlap the window (half-open — a job completing exactly at `start`
    /// is untouched, most-recently-started killed first) is preempted to
    /// make room, each victim re-queued per the configured [`DrainMode`].
    /// Jobs committed by deadline admission are never preempted; a drain
    /// that cannot fit without killing one is rejected transactionally.
    ///
    /// Returns the drain id and the effects of the decision the capacity
    /// change triggered; the preempted job ids are available from
    /// [`ScheduleService::last_preempted`] until the next inject.
    pub fn inject(
        &mut self,
        width: u32,
        duration: Dur,
        start: Time,
    ) -> Result<(usize, &Effects), ServiceError> {
        self.admit(width, duration, start)?;
        self.preempted_buf.clear();
        if self.substrate.reserve(start, duration, width).is_err() {
            self.preempt_for(width, duration, start)?;
        }
        let id = self.open_window(WindowKind::Drain, width, duration, start);
        // The overlay changed, and preemption may have re-queued work that
        // can restart immediately on the surviving machines.
        Ok((id, self.decide_fresh()))
    }

    /// Victims of the most recent [`ScheduleService::inject`], in re-queue
    /// (ascending id) order; empty when it preempted nothing. Valid until
    /// the next inject.
    pub fn last_preempted(&self) -> &[JobId] {
        &self.preempted_buf
    }

    /// Reserve the drain window `[start, start + duration) × width` on the
    /// substrate after killing the fewest running jobs that makes it fit,
    /// or refuse without a trace.
    fn preempt_for(&mut self, width: u32, duration: Dur, start: Time) -> Result<(), ServiceError> {
        let (now, end) = (self.auth.now, start.saturating_add(duration));
        // Candidate victims: non-guaranteed jobs occupying the substrate
        // whose run `[run start, completion)` overlaps the drained window.
        // `(pos, width, run start, completion)`, killed in
        // most-recently-started-first order so long-running work is
        // disturbed last; `dedup` because `occupying` may list a job twice.
        let mut victims: Vec<(usize, u32, Time, Time)> = Vec::new();
        for (pos, completion) in self.derived.occupying() {
            let job = self.auth.jobs[pos];
            // The substrate holds `[run start, completion)` for this job, a
            // window of exactly its (current) duration.
            let run_start = completion - job.duration;
            if !self.auth.flags[pos].guaranteed && run_start < end && completion > start {
                victims.push((pos, job.width, run_start, completion));
            }
        }
        victims.sort_unstable_by_key(|v| std::cmp::Reverse((v.2, v.0)));
        victims.dedup();
        // Minimal victim prefix whose release makes the window fit, found
        // under speculation so a rejection leaves no trace.
        let free = |s: &mut C, &(_, w, run_start, completion): &(usize, u32, Time, Time)| {
            let from = run_start.max(now);
            s.release(from, completion.since(from), w)
                .expect("releasing a running job's own window");
        };
        let needed = self.substrate.speculate(|s| {
            victims.iter().position(|v| {
                free(s, v);
                s.reserve(start, duration, width).is_ok()
            })
        });
        let Some(last) = needed else {
            return Err(ServiceError::ReservationRejected {
                reason: format!(
                    "drain [{start}, {end})x{width} does not fit even after \
                     preempting every non-guaranteed job overlapping it"
                ),
            });
        };
        victims.truncate(last + 1);
        victims.sort_unstable_by_key(|&(pos, ..)| pos);
        for v in &victims {
            let (pos, completion) = (v.0, v.3);
            free(&mut self.substrate, v);
            self.auth.schedule.remove(self.auth.id_at(pos));
            let mut banked = Dur::ZERO;
            if self.drain_mode == DrainMode::Checkpoint {
                // Only the not-yet-elapsed work remains to be redone.
                let job = &mut self.auth.jobs[pos];
                banked = job.duration - completion.since(now);
                job.duration = completion.since(now);
            }
            self.derived.preempted(pos, banked);
            self.auth.flags[pos].boosted = false;
            self.auth.waiting.push_back(pos);
            self.preempted_buf.push(self.auth.id_at(pos));
        }
        self.derived.starts_revoked(&self.auth);
        self.substrate
            .reserve(start, duration, width)
            .expect("speculation certified the drain window");
        Ok(())
    }
}
