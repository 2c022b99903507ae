//! Submissions that negotiate: deadline admission (commit to a probed
//! placement, refuse, or boost) and moldable jobs (the service picks the
//! shape).

use super::{AdmissionPolicy, DeadlineOutcome, Effects, JobFlags, ScheduleService, ServiceError};
use resa_core::capacity::Speculate;
use resa_core::prelude::*;

impl<C: CapacityQuery + Speculate> ScheduleService<C> {
    /// Submit a job with a due date. The speculative earliest-fit bound
    /// gates admission: when `start + duration ≤ deadline` for the earliest
    /// probed start, the job is **committed** to that placement — reserved
    /// on the substrate immediately, guaranteed against drains — so an
    /// accepted deadline can never be missed. Equality admits: windows are
    /// half-open, so a job completing exactly *at* the deadline instant has
    /// finished by it.
    ///
    /// When the bound misses the due date, `admission` decides:
    /// [`AdmissionPolicy::Reject`] refuses the job without a state change
    /// ([`ServiceError::DeadlineUnmet`]); [`AdmissionPolicy::Boost`] accepts
    /// it un-guaranteed at the *front* of the waiting queue.
    pub(crate) fn submit_deadline(
        &mut self,
        width: u32,
        duration: Dur,
        release: Option<Time>,
        deadline: Time,
        admission: AdmissionPolicy,
    ) -> Result<(JobId, DeadlineOutcome, &Effects), ServiceError> {
        let release = release.unwrap_or(self.auth.now);
        self.admit(width, duration, release)?;
        let probe = self.substrate.speculate(|s| {
            let start = s.earliest_fit(width, duration, release)?;
            s.reserve(start, duration, width)
                .expect("earliest_fit certified the window");
            Some(start)
        });
        let bound = probe.map(|start| (start, start.saturating_add(duration)));
        let mut flags = JobFlags {
            deadline: Some(deadline),
            guaranteed: false,
            boosted: false,
        };
        let Some((start, completion)) = bound.filter(|&(_, c)| c <= deadline) else {
            return match admission {
                AdmissionPolicy::Reject => Err(ServiceError::DeadlineUnmet {
                    deadline,
                    bound: bound.map(|(_, completion)| completion),
                }),
                AdmissionPolicy::Boost => {
                    flags.boosted = true;
                    let (pos, id) = self.enroll(width, duration, release, flags);
                    Ok((id, DeadlineOutcome::Boosted, self.arrive(pos, release)))
                }
            };
        };
        self.substrate
            .reserve(start, duration, width)
            .expect("the speculative probe certified this window");
        flags.guaranteed = true;
        let (pos, id) = self.enroll(width, duration, release, flags);
        self.auth.schedule.place(id, start);
        self.derived.started(pos, completion);
        // A committed window is an overlay window to the off-line engine
        // (committed jobs are never preempted, so it never changes); it must
        // normalize together with the rest so both sides agree on which
        // instants are decision points.
        let span = (start, completion);
        self.derived
            .shift_overlay(self.auth.now, span, i64::from(width));
        self.fx_buf.clear();
        self.fx_buf.started.push(Placement { job: id, start });
        // The committed window shrank future capacity — which, like a
        // reservation, can move an EASY head's shadow later and newly admit
        // a backfill candidate. Consult the policy.
        self.decide_now();
        let outcome = DeadlineOutcome::Committed { start, completion };
        Ok((id, outcome, &self.fx_buf))
    }

    /// Submit a *moldable* job: a total work `area` (processor×ticks) plus a
    /// menu of admissible widths. The service concretizes the shape with
    /// [`best_width`] — the width whose `(⌈area/width⌉)`-tick rigid form has
    /// the earliest probed completion, ties to the narrowest — and routes it
    /// through the ordinary [`ScheduleService::submit`] path, so a moldable
    /// job is indistinguishable from a rigid one once admitted (which keeps
    /// the off-line replay oracle intact).
    pub(crate) fn submit_moldable(
        &mut self,
        widths: &[u32],
        area: u64,
    ) -> Result<(JobId, WidthChoice, &Effects), ServiceError> {
        let choice = best_width(&self.substrate, widths, area, self.auth.now)
            .map_err(|e| ServiceError::Moldable {
                reason: e.to_string(),
            })?
            .ok_or_else(|| ServiceError::Moldable {
                reason: "no admissible width ever fits the availability function".into(),
            })?;
        let id = self.submit(choice.width, choice.duration, None)?.0;
        Ok((id, choice, &self.fx_buf))
    }
}
