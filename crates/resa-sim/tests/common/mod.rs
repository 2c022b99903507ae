//! One scripted-op vocabulary for every randomized suite of the service:
//! the unit proptests in `src/service.rs` (which include this file by path)
//! and the integration suites beside it. A script entry is four raw
//! integers, decoded into a [`resa_sim::op::Op`] against a [`View`] of the
//! service at the moment it is applied — so any tuple is a valid entry, and
//! twins in lockstep derive the same request.

#![allow(dead_code)] // each suite uses its own subset

use proptest::prelude::*;
use resa_core::capacity::Speculate;
use resa_core::prelude::*;
use resa_sim::prelude::*;

/// One scripted request; fields are interpreted modulo the op space.
#[derive(Clone, Debug)]
pub struct OpSpec {
    pub kind: u8,
    pub width: u32,
    pub dur: u64,
    pub t: u64,
}

/// What a spec is decoded against: the clock and cluster size, and how many
/// reservation and drain ids exist to aim `cancel` / `revoke` at.
#[derive(Clone, Copy, Debug)]
pub struct View {
    pub now: Time,
    pub machines: u32,
    pub reservations: usize,
    pub drains: usize,
}

impl View {
    pub fn of<C: CapacityQuery + Speculate>(svc: &ScheduleService<C>) -> View {
        View {
            now: svc.now(),
            machines: svc.machines(),
            reservations: svc.windows(WindowKind::Reservation).len(),
            drains: svc.windows(WindowKind::Drain).len(),
        }
    }
}

/// The one strategy: every tuple decodes to one of the thirteen op kinds.
pub fn op_spec() -> impl Strategy<Value = OpSpec> {
    (0u8..16, 0u32..16, 0u64..16, 0u64..64).prop_map(|(kind, width, dur, t)| OpSpec {
        kind,
        width,
        dur,
        t,
    })
}

impl OpSpec {
    /// Shapes are always valid on the cluster; instants sit within two
    /// dozen ticks of `now`; ids to cancel/revoke range one past the
    /// existing ones; one advance in six aims a tick into the past.
    pub fn decode(&self, view: &View) -> Op {
        let now = view.now;
        let width = 1 + self.width % view.machines;
        let duration = Dur(1 + self.dur % 8);
        let at = now.saturating_add(Dur(self.t % 24));
        match self.kind % 16 {
            0..=2 => Op::Submit {
                width,
                duration,
                release: None,
            },
            3 => Op::Submit {
                width,
                duration,
                release: Some(at),
            },
            4 => Op::Reserve {
                width,
                duration,
                start: at,
            },
            5 => Op::Cancel {
                id: self.t as usize % (view.reservations + 1),
            },
            6..=8 => Op::Advance {
                to: Time(
                    (now.ticks() + self.t % 6).saturating_sub(u64::from(self.t.is_multiple_of(6))),
                ),
            },
            9 => Op::AdvanceClamped {
                to: Time((now.ticks() + self.t % 4).saturating_sub(1)),
            },
            10 => Op::Inject {
                width,
                duration,
                start: at,
            },
            11 => Op::Revoke {
                id: self.t as usize % (view.drains + 1),
            },
            // Slack 0 probes the boundary: deadline == release + duration
            // commits exactly when the substrate is free there.
            12 | 13 => {
                let delay = Dur(self.t % 5);
                Op::SubmitDeadline {
                    width,
                    duration,
                    release: (!delay.is_zero()).then(|| now.saturating_add(delay)),
                    deadline: now
                        .saturating_add(delay)
                        .saturating_add(duration)
                        .saturating_add(Dur(self.t % 9)),
                    admission: if self.t.is_multiple_of(2) {
                        AdmissionPolicy::Reject
                    } else {
                        AdmissionPolicy::Boost
                    },
                }
            }
            14 => Op::SubmitMoldable {
                widths: vec![width.div_ceil(2), width],
                area: duration.0 * u64::from(width),
            },
            _ => match self.t % 8 {
                0 | 4 => Op::Drain,
                1 => Op::Stats,
                2 => Op::Records {
                    since: Some(self.dur),
                },
                t => Op::Query {
                    width,
                    duration,
                    not_before: (t > 5).then_some(at),
                },
            },
        }
    }
}
