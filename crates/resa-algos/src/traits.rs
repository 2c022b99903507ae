//! The [`Scheduler`] abstraction shared by every algorithm of this crate.

use resa_core::prelude::*;

/// An off-line scheduling algorithm for RESASCHEDULING.
///
/// A scheduler receives a (validated) instance and must return a *feasible*
/// schedule: every algorithm in this crate is total — it never fails on a
/// valid instance — because any job always fits somewhere in the availability
/// profile (feasible instances never end with an everlasting full-machine
/// reservation).
pub trait Scheduler {
    /// Human-readable identifier used in reports and benchmark tables.
    fn name(&self) -> String;

    /// Produce a feasible schedule for `instance`.
    fn schedule(&self, instance: &ResaInstance) -> Schedule;

    /// Convenience: schedule and return the makespan.
    fn makespan(&self, instance: &ResaInstance) -> Time {
        self.schedule(instance).makespan(instance)
    }
}

/// Blanket implementation so `&S` and `Box<dyn Scheduler>` are schedulers too.
impl<S: Scheduler + ?Sized> Scheduler for &S {
    fn name(&self) -> String {
        (**self).name()
    }
    fn schedule(&self, instance: &ResaInstance) -> Schedule {
        (**self).schedule(instance)
    }
}

impl Scheduler for Box<dyn Scheduler> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn schedule(&self, instance: &ResaInstance) -> Schedule {
        (**self).schedule(instance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct AtZero;
    impl Scheduler for AtZero {
        fn name(&self) -> String {
            "at-zero".into()
        }
        fn schedule(&self, instance: &ResaInstance) -> Schedule {
            let mut s = Schedule::new();
            for j in instance.jobs() {
                s.place(j.id, Time::ZERO);
            }
            s
        }
    }

    #[test]
    fn trait_object_and_reference_impls() {
        let inst = ResaInstanceBuilder::new(4).job(1, 3u64).build().unwrap();
        let s = AtZero;
        assert_eq!(Scheduler::makespan(&&s, &inst), Time(3));
        let boxed: Box<dyn Scheduler> = Box::new(AtZero);
        assert_eq!(boxed.name(), "at-zero");
        assert_eq!(boxed.makespan(&inst), Time(3));
    }
}
