//! CPU placement of a serve session: the server and its client threads all
//! run on one CPU.
//!
//! On a small virtual machine the kernel otherwise moves five communicating
//! threads between two CPUs at will, and every cross-CPU wake-up of an idle
//! CPU goes through the hypervisor. Spread (interquartile ÷ median) of
//! `work_per_s` over ten 10 s runs on the 2-vCPU development host, and its
//! median: `serve-mix` — server on one CPU and clients on the other 40 %
//! (8.3 k ops/s), all on one CPU 5 % (22 k ops/s); `serve-probe` — unpinned
//! 41 % (11.0 k), server and clients apart 22 % (9.0 k), one CPU 13 %
//! (22.0 k). With a second CPU the session runs at half the speed: it
//! measures the hypervisor's wake-ups, not the program.
//!
//! The price: on one CPU the connection threads and the writer thread only
//! time-slice. A change that makes snapshot reads wait for the writer still
//! shows as extra context switches and queue hops per read, but reads and
//! writes never run at the same instant, so **no serve workload measures
//! reader/writer parallelism or lock contention between cores**. The CLI
//! workloads (`replay`, `sweep --threads <cores>`) are not pinned.

use std::mem::size_of_val;

/// `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

fn current() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the byte length
    // passed; pid 0 names the calling thread; the call writes at most that
    // many bytes and keeps no pointer.
    let rc = unsafe { sched_getaffinity(0, size_of_val(&set), set.as_mut_ptr()) };
    (rc == 0).then_some(set)
}

fn apply(set: &CpuSet) -> bool {
    // SAFETY: `set` is a live buffer of exactly the byte length passed; pid 0
    // names the calling thread; the call only reads it.
    unsafe { sched_setaffinity(0, size_of_val(set), set.as_ptr()) == 0 }
}

fn first_cpu(set: &CpuSet) -> Option<usize> {
    (0..set.len() * 64).find(|c| set[c / 64] >> (c % 64) & 1 == 1)
}

/// While alive, the calling thread — and every thread and process it creates,
/// which inherit its affinity — runs on [`OneCpu::cpu`] only. Dropping it
/// gives the calling thread its original CPUs back.
pub struct OneCpu {
    original: CpuSet,
    pub cpu: usize,
}

impl OneCpu {
    /// Pin the calling thread to the first CPU it may run on. `None` if the
    /// kernel refuses; the session then runs unpinned.
    pub fn pin() -> Option<OneCpu> {
        let original = current()?;
        let cpu = first_cpu(&original)?;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] |= 1 << (cpu % 64);
        apply(&one).then_some(OneCpu { original, cpu })
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        apply(&self.original);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_to_one_cpu_and_restores() {
        let before = current().expect("affinity is readable");
        {
            let pinned = OneCpu::pin().expect("pinning to an allowed CPU works");
            let now = current().unwrap();
            assert_eq!(now.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            assert_eq!(first_cpu(&now), Some(pinned.cpu));
            assert_eq!(first_cpu(&before), Some(pinned.cpu));
            // What it spawns inherits the mask.
            let inherited = std::thread::spawn(current).join().unwrap().unwrap();
            assert_eq!(inherited, now);
        }
        assert_eq!(current().unwrap(), before, "dropping restores the mask");
    }
}
