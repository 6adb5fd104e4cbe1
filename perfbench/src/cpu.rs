//! Pins the calling thread to one of the CPUs the process may run on.
//!
//! On a shared host each CPU slows down on its own, for seconds at a time,
//! and the scheduler keeps a busy thread on the CPU it started on. A
//! workload that times its operations on each allowed CPU in turn samples
//! every CPU, so the fast end of its times does not depend on which CPU the
//! run happened to start on. Threads inherit the mask of the thread that
//! spawns them, so pinning before a call pins the workers it spawns too.

use std::io;

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the process was allowed to run on when the benchmark started.
pub struct Cpus {
    allowed: Vec<usize>,
}

impl Cpus {
    /// Reads the calling thread's affinity mask.
    pub fn allowed() -> io::Result<Cpus> {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: `mask` is a valid, writable `cpu_set_t`-sized buffer and its
        // size is passed with it; pid 0 is the calling thread.
        if unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut mask) } != 0 {
            return Err(io::Error::last_os_error());
        }
        let allowed = (0..mask.len() * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect();
        Ok(Cpus { allowed })
    }

    /// How many CPUs the process may run on.
    pub fn count(&self) -> usize {
        self.allowed.len()
    }

    /// Pins the calling thread to the allowed CPU `turn` selects, round robin.
    pub fn pin(&self, turn: usize) -> io::Result<()> {
        self.set(&self.allowed[turn % self.allowed.len()..][..1])
    }

    /// Lets the calling thread run on every allowed CPU again.
    pub fn unpin(&self) -> io::Result<()> {
        self.set(&self.allowed)
    }

    fn set(&self, cpus: &[usize]) -> io::Result<()> {
        let mut mask: CpuSet = [0; 16];
        for &c in cpus {
            mask[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: `mask` is a valid `cpu_set_t`-sized buffer that outlives the
        // call, and its size is passed with it; pid 0 is the calling thread.
        if unsafe { sched_setaffinity(0, size_of::<CpuSet>(), &mask) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}
