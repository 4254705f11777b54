//! Thread placement for the lookup client.
//!
//! A live lookup hands the query to the job's thread and waits for the
//! answer. Whether the kernel wakes that thread on the client's core or
//! on another one changes the hop's cost several times over (a few µs
//! against ~15 µs on a 2-CPU VM), and which one it picks drifts with the
//! load of the moment. While the client queries, [`ClientPlacement`]
//! therefore keeps the client on the first CPU and every other thread of
//! the process on the rest, so every lookup crosses cores; dropping it
//! gives all threads their full CPU set back. With fewer than two CPUs,
//! or off Linux, it does nothing.

#[cfg(target_os = "linux")]
mod sys {
    /// A `cpu_set_t` for up to 1024 CPUs.
    pub type CpuSet = [u64; 16];

    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    }

    /// The calling thread's CPU set.
    pub fn get() -> Option<CpuSet> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        (rc == 0).then_some(set)
    }

    /// Restricts thread `tid` to `set`; failures (a thread that just
    /// exited) are ignored.
    pub fn set(tid: i32, set: &CpuSet) {
        // SAFETY: `set` points to a live buffer of exactly the size
        // passed, which the call only reads.
        unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), set) };
    }

    /// Thread ids of this process, and of the calling thread.
    pub fn threads() -> (Vec<i32>, Option<i32>) {
        let tids = std::fs::read_dir("/proc/self/task")
            .map(|dir| {
                dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        let me = std::fs::read_link("/proc/thread-self")
            .ok()
            .and_then(|p| p.file_name()?.to_str()?.parse().ok());
        (tids, me)
    }
}

/// While alive, the calling thread runs on the first CPU of its set and
/// every other thread of the process on the remaining ones.
pub struct ClientPlacement {
    #[cfg(target_os = "linux")]
    full: sys::CpuSet,
}

impl ClientPlacement {
    #[cfg(target_os = "linux")]
    pub fn new() -> Option<ClientPlacement> {
        let full = sys::get()?;
        let first = full.iter().enumerate().find(|(_, w)| **w != 0)?;
        let bit = 1u64 << first.1.trailing_zeros();
        let mut client: sys::CpuSet = [0; 16];
        client[first.0] = bit;
        let mut rest = full;
        rest[first.0] &= !bit;
        if rest.iter().all(|w| *w == 0) {
            return None;
        }
        let (tids, me) = sys::threads();
        let me = me?;
        for tid in tids {
            sys::set(tid, if tid == me { &client } else { &rest });
        }
        Some(ClientPlacement { full })
    }

    #[cfg(not(target_os = "linux"))]
    pub fn new() -> Option<ClientPlacement> {
        None
    }
}

impl Drop for ClientPlacement {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        for tid in sys::threads().0 {
            sys::set(tid, &self.full);
        }
    }
}
