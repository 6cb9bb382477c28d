//! The two things the benchmark asks of the operating system: pin the
//! measuring thread to one CPU, and read the process's peak RSS.

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

#[cfg(target_os = "linux")]
fn get_affinity() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread; the call writes at most
    // `cpusetsize` bytes and keeps no pointer.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    (rc == 0).then_some(set)
}

#[cfg(target_os = "linux")]
fn set_affinity(set: &CpuSet) -> bool {
    // SAFETY: `set` is a live buffer of exactly the size passed; the
    // call only reads it and keeps no pointer.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn get_affinity() -> Option<CpuSet> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set_affinity(_: &CpuSet) -> bool {
    false
}

/// The affinity mask a process started with, so it can be put back.
pub struct Pinned(Option<CpuSet>);

/// Pins the calling thread — and every thread it spawns afterwards —
/// to the highest-numbered CPU it may run on.
///
/// Virtual threads run one at a time, so one CPU loses nothing; left
/// unpinned, the futex hand-off between them crosses cores at the
/// kernel's whim and `th-high-t8` read anywhere from 0.25 s to 1.6 s
/// run to run on the 2-core sandbox (0.20–0.27 s pinned). Where the
/// platform refuses, measurement goes on unpinned and `bench.pinned`
/// reports 0.
pub fn pin() -> Pinned {
    let Some(all) = get_affinity() else {
        return Pinned(None);
    };
    let Some(word) = all.iter().rposition(|w| *w != 0) else {
        return Pinned(None);
    };
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << (63 - all[word].leading_zeros());
    Pinned(set_affinity(&one).then_some(all))
}

impl Pinned {
    pub fn is_pinned(&self) -> bool {
        self.0.is_some()
    }

    /// Restores the original mask for the measurements that are about
    /// parallel speed-up; threads spawned from here on may use every
    /// CPU again.
    pub fn unpin(&mut self) {
        if let Some(all) = self.0.take() {
            set_affinity(&all);
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_then_unpin_restores_parallelism() {
        let before = std::thread::available_parallelism().map_or(1, usize::from);
        let mut p = pin();
        if p.is_pinned() {
            assert_eq!(
                std::thread::available_parallelism().map_or(1, usize::from),
                1
            );
        }
        p.unpin();
        assert_eq!(
            std::thread::available_parallelism().map_or(1, usize::from),
            before
        );
        assert!(!p.is_pinned());
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
