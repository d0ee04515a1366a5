//! What the benchmark reads from and sets on its own process: the CPU
//! clock, CPU affinity, peak RSS, allocator trimming and host facts.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by every thread of this process, in
/// nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and
    // clock_gettime writes nothing beyond it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Returns freed heap memory to the system and resets the kernel's
/// peak-RSS mark (`VmHWM`) to the current RSS.
pub fn release_memory() {
    // SAFETY: malloc_trim only releases free pages of the allocator's
    // own arenas; it touches no live allocation.
    unsafe {
        malloc_trim(0);
    }
    // "5" resets the peak-RSS mark (Linux 4.0 and later); an older kernel
    // keeps the mark, which only makes the reading conservative.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// A CPU affinity mask (`cpu_set_t`: 1024 CPUs).
#[derive(Clone, Copy, Debug)]
struct CpuSet([u64; 16]);

impl CpuSet {
    fn has(&self, cpu: usize) -> bool {
        self.0[cpu / 64] >> (cpu % 64) & 1 == 1
    }
}

/// Every thread of the process pinned to one CPU until dropped, when
/// each gets the mask the calling thread had back. Threads started
/// meanwhile inherit the pin from the thread that starts them.
///
/// Only the query op loops run pinned. Their client hands each op to
/// the service's pool worker and waits, so one thread runs at a time,
/// yet unpinned the two wake each other across vCPUs; on a shared
/// virtual machine a halted vCPU takes from microseconds to over a
/// millisecond to wake, depending on load the guest cannot see. Pinned,
/// a hand-off is a context switch on one core, and the wake-up delay
/// leaves the measurement. Universe builds never run pinned: they use
/// one shard per core, and the shards run at the same time.
#[derive(Debug)]
pub struct Pinned {
    all: CpuSet,
    pub cpu: usize,
}

impl Pinned {
    /// Pins every thread to the first CPU the calling thread may use.
    pub fn to_one_cpu() -> Result<Pinned, String> {
        let mut all = CpuSet([0; 16]);
        // SAFETY: the mask buffer is writable and exactly the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), all.0.as_mut_ptr()) };
        if rc != 0 {
            return Err("sched_getaffinity failed".to_owned());
        }
        let cpu = (0..1024)
            .find(|&c| all.has(c))
            .ok_or("no CPU in the affinity mask")?;
        let mut one = CpuSet([0; 16]);
        one.0[cpu / 64] = 1 << (cpu % 64);
        set_every_thread(&one)?;
        Ok(Pinned { all, cpu })
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        if let Err(e) = set_every_thread(&self.all) {
            eprintln!("perfbench: unpinning failed: {e}");
        }
    }
}

/// Sets the affinity mask of every thread of the process, as listed in
/// `/proc/self/task`.
fn set_every_thread(set: &CpuSet) -> Result<(), String> {
    let tasks =
        std::fs::read_dir("/proc/self/task").map_err(|e| format!("/proc/self/task: {e}"))?;
    for task in tasks {
        let task = task.map_err(|e| e.to_string())?;
        let tid: i32 = task
            .file_name()
            .to_str()
            .and_then(|t| t.parse().ok())
            .ok_or("a task id is not a number")?;
        // SAFETY: the mask buffer is readable and exactly the size passed.
        let rc = unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), set.0.as_ptr()) };
        // a thread may end between the listing and the call
        if rc != 0 && task.path().exists() {
            return Err(format!("sched_setaffinity failed for thread {tid}"));
        }
    }
    Ok(())
}

/// `n` copies of `value`, written now: their pages are resident before
/// a timed loop resets the peak-RSS mark, so the benchmark's own buffers
/// are the same share of `peak_rss_mb` in every run, however many ops
/// fill them.
pub fn resident<T: Copy>(n: usize, value: T) -> Vec<T> {
    let mut v = Vec::with_capacity(n);
    // opaque to the optimizer, which may otherwise fold an allocation
    // and a zero fill into a lazily mapped zeroed allocation
    std::hint::black_box(v.as_mut_ptr());
    v.resize(n, value);
    v
}

/// Held by tests that pin threads or read the core count, so that none
/// sees another's pin.
#[cfg(test)]
pub static AFFINITY: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Cores available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    hpl_bench::peak_rss_kb()
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM is unreadable: /proc/self/status is required".to_owned())
}

/// nproc, CPU model and compiler, printed with every run.
pub fn facts(nproc: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    format!(
        "nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\"",
        env!("PERFBENCH_RUSTC_VERSION")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_ns() > before, "{x}");
    }

    #[test]
    fn pinning_reaches_every_thread_and_restores() {
        let _alone = AFFINITY.lock().unwrap_or_else(|e| e.into_inner());
        let before = nproc();
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (seen_tx, seen_rx) = std::sync::mpsc::channel();
        let other = std::thread::spawn(move || {
            while rx.recv().is_ok() {
                seen_tx.send(nproc()).expect("the test thread listens");
            }
        });
        let pinned = Pinned::to_one_cpu().expect("pinning is allowed");
        assert!(pinned.all.has(pinned.cpu));
        assert_eq!(nproc(), 1);
        tx.send(()).expect("the other thread listens");
        assert_eq!(
            seen_rx.recv(),
            Ok(1),
            "a thread started earlier is pinned too"
        );
        drop(pinned);
        assert_eq!(nproc(), before);
        tx.send(()).expect("the other thread listens");
        assert_eq!(seen_rx.recv(), Ok(before));
        drop(tx);
        other.join().expect("the other thread ends");
    }
}
