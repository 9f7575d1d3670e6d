//! Calibrated host time, memory readings and the counting allocator.
//!
//! On this kind of host (a 2-vCPU KVM guest on a shared machine) raw
//! wall-clock stretches do not repeat within a tenth. Three things are done
//! about it, each for a cause that was measured:
//!
//! 1. **The hypervisor takes the virtual CPU away** for a share of the time
//!    that moves between 0 and 40 % from minute to minute. The simulator
//!    workloads run on one thread that never waits, so their segments are
//!    timed on that thread's CPU-time clock (`CLOCK_THREAD_CPUTIME_ID`),
//!    which does not advance while the thread is off the CPU. `udp_kv`,
//!    whose threads do wait for each other, is charged wall time less the
//!    time `/proc/stat` reports as stolen ([`charge_wall_less_stolen`]), so
//!    that a change that adds waiting shows.
//! 2. **The core itself gets slower and faster**, by a third within a
//!    minute with nothing stolen at all. [`RefKernel`] is a fixed piece of
//!    work that belongs to the benchmark and calls no repository code; one
//!    probe of it runs between consecutive measured segments, and a
//!    segment's calibrated duration is `time / mean(slowdown the probe read
//!    before, slowdown it read after)` ([`Segment::calibrated_ns`], the
//!    one place where time is rescaled). On a quiet host a probe reads 1
//!    and calibrated seconds equal measured seconds.
//! 3. **Replays.** Every workload is run several times from the same seed;
//!    the replays execute the same events, so segment *i* is the same work
//!    in each of them and its time is the minimum of its calibrated
//!    durations ([`reduce`]).
//!
//! Limits: the reference kernel follows what slows ordinary code on the
//! core (clock, a busy sibling thread), not DRAM or last-level-cache
//! contention; probes of 8 to 64 MiB tables were tried beside it and made
//! the result worse. The per-segment minimum removes bursts of such
//! contention; a phase that lasts for a whole run stays in the result.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Nanoseconds the chase and the churn of one reference probe take
/// together on this host's 2.1 GHz Xeon when nothing else runs. The nominal
/// values only fix the scale of calibrated time; every comparison is
/// between runs that use the same values.
pub const REF_NOMINAL_NS: f64 = 240_000.0;

/// Nanoseconds the loopback pings of a probe take on the same quiet host:
/// as long as chase and churn together.
pub const REF_LOOPBACK_NOMINAL_NS: f64 = 240_000.0;

/// Dependent loads of the probe's chase.
const REF_CHASE_STEPS: usize = 50_000;

/// Heap vectors the probe's churn creates (and drops).
const REF_CHURN_VECTORS: usize = 5_000;

/// Entries of the chase permutation: 16 Ki x 4 B = 64 KiB.
const REF_SLOTS: usize = 16 * 1024;

/// Heap vectors the churn keeps alive at a time.
const REF_CHURN_LIVE: usize = 64;

/// Round trips of the probe's loopback part (two datagrams each).
const REF_PING_ROUND_TRIPS: usize = 100;

/// Bytes of a ping datagram.
const REF_PING_BYTES: usize = 64;

/// A probe older than this is refreshed before the next segment starts, so
/// untimed work between two segments does not leave a stale reading.
const PROBE_STALE_NS: u128 = 2_000_000;

/// A single-cycle permutation of `slots` entries (Sattolo's algorithm over
/// a fixed xorshift stream, so every process chases the same cycle).
fn single_cycle(slots: usize, mut state: u64) -> Vec<u32> {
    let mut next: Vec<u32> = (0..slots as u32).collect();
    for i in (1..slots).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        next.swap(i, (state % i as u64) as usize);
    }
    next
}

/// The reference kernel `host.ref`: a fixed piece of work whose parts are
/// timed as one, on the calling thread's CPU-time clock.
///
/// * A **chase**: [`REF_CHASE_STEPS`] dependent loads over a 64 KiB
///   single-cycle permutation. One load waits for the other, so the chase
///   follows the core's clock and little else.
/// * A **churn**, about as long: [`REF_CHURN_VECTORS`] heap vectors of 64 to
///   248 bytes are created and filled, each replacing one of
///   [`REF_CHURN_LIVE`] older ones. This is ordinary code (calls, branches,
///   stores, the allocator's bookkeeping), and it slows down when something
///   else keeps the core's other hardware thread busy, which the chase does
///   not notice.
/// * For `udp_kv` only ([`RefKernel::with_loopback`]), **pings**, as long as
///   the other two together: [`REF_PING_ROUND_TRIPS`] round trips of a
///   64-byte datagram between two loopback sockets of the probe's own.
///   Half of what that workload does is system calls and the kernel's
///   loopback path, which slow down by other amounts than user code does.
///
/// Measured on this host. Seven runs of each simulator workload in a noisy
/// hour (raw CPU time of a replay spread 16 to 18 %): the two-replay window
/// time spread 3.3 to 4.5 % calibrated by the chase alone and 1.4 to 1.7 %
/// by chase and churn; set-up 2.3 to 7.1 % against 2.6 to 3.6 %. Ten runs
/// of `udp_kv`: the four-replay window time spread 2.9 % calibrated by
/// chase and churn and 1.4 % with the pings (inter-quartile 6.5 % and
/// 2.1 %).
pub struct RefKernel {
    next: Vec<u32>,
    cursor: u32,
    /// The two ends of the ping, connected to each other.
    loopback: Option<(UdpSocket, UdpSocket)>,
}

impl Default for RefKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl RefKernel {
    /// The kernel of the simulator workloads and the legs: chase and churn.
    pub fn new() -> Self {
        RefKernel {
            next: single_cycle(REF_SLOTS, 0x9E37_79B9_7F4A_7C15),
            cursor: 0,
            loopback: None,
        }
    }

    /// The kernel of `udp_kv`: chase, churn and loopback pings.
    pub fn with_loopback() -> std::io::Result<Self> {
        let a = UdpSocket::bind("127.0.0.1:0")?;
        let b = UdpSocket::bind("127.0.0.1:0")?;
        a.connect(b.local_addr()?)?;
        b.connect(a.local_addr()?)?;
        // Loopback delivers before `send` returns; the timeout only keeps a
        // lost datagram from hanging the run.
        for socket in [&a, &b] {
            socket.set_read_timeout(Some(std::time::Duration::from_millis(100)))?;
        }
        Ok(RefKernel {
            loopback: Some((a, b)),
            ..RefKernel::new()
        })
    }

    /// Nanoseconds a probe of this kernel takes on a quiet host.
    pub fn nominal_ns(&self) -> f64 {
        match self.loopback {
            Some(_) => REF_NOMINAL_NS + REF_LOOPBACK_NOMINAL_NS,
            None => REF_NOMINAL_NS,
        }
    }

    /// Run one probe and return the **slowdown** it read: the CPU time it
    /// took over [`RefKernel::nominal_ns`] (1 on a quiet host). The
    /// allocator counters are off while it runs, so its vectors are never
    /// counted as the workload's.
    pub fn probe(&mut self) -> f64 {
        let counting = COUNTING.swap(false, Ordering::Relaxed);
        let before = cpu_time_ns(CpuClock::Thread);
        let started = Instant::now();
        let mut at = self.cursor as usize;
        for _ in 0..REF_CHASE_STEPS {
            at = self.next[at] as usize;
        }
        self.cursor = std::hint::black_box(at) as u32;
        let mut live: Vec<Vec<u64>> = Vec::with_capacity(REF_CHURN_LIVE);
        for i in 0..REF_CHURN_VECTORS {
            let vector = vec![i as u64; 8 + i % 24];
            if live.len() < REF_CHURN_LIVE {
                live.push(vector);
            } else {
                live[i * 7 % REF_CHURN_LIVE] = vector;
            }
        }
        std::hint::black_box(&live);
        if let Some((a, b)) = &self.loopback {
            let mut datagram = [0u8; REF_PING_BYTES];
            for _ in 0..REF_PING_ROUND_TRIPS {
                // A failed call costs no CPU time and the probe reads a
                // little low: better than no reading.
                let _ = a.send(&datagram);
                let _ = b.recv(&mut datagram);
                let _ = b.send(&datagram);
                let _ = a.recv(&mut datagram);
            }
        }
        let wall_ns = started.elapsed().as_nanos() as f64;
        let ns = match (before, cpu_time_ns(CpuClock::Thread)) {
            (Some(before), Some(after)) if after > before => after - before,
            _ => wall_ns,
        };
        COUNTING.store(counting, Ordering::Relaxed);
        ns / self.nominal_ns()
    }
}

// ---- the CPU-time clocks ------------------------------------------------------------

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    // Declared here because the standard library exposes no CPU-time clock;
    // the call is in the C library every Linux Rust binary already links.
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// Whose CPU time a segment is measured in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuClock {
    /// The calling thread's (`CLOCK_THREAD_CPUTIME_ID`): the simulator
    /// workloads and the legs, which run on one thread that never waits.
    Thread,
    /// The whole process's (`CLOCK_PROCESS_CPUTIME_ID`): `udp_kv`, whose
    /// node threads share one CPU with the client. It only says how much
    /// of a segment's wall time the process was off the CPU, which is how
    /// [`charge_wall_less_stolen`] shares out the stolen time.
    Process,
}

/// Nanoseconds of CPU time on `clock`, or `None` when the kernel refuses.
fn cpu_time_ns(clock: CpuClock) -> Option<f64> {
    let id = match clock {
        CpuClock::Process => 2,
        CpuClock::Thread => 3,
    };
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a live, writable `timespec` of the layout the call
    // expects on 64-bit Linux, and the clock ids are the kernel's constants.
    let rc = unsafe { clock_gettime(id, &mut time) };
    (rc == 0).then_some(time.tv_sec as f64 * 1e9 + time.tv_nsec as f64)
}

/// One measured stretch with its two bracketing reference probes.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// Raw wall-clock nanoseconds.
    pub wall_ns: f64,
    /// Nanoseconds the segment is charged: CPU time of the measuring
    /// thread on the simulator; on `udp_kv` CPU time of the process until
    /// [`charge_wall_less_stolen`] replaces it by wall time less the
    /// segment's share of the stolen time. (Wall time where the kernel
    /// offers no CPU-time clock.)
    pub charged_ns: f64,
    /// Slowdown the reference probe read before the stretch (1 = nominal).
    pub ref_before: f64,
    /// Slowdown the probe read after the stretch.
    pub ref_after: f64,
}

impl Segment {
    /// The charged time rescaled to the nominal core speed by the
    /// segment's own two probes. Windows, set-up and legs all go through
    /// this one function.
    ///
    /// The mean of a window of neighbouring probes was tried in its place
    /// (one and three segments either side): with this reference kernel it
    /// made the two-replay window time spread no less on any workload.
    pub fn calibrated_ns(&self) -> f64 {
        self.charged_ns / (0.5 * (self.ref_before + self.ref_after))
    }
}

/// Times consecutive segments with one probe between neighbours.
pub struct SegmentTimer {
    kernel: RefKernel,
    last_probe: f64,
    last_probe_at: Instant,
    /// The slowdown every reference probe read, in order (for the
    /// `host.ref_*` metrics).
    pub probes: Vec<f64>,
}

impl Default for SegmentTimer {
    fn default() -> Self {
        Self::new()
    }
}

impl SegmentTimer {
    /// A timer for the simulator workloads and the legs.
    pub fn new() -> Self {
        Self::with_kernel(RefKernel::new())
    }

    /// A timer for `udp_kv`, whose reference kernel pings the loopback
    /// interface too.
    pub fn with_loopback() -> std::io::Result<Self> {
        Ok(Self::with_kernel(RefKernel::with_loopback()?))
    }

    /// Nanoseconds a probe of this timer's kernel takes on a quiet host.
    pub fn nominal_ns(&self) -> f64 {
        self.kernel.nominal_ns()
    }

    fn with_kernel(mut kernel: RefKernel) -> Self {
        // Warm up.
        kernel.probe();
        let last_probe = kernel.probe();
        SegmentTimer {
            kernel,
            last_probe,
            last_probe_at: Instant::now(),
            probes: vec![last_probe],
        }
    }

    fn probe(&mut self) -> f64 {
        let p = self.kernel.probe();
        self.last_probe = p;
        self.last_probe_at = Instant::now();
        self.probes.push(p);
        p
    }

    /// Time `f`, which runs on the calling thread and does not wait, as
    /// one segment charged in that thread's CPU time.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, Segment) {
        self.time_on(CpuClock::Thread, f)
    }

    /// Time `f` as one segment charged in `clock`'s CPU time.
    pub fn time_on<R>(&mut self, clock: CpuClock, f: impl FnOnce() -> R) -> (R, Segment) {
        let ref_before = if self.last_probe_at.elapsed().as_nanos() > PROBE_STALE_NS {
            self.probe()
        } else {
            self.last_probe
        };
        let cpu_before = cpu_time_ns(clock);
        let started = Instant::now();
        let out = f();
        let wall_ns = started.elapsed().as_nanos() as f64;
        let charged_ns = match (cpu_before, cpu_time_ns(clock)) {
            (Some(before), Some(after)) if after > before => after - before,
            _ => wall_ns,
        };
        let ref_after = self.probe();
        (
            out,
            Segment {
                wall_ns,
                charged_ns,
                ref_before,
                ref_after,
            },
        )
    }
}

// ---- stolen time ------------------------------------------------------------------

/// Nanoseconds the hypervisor has stolen from `cpu` since boot (`steal` of
/// the `cpu<N>` line of `/proc/stat`, in ticks of 10 ms), or `None` when
/// the file does not say.
pub fn stolen_ns(cpu: usize) -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let label = format!("cpu{cpu}");
    let line = stat
        .lines()
        .find(|l| l.split_whitespace().next() == Some(label.as_str()))?;
    // user nice system idle iowait irq softirq steal, after the label.
    let ticks: f64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks * 1e7)
}

/// Charge every segment of one replayed stretch its wall time less its
/// share of `stolen_ns`, the time the hypervisor took from the stretch's
/// CPU while it ran. A tick of `/proc/stat` is as long as a segment, so the
/// stretch's total is shared out in proportion to the time each segment
/// was off the CPU (wall time less the CPU time it holds on entry). Time
/// the threads spend waiting for each other stays charged.
pub fn charge_wall_less_stolen(segments: &mut [Segment], stolen_ns: f64) {
    let off = |s: &Segment| (s.wall_ns - s.charged_ns).max(0.0);
    let off_total: f64 = segments.iter().map(off).sum();
    for s in segments.iter_mut() {
        // Never more than the segment was off the CPU for: the two
        // readings come from different clocks, and a segment is not
        // charged less than the CPU time it used.
        let stolen = if off_total > 0.0 {
            (stolen_ns * off(s) / off_total).min(off(s))
        } else {
            0.0
        };
        s.charged_ns = s.wall_ns - stolen;
    }
}

/// The replays of one stretch, reduced segment by segment.
#[derive(Debug, Clone, Default)]
pub struct Reduced {
    /// Σᵢ minᵣ calibrated(r, i), in seconds.
    pub seconds: f64,
    /// Per replay, the summed calibrated seconds.
    pub per_replay_seconds: Vec<f64>,
    /// Per replay, the summed raw wall seconds.
    pub per_replay_raw_seconds: Vec<f64>,
    /// Share of the replays' wall time that was not charged: stolen by the
    /// hypervisor or, on the simulator, spent off the CPU for any reason.
    pub off_cpu_share: f64,
}

impl Reduced {
    /// Median over the replays of the summed calibrated seconds.
    pub fn median_seconds(&self) -> f64 {
        median(&self.per_replay_seconds)
    }

    /// Median over the replays of the summed raw wall seconds.
    pub fn median_raw_seconds(&self) -> f64 {
        median(&self.per_replay_raw_seconds)
    }
}

/// Reduce the replays of one stretch: segment *i* takes the minimum of its
/// calibrated durations over the replays. Every replay must hold the same
/// number of segments (they replay the same events).
pub fn reduce(replays: &[Vec<Segment>]) -> Reduced {
    let segments = replays.first().map_or(0, Vec::len);
    assert!(
        replays.iter().all(|r| r.len() == segments),
        "replays of one stretch must have equal segment counts"
    );
    let mut out = Reduced::default();
    for i in 0..segments {
        out.seconds += replays
            .iter()
            .map(|r| r[i].calibrated_ns())
            .fold(f64::INFINITY, f64::min)
            * 1e-9;
    }
    let (mut wall_ns, mut charged_ns) = (0.0, 0.0);
    for r in replays {
        let replay_wall_ns: f64 = r.iter().map(|s| s.wall_ns).sum();
        wall_ns += replay_wall_ns;
        charged_ns += r.iter().map(|s| s.charged_ns).sum::<f64>();
        out.per_replay_seconds
            .push(r.iter().map(Segment::calibrated_ns).sum::<f64>() * 1e-9);
        out.per_replay_raw_seconds.push(replay_wall_ns * 1e-9);
    }
    if wall_ns > 0.0 {
        out.off_cpu_share = (1.0 - charged_ns / wall_ns).max(0.0);
    }
    out
}

/// Median of a sample (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linearly interpolated percentile `q ∈ [0, 1]` of an unsorted sample
/// (0 for an empty one).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Percentile of integer-valued data, interpolated inside the unit-wide
/// bin `[k − ½, k + ½]` of each value `k` (the grouped-data formula), so
/// the result moves smoothly when a few samples change bins. `counts[k]` is
/// the number of samples equal to `k`.
pub fn grouped_percentile(counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let want = q.clamp(0.0, 1.0) * total as f64;
    let mut below = 0.0;
    for (k, &c) in counts.iter().enumerate() {
        if c > 0 && below + c as f64 >= want {
            return k as f64 - 0.5 + (want - below) / c as f64;
        }
        below += c as f64;
    }
    counts.len() as f64 - 0.5
}

// ---- /proc readings ----------------------------------------------------------

fn proc_status_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Resident set size in bytes (`VmRSS`).
pub fn rss_bytes() -> u64 {
    proc_status_kib("VmRSS:") * 1024
}

/// Peak resident set size in bytes (`VmHWM`).
pub fn peak_rss_bytes() -> u64 {
    proc_status_kib("VmHWM:") * 1024
}

/// CPU seconds (all threads) this process has used.
pub fn cpu_seconds() -> f64 {
    cpu_time_ns(CpuClock::Process).unwrap_or(0.0) * 1e-9
}

/// Hardware threads the process may run on.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// ---- thread placement ------------------------------------------------------------

/// Words of the kernel's CPU mask (`cpu_set_t`: 1024 bits).
const CPU_MASK_WORDS: usize = 16;

extern "C" {
    // Declared here because the standard library exposes neither call;
    // both are in the C library every Linux Rust binary already links.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, lowest first (empty when the
/// kernel refuses to say).
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..CPU_MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restrict the calling thread (and the threads it spawns from now on) to
/// `cpus`. Returns false when the kernel refuses; the caller then runs
/// unpinned.
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    let mut mask = [0u64; CPU_MASK_WORDS];
    for &cpu in cpus.iter().filter(|c| **c < CPU_MASK_WORDS * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    if mask.iter().all(|w| *w == 0) {
        return false;
    }
    // SAFETY: `mask` is a live buffer of exactly the size passed, and pid 0
    // names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

// ---- counting allocator --------------------------------------------------------

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator with three counters that run only while
/// [`set_counting`] is on (the traced pass), so untraced runs pay one
/// relaxed load per call.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            FREED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: `ptr` and `layout` are the caller's, passed through unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            FREED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, passed
        // through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switch the allocator counters on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// A reading of the allocator counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocSnapshot {
    /// Allocation calls (alloc, alloc_zeroed, realloc).
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub alloc_bytes: u64,
    /// Bytes released (dealloc and the old half of realloc).
    pub freed_bytes: u64,
}

impl AllocSnapshot {
    /// Read the counters now.
    pub fn now() -> Self {
        AllocSnapshot {
            allocs: ALLOCS.load(Ordering::Relaxed),
            alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
            freed_bytes: FREED_BYTES.load(Ordering::Relaxed),
        }
    }

    /// Counter growth since `earlier`.
    pub fn since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs - earlier.allocs,
            alloc_bytes: self.alloc_bytes - earlier.alloc_bytes,
            freed_bytes: self.freed_bytes - earlier.freed_bytes,
        }
    }

    /// Net growth of live heap bytes over the interval this delta covers.
    pub fn live_growth(&self) -> f64 {
        self.alloc_bytes as f64 - self.freed_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(ns: f64, before: f64, after: f64) -> Segment {
        Segment {
            wall_ns: ns,
            charged_ns: ns,
            ref_before: before,
            ref_after: after,
        }
    }

    #[test]
    fn calibration_is_identity_at_nominal_speed() {
        let s = seg(1e6, 1.0, 1.0);
        assert!((s.calibrated_ns() - 1e6).abs() < 1e-6);
        let slow = seg(1.2e6, 1.1, 1.3);
        assert!((slow.calibrated_ns() - 1e6).abs() < 1e-3);
    }

    #[test]
    fn reduce_takes_the_per_segment_minimum() {
        let n = 1.0;
        let a = vec![seg(2e9, n, n), seg(1e9, n, n), seg(1e9, n, n)];
        let b = vec![seg(1e9, n, n), seg(3e9, n, n), seg(1e9, n, n)];
        let r = reduce(&[a, b]);
        assert!((r.seconds - 3.0).abs() < 1e-9, "{}", r.seconds);
        assert_eq!(r.per_replay_seconds, [4.0, 5.0]);
    }

    #[test]
    fn time_off_the_cpu_is_not_charged_to_a_thread_that_never_waits() {
        let n = 1.0;
        let mut stolen = seg(3e9, n, n);
        stolen.charged_ns = 1e9;
        let r = reduce(&[vec![stolen]]);
        assert!((r.seconds - 1.0).abs() < 1e-9, "{}", r.seconds);
        assert!((r.off_cpu_share - 2.0 / 3.0).abs() < 1e-9);
        assert!((r.median_raw_seconds() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn stolen_time_is_shared_out_by_time_off_the_cpu_and_waiting_stays_charged() {
        let n = 1.0;
        // Three segments of 10 ms wall: the process was off the CPU for
        // 1, 5 and 0 ms of them, and /proc/stat says 3 ms were stolen.
        let mut segs = vec![seg(10e6, n, n), seg(10e6, n, n), seg(10e6, n, n)];
        segs[0].charged_ns = 9e6;
        segs[1].charged_ns = 5e6;
        charge_wall_less_stolen(&mut segs, 3e6);
        assert!((segs[0].charged_ns - 9.5e6).abs() < 1.0, "{:?}", segs[0]);
        assert!((segs[1].charged_ns - 7.5e6).abs() < 1.0, "{:?}", segs[1]);
        assert!((segs[2].charged_ns - 10e6).abs() < 1.0, "{:?}", segs[2]);
        // Nothing stolen: every segment is charged its wall time, however
        // long its threads waited.
        let mut waiting = vec![seg(10e6, n, n)];
        waiting[0].charged_ns = 2e6;
        charge_wall_less_stolen(&mut waiting, 0.0);
        assert_eq!(waiting[0].charged_ns, 10e6);
        // More reported stolen than the stretch was off the CPU for: a
        // segment is never charged less than its CPU time.
        let mut busy = vec![seg(10e6, n, n)];
        busy[0].charged_ns = 9e6;
        charge_wall_less_stolen(&mut busy, 50e6);
        assert!((busy[0].charged_ns - 9e6).abs() < 1.0);
    }

    #[test]
    fn proc_stat_names_this_cpu() {
        if let Some(&cpu) = allowed_cpus().first() {
            assert!(stolen_ns(cpu).is_some_and(|ns| ns >= 0.0));
        }
        assert!(stolen_ns(100_000).is_none());
    }

    #[test]
    fn reference_cycle_visits_every_slot() {
        let next = single_cycle(REF_SLOTS, 7);
        let mut at = 0usize;
        let mut steps = 0usize;
        loop {
            at = next[at] as usize;
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, REF_SLOTS);
    }

    #[test]
    fn a_probe_takes_time_and_counts_no_allocation() {
        let mut kernel = RefKernel::with_loopback().expect("two loopback sockets");
        assert_eq!(
            kernel.nominal_ns(),
            REF_NOMINAL_NS + REF_LOOPBACK_NOMINAL_NS
        );
        set_counting(true);
        let before = AllocSnapshot::now();
        let slowdown = kernel.probe();
        let counted = AllocSnapshot::now().since(&before);
        set_counting(false);
        assert!(slowdown > 0.0);
        // Other tests of this binary may allocate meanwhile, but not by
        // the thousand.
        assert!(counted.allocs < REF_CHURN_VECTORS as u64 / 2, "{counted:?}");
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let mut timer = SegmentTimer::new();
        let (_, seg) = timer.time(|| {
            let mut x = 1u64;
            for i in 0..2_000_000u64 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
            }
            x
        });
        assert!(
            seg.charged_ns > 0.0 && seg.charged_ns <= seg.wall_ns * 1.05,
            "{seg:?}"
        );
    }

    #[test]
    fn grouped_percentile_interpolates_inside_bins() {
        // 10 samples at 4, 10 at 5: the median sits on the bin edge 4.5.
        let mut counts = vec![0u64; 8];
        counts[4] = 10;
        counts[5] = 10;
        assert!((grouped_percentile(&counts, 0.5) - 4.5).abs() < 1e-12);
        // Moving one sample from 4 to 5 moves the median by 1/22 of a bin.
        counts[4] = 9;
        counts[5] = 11;
        let m = grouped_percentile(&counts, 0.5);
        assert!(m > 4.5 && m < 4.6, "{m}");
    }

    #[test]
    fn percentile_interpolates() {
        assert_eq!(percentile(&[1.0, 3.0], 0.5), 2.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 1.0), 5.0);
    }
}
