//! How fast the host is right now, measured with a yardstick.
//!
//! Each core of the shared host this benchmark runs on flips between a
//! fast and a slow state (about 1.4× apart) every second or so, and the
//! share of slow seconds drifts between none and all over minutes (README,
//! "Host-speed correction"). No statistic of wall times taken inside one
//! run survives a run that falls wholly into a slow stretch. So the harness
//! times a fixed piece of its own work — the yardstick — on the same core,
//! beside or right around what it times, and reports the compute-bound
//! end-to-end timings divided by how much slower than nominal the yardstick
//! ran. The yardstick is harness code only: no change to `hcl` can move it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What one yardstick reading takes on this host when nothing else
/// competes for the core. Only fixes the unit: corrected seconds are
/// seconds on a host where the yardstick takes this long.
const NOMINAL_NS: f64 = 6_500_000.0;

/// Pause between the readings taken beside timed work.
const BESIDE_PERIOD: Duration = Duration::from_millis(150);

/// Readings up to this far outside a timed interval still describe it.
const PAD_NS: u64 = 300_000_000;

/// Vertices and arcs per vertex of the yardstick's private graph.
const YARD_VERTICES: usize = 100_000;
const YARD_DEGREE: usize = 5;

/// Rounds of the arithmetic part; sized so that it is about a sixth of a
/// quiet reading (the traversal is the rest). A slow core slows the
/// traversal by about 1.3× and the arithmetic by up to 2×; the program's
/// own compute-bound work lies between, near 1.4×, and so does this mix.
const YARD_ALU_ROUNDS: u64 = 450_000;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// `CLOCK_THREAD_CPUTIME_ID`.
const THREAD_CPU_CLOCK: i32 = 3;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// CPU time the calling thread has used, in nanoseconds. Unlike wall time
/// it does not grow while another thread has the core, so a reading taken
/// beside the work it describes is not stretched by that work.
fn thread_cpu_ns() -> f64 {
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a writable `timespec` and the clock id is valid on
    // every Linux; the call writes nothing else.
    let rc = unsafe { clock_gettime(THREAD_CPU_CLOCK, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    t.sec as f64 * 1e9 + t.nsec as f64
}

/// The CPUs (numbers below 64) the calling thread may run on, as a bit mask;
/// 0 when the kernel will not say.
fn allowed_mask() -> u64 {
    let mut mask = 0u64;
    // SAFETY: pid 0 is the calling thread and `mask` is 8 writable bytes,
    // the size passed.
    let rc = unsafe { sched_getaffinity(0, 8, &mut mask) };
    if rc == 0 {
        mask
    } else {
        0
    }
}

/// Restricts the calling thread (and what it spawns from now on) to the
/// CPUs in `mask`.
fn set_mask(mask: u64) -> bool {
    // SAFETY: pid 0 is the calling thread and `mask` is 8 readable bytes,
    // the size passed.
    mask != 0 && unsafe { sched_setaffinity(0, 8, &mask) == 0 }
}

/// A timed interval on the run's clock (nanoseconds since its epoch), and
/// the core its work was pinned to, if it was.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timed {
    pub from_ns: u64,
    pub to_ns: u64,
    pub core: Option<usize>,
}

impl Timed {
    pub fn secs(&self) -> f64 {
        (self.to_ns - self.from_ns) as f64 / 1e9
    }
}

/// Fixed work that behaves like the program under test: a breadth-first
/// traversal of a private random graph (memory latency), then a stretch of
/// dependent multiplications over a small table (arithmetic throughput).
struct Yardstick {
    offsets: Vec<u32>,
    arcs: Vec<u32>,
}

struct Scratch {
    dist: Vec<u32>,
    queue: Vec<u32>,
    table: [u64; 512],
}

impl Yardstick {
    fn new() -> Self {
        // Vertex v > 0 links to YARD_DEGREE earlier vertices chosen by a
        // private generator, so the graph is connected and never changes.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut pairs = Vec::with_capacity(YARD_VERTICES * YARD_DEGREE * 2);
        for v in 1..YARD_VERTICES as u64 {
            for _ in 0..YARD_DEGREE {
                let u = next() % v;
                pairs.push((u as u32, v as u32));
                pairs.push((v as u32, u as u32));
            }
        }
        pairs.sort_unstable();
        let mut offsets = vec![0u32; YARD_VERTICES + 1];
        for &(u, _) in &pairs {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..YARD_VERTICES {
            offsets[i + 1] += offsets[i];
        }
        Yardstick {
            offsets,
            arcs: pairs.into_iter().map(|(_, v)| v).collect(),
        }
    }

    fn scratch() -> Scratch {
        Scratch {
            dist: vec![0; YARD_VERTICES],
            queue: Vec::with_capacity(YARD_VERTICES),
            table: [0x9E37_79B9_7F4A_7C15; 512],
        }
    }

    /// One reading: the CPU nanoseconds the fixed work takes right now.
    fn run(&self, s: &mut Scratch) -> f64 {
        let t = thread_cpu_ns();
        s.dist.fill(u32::MAX);
        s.queue.clear();
        s.queue.push(0);
        s.dist[0] = 0;
        let mut head = 0;
        while head < s.queue.len() {
            let u = s.queue[head] as usize;
            head += 1;
            let d = s.dist[u] + 1;
            for &v in &self.arcs[self.offsets[u] as usize..self.offsets[u + 1] as usize] {
                if s.dist[v as usize] == u32::MAX {
                    s.dist[v as usize] = d;
                    s.queue.push(v);
                }
            }
        }
        let mut acc = [1u64, 2, 3, 4];
        for round in 0..YARD_ALU_ROUNDS {
            let base = (round as usize * 4) % s.table.len();
            for (a, x) in acc.iter_mut().zip(&mut s.table[base..base + 4]) {
                *a = a
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(*x ^ round);
                *x = x.rotate_left(7) ^ *a;
            }
        }
        std::hint::black_box((&s.dist, acc));
        thread_cpu_ns() - t
    }
}

struct Reading {
    at_ns: u64,
    core: usize,
    ns: f64,
}

/// Takes yardstick readings, on one core or on all at once, and answers
/// how slow the host was during an interval.
pub struct Meter {
    yard: Yardstick,
    epoch: Instant,
    /// One single-CPU mask per core the process may use, and their union.
    cores: Vec<u64>,
    all: u64,
    readings: Mutex<Vec<Reading>>,
}

impl Meter {
    /// `epoch` is the zero of every [`Timed`] handed to [`Meter::slowdown`].
    pub fn new(epoch: Instant) -> Self {
        let all = allowed_mask();
        let mut cores: Vec<u64> = (0..64)
            .map(|b| 1u64 << b)
            .filter(|m| all & m != 0)
            .collect();
        if cores.is_empty() {
            // Affinity is not available: one unpinned "core".
            cores.push(0);
        }
        Meter {
            yard: Yardstick::new(),
            epoch,
            cores,
            all,
            readings: Mutex::new(Vec::new()),
        }
    }

    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    fn ns(&self, t: Instant) -> u64 {
        (t - self.epoch).as_nanos() as u64
    }

    fn record(&self, core: usize, scratch: &mut Scratch) {
        let at_ns = self.ns(Instant::now());
        let ns = self.yard.run(scratch);
        self.readings
            .lock()
            .expect("a meter thread panicked")
            .push(Reading { at_ns, core, ns });
    }

    /// Takes one reading now on `core`, or on every core at once.
    pub fn read(&self, core: Option<usize>) {
        let cores = match core {
            Some(c) => c..c + 1,
            None => 0..self.cores.len(),
        };
        std::thread::scope(|scope| {
            for c in cores {
                scope.spawn(move || {
                    set_mask(self.cores[c]);
                    self.record(c, &mut Yardstick::scratch());
                });
            }
        });
    }

    /// Runs `work` with the calling thread pinned to `core` — a child
    /// process it starts inherits the pin — then lifts the pin.
    pub fn pinned<T>(&self, core: usize, work: impl FnOnce() -> T) -> T {
        set_mask(self.cores[core]);
        let out = work();
        set_mask(self.all);
        out
    }

    /// Times `work` (which waits for a child process, or runs on the
    /// calling thread) with readings on `core` — on every core when `None`
    /// — from just before it starts to just after it ends, one each
    /// [`BESIDE_PERIOD`]. The readings share the core with the work; they
    /// count CPU time, so the work does not stretch them, and they cost
    /// the work a few percent, the same on every commit.
    pub fn timed<T>(
        &self,
        core: Option<usize>,
        work: impl FnOnce() -> Result<T, String>,
    ) -> Result<(Timed, T), String> {
        let cores = match core {
            Some(c) => c..c + 1,
            None => 0..self.cores.len(),
        };
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let meters: Vec<_> = cores
                .map(|c| {
                    let stop = &stop;
                    scope.spawn(move || {
                        set_mask(self.cores[c]);
                        let mut scratch = Yardstick::scratch();
                        loop {
                            self.record(c, &mut scratch);
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            std::thread::park_timeout(BESIDE_PERIOD);
                        }
                    })
                })
                .collect();
            // Let the first readings finish on an idle core.
            std::thread::sleep(Duration::from_millis(10));
            let from = Instant::now();
            let out = work();
            let to = Instant::now();
            stop.store(true, Ordering::Relaxed);
            for m in &meters {
                m.thread().unpark();
            }
            let timed = Timed {
                from_ns: self.ns(from),
                to_ns: self.ns(to),
                core,
            };
            out.map(|out| (timed, out))
        })
    }

    /// Lowest, median and highest slowdown over every reading of the run,
    /// and how many readings there were.
    pub fn summary(&self) -> (f64, f64, f64, usize) {
        let readings = self.readings.lock().expect("a meter thread panicked");
        let factors = crate::stats::sorted(
            &readings
                .iter()
                .map(|r| r.ns / NOMINAL_NS)
                .collect::<Vec<_>>(),
        );
        let at = |q| crate::stats::percentile(&factors, q).unwrap_or(1.0);
        (at(0.0), at(0.5), at(1.0), factors.len())
    }

    /// How much slower than nominal the yardstick ran around `interval`, on
    /// its core or on average over all: the factor its duration is divided
    /// by. Falls back to the nearest reading when none lies close.
    pub fn slowdown(&self, interval: &Timed) -> f64 {
        let readings = self.readings.lock().expect("a meter thread panicked");
        let on_core = |r: &&Reading| interval.core.is_none_or(|c| r.core == c);
        let (lo, hi) = (
            interval.from_ns.saturating_sub(PAD_NS),
            interval.to_ns + PAD_NS,
        );
        let near: Vec<f64> = readings
            .iter()
            .filter(on_core)
            .filter(|r| (lo..=hi).contains(&r.at_ns))
            .map(|r| r.ns)
            .collect();
        let ns = if near.is_empty() {
            let mid = (interval.from_ns + interval.to_ns) / 2;
            readings
                .iter()
                .min_by_key(|r| r.at_ns.abs_diff(mid))
                .map_or(NOMINAL_NS, |r| r.ns)
        } else {
            crate::stats::mean(&near)
        };
        ns / NOMINAL_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yardstick_visits_every_vertex_and_repeats_its_work() {
        let yard = Yardstick::new();
        assert_eq!(yard.arcs.len(), (YARD_VERTICES - 1) * YARD_DEGREE * 2);
        let mut scratch = Yardstick::scratch();
        yard.run(&mut scratch);
        assert!(scratch.dist.iter().all(|&d| d != u32::MAX));
        let first: Vec<u32> = scratch.dist.clone();
        yard.run(&mut scratch);
        assert_eq!(first, scratch.dist);
    }

    #[test]
    fn slowdown_uses_readings_of_the_interval_and_its_core() {
        let meter = Meter::new(Instant::now());
        let s = 1_000_000_000u64;
        {
            let mut readings = meter.readings.lock().unwrap();
            for (at_ns, core, factor) in [
                (s, 0, 1.0),
                (2 * s, 0, 2.0),
                (2 * s, 1, 4.0),
                (9 * s, 0, 8.0),
            ] {
                readings.push(Reading {
                    at_ns,
                    core,
                    ns: factor * NOMINAL_NS,
                });
            }
        }
        let span = |from: u64, to: u64, core| Timed {
            from_ns: from * s,
            to_ns: to * s,
            core,
        };
        assert_eq!(meter.slowdown(&span(1, 2, Some(0))), 1.5);
        assert_eq!(meter.slowdown(&span(2, 2, Some(1))), 4.0);
        assert_eq!(meter.slowdown(&span(2, 2, None)), 3.0);
        // Nothing within reach: the nearest reading stands in.
        assert_eq!(meter.slowdown(&span(6, 7, Some(1))), 8.0);
    }
}
