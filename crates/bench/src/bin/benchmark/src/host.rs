//! The host-speed probe: a fixed piece of CPU work, independent of
//! narada, timed at idle points through every run, so that timings can
//! be stated at the reference host's speed.
//!
//! Shared hosts drift: the same job's latency moves by 15–20% over ten
//! minutes as other tenants come and go, and swings for a second or two
//! at a time. The probe, interleaved with the jobs, slows with them. It
//! shares no code with the program under test, and each round checks
//! that nothing else in the process ran while it did — the in-process
//! server included — so a change to narada cannot slow the probe by
//! running beside it. (It does share the process's allocator.)

use crate::{sys, LOAD_THREADS};
use narada_vm::rng::SplitMix64;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// The probe's mean round time, in ms, on the reference host (2-vCPU VM,
/// Intel Xeon) when the benchmark was defined: normalised timings read
/// as that host would have run them.
pub const REFERENCE_PROBE_MS: f64 = 6.5;

/// Probe steps: about 6 ms of work on the reference host.
const STEPS: usize = 150_000;

/// The most CPU the rest of the process may use during the rounds, as a
/// share of the probe's own CPU time over all of them. An idle server's
/// timed waits cost microseconds a round (the reference host saw at most
/// 0.3%); a server that polled or spun while idle would use CPU in every
/// round, slow the probe, and so scale every reported time down. A
/// single round may still catch a thread that a workload joined just
/// before finishing its exit.
const OTHER_CPU_SHARE: f64 = 0.03;

/// An interpreter-shaped loop: data-dependent loads and stores over a
/// small heap, ordered-map lookups and inserts, and short-lived
/// allocations — the operations the VM, the detectors and the
/// synthesizer spend their time in. Of the probe shapes tried (this one,
/// and variants without the map, without the allocations, or over a
/// 4 MiB heap), this one's slowdowns tracked the workloads' most closely
/// from run to run on the reference host.
fn work(seed: u64) -> u64 {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut heap: Vec<u64> = (0..4096).map(|_| rng.next_u64()).collect();
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    let mut acc = 0u64;
    for step in 0..STEPS {
        let i = (acc as usize ^ step) & 4095;
        let v = heap[i];
        match v % 4 {
            0 => heap[i] = v.rotate_left(7) ^ acc,
            1 => {
                map.insert(v & 1023, acc);
            }
            2 => acc = acc.wrapping_add(map.get(&(v & 1023)).copied().unwrap_or(v)),
            _ => {
                let boxed = black_box(vec![v, acc]);
                acc ^= boxed[0].wrapping_add(boxed[1]);
            }
        }
        acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(v);
    }
    acc
}

/// Probe rounds taken over one run.
#[derive(Debug, Default, Clone)]
pub struct HostProbe {
    /// When each round started.
    at: Vec<Instant>,
    /// Each round's time, ms: the mean of its per-thread times.
    pub rounds_ms: Vec<f64>,
    /// CPU the rest of the process used during each round, ms.
    pub other_cpu_ms: Vec<f64>,
    /// The probe's own CPU time in each round, ms.
    own_cpu_ms: Vec<f64>,
}

impl HostProbe {
    /// Runs one round — the probe on every load thread at once, as the
    /// workloads load the host — while the program is idle.
    ///
    /// The threads start and finish together at barriers, and each reads
    /// the process's CPU clock across the round; the widest of those
    /// windows, which spans every probe thread's work, less the probe
    /// threads' own CPU, is what the rest of the process used meanwhile
    /// (thread start-up and join stay outside).
    pub fn round(&mut self) {
        self.at.push(Instant::now());
        let barrier = Barrier::new(LOAD_THREADS);
        // Per thread: (wall ms, own CPU ms, process CPU ms over the round).
        let times: Vec<(f64, f64, f64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..LOAD_THREADS as u64)
                .map(|t| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        let process = sys::cpu_ms();
                        let (start, cpu) = (Instant::now(), sys::thread_cpu_ms());
                        black_box(work(black_box(t)));
                        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
                        let own = sys::thread_cpu_ms() - cpu;
                        barrier.wait();
                        (wall_ms, own, sys::cpu_ms() - process)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe thread"))
                .collect()
        });
        let own: f64 = times.iter().map(|t| t.1).sum();
        let process = times.iter().map(|t| t.2).fold(0.0, f64::max);
        self.rounds_ms
            .push(times.iter().map(|t| t.0).sum::<f64>() / times.len() as f64);
        self.other_cpu_ms.push(process - own);
        self.own_cpu_ms.push(own);
    }

    /// The multiplier that states a job that started at `start` and took
    /// `ms` at the reference host's speed: the reference round time over
    /// the mean time of the rounds taken within one job-length either
    /// side of the job, always counting the last round before it and the
    /// first after it (1.0 when no round ran).
    ///
    /// A short job is scaled by the host's speed in the moment it ran,
    /// which the rounds beside it see; a second-long job spans several
    /// slow and fast spells, so it is scaled by the rounds over as long
    /// a stretch on either side.
    pub fn factor(&self, start: Instant, ms: f64) -> f64 {
        let len = Duration::from_secs_f64(ms.max(0.0) / 1e3);
        let end = start + len;
        // Rounds are in time order: [lo, hi) is the window.
        let lo = self
            .at
            .partition_point(|&t| t + len < start)
            .min(self.at.partition_point(|&t| t <= start).saturating_sub(1));
        let hi = self
            .at
            .partition_point(|&t| t <= end + len)
            .max(self.at.partition_point(|&t| t < end) + 1)
            .min(self.at.len());
        match lo < hi {
            true => {
                let window = &self.rounds_ms[lo..hi];
                REFERENCE_PROBE_MS * window.len() as f64 / window.iter().sum::<f64>()
            }
            false => 1.0,
        }
    }

    /// The most CPU the rest of the process used in any round, ms.
    pub fn max_other_cpu_ms(&self) -> f64 {
        self.other_cpu_ms.iter().copied().fold(0.0, f64::max)
    }

    /// A failure line when the rest of the process was busy while the
    /// probe ran, so the host speed read from it cannot be trusted.
    pub fn busy(&self) -> Option<String> {
        let other: f64 = self.other_cpu_ms.iter().sum();
        let own: f64 = self.own_cpu_ms.iter().sum();
        (other > OTHER_CPU_SHARE * own).then(|| {
            format!(
                "host probe: the rest of the process used {other:.3} ms of CPU beside the probe's {own:.3} ms over {} rounds",
                self.rounds_ms.len()
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_work_is_deterministic_and_rounds_record() {
        assert_eq!(work(1), work(1));
        assert_ne!(work(1), work(2));
        let mut p = HostProbe::default();
        assert_eq!(p.factor(Instant::now(), 1.0), 1.0);
        p.round();
        let start = Instant::now();
        p.round();
        assert_eq!(p.rounds_ms.len(), 2);
        assert!(p.factor(start, 0.0) > 0.0);
    }

    #[test]
    fn factor_reads_the_rounds_around_the_job() {
        // Rounds every 10 ms from t0, taking 1, 2, ..., 11 ms.
        let t0 = Instant::now();
        let p = HostProbe {
            at: (0..=10)
                .map(|i| t0 + Duration::from_millis(10 * i))
                .collect(),
            rounds_ms: (1..=11).map(f64::from).collect(),
            ..HostProbe::default()
        };
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let near = |f: f64, round_ms: f64| (f - REFERENCE_PROBE_MS / round_ms).abs() < 1e-9;
        // A 1 ms job at 45 ms: the rounds at 40 and 50 ms.
        assert!(near(p.factor(at(45), 1.0), 5.5));
        // A 30 ms job at 45 ms: the rounds from 15 to 105 ms, 20..=100.
        assert!(near(p.factor(at(45), 30.0), 7.0));
        // After the last round: that round alone.
        assert!(near(p.factor(at(101), 1.0), 11.0));
    }

    #[test]
    fn a_busy_process_fails_the_probe() {
        let mut p = HostProbe::default();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            // A thread that spins while the round runs, as a server that
            // polled while idle would.
            s.spawn(|| {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    black_box(work(0));
                }
            });
            p.round();
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        assert!(p.busy().is_some());
    }
}
