//! Work-sharded deterministic parallel execution.
//!
//! The Narada pipeline is embarrassingly parallel at three levels — per
//! class (corpus synthesis), per racing pair (context derivation), and per
//! schedule trial (detection) — and all three funnel through the one
//! primitive here: [`parallel_map_with`], an index-claiming fork/join
//! over a frozen work slice with lazily created per-worker state
//! ([`parallel_map`] is its stateless form).
//!
//! ## Why results are thread-count-invariant
//!
//! Three properties combine to make output at `--threads N` byte-identical
//! to `--threads 1`:
//!
//! 1. **frozen input** — work items live in an immutable slice fixed
//!    before any worker starts; workers claim *indices* from an
//!    [`AtomicUsize`], so scheduling affects only *who* computes an item,
//!    never *what* the item is;
//! 2. **pure jobs** — each job is a function of its item and index alone.
//!    Stochastic jobs derive their RNG seed from job identity
//!    (`derive_seed(base, &[class, pair, trial])`,
//!    see [`narada_vm::rng`]), never from a shared generator whose
//!    consumption order would depend on scheduling;
//! 3. **index-ordered merge** — workers buffer `(index, result)` locally
//!    and the merge writes results back by index, so the output vector is
//!    independent of completion order.
//!
//! A worker panic is re-raised on the caller's thread after the scope
//! joins, preserving the usual test-failure behavior.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Number of workers the host can usefully run (`available_parallelism`,
/// 1 when the query fails).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolves a requested thread count: `0` means "use every core"
/// (the CLI's `--threads` default), anything else is taken literally.
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        available_threads()
    } else {
        requested
    }
}

/// Applies `f` to every item of `items`, fanning out across at most
/// `threads` workers (`0` = all cores), and returns the results **in item
/// order** regardless of which worker computed what.
///
/// `f` receives `(index, &item)` so stochastic jobs can derive per-job
/// seeds from the index. With `threads <= 1` (or fewer than two items) the
/// map runs inline on the caller's thread — the sequential and parallel
/// paths produce identical output by construction, which the
/// `parallel_determinism` regression suite locks in.
pub fn parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_with(threads, items, || (), |_, i, t| f(i, t))
}

/// [`parallel_map`] with per-worker state: `init` runs once per worker
/// that actually claims an item, and `f` receives that worker's state
/// alongside `(index, &item)`. The fork explorer uses it to materialize
/// one machine per worker and rewind it between probes instead of
/// rebuilding per probe.
///
/// Thread-count invariance additionally requires that `f`'s result
/// depend only on `(index, item)` and a state `init()` would produce —
/// i.e. `f` restores whatever state it dirties. With `threads <= 1` or
/// fewer than two items the map runs inline on one state (created only
/// if there is an item), the degenerate case of the same contract.
pub fn parallel_map_with<T, R, S, G, F>(threads: usize, items: &[T], init: G, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    G: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let threads = effective_threads(threads).min(items.len());
    if threads <= 1 {
        if items.is_empty() {
            return Vec::new();
        }
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut state, i, t))
            .collect();
    }

    // Each worker's buffered `(index, result)` pairs, or its panic payload.
    type Shard<R> = Result<Vec<(usize, R)>, Box<dyn std::any::Any + Send>>;

    // Lock-free index-claiming queue over the frozen slice.
    let next = AtomicUsize::new(0);
    let shards: Vec<Shard<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut state: Option<S> = None;
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        let s = state.get_or_insert_with(&init);
                        local.push((i, f(s, i, &items[i])));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(std::thread::ScopedJoinHandle::join)
            .collect()
    });

    let mut merged: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
    for shard in shards {
        match shard {
            Ok(results) => {
                for (i, r) in results {
                    merged[i] = Some(r);
                }
            }
            Err(p) => panic = Some(p),
        }
    }
    if let Some(p) = panic {
        std::panic::resume_unwind(p);
    }
    merged
        .into_iter()
        .map(|r| r.expect("every index claimed exactly once"))
        .collect()
}

/// Wall-clock breakdown of one pipeline run, per stage, plus the job
/// throughput of the sharded stages — the measurement the `--threads`
/// speedup claims are checked against (`results/`).
///
/// Since the telemetry layer landed this is a **derived view**: the
/// pipeline records stage wall-clocks and job counts into the
/// [`narada_obs::Metrics`] registry as it runs, and
/// [`StageTimings::from_metrics`] projects the registry into this struct
/// for rendering and for callers that predate the registry. The struct no
/// longer carries any bookkeeping of its own.
#[derive(Debug, Clone, Default)]
pub struct StageTimings {
    /// Effective worker count the sharded stages ran with.
    pub threads: usize,
    /// Stage 1 — sequential seed-suite execution and tracing.
    pub trace: Duration,
    /// Stage 1b — the Access Analyzer over the recorded trace.
    pub analyze: Duration,
    /// Stage 2a — the Pair Generator.
    pub pairs: Duration,
    /// Static pre-screening of generated pairs (zero when the screener
    /// did not run).
    pub screen: Duration,
    /// Pairs the screener discharged before derivation (zero unless
    /// `--static-filter` pruned something).
    pub pairs_pruned: usize,
    /// Stage 2b/3 — context derivation + dedup (sharded over pairs).
    pub derive: Duration,
    /// Number of derivation jobs (racing pairs processed).
    pub derive_jobs: usize,
    /// Filled in by detection drivers: wall-clock and job count of the
    /// sharded detector trials, when a detect pass ran.
    pub detect: Option<(Duration, usize)>,
}

impl StageTimings {
    /// Projects the metrics registry into the legacy per-stage view.
    /// `threads` is passed separately because the effective worker count
    /// is run *environment*, not a metric (the registry must snapshot
    /// identically at any `--threads` value).
    pub fn from_metrics(metrics: &narada_obs::Metrics, threads: usize) -> StageTimings {
        let wall = |stage: &str| Duration::from_nanos(metrics.scalar(&format!("{stage}.wall_ns")));
        let mut t = StageTimings {
            threads,
            trace: wall("stage.trace"),
            analyze: wall("stage.analyze"),
            pairs: wall("stage.pairs"),
            screen: wall("stage.screen"),
            pairs_pruned: metrics.scalar("pairs.pruned") as usize,
            derive: wall("stage.derive"),
            derive_jobs: metrics.scalar("derive.jobs") as usize,
            detect: None,
        };
        let detect_wall = wall("stage.detect");
        let detect_jobs = metrics.scalar("detect.jobs") as usize;
        if detect_wall != Duration::ZERO || detect_jobs > 0 {
            t.detect = Some((detect_wall, detect_jobs));
        }
        t
    }

    /// Sum of the recorded stage wall-clocks.
    pub fn total(&self) -> Duration {
        self.trace
            + self.analyze
            + self.pairs
            + self.screen
            + self.derive
            + self.detect.map(|(d, _)| d).unwrap_or_default()
    }

    /// Derivation throughput in jobs/second.
    pub fn derive_jobs_per_sec(&self) -> f64 {
        jobs_per_sec(self.derive_jobs, self.derive)
    }

    /// Records the detect stage (called by detection drivers after the
    /// fact — synthesis itself never runs detectors).
    pub fn record_detect(&mut self, wall: Duration, jobs: usize) {
        self.detect = Some((wall, jobs));
    }

    /// Multi-line human-readable breakdown, as printed by the CLI.
    pub fn render(&self) -> String {
        let mut out = format!("stage timings (threads = {}):\n", self.threads);
        let line = |name: &str, d: Duration| format!("  {name:<8} {:>9.3}s\n", d.as_secs_f64());
        out.push_str(&line("trace", self.trace));
        out.push_str(&line("analyze", self.analyze));
        out.push_str(&line("pairs", self.pairs));
        if self.screen != Duration::ZERO || self.pairs_pruned > 0 {
            out.push_str(&format!(
                "  {:<8} {:>9.3}s  ({} pairs pruned)\n",
                "screen",
                self.screen.as_secs_f64(),
                self.pairs_pruned,
            ));
        }
        out.push_str(&format!(
            "  {:<8} {:>9.3}s  ({} jobs, {:.0} jobs/s)\n",
            "derive",
            self.derive.as_secs_f64(),
            self.derive_jobs,
            self.derive_jobs_per_sec(),
        ));
        if let Some((wall, jobs)) = self.detect {
            out.push_str(&format!(
                "  {:<8} {:>9.3}s  ({} jobs, {:.0} jobs/s)\n",
                "detect",
                wall.as_secs_f64(),
                jobs,
                jobs_per_sec(jobs, wall),
            ));
        }
        out.push_str(&format!(
            "  {:<8} {:>9.3}s\n",
            "total",
            self.total().as_secs_f64()
        ));
        out
    }
}

fn jobs_per_sec(jobs: usize, wall: Duration) -> f64 {
    let secs = wall.as_secs_f64();
    if secs > 0.0 {
        jobs as f64 / secs
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_item_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 8] {
            let out = parallel_map(threads, &items, |i, &x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..57).map(|_| AtomicUsize::new(0)).collect();
        parallel_map(8, &(0..57).collect::<Vec<usize>>(), |_, &x| {
            counters[x].fetch_add(1, Ordering::Relaxed)
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = vec![];
        assert!(parallel_map(8, &empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(8, &[7u8], |_, &x| x), vec![7]);
    }

    #[test]
    fn zero_threads_means_all_cores() {
        assert_eq!(effective_threads(0), available_threads());
        assert_eq!(effective_threads(3), 3);
        let out = parallel_map(0, &(0..32).collect::<Vec<usize>>(), |_, &x| x + 1);
        assert_eq!(out, (1..33).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            parallel_map(4, &(0..16).collect::<Vec<usize>>(), |_, &x| {
                assert!(x != 9, "boom");
                x
            })
        });
        assert!(r.is_err(), "panic in a worker must reach the caller");
    }

    /// The stateful map must equal the sequential map for
    /// state-restoring jobs, at every thread count.
    #[test]
    fn stateful_map_is_order_and_thread_invariant() {
        let items: Vec<u64> = (0..37).collect();
        let run = |threads: usize| {
            parallel_map_with(
                threads,
                &items,
                || 0u64, // per-worker scratch the job restores
                |scratch, i, &x| {
                    *scratch += 1; // dirty…
                    let r = x * x + i as u64;
                    *scratch -= 1; // …and restore
                    r
                },
            )
        };
        let seq = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), seq, "threads={threads}");
        }
        assert_eq!(seq[5], 25 + 5);
    }

    #[test]
    fn stateful_map_empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        let calls = AtomicUsize::new(0);
        let out = parallel_map_with(
            8,
            &empty,
            || {
                calls.fetch_add(1, Ordering::Relaxed);
            },
            |_, i, &x| (i, x),
        );
        assert!(out.is_empty());
        assert_eq!(
            calls.load(Ordering::Relaxed),
            0,
            "init never runs with no items"
        );
        let one = parallel_map_with(8, &[7u32], || (), |_, i, &x| (i, x));
        assert_eq!(one, vec![(0, 7)]);
    }

    #[test]
    fn stateful_map_propagates_panics() {
        let items: Vec<u32> = (0..8).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map_with(
                4,
                &items,
                || (),
                |_, i, _| {
                    assert!(i != 3, "boom");
                    i
                },
            )
        }));
        assert!(result.is_err());
    }

    #[test]
    fn timings_render_mentions_all_stages() {
        let mut t = StageTimings {
            threads: 4,
            derive_jobs: 10,
            screen: Duration::from_millis(2),
            pairs_pruned: 4,
            ..Default::default()
        };
        t.record_detect(Duration::from_millis(5), 3);
        let s = t.render();
        for stage in [
            "trace", "analyze", "pairs", "screen", "derive", "detect", "total",
        ] {
            assert!(s.contains(stage), "missing {stage} in:\n{s}");
        }
        assert!(s.contains("4 pairs pruned"), "prune counter in:\n{s}");
    }

    #[test]
    fn stage_timings_project_from_registry() {
        let m = narada_obs::Metrics::new();
        m.gauge("stage.trace.wall_ns").set(1_000_000);
        m.counter("pairs.pruned").add(4);
        m.counter("derive.jobs").add(10);
        let t = StageTimings::from_metrics(&m, 4);
        assert_eq!(t.threads, 4);
        assert_eq!(t.trace, Duration::from_millis(1));
        assert_eq!(t.pairs_pruned, 4);
        assert_eq!(t.derive_jobs, 10);
        assert!(t.detect.is_none(), "no detect stage recorded");
        m.gauge("stage.detect.wall_ns").set(5_000_000);
        m.counter("detect.jobs").add(3);
        let t = StageTimings::from_metrics(&m, 4);
        assert_eq!(t.detect, Some((Duration::from_millis(5), 3)));
    }

    #[test]
    fn timings_render_hides_screen_stage_when_it_never_ran() {
        let t = StageTimings {
            threads: 1,
            ..Default::default()
        };
        assert!(
            !t.render().contains("screen"),
            "default pipeline output must be unchanged when screening is off"
        );
    }
}
