//! A test's detection run holds a bounded amount of memory.
//!
//! A counting global allocator tracks the live bytes of the test's own
//! thread and their high-water mark. Each of C4's synthesized tests then
//! runs through `evaluate_test_observed` at the corpus-detect knobs
//! (`narada detect` defaults, one worker, so every trial runs on this
//! thread); the worst per-test peak above the bytes live at its start
//! must stay within [`PEAK_LIMIT`]. C4's longest prefixes emit about
//! 6,000 events, so a fork point that recorded its prefix trace instead
//! of streaming it into the detector prototypes would hold about 0.9 MB
//! of events and fail here.

use narada_core::{synthesize_source, SynthesisOptions};
use narada_detect::{evaluate_test_observed, DetectConfig};
use narada_obs::Obs;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The per-test peak live-byte bound.
const PEAK_LIMIT: u64 = 384 * 1024;

struct Counting;

thread_local! {
    static LIVE: Cell<u64> = const { Cell::new(0) };
    static PEAK: Cell<u64> = const { Cell::new(0) };
}

fn grew(bytes: usize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + bytes as u64;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

fn shrank(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(bytes as u64)));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrank(layout.size());
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most bytes this thread held live while running `f`, above what it
/// held when `f` started.
fn peak_during(f: impl FnOnce()) -> u64 {
    let start = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(start));
    f();
    PEAK.with(Cell::get) - start
}

#[test]
fn c4_per_test_peak_live_bytes_stay_bounded() {
    let entry = narada_corpus::by_id("C4").expect("C4 in corpus");
    let (prog, mir, out) =
        synthesize_source(entry.source, &SynthesisOptions::default()).expect("C4 synthesizes");
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
    // `narada detect`'s defaults, as the corpus-detect benchmark runs them.
    let cfg = DetectConfig {
        schedule_trials: 6,
        confirm_trials: 4,
        seed: 42,
        threads: 1,
        ..DetectConfig::default()
    };
    let obs = Obs::new();
    let (worst, worst_test) = out
        .tests
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let peak = peak_during(|| {
                evaluate_test_observed(&prog, &mir, &seeds, &t.plan, &cfg, i as u64, &obs);
            });
            (peak, i)
        })
        .max()
        .expect("C4 synthesizes tests");
    assert!(
        worst <= PEAK_LIMIT,
        "test {worst_test} peaked at {worst} live bytes (limit {PEAK_LIMIT})"
    );
}
