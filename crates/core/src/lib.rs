//! # narada-core — synthesizing racy tests
//!
//! Rust implementation of the PLDI 2015 technique *“Synthesizing Racy
//! Tests”* (Samak, Ramanathan, Jagannathan — the **Narada** system) over
//! the MJ object language.
//!
//! Given a library and a *sequential* seed test-suite, the pipeline
//! produces *multithreaded* client tests whose execution can manifest data
//! races inside the library:
//!
//! 1. [`analyze::analyze`] — the Access Analyzer (§3.1–§3.2):
//!    evaluates the inference rules over sequential execution traces,
//!    building the abstract heap `H` (aliasing + controllability + lock
//!    state), the access map `A` (writeable/unprotected per label), and the
//!    access summaries `D` over the `I`-parameter variables;
//! 2. [`pairs::generate_pairs`] — the Pair Generator
//!    (§3.3): unprotected accesses × same-field accesses, at least one
//!    write;
//! 3. [`context::derive_plan`] — the Context Deriver (§3.3,
//!    Fig. 10's `Q` rules): method sequences that drive two object graphs
//!    to share exactly the object the race needs, while keeping the two
//!    accesses' locksets disjoint;
//! 4. [`synth::execute_plan`] — the Test Synthesizer (§3.4,
//!    Algorithm 1): collect live objects by suspending seed runs,
//!    re-arrange them per the sharing constraints, run the context
//!    setters, then spawn two threads invoking the racy methods.
//!
//! ## Example
//!
//! ```
//! use narada_core::{synthesize_source, SynthesisOptions};
//!
//! // Fig. 1 of the paper: `update` is synchronized, yet two Lib objects
//! // sharing one Counter race on `count`.
//! let (prog, _mir, out) = synthesize_source(r#"
//!     class Counter { int count; void inc() { this.count = this.count + 1; } }
//!     class Lib {
//!         Counter c;
//!         sync void update() { this.c.inc(); }
//!         sync void set(Counter x) { this.c = x; }
//!     }
//!     test seed {
//!         var r = new Counter();
//!         var p = new Lib();
//!         p.set(r);
//!         p.update();
//!     }
//! "#, &SynthesisOptions::default())?;
//! assert!(out.pair_count() > 0, "count is racy");
//! assert!(out.test_count() > 0, "a racy test is synthesized");
//! # Ok::<(), narada_lang::Diagnostics>(())
//! ```

#![warn(missing_docs)]

pub mod absheap;
pub mod access;
pub mod analyze;
pub mod context;
pub mod digest;
pub mod options;
pub mod pairs;
pub mod parallel;
pub mod path;
pub mod pipeline;
pub mod screen;
pub mod synth;

pub use access::{AccessRecord, Analysis, RaceKey, ReturnSummary, SetterSummary};
pub use analyze::analyze;
pub use context::{derive_plan, lock_collision, CaptureSpec, ObjRef, PlanCall, Slot, TestPlan};
pub use digest::Fnv1a;
pub use options::{ExploreOptions, SynthesisOptions};
pub use pairs::{generate_pairs, PairSet, RacePair};
pub use parallel::{available_threads, effective_threads, parallel_map, StageTimings};
pub use path::{IPath, PathField, PathRoot};
pub use pipeline::{
    demonstrate_observed, synthesize_generated, synthesize_observed, synthesize_source,
    Demonstration, SeedGenFn, SynthesisOutput,
};
pub use screen::{ScreenReason, ScreenerFn, StaticVerdict};
pub use synth::{
    execute_plan, execute_plan_fresh, execute_plan_prefix, execute_plan_recorded,
    execute_plan_suffix, ExecError, ExecReport, PlanPrefix, SynthesizedTest,
};
