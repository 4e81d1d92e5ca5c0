//! # narada — synthesizing racy tests
//!
//! A Rust reproduction of **“Synthesizing Racy Tests”** (Samak, Ramanathan,
//! Jagannathan — PLDI 2015, the *Narada* system): given a multithreaded
//! library and a *sequential* seed test-suite, fully automatically
//! synthesize *multithreaded* client tests whose execution manifests data
//! races inside the library.
//!
//! Because safe Rust's ownership rules statically prevent the very races
//! the technique hunts, everything runs over **MJ** — a small Java-like
//! object language with a shared heap, reference aliasing, and
//! monitor-style locking — executed by a steppable VM whose thread
//! interleavings are under scheduler control.
//!
//! This facade crate re-exports the whole system:
//!
//! * [`lang`] — MJ front end: lexer, parser, type checker, flat MIR;
//! * [`vm`] — steppable virtual machine, trace events, schedulers;
//! * [`core`] — the paper's pipeline: trace analysis (`H`/`A`/`D`),
//!   pair generation, context derivation (`Q` rules), test synthesis
//!   (Algorithm 1);
//! * [`screen`] — the static race pre-screener: a MIR-level lockset /
//!   escape analysis that prunes and ranks candidate pairs before any
//!   dynamic exploration (`--static-filter` / `--static-rank`);
//! * [`detect`] — Eraser lockset, FastTrack happens-before, and the
//!   RaceFuzzer-style confirmation scheduler with harmful/benign triage;
//! * [`contege`] — the ConTeGe-style random baseline;
//! * [`gen`] — feedback-directed sequential seed-test generation
//!   (Randoop-style, novelty-scored by the access analyzer), removing the
//!   need for hand-written seed suites (`narada gen`, `--generate-seeds`);
//! * [`corpus`] — MJ ports of the paper's nine benchmark classes;
//! * [`serve`] — the persistent detection service: a TCP daemon with a
//!   job queue and a digest-keyed artifact cache, returning verdicts
//!   byte-identical to the batch pipeline (`narada serve` / `submit` /
//!   `jobs` / `fetch`).
//!
//! ## Quickstart
//!
//! ```
//! use narada::{synthesize_source, SynthesisOptions};
//!
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
//!
//! println!("{} racing pairs, {} synthesized tests",
//!          out.pair_count(), out.test_count());
//! for test in &out.tests {
//!     println!("{}", test.plan.render(&prog));
//! }
//! # Ok::<(), narada::lang::Diagnostics>(())
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `narada-bench`
//! for the binaries regenerating every table and figure of the paper.

#![warn(missing_docs)]

pub use narada_contege as contege;
pub use narada_core as core;
pub use narada_corpus as corpus;
pub use narada_detect as detect;
pub use narada_difftest as difftest;
pub use narada_gen as gen;
pub use narada_lang as lang;
pub use narada_obs as obs;
pub use narada_screen as screen;
pub use narada_serve as serve;
pub use narada_vm as vm;

pub use narada_core::{
    execute_plan, parallel_map, synthesize_generated, synthesize_observed, synthesize_source,
    ScreenReason, StaticVerdict, SynthesisOptions, SynthesisOutput, TestPlan,
};
pub use narada_detect::{evaluate_suite_full, evaluate_test_observed, DetectConfig};
pub use narada_lang::compile;
pub use narada_obs::{Obs, RunManifest};
pub use narada_screen::screen_pairs;
