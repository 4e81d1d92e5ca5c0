//! # narada-gen — feedback-directed seed-test generation
//!
//! Narada's pipeline consumes a *sequential* seed test-suite; this crate
//! removes the last manual input by synthesizing that suite directly from
//! a library's API, in the style of Randoop's feedback-directed random
//! testing (and ConCovUp's use of generated drivers as concurrency-test
//! front-ends):
//!
//! 1. [`ApiSurface`] enumerates what may be called — either *observed*
//!    from an existing suite ([`ApiSurface::from_tests`]) or derived
//!    liberally from the typechecked HIR ([`ApiSurface::for_program`]);
//! 2. [`engine::generate`] grows straight-line call sequences by executing
//!    candidate one-call extensions on the VM, pooling legal object
//!    instances (Algorithm 1's object collection) and discarding
//!    error-throwing prefixes;
//! 3. a candidate is *kept* only when the Access Analyzer reports a new
//!    access classification or `D` summary edge over all previously
//!    accepted tests — the novelty oracle is exactly the fact space the
//!    Pair Generator consumes downstream.
//!
//! Generation is deterministic: all randomness derives from the user seed
//! per `(round, slot)` job identity, and candidate execution is sharded
//! through `narada-core`'s order-preserving `parallel_map`, so the
//! emitted suite is byte-identical at any thread count.
//!
//! ## Example
//!
//! ```
//! use narada_gen::{generate_suite, ApiSurface, GenOptions};
//! use narada_obs::Obs;
//!
//! let prog = narada_lang::compile(r#"
//!     class Counter {
//!         int count;
//!         void inc() { this.count = this.count + 1; }
//!         int get() { return this.count; }
//!     }
//!     test seed { var c = new Counter(); c.inc(); var n = c.get(); }
//! "#)?;
//! let mir = narada_lang::lower::lower_program(&prog);
//! let opts = GenOptions { budget: 64, ..GenOptions::default() };
//! let api = ApiSurface::for_suite(&prog, &mir);
//! let out = generate_suite(&prog, &mir, &api, &opts, &Obs::new());
//! assert!(!out.tests.is_empty(), "both methods are reachable");
//! # Ok::<(), narada_lang::Diagnostics>(())
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod engine;
pub mod sequence;

pub use api::{ApiSurface, CallSpec, CtorSpec};
pub use engine::{generate, generate_suite, FactBasis, GenOptions, GenOutcome, GenStats};
pub use sequence::{Arg, GenSequence, Step, StepKind};
