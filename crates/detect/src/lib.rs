//! # narada-detect — dynamic race detection for MJ executions
//!
//! Off-the-shelf-style detectors consuming the VM's event stream, used to
//! evaluate the tests synthesized by [`narada_core`] exactly as the paper's
//! §5 does with RaceFuzzer:
//!
//! * [`LocksetDetector`] — Eraser-style lockset discipline (Savage et al.);
//! * [`FastTrackDetector`] — FastTrack-style happens-before with write
//!   epochs (Flanagan & Freund), plus [`DjitDetector`], the full
//!   vector-clock Djit⁺ baseline it optimizes;
//! * [`RaceFuzzerScheduler`] — active confirmation: postpone a thread at a
//!   targeted access until its partner arrives, then let them collide
//!   (Sen), with harmful/benign value triage;
//! * [`evaluate_test_observed`]/[`evaluate_suite_full`] — the full §5
//!   protocol: random schedules for detection, directed schedules for
//!   reproduction.

#![warn(missing_docs)]

pub mod djit;
pub mod fasttrack;
mod fxhash;
pub mod lockset;
pub mod minimize;
pub mod race;
pub mod racefuzzer;
pub mod report;
pub mod rewind;
pub mod saturation;
pub mod vclock;
pub mod walk;

pub use djit::DjitDetector;
pub use fasttrack::FastTrackDetector;
pub use lockset::LocksetDetector;
pub use minimize::{minimize_schedule, replay_schedule, MinimizeOutcome, ReplayOutcome};
pub use race::{
    CoarseRaceKey, MethodIndex, RaceAccess, RaceReport, SchedProvenance, StaticRaceKey,
};
pub use racefuzzer::{ConfirmedRace, RaceFuzzerScheduler, DEFAULT_POSTPONE_BUDGET};
pub use report::{
    evaluate_suite_full, evaluate_test_observed, ClassDetection, DetectConfig, TestReport,
};
pub use rewind::DetectorMark;
pub use saturation::SaturationWatch;
pub use vclock::{Epoch, VectorClock};
pub use walk::{CaptureWalk, DetectorPair, NoFork, WalkPlan};
