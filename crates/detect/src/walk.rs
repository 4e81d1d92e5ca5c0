//! The capture walk: sequential prefixes shared across schedule trials
//! and tests.
//!
//! Every schedule trial of the detection pipeline runs the same test: a
//! deterministic sequential *prefix* (seed-test object collection,
//! builders, setters — steps 1–3 of the paper's Algorithm 1) followed by
//! the concurrent *suffix* whose interleaving the trial actually varies.
//! A [`CaptureWalk`] runs the prefix once on one machine and one
//! [`DetectorPair`], takes a *fork mark* there, and rewinds both to it
//! before every probe, so a probe pays only for its suffix. The VM's
//! copy-on-write undo log (`Heap::mark`/`rewind`) and the detectors' own
//! undo logs (see [`crate::rewind`]) restore only what a probe touched.
//!
//! Tests also share prefix work with each other. A prefix begins with
//! one capture run per `plan.captures` entry: from the state the earlier
//! captures left, run the seed tests in order until one reaches a
//! client-level call of the captured method. Plans of one class often
//! begin with the same capture methods, so they share *capture nodes*,
//! the states after each leading run; and every capture run from one
//! node replays a prefix of the same deterministic execution of the
//! seed tests, stopping at a different call. [`CaptureWalk::walk`]
//! therefore walks a set of plans depth first over their capture trie:
//! at each node it runs the seed execution once, stopping at the first
//! call of each method some plan captures next, marks the machine and
//! the detectors there, visits that child's plans, rewinds to the mark
//! and lets the call run on. Each node's seeds run once for all its
//! children; only the marks along the current path are held.
//!
//! Forking and sharing are both exact when the shared prefix is
//! *seed-independent*: schedulers are only consulted by `run_threads`
//! (the suffix), so a prefix differs across seeds only through `rand()`
//! draws. A node is shared only while the machine has drawn nothing by
//! then; past a draw each remaining plan runs its own captures from the
//! last shared node under its own seed, and a plan resumes at a node
//! reseeded with its own seed, so every plan reaches exactly the state a
//! fresh machine under its seed reaches, object ids included. A plan
//! whose prefix drew anything at all cannot fork
//! ([`NoFork::PrefixDrewRng`]), and neither can one whose prefix failed
//! ([`NoFork::PrefixFailed`]); the caller runs each of its trials from a
//! fresh machine instead. The `fork_differential` suite checks every
//! fork probe against that fresh-start run, and every plan's report from
//! a class walk against the plan walked alone.

use crate::fasttrack::FastTrackDetector;
use crate::lockset::LocksetDetector;
use crate::rewind::DetectorMark;
use narada_core::synth::{run_capture, run_setup, PlanPrefix};
use narada_core::TestPlan;
use narada_lang::hir::{MethodId, Program, TestId};
use narada_lang::mir::MirProgram;
use narada_obs::Tracer;
use narada_vm::{CallSite, Event, EventSink, Machine, MachineMark, MachineOptions};
use std::collections::BTreeMap;

/// Why a plan cannot fork.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoFork {
    /// The prefix failed; the fresh-start path reports the error with
    /// its own exact semantics.
    PrefixFailed,
    /// The prefix consumed RNG draws, so one fork point cannot serve
    /// every trial seed (see the module docs).
    PrefixDrewRng,
}

/// The passive detector pair a detection trial feeds: a tee over the
/// Eraser lockset and FastTrack detectors, whose marks nest, so the
/// capture walk can stream a prefix into it and rewind it like the
/// machine.
#[derive(Debug, Default)]
pub struct DetectorPair {
    /// The lockset detector.
    pub lockset: LocksetDetector,
    /// The happens-before detector.
    pub hb: FastTrackDetector,
}

impl EventSink for DetectorPair {
    fn event(&mut self, ev: &Event) {
        self.lockset.event(ev);
        self.hb.event(ev);
    }
}

/// A plan for [`CaptureWalk::walk`], with the machine seed its prefix
/// runs under.
#[derive(Debug, Clone, Copy)]
pub struct WalkPlan<'a> {
    /// The plan.
    pub plan: &'a TestPlan,
    /// Its prefix's machine seed.
    pub seed: u64,
}

/// Machine and detector marks taken at the same point.
struct Marks {
    machine: MachineMark,
    lockset: DetectorMark,
    hb: DetectorMark,
}

/// What one [`CaptureWalk::walk`] call shares across its recursion.
struct Walking<'w, 'a> {
    seeds: &'w [TestId],
    plans: &'w [WalkPlan<'a>],
    tracer: &'w Tracer,
    parent: Option<u64>,
}

/// Where a node's seed execution stands: the next seed test to start,
/// and whether the main thread is inside one.
#[derive(Default)]
struct SeedRun {
    next: usize,
    running: bool,
}

/// One machine and one detector pair walking plans' sequential prefixes,
/// sharing capture runs between plans (see the module docs).
pub struct CaptureWalk<'p> {
    machine: Machine<'p>,
    detectors: DetectorPair,
    /// Call sites captured so far on the way to the current plan.
    sites: Vec<CallSite>,
    /// Whether the current plan's captures all succeeded.
    captured: Result<(), NoFork>,
    /// The current plan's fork point, once [`CaptureWalk::fork`] made it.
    fork: Option<(Marks, PlanPrefix)>,
    /// Whether the machine or the detectors have seen anything yet.
    dirty: bool,
}

impl<'p> CaptureWalk<'p> {
    /// A walk on a fresh machine for `prog` and empty detectors.
    pub fn new(prog: &'p Program, mir: &'p MirProgram) -> Self {
        CaptureWalk {
            machine: Machine::new(prog, mir, MachineOptions::default()),
            detectors: DetectorPair::default(),
            sites: Vec::new(),
            captured: Ok(()),
            fork: None,
            dirty: false,
        }
    }

    /// The program the walk runs.
    pub fn program(&self) -> (&'p Program, &'p MirProgram) {
        (self.machine.program, self.machine.mir)
    }

    /// The walk's machine, as the last step of the walk or probe left it.
    pub fn machine(&self) -> &Machine<'p> {
        &self.machine
    }

    /// Walks `plans` depth first over their capture trie (see the module
    /// docs), calling `visit(walk, i)` once for each plan `i` with the
    /// walk standing right after that plan's captures, streamed into the
    /// detectors; `visit` may call [`CaptureWalk::fork`] and then
    /// [`CaptureWalk::probe`] any number of times. Plans are visited in
    /// the order the seed execution reaches their captures. Each run of
    /// the seed tests towards a capture is a `detect.capture` span under
    /// `parent`.
    pub fn walk(
        &mut self,
        seeds: &[TestId],
        plans: &[WalkPlan<'_>],
        tracer: &Tracer,
        parent: Option<u64>,
        visit: &mut dyn FnMut(&mut Self, usize),
    ) {
        let cx = Walking {
            seeds,
            plans,
            tracer,
            parent,
        };
        self.sites.clear();
        self.descend(&cx, None, (0..plans.len()).collect(), visit);
    }

    /// Walks `plan` alone and forks it: on `Ok`, the walk stands at the
    /// plan's fork point, ready for [`CaptureWalk::probe`].
    ///
    /// # Errors
    ///
    /// [`NoFork`] when the prefix failed or drew from the RNG.
    pub fn advance(
        &mut self,
        seeds: &[TestId],
        plan: &TestPlan,
        seed: u64,
        tracer: &Tracer,
        parent: Option<u64>,
    ) -> Result<(), NoFork> {
        let mut forked = Err(NoFork::PrefixFailed);
        let plans = [WalkPlan { plan, seed }];
        self.walk(seeds, &plans, tracer, parent, &mut |walk, _| {
            forked = walk.fork(plan);
        });
        forked
    }

    /// Runs `plan`'s builders and setters from where its captures left
    /// the walk (during [`CaptureWalk::walk`]'s visit of `plan`) and
    /// marks the result as the plan's fork point.
    ///
    /// # Errors
    ///
    /// [`NoFork`] when a capture or the setup failed, or the prefix drew
    /// from the RNG; the walk then holds no fork point.
    pub fn fork(&mut self, plan: &TestPlan) -> Result<(), NoFork> {
        self.captured?;
        let built = run_setup(&mut self.machine, plan, &self.sites, &mut self.detectors)
            .map_err(|_| NoFork::PrefixFailed)?;
        if self.machine.rng_draws() > 0 {
            return Err(NoFork::PrefixDrewRng);
        }
        let marks = self.marks();
        let captures = self.sites.clone();
        self.fork = Some((marks, PlanPrefix { captures, built }));
        Ok(())
    }

    /// Rewinds the machine and the detectors to the current plan's fork
    /// point and reseeds the machine with `seed`: ready for one suffix
    /// probe (`narada_core::synth::execute_plan_suffix` with the returned
    /// prefix). `None` when the plan did not fork.
    pub fn probe(
        &mut self,
        seed: u64,
    ) -> Option<(&mut Machine<'p>, &mut DetectorPair, &PlanPrefix)> {
        let (marks, prefix) = self.fork.as_ref()?;
        self.machine.rewind(&marks.machine);
        self.machine.reseed(seed);
        self.detectors.lockset.rewind(&marks.lockset);
        self.detectors.hb.rewind(&marks.hb);
        Some((&mut self.machine, &mut self.detectors, prefix))
    }

    /// Visits `group`, plans that share the captures in `self.sites`,
    /// from `node`, the state those captures left (`None`: the root).
    fn descend(
        &mut self,
        cx: &Walking<'_, '_>,
        node: Option<&Marks>,
        group: Vec<usize>,
        visit: &mut dyn FnMut(&mut Self, usize),
    ) {
        let depth = self.sites.len();
        let mut pending: BTreeMap<MethodId, Vec<usize>> = BTreeMap::new();
        for i in group {
            match cx.plans[i].plan.captures.get(depth) {
                Some(cap) => pending.entry(cap.method).or_default().push(i),
                None => {
                    self.restore(node, cx.plans[i].seed);
                    self.captured = Ok(());
                    visit(self, i);
                }
            }
        }
        let Some(&first) = pending.values().next().and_then(|g| g.first()) else {
            return;
        };
        // The seed execution from `node`, stopping at the first call of
        // each pending method. Its seed matters only once it draws.
        self.restore(node, cx.plans[first].seed);
        let mut run = SeedRun::default();
        while !pending.is_empty() {
            let stop = {
                let mut span = cx.tracer.span_under("detect.capture", cx.parent);
                span.attr("depth", &depth);
                self.run_to_call(cx.seeds, &mut run, &pending)
            };
            if self.machine.rng_draws() > 0 {
                // Seed-dependent from here: each remaining plan runs its
                // own captures from `node` under its own seed.
                for i in pending.into_values().flatten() {
                    self.restore(node, cx.plans[i].seed);
                    self.captured = self.capture_rest(cx, i);
                    visit(self, i);
                    self.sites.truncate(depth);
                }
                return;
            }
            match stop {
                Some(site) => {
                    let child = pending.remove(&site.method).expect("a pending method");
                    let at_call = self.marks();
                    self.machine.abandon_main(&mut self.detectors);
                    let child_node = self.marks();
                    self.sites.push(site);
                    self.descend(cx, Some(&child_node), child, visit);
                    self.sites.pop();
                    if !pending.is_empty() {
                        // Back to the suspended call, which now runs on.
                        self.rewind_to(&at_call);
                    }
                }
                None => {
                    // The seeds ended or failed before any remaining call:
                    // those captures miss or fail, whatever the seed.
                    self.captured = Err(NoFork::PrefixFailed);
                    self.fork = None;
                    for i in pending.into_values().flatten() {
                        visit(self, i);
                    }
                    return;
                }
            }
        }
    }

    /// Runs the seed execution on until the main thread is about to make
    /// a client-level call of a `pending` method, starting the next seed
    /// test whenever one completes. `None` when every seed test completed
    /// or one failed first.
    fn run_to_call(
        &mut self,
        seeds: &[TestId],
        run: &mut SeedRun,
        pending: &BTreeMap<MethodId, Vec<usize>>,
    ) -> Option<CallSite> {
        let want = &mut |site: &CallSite| pending.contains_key(&site.method);
        loop {
            if !run.running {
                let &test = seeds.get(run.next)?;
                run.next += 1;
                run.running = true;
                self.machine.start_test(test, &mut self.detectors);
            }
            match self.machine.run_until_call(&mut self.detectors, want) {
                Ok(Some(site)) => return Some(site),
                Ok(None) => run.running = false,
                Err(_) => return None,
            }
        }
    }

    /// Plan `i`'s captures past `self.sites`, run one by one from where
    /// the walk stands; their sites join `self.sites`.
    fn capture_rest(&mut self, cx: &Walking<'_, '_>, i: usize) -> Result<(), NoFork> {
        let caps = &cx.plans[i].plan.captures[self.sites.len()..];
        for cap in caps {
            let mut span = cx.tracer.span_under("detect.capture", cx.parent);
            span.attr("depth", &self.sites.len());
            let site = run_capture(&mut self.machine, cx.seeds, cap, &mut self.detectors)
                .map_err(|_| NoFork::PrefixFailed)?;
            self.sites.push(site);
        }
        Ok(())
    }

    /// Puts the walk at `node` (the root when `None`), reseeded with
    /// `seed`. A node drew nothing, so only the seed tells it apart from
    /// where a fresh machine under `seed` would be.
    fn restore(&mut self, node: Option<&Marks>, seed: u64) {
        self.fork = None;
        match node {
            Some(marks) => self.rewind_to(marks),
            None if self.dirty => {
                self.machine.reset(seed);
                self.detectors = DetectorPair::default();
            }
            None => {}
        }
        self.dirty = true;
        self.machine.reseed(seed);
    }

    fn rewind_to(&mut self, marks: &Marks) {
        self.machine.rewind(&marks.machine);
        self.detectors.lockset.rewind(&marks.lockset);
        self.detectors.hb.rewind(&marks.hb);
    }

    fn marks(&mut self) -> Marks {
        Marks {
            machine: self.machine.mark(),
            lockset: self.detectors.lockset.mark(),
            hb: self.detectors.hb.mark(),
        }
    }
}
