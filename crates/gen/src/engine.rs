//! The feedback-directed generation loop.
//!
//! Each round builds a batch of candidate sequences from the current pool
//! (Randoop-style: clone an accepted sequence or start fresh, append
//! exactly one new call with pooled or freshly constructed inputs), runs
//! every candidate on the VM, and keeps a candidate only when its trace is
//! *novel* — running it through the Access Analyzer yields an access
//! classification, setter edge, or return edge not produced by any
//! previously accepted test. Error-throwing candidates are discarded, so
//! accepted prefixes are always legal, and the novelty oracle is exactly
//! the fact space the Pair Generator consumes — generation stops paying
//! for sequences the downstream pipeline would not learn from.
//!
//! ## Determinism
//!
//! Output is byte-identical at any `--threads`:
//!
//! * candidate *construction* is sequential, seeded per `(round, slot)`
//!   via [`derive_seed`] from the user seed, and reads only the
//!   round-start pool snapshot;
//! * candidate *execution* is sharded over fixed-size slot chunks through
//!   [`parallel_map`] (results return in submission order) with one
//!   machine per chunk, [`Machine::reset`] to a per-slot derived seed
//!   before each run — the trace never depends on which worker ran it;
//! * *acceptance* replays strictly in slot order against the shared
//!   novelty set, so the pool evolves identically regardless of thread
//!   count.

use crate::api::{ApiSurface, CallSpec};
use crate::sequence::{Arg, GenSequence, Step, StepKind};
use narada_core::access::Analysis;
use narada_core::{analyze, parallel_map, IPath, PathField};
use narada_lang::hir::{self, ClassId, MethodId, Program, TestId, Ty};
use narada_lang::lower::lower_test;
use narada_lang::mir::MirProgram;
use narada_obs::{span, Obs};
use narada_vm::rng::{derive_seed, SplitMix64};
use narada_vm::{Machine, MachineOptions, VecSink};
use std::collections::BTreeSet;
use std::time::Instant;

/// Stage tag for per-candidate machine seeds (see `derive_seed`).
const STAGE_GEN_MACHINE: u64 = 21;
/// Stage tag for per-candidate construction rngs.
const STAGE_GEN_BUILD: u64 = 22;
/// Candidates per executor chunk; fixed so sharding is thread-invariant.
const CHUNK: usize = 8;
/// Step budget per candidate run: generated sequences are tiny, so
/// anything that runs long is stuck (e.g. an aliasing-induced infinite
/// loop) and should be discarded quickly.
const CAND_STEP_BUDGET: u64 = 200_000;

/// Generation knobs.
#[derive(Debug, Clone)]
pub struct GenOptions {
    /// Total candidate budget.
    pub budget: usize,
    /// Base seed; all per-candidate seeds derive from it.
    pub seed: u64,
    /// Worker threads for candidate execution (0 = all cores).
    pub threads: usize,
    /// Maximum steps per sequence (pool growth cap). Keeps novelty search
    /// from chasing size-dependent library branches (e.g. the backing
    /// array growth path of a queue with capacity 8).
    pub max_len: usize,
    /// Candidates constructed per round; each round's candidates see the
    /// same pool snapshot.
    pub round: usize,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions {
            budget: 512,
            seed: 0x67656e,
            threads: 0,
            max_len: 10,
            round: 64,
        }
    }
}

/// Counters describing one generation run.
#[derive(Debug, Clone, Copy, Default)]
pub struct GenStats {
    /// Candidates constructed (including shape rejects).
    pub candidates: u64,
    /// Candidates accepted into the pool.
    pub accepted: u64,
    /// Candidates discarded because execution raised a VM error.
    pub discarded_error: u64,
    /// Candidates that ran fine but produced no new analysis fact.
    pub rejected_no_novelty: u64,
    /// Candidates the builder could not complete (no receiver available,
    /// length cap hit mid-construction).
    pub rejected_shape: u64,
    /// Candidates rejected for producing a pair-relevant fact outside the
    /// reference basis (bounded generation only).
    pub rejected_off_target: u64,
    /// Rounds executed.
    pub rounds: u64,
    /// Distinct analysis facts covered by the accepted suite.
    pub facts: u64,
}

/// The result of a generation run.
#[derive(Debug)]
pub struct GenOutcome {
    /// Accepted sequences rendered as HIR tests (`gen_000`, `gen_001`, …),
    /// ready to print or lower.
    pub tests: Vec<hir::Test>,
    /// Run counters (also mirrored into `gen.*` metrics).
    pub stats: GenStats,
}

/// One deduplicated analysis fact — the novelty currency. Mirrors exactly
/// what the Pair Generator and Context Deriver consume: per-method access
/// classifications (with protection status and lockset) and the `D`
/// summary edges (setters and returns).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Fact {
    Access {
        method: MethodId,
        path: Option<IPath>,
        leaf: PathField,
        is_write: bool,
        writeable: bool,
        unprotected: bool,
        in_ctor: bool,
        locks: Vec<Option<IPath>>,
    },
    Setter {
        method: MethodId,
        lhs: IPath,
        rhs: IPath,
        overwritten: bool,
    },
    Return {
        method: MethodId,
        ret: IPath,
        src: IPath,
    },
}

impl Fact {
    /// The root method a fact is attributed to.
    fn method(&self) -> MethodId {
        match self {
            Fact::Access { method, .. }
            | Fact::Setter { method, .. }
            | Fact::Return { method, .. } => *method,
        }
    }

    /// True for facts that influence the *potential racy pair set*:
    /// non-constructor access classifications. Constructor-internal
    /// accesses never pair, and `D` summary edges steer context
    /// derivation, not pairing — so neither bounds pair parity.
    fn bounds_pairs(&self) -> bool {
        matches!(self, Fact::Access { in_ctor: false, .. })
    }
}

/// The fact universe of a reference (hand-written) seed suite. When
/// generation is given a basis, the novelty oracle is *bounded* by it:
/// candidates must cover not-yet-seen basis facts and may not introduce
/// any pair-relevant fact outside the basis. At saturation the generated
/// suite's pair set therefore equals the reference suite's — the parity
/// target — instead of overshooting into states the reference never
/// reached (e.g. a coalescing queue's contains-scan on a non-empty
/// backing array that every hand-written test happens to avoid).
#[derive(Debug, Clone)]
pub struct FactBasis {
    facts: BTreeSet<Fact>,
}

impl FactBasis {
    /// Replays the program's own tests and records their fact universe.
    pub fn from_tests(prog: &Program, mir: &MirProgram) -> FactBasis {
        let mut sink = VecSink::new();
        let mut machine = Machine::with_defaults(prog, mir);
        for t in &prog.tests {
            let _ = machine.run_test(t.id, &mut sink);
        }
        FactBasis {
            facts: facts(&analyze(prog, &sink.events)),
        }
    }

    /// Number of facts in the basis.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// True when the basis is empty.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }
}

/// Projects an analysis onto its deduplicated fact set.
fn facts(analysis: &Analysis) -> BTreeSet<Fact> {
    let mut set = BTreeSet::new();
    for a in &analysis.accesses {
        let mut locks: Vec<Option<IPath>> = a.locks.iter().map(|l| l.path.clone()).collect();
        locks.sort();
        set.insert(Fact::Access {
            method: a.method,
            path: a.path.clone(),
            leaf: a.leaf,
            is_write: a.is_write,
            writeable: a.writeable,
            unprotected: a.unprotected,
            in_ctor: a.in_ctor,
            locks,
        });
    }
    for s in &analysis.setters {
        set.insert(Fact::Setter {
            method: s.method,
            lhs: s.lhs.clone(),
            rhs: s.rhs.clone(),
            overwritten: s.overwritten,
        });
    }
    for r in &analysis.returns {
        set.insert(Fact::Return {
            method: r.method,
            ret: r.ret_path.clone(),
            src: r.src.clone(),
        });
    }
    set
}

/// Generates a sequential seed suite for `prog` over `api` (normally
/// [`ApiSurface::for_suite`]). When the program ships tests, their
/// [`FactBasis`] bounds what generation may cover.
pub fn generate_suite(
    prog: &Program,
    mir: &MirProgram,
    api: &ApiSurface,
    opts: &GenOptions,
    obs: &Obs,
) -> GenOutcome {
    let basis = (!prog.tests.is_empty()).then(|| FactBasis::from_tests(prog, mir));
    generate(prog, mir, api, basis.as_ref(), opts, obs)
}

/// Runs the feedback-directed loop over an explicit [`ApiSurface`],
/// optionally bounded by a reference [`FactBasis`] (see its docs).
pub fn generate(
    prog: &Program,
    mir: &MirProgram,
    api: &ApiSurface,
    basis: Option<&FactBasis>,
    opts: &GenOptions,
    obs: &Obs,
) -> GenOutcome {
    let start = Instant::now();
    let gen_span = span!(
        obs.tracer,
        "gen.generate",
        budget = opts.budget,
        seed = opts.seed
    );
    let gen_span_id = gen_span.id();

    // The pool is the *state library*: every distinct error-free,
    // on-target sequence, whether or not it was novel. Novelty governs
    // which sequences are **emitted** as tests, not which are reusable —
    // deep states (a buffer filled to capacity, a populated argument
    // collection) are built from prefixes that produce nothing new
    // themselves, so rejecting them from the pool would make those
    // states unreachable (Randoop keeps its component set the same way).
    let mut pool: Vec<GenSequence> = Vec::new();
    let mut pool_keys: BTreeSet<String> = BTreeSet::new();
    let mut emitted: Vec<GenSequence> = Vec::new();
    let mut seen: BTreeSet<Fact> = BTreeSet::new();
    let mut covered: BTreeSet<MethodId> = BTreeSet::new();
    let mut stats = GenStats::default();

    let per_round = opts.round.max(1);
    let rounds = if api.calls.is_empty() {
        0
    } else {
        opts.budget.div_ceil(per_round)
    };

    for round in 0..rounds {
        let round_span = obs.tracer.span_under("gen.round", gen_span_id);
        drop(round_span);
        let quota = per_round.min(opts.budget - round * per_round);
        stats.candidates += quota as u64;

        // Specs still owning unreached coverage, recomputed per round:
        // with a basis, a method stays hot until every basis fact rooted
        // in it is seen (reaching deep states like "argument container
        // non-empty" needs many attempts on the same method); without
        // one, until some accepted test has called it.
        let hot: Vec<usize> = api
            .calls
            .iter()
            .enumerate()
            .filter(|(_, c)| match basis {
                Some(b) => b
                    .facts
                    .iter()
                    .any(|f| f.method() == c.method && !seen.contains(f)),
                None => !covered.contains(&c.method),
            })
            .map(|(i, _)| i)
            .collect();

        // Phase 1 (sequential): build candidates from the round-start pool
        // snapshot, each under its own derived rng.
        let built: Vec<(usize, GenSequence)> = (0..quota)
            .filter_map(|slot| {
                let mut rng = SplitMix64::seed_from_u64(derive_seed(
                    opts.seed,
                    &[STAGE_GEN_BUILD, round as u64, slot as u64],
                ));
                build_candidate(&mut rng, prog, api, &pool, &emitted, &hot, opts)
                    .map(|seq| (slot, seq))
            })
            .collect();
        stats.rejected_shape += (quota - built.len()) as u64;
        if built.is_empty() {
            continue;
        }

        // Phase 2 (parallel): execute candidates as this round's test
        // suite, sharded over fixed slot chunks; one machine per chunk,
        // reset to the per-slot seed before each run.
        let mut round_prog = prog.clone();
        round_prog.tests = built
            .iter()
            .enumerate()
            .map(|(i, (_, seq))| seq.to_test(TestId(i as u32), format!("cand_{i}")))
            .collect();
        let mut round_mir = mir.clone();
        round_mir.tests = round_prog
            .tests
            .iter()
            .map(|t| lower_test(&round_prog, t))
            .collect();

        let chunk_starts: Vec<usize> = (0..built.len()).step_by(CHUNK).collect();
        let results: Vec<Vec<Result<BTreeSet<Fact>, ()>>> =
            parallel_map(opts.threads, &chunk_starts, |_, &lo| {
                let mut exec_span = obs.tracer.span_under("gen.exec", gen_span_id);
                exec_span.attr("round", &round);
                exec_span.attr("chunk", &lo);
                let hi = (lo + CHUNK).min(built.len());
                let mut machine = Machine::new(
                    &round_prog,
                    &round_mir,
                    MachineOptions {
                        max_steps: CAND_STEP_BUDGET,
                        ..MachineOptions::default()
                    },
                );
                (lo..hi)
                    .map(|i| {
                        let slot = built[i].0 as u64;
                        machine.reset(derive_seed(
                            opts.seed,
                            &[STAGE_GEN_MACHINE, round as u64, slot],
                        ));
                        let mut sink = VecSink::new();
                        match machine.run_test(TestId(i as u32), &mut sink) {
                            Err(_) => Err(()),
                            Ok(()) => Ok(facts(&analyze(&round_prog, &sink.events))),
                        }
                    })
                    .collect()
            });

        // Phase 3 (sequential): merge in slot order against the shared
        // novelty set.
        for (i, res) in results.into_iter().flatten().enumerate() {
            match res {
                Err(()) => stats.discarded_error += 1,
                Ok(candidate_facts) => {
                    let off_target = basis.is_some_and(|b| {
                        candidate_facts
                            .iter()
                            .any(|f| f.bounds_pairs() && !b.facts.contains(f))
                    });
                    if off_target {
                        stats.rejected_off_target += 1;
                        continue;
                    }
                    let novel = match basis {
                        None => candidate_facts.difference(&seen).count(),
                        // Bounded: only basis facts count as progress.
                        Some(b) => candidate_facts
                            .iter()
                            .filter(|f| b.facts.contains(f) && !seen.contains(f))
                            .count(),
                    };
                    let seq = &built[i].1;
                    if pool_keys.insert(format!("{:?}", seq.steps)) {
                        pool.push(seq.clone());
                    }
                    if novel == 0 {
                        stats.rejected_no_novelty += 1;
                    } else {
                        stats.facts += novel as u64;
                        seen.extend(candidate_facts);
                        covered.extend(seq.called_methods());
                        emitted.push(seq.clone());
                        stats.accepted += 1;
                    }
                }
            }
        }
    }
    stats.rounds = rounds as u64;

    let m = &obs.metrics;
    m.counter("gen.candidates").add(stats.candidates);
    m.counter("gen.accepted").add(stats.accepted);
    m.counter("gen.discarded_error").add(stats.discarded_error);
    m.counter("gen.rejected_no_novelty")
        .add(stats.rejected_no_novelty);
    m.counter("gen.rejected_shape").add(stats.rejected_shape);
    m.counter("gen.rejected_off_target")
        .add(stats.rejected_off_target);
    m.counter("gen.rounds").add(stats.rounds);
    m.counter("gen.facts").add(stats.facts);
    m.gauge("stage.gen.wall_ns").set_duration(start.elapsed());
    drop(gen_span);

    let tests = emitted
        .iter()
        .enumerate()
        .map(|(i, seq)| seq.to_test(TestId(i as u32), format!("gen_{i:03}")))
        .collect();
    GenOutcome { tests, stats }
}

/// Uniform pick from `0..n` (`n > 0`).
fn pick(rng: &mut SplitMix64, n: usize) -> usize {
    rng.gen_range(0..n)
}

/// Builds one candidate: a pooled state (or a fresh start) plus up to two
/// uniformly-chosen *filler* calls and one final call biased toward `hot`
/// specs (those still owning unreached coverage). The final spec is chosen
/// first so the starting state can be picked compatible with it; fillers
/// are free state-building — novelty judges the whole sequence, so a
/// count-filling write or a container-populating add costs nothing even
/// when it adds no new facts itself. Returns `None` when the builder
/// cannot satisfy the final call's bindings within the length cap.
fn build_candidate(
    rng: &mut SplitMix64,
    prog: &Program,
    api: &ApiSurface,
    pool: &[GenSequence],
    emitted: &[GenSequence],
    hot: &[usize],
    opts: &GenOptions,
) -> Option<GenSequence> {
    let spec: &CallSpec = if !hot.is_empty() && rng.gen_bool(0.8) {
        &api.calls[hot[pick(rng, hot.len())]]
    } else {
        &api.calls[pick(rng, api.calls.len())]
    };

    // Emitted sequences are the coverage frontier — states that produced
    // novel facts are the best launch points for reaching the remaining
    // ones (the same reason fuzzers mutate their coverage corpus). The
    // full pool keeps diversity, but it dilutes as it grows, so try the
    // frontier first.
    let mut seq = match start_state(rng, emitted, spec, opts, 0.5) {
        s if s.is_empty() => start_state(rng, pool, spec, opts, 0.7),
        s => s,
    };

    let extra = match pick(rng, 10) {
        0..=4 => 0,
        5..=7 => 1,
        _ => 2,
    };
    for _ in 0..extra {
        if seq.len() + 2 > opts.max_len {
            break;
        }
        let filler = &api.calls[pick(rng, api.calls.len())];
        // A filler that cannot be bound is skipped, not fatal.
        let _ = push_call(rng, &mut seq, prog, api, filler, opts);
    }

    push_call(rng, &mut seq, prog, api, spec, opts)?;
    Some(seq)
}

/// The starting state for a new candidate: usually a pooled sequence that
/// already holds a receiver for `spec` (so hot methods are retried against
/// accumulated deep states), sometimes a fresh empty sequence.
fn start_state(
    rng: &mut SplitMix64,
    pool: &[GenSequence],
    spec: &CallSpec,
    opts: &GenOptions,
    p_reuse: f64,
) -> GenSequence {
    if pool.is_empty() || !rng.gen_bool(p_reuse) {
        return GenSequence::default();
    }
    let compat: Vec<usize> = pool
        .iter()
        .enumerate()
        .filter(|(_, s)| {
            s.len() < opts.max_len
                && (spec.recv_classes.is_empty() || !s.objects_of(&spec.recv_classes).is_empty())
        })
        .map(|(i, _)| i)
        .collect();
    if compat.is_empty() {
        GenSequence::default()
    } else {
        pool[compat[pick(rng, compat.len())]].clone()
    }
}

/// Appends one bound call of `spec` to `seq` (receiver, arguments, then
/// the call step). Transactional: on failure the sequence is rolled back
/// to its previous length, so partial construction steps never leak.
fn push_call(
    rng: &mut SplitMix64,
    seq: &mut GenSequence,
    prog: &Program,
    api: &ApiSurface,
    spec: &CallSpec,
    opts: &GenOptions,
) -> Option<()> {
    let mark = seq.len();
    match try_push_call(rng, seq, prog, api, spec, opts) {
        Some(()) => Some(()),
        None => {
            seq.steps.truncate(mark);
            None
        }
    }
}

fn try_push_call(
    rng: &mut SplitMix64,
    seq: &mut GenSequence,
    prog: &Program,
    api: &ApiSurface,
    spec: &CallSpec,
    opts: &GenOptions,
) -> Option<()> {
    let meth = prog.method(spec.method);
    let recv = if meth.is_static {
        None
    } else {
        Some(pick_object(
            rng,
            seq,
            prog,
            api,
            &spec.recv_classes,
            None,
            0,
            opts,
        )?)
    };

    let mut args = Vec::new();
    for (i, ty) in meth.param_tys().iter().enumerate() {
        let allowed = spec.param_classes.get(i).map(Vec::as_slice).unwrap_or(&[]);
        args.push(pick_arg(rng, seq, prog, api, ty, allowed, recv, 0, opts)?);
    }

    if seq.len() + 1 > opts.max_len {
        return None;
    }
    let kind = match recv {
        Some(recv) => StepKind::Call {
            recv,
            method: spec.method,
            args,
        },
        None => StepKind::Static {
            method: spec.method,
            args,
        },
    };
    seq.steps.push(Step {
        kind,
        result: meth.ret.clone(),
        concrete: None,
    });
    Some(())
}

/// Picks (or constructs) a pooled object whose concrete class is in
/// `allowed`, excluding step `exclude` — the receiver of the call under
/// construction must not also flow in as an argument, since receiver/
/// argument aliasing changes the access paths the analyzer reports and
/// would grow the fact space past the manual suites' pair universe.
#[allow(clippy::too_many_arguments)]
fn pick_object(
    rng: &mut SplitMix64,
    seq: &mut GenSequence,
    prog: &Program,
    api: &ApiSurface,
    allowed: &[ClassId],
    exclude: Option<usize>,
    depth: usize,
    opts: &GenOptions,
) -> Option<usize> {
    let mut existing = seq.objects_of(allowed);
    if let Some(x) = exclude {
        existing.retain(|&s| s != x);
    }
    if !existing.is_empty() && rng.gen_bool(0.8) {
        // Prefer *touched* objects — ones some call already received —
        // since populated states (a non-empty argument collection, an
        // out-of-order index) unlock facts that fresh instances cannot.
        let touched: Vec<usize> = existing
            .iter()
            .copied()
            .filter(|&obj| {
                seq.steps
                    .iter()
                    .any(|st| matches!(st.kind, StepKind::Call { recv, .. } if recv == obj))
            })
            .collect();
        if !touched.is_empty() && rng.gen_bool(0.7) {
            return Some(touched[pick(rng, touched.len())]);
        }
        return Some(existing[pick(rng, existing.len())]);
    }
    if allowed.is_empty() {
        return existing.first().copied();
    }
    let class = allowed[pick(rng, allowed.len())];
    construct(rng, seq, prog, api, class, depth, opts).or_else(|| existing.first().copied())
}

/// Appends the steps to construct a fresh instance of `class`; returns the
/// step index of the new object.
fn construct(
    rng: &mut SplitMix64,
    seq: &mut GenSequence,
    prog: &Program,
    api: &ApiSurface,
    class: ClassId,
    depth: usize,
    opts: &GenOptions,
) -> Option<usize> {
    if depth > 2 {
        return None;
    }
    let spec = api.ctor(class)?;
    let mut args = Vec::new();
    if let Some(ctor) = spec.ctor {
        for (i, ty) in prog.method(ctor).param_tys().iter().enumerate() {
            let allowed = spec.param_classes.get(i).map(Vec::as_slice).unwrap_or(&[]);
            args.push(pick_arg(
                rng,
                seq,
                prog,
                api,
                ty,
                allowed,
                None,
                depth + 1,
                opts,
            )?);
        }
    }
    if seq.len() + 1 > opts.max_len {
        return None;
    }
    seq.steps.push(Step {
        kind: StepKind::New {
            class,
            ctor: spec.ctor,
            args,
        },
        result: Ty::Class(class),
        concrete: Some(class),
    });
    Some(seq.len() - 1)
}

/// Picks one argument for a parameter of type `ty`: palette literals for
/// scalars, pooled or freshly built arrays for `int[]`, pooled or freshly
/// constructed objects (restricted to `allowed`) for references.
#[allow(clippy::too_many_arguments)]
fn pick_arg(
    rng: &mut SplitMix64,
    seq: &mut GenSequence,
    prog: &Program,
    api: &ApiSurface,
    ty: &Ty,
    allowed: &[ClassId],
    exclude: Option<usize>,
    depth: usize,
    opts: &GenOptions,
) -> Option<Arg> {
    match ty {
        Ty::Int => Some(Arg::Int(api.ints[pick(rng, api.ints.len())])),
        Ty::Bool => Some(Arg::Bool(rng.gen_bool(0.5))),
        Ty::Array(elem) if **elem == Ty::Int => {
            let arrays = seq.int_arrays();
            if !arrays.is_empty() && rng.gen_bool(0.5) {
                return Some(Arg::Ref(arrays[pick(rng, arrays.len())]));
            }
            if seq.len() + 1 > opts.max_len {
                return arrays.first().map(|&a| Arg::Ref(a));
            }
            let len = api.array_lens[pick(rng, api.array_lens.len())];
            let fill = (0..len)
                .map(|_| api.ints[pick(rng, api.ints.len())])
                .collect();
            seq.steps.push(Step {
                kind: StepKind::NewIntArray { len, fill },
                result: Ty::Array(Box::new(Ty::Int)),
                concrete: None,
            });
            Some(Arg::Ref(seq.len() - 1))
        }
        Ty::Class(_) => {
            pick_object(rng, seq, prog, api, allowed, exclude, depth, opts).map(Arg::Ref)
        }
        _ => None,
    }
}
