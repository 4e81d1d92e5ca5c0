//! # narada-screen — static race pre-screener
//!
//! A MIR-level lockset/escape analysis that judges each generated racing
//! pair *before* any dynamic exploration: [`screen_pairs`] returns one
//! [`StaticVerdict`] per pair — `MustNotRace { reason }` when a static
//! argument proves no synthesized context can manifest the race, or
//! `MayRace { score }` with a digest-style suspicion rank otherwise.
//!
//! Three discharge arguments apply, strongest first (DESIGN.md §5 gives
//! the full soundness case):
//!
//! 1. **owner-monitor-held** — the must-hold lockset (see [`lockset`]) of
//!    *both* accesses contains the accessed owner's own path. Racing
//!    requires the two owners to alias, so both threads would hold the
//!    same monitor — mutual exclusion, no race.
//! 2. **thread-local-owner** — one side's owner is a fresh allocation
//!    that never escapes its invocation (see
//!    [`summaries::MethodFacts::escaped`]); no other thread can reach the
//!    object it accesses.
//! 3. **no-racy-context** — a mirror of the Context Deriver's anchor
//!    search: every candidate anchor either forces the two calls onto a
//!    common lock (the deriver's own [`lock_collision`] predicate) or
//!    cannot be installed through the *statically over-approximated*
//!    setter/builder summaries (see [`summaries`]) — so the deriver can
//!    only emit a non-racing plan for this pair.
//!
//! The screener never *invents* pairs and `MayRace` promises nothing;
//! only the discharge direction carries a soundness obligation, which is
//! why every static summary over-approximates its dynamic counterpart
//! (`tests/corpus_superset.rs` checks this on C1–C9) and the
//! `screener_agreement` property in the workspace `tests/properties.rs`
//! cross-checks verdicts against actually-manifesting races.

#![warn(missing_docs)]

pub mod lockset;
pub mod summaries;

use narada_core::access::AccessRecord;
use narada_core::lock_collision;
use narada_core::pairs::PairSet;
use narada_core::path::{IPath, PathField, PathRoot};
use narada_core::screen::{ScreenReason, StaticVerdict};
use narada_lang::mir::{InstrKind, MirProgram};

use lockset::LockCtx;
use summaries::{Statics, SymRoot};

/// Mirror of `SynthesisOptions::max_setter_depth`'s default: the deriver
/// bound the mirror must respect (a *larger* static bound is sound — it
/// only weakens discharge — a smaller one is not).
const MAX_SETTER_DEPTH: usize = 4;

/// Screens every pair of `pairs`, returning one verdict per pair in pair
/// order. This is the [`narada_core::screen::ScreenerFn`] the CLI plugs
/// into `synthesize_observed`.
pub fn screen_pairs(mir: &MirProgram, pairs: &PairSet) -> Vec<StaticVerdict> {
    screen_pairs_with(&summaries::analyze(mir), mir, pairs)
}

/// [`screen_pairs`] over a pre-built whole-program summary — the
/// screener's artifact-cache entry point: [`summaries::analyze`] is the
/// fixpoint that dominates screening cost and depends only on the MIR,
/// so a warm cache (`narada serve`) computes it once per program digest
/// and closes a [`narada_core::screen::ScreenerFn`] over it. `statics`
/// must be `analyze(mir)` for this same `mir`; verdicts are then
/// byte-identical to the cold path.
pub fn screen_pairs_with(
    statics: &Statics,
    mir: &MirProgram,
    pairs: &PairSet,
) -> Vec<StaticVerdict> {
    let shapes = Shapes::collect(statics);
    let lock_ctx = LockCtx::new(mir, statics);
    // Per-access facts, computed once (pairs share accesses heavily).
    let facts: Vec<AccessFacts> = pairs
        .accesses
        .iter()
        .map(|a| AccessFacts::compute(mir, statics, &lock_ctx, a))
        .collect();
    pairs
        .pairs
        .iter()
        .map(|pair| {
            let (x, y) = pairs.accesses_of(pair);
            verdict(x, y, &facts[pair.a1], &facts[pair.a2], &shapes)
        })
        .collect()
}

/// The global setter/builder shape sets the installability mirror queries
/// (the deriver searches summaries program-wide, so existence is global).
struct Shapes {
    /// `lhs ⤳ rhs` with both sides slot-rooted, as client paths.
    setters: Vec<(IPath, IPath)>,
    /// Builder exposures: `(chain below returned value, src path)`.
    builders: Vec<(Vec<PathField>, IPath)>,
    /// Memoized [`Shapes::setter_installable`] results: the anchor walks
    /// of different pairs re-query the same short chains constantly.
    cache: std::cell::RefCell<std::collections::HashMap<(Vec<PathField>, usize), bool>>,
}

impl Shapes {
    fn collect(statics: &Statics) -> Shapes {
        // Every alias spelling of every summary entry is admitted
        // (`Statics::chain_variants`): the dynamic analyzer may name a
        // setter or builder through whichever sibling field aliases the
        // object, and installability must over-approximate what the
        // deriver can do with those dynamic summaries.
        let mut setters = std::collections::HashSet::new();
        let mut builders = std::collections::HashSet::new();
        for f in &statics.methods {
            for (l, r) in &f.writes {
                if let (Some(lhs), Some(rhs)) = (l.as_path(), r.as_path()) {
                    for lc in statics.chain_variants(&lhs.fields) {
                        for rc in statics.chain_variants(&rhs.fields) {
                            setters.insert((
                                IPath {
                                    root: lhs.root,
                                    fields: lc.clone(),
                                },
                                IPath {
                                    root: rhs.root,
                                    fields: rc,
                                },
                            ));
                        }
                    }
                }
            }
            for (chain, src) in &f.returns {
                if let Some(src) = src.as_path() {
                    for cc in statics.chain_variants(chain) {
                        for sc in statics.chain_variants(&src.fields) {
                            builders.insert((
                                cc.clone(),
                                IPath {
                                    root: src.root,
                                    fields: sc,
                                },
                            ));
                        }
                    }
                }
            }
        }
        let mut setters: Vec<_> = setters.into_iter().collect();
        let mut builders: Vec<_> = builders.into_iter().collect();
        setters.sort();
        builders.sort();
        Shapes {
            setters,
            builders,
            cache: Default::default(),
        }
    }

    /// Mirror of `Deriver::derive_setters_impl` + `derive_builder_impl`
    /// existence, with types ignored (an over-approximation: anything the
    /// deriver can install, this returns `true` for).
    fn installable(&self, chain: &[PathField]) -> bool {
        self.setter_installable(chain, 0) || self.builder_exists(chain)
    }

    fn setter_installable(&self, chain: &[PathField], depth: usize) -> bool {
        if depth > MAX_SETTER_DEPTH || chain.is_empty() {
            return false;
        }
        if chain.iter().any(|pf| matches!(pf, PathField::Elem)) {
            return false;
        }
        let key = (chain.to_vec(), depth);
        if let Some(&hit) = self.cache.borrow().get(&key) {
            return hit;
        }
        let result = self.setter_installable_uncached(chain, depth);
        self.cache.borrow_mut().insert(key, result);
        result
    }

    fn setter_installable_uncached(&self, chain: &[PathField], depth: usize) -> bool {
        // deep-set / set: one summary assigns the whole chain.
        for (lhs, rhs) in &self.setters {
            if lhs.root != PathRoot::This
                || lhs.fields != chain
                || !matches!(rhs.root, PathRoot::Param(_))
            {
                continue;
            }
            if rhs.fields.is_empty() || self.setter_installable(&rhs.fields, depth + 1) {
                return true;
            }
        }
        // concat: bare-param setter for the head, then the tail on the
        // intermediate object.
        if chain.len() >= 2 {
            let head_ok = self.setters.iter().any(|(lhs, rhs)| {
                lhs.root == PathRoot::This
                    && lhs.fields == chain[..1]
                    && rhs.fields.is_empty()
                    && matches!(rhs.root, PathRoot::Param(_))
            });
            if head_ok && self.setter_installable(&chain[1..], depth + 1) {
                return true;
            }
        }
        false
    }

    fn builder_exists(&self, chain: &[PathField]) -> bool {
        self.builders.iter().any(|(c, src)| {
            c == chain && src.fields.is_empty() && matches!(src.root, PathRoot::Param(_))
        })
    }
}

/// Per-access static facts shared by all pairs touching the access.
struct AccessFacts {
    /// Client-relative must-hold lockset at the access (`None` = site not
    /// located statically, no information).
    must_locks: Option<Vec<IPath>>,
    /// The accessed owner provably never escapes its invocation.
    thread_local_owner: bool,
    /// The access's client method can anchor at this root (mirror of the
    /// deriver's `root_ref`/`root_type`).
    root_ok: RootOk,
}

#[derive(Clone, Copy)]
struct RootOk {
    is_instance: bool,
    arity: usize,
}

impl RootOk {
    fn ok(&self, root: PathRoot) -> bool {
        match root {
            PathRoot::This => self.is_instance,
            PathRoot::Param(i) => i < self.arity,
            PathRoot::Ret => false,
        }
    }
}

/// Does this instruction perform the access `(leaf, is_write)`?
fn access_matcher(leaf: PathField, is_write: bool) -> impl Fn(&InstrKind) -> bool {
    move |kind: &InstrKind| match (leaf, is_write, kind) {
        (PathField::Field(f), true, InstrKind::WriteField { field, .. }) => *field == f,
        (PathField::Field(f), false, InstrKind::ReadField { field, .. }) => *field == f,
        (PathField::Elem, true, InstrKind::WriteIndex { .. }) => true,
        (PathField::Elem, false, InstrKind::ReadIndex { .. }) => true,
        _ => false,
    }
}

/// The owner register of a matching access instruction.
fn owner_reg(kind: &InstrKind) -> Option<narada_lang::mir::VarId> {
    match kind {
        InstrKind::WriteField { obj, .. } | InstrKind::ReadField { obj, .. } => Some(*obj),
        InstrKind::WriteIndex { arr, .. } | InstrKind::ReadIndex { arr, .. } => Some(*arr),
        _ => None,
    }
}

impl AccessFacts {
    fn compute(
        mir: &MirProgram,
        statics: &Statics,
        lock_ctx: &LockCtx<'_>,
        acc: &AccessRecord,
    ) -> AccessFacts {
        let m = acc.method.index();
        let matcher = access_matcher(acc.leaf, acc.is_write);
        let must_locks = lock_ctx.must_locks_at(m, acc.span, &matcher);

        // Thread-locality: only claimed when the access site sits in the
        // client method's own body and every symbolic owner is a fresh,
        // never-escaping allocation of that body.
        let facts = &statics.methods[m];
        let mut sites = 0usize;
        let mut all_local = true;
        for instr in &mir.methods[m].instrs {
            if instr.span != acc.span || !matcher(&instr.kind) {
                continue;
            }
            sites += 1;
            let local = owner_reg(&instr.kind).is_some_and(|r| {
                let syms = &facts.syms[r.index()];
                !syms.is_empty()
                    && syms.iter().all(|s| match s.root {
                        SymRoot::Fresh(site) => {
                            s.chain.is_empty() && !facts.escaped.contains(&site)
                        }
                        SymRoot::Slot(_) => false,
                    })
            });
            all_local &= local;
        }
        let thread_local_owner = sites > 0 && all_local;

        AccessFacts {
            must_locks,
            thread_local_owner,
            root_ok: RootOk {
                is_instance: facts.is_instance,
                arity: facts.arity,
            },
        }
    }
}

fn verdict(
    x: &AccessRecord,
    y: &AccessRecord,
    fx: &AccessFacts,
    fy: &AccessFacts,
    shapes: &Shapes,
) -> StaticVerdict {
    let owner = |a: &AccessRecord| -> Option<IPath> {
        a.path.as_ref().and_then(|p| p.split_last()).map(|(o, _)| o)
    };
    let o1 = owner(x);
    let o2 = owner(y);

    // 1. Owner monitor held on both sides: racing owners must alias, so
    //    both threads would hold the same monitor.
    let owner_locked = |o: &Option<IPath>, f: &AccessFacts| -> bool {
        match (o, &f.must_locks) {
            (Some(o), Some(ls)) => ls.contains(o),
            _ => false,
        }
    };
    if owner_locked(&o1, fx) && owner_locked(&o2, fy) {
        return StaticVerdict::MustNotRace {
            reason: ScreenReason::OwnerMonitorHeld,
        };
    }

    // 2. A thread-local owner on either side: no second thread can reach
    //    the accessed object at all.
    if fx.thread_local_owner || fy.thread_local_owner {
        return StaticVerdict::MustNotRace {
            reason: ScreenReason::ThreadLocalOwner,
        };
    }

    // 3. Mirror of the deriver's primary anchor loop.
    let mut bare_anchor = false;
    if let (Some(o1), Some(o2)) = (&o1, &o2) {
        let mut any_sharable = false;
        for s in 0..=o1.common_suffix_len(o2) {
            let q1 = o1.drop_suffix(s);
            let q2 = o2.drop_suffix(s);
            if lock_collision(&x.locks, &y.locks, &q1, &q2) {
                continue;
            }
            if !sharable(&q1, &q2, fx, fy, shapes) {
                continue;
            }
            any_sharable = true;
            bare_anchor |= q1.fields.is_empty() && q2.fields.is_empty();
        }
        if !any_sharable {
            return StaticVerdict::MustNotRace {
                reason: ScreenReason::NoRacyContext,
            };
        }
    }

    StaticVerdict::MayRace {
        score: score(x, y, fx, fy, bare_anchor),
    }
}

/// Mirror of `Deriver::build_sharing` existence: can a shared object be
/// installed at `q1` of side 1's root and `q2` of side 2's root? Static
/// installability over-approximates the deriver's, so `false` here means
/// the deriver fails too.
fn sharable(q1: &IPath, q2: &IPath, fx: &AccessFacts, fy: &AccessFacts, shapes: &Shapes) -> bool {
    if !fx.root_ok.ok(q1.root) || !fy.root_ok.ok(q2.root) {
        return false;
    }
    let need1 = !q1.fields.is_empty();
    let need2 = !q2.fields.is_empty();
    (!need1 || shapes.installable(&q1.fields)) && (!need2 || shapes.installable(&q2.fields))
}

/// Digest-style suspicion score for an undischarged pair. Components:
/// write/write conflicts outrank write/read, dynamically-unprotected
/// sides outrank protected ones, statically lock-free sides add
/// certainty, and a bare-root anchor (the racy objects themselves are
/// handed to both threads, no installation needed) is easiest to poise.
fn score(
    x: &AccessRecord,
    y: &AccessRecord,
    fx: &AccessFacts,
    fy: &AccessFacts,
    bare_anchor: bool,
) -> u32 {
    let mut score = 1;
    score += match (x.is_write, y.is_write) {
        (true, true) => 40,
        _ => 20,
    };
    score += match (x.unprotected, y.unprotected) {
        (true, true) => 30,
        (true, false) | (false, true) => 15,
        (false, false) => 0,
    };
    let lock_free = |f: &AccessFacts| matches!(&f.must_locks, Some(ls) if ls.is_empty());
    score += match (lock_free(fx), lock_free(fy)) {
        (true, true) => 20,
        (true, false) | (false, true) => 10,
        (false, false) => 0,
    };
    if bare_anchor {
        score += 10;
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;
    use narada_lang::hir::FieldId;

    fn fields(ids: &[u32]) -> Vec<PathField> {
        ids.iter().map(|&f| PathField::Field(FieldId(f))).collect()
    }

    fn shapes(setters: Vec<(IPath, IPath)>, builders: Vec<(Vec<PathField>, IPath)>) -> Shapes {
        Shapes {
            setters,
            builders,
            cache: Default::default(),
        }
    }

    #[test]
    fn direct_setter_installs_its_chain() {
        let s = shapes(
            vec![(
                IPath {
                    root: PathRoot::This,
                    fields: fields(&[1]),
                },
                IPath::param(0),
            )],
            vec![],
        );
        assert!(s.installable(&fields(&[1])));
        assert!(!s.installable(&fields(&[2])));
        assert!(!s.installable(&fields(&[])));
    }

    #[test]
    fn elem_chains_are_never_setter_installable() {
        let s = shapes(
            vec![(
                IPath {
                    root: PathRoot::This,
                    fields: vec![PathField::Elem],
                },
                IPath::param(0),
            )],
            vec![],
        );
        assert!(!s.installable(&[PathField::Elem]));
    }

    #[test]
    fn concat_composes_head_and_tail() {
        // set(x): this.f = x;  setg(x): this.g = x  →  f.g installable.
        let s = shapes(
            vec![
                (
                    IPath {
                        root: PathRoot::This,
                        fields: fields(&[1]),
                    },
                    IPath::param(0),
                ),
                (
                    IPath {
                        root: PathRoot::This,
                        fields: fields(&[2]),
                    },
                    IPath::param(0),
                ),
            ],
            vec![],
        );
        assert!(s.installable(&fields(&[1, 2])));
        assert!(
            !s.installable(&fields(&[2, 1, 1, 1, 1, 1])),
            "depth-bounded"
        );
    }

    #[test]
    fn recursive_rhs_requires_its_own_setter() {
        // setter this.f ⤳ p0.g: installable only if .g itself is.
        let deep = shapes(
            vec![(
                IPath {
                    root: PathRoot::This,
                    fields: fields(&[1]),
                },
                IPath {
                    root: PathRoot::Param(0),
                    fields: fields(&[2]),
                },
            )],
            vec![],
        );
        assert!(!deep.installable(&fields(&[1])), "no setter for .g");
        let with_g = shapes(
            vec![
                (
                    IPath {
                        root: PathRoot::This,
                        fields: fields(&[1]),
                    },
                    IPath {
                        root: PathRoot::Param(0),
                        fields: fields(&[2]),
                    },
                ),
                (
                    IPath {
                        root: PathRoot::This,
                        fields: fields(&[2]),
                    },
                    IPath::param(1),
                ),
            ],
            vec![],
        );
        assert!(with_g.installable(&fields(&[1])));
    }

    #[test]
    fn builder_route_installs_without_setters() {
        let s = shapes(vec![], vec![(fields(&[3]), IPath::param(0))]);
        assert!(s.installable(&fields(&[3])));
        assert!(!s.installable(&fields(&[4])));
    }

    #[test]
    fn non_param_lhs_or_rhs_shapes_are_ignored() {
        // Param-rooted lhs and This-rooted rhs mirror summaries the
        // deriver filters out.
        let s = shapes(
            vec![
                (
                    IPath::param(0).child(PathField::Field(FieldId(1))),
                    IPath::param(1),
                ),
                (
                    IPath {
                        root: PathRoot::This,
                        fields: fields(&[2]),
                    },
                    IPath::this(),
                ),
            ],
            vec![],
        );
        assert!(!s.installable(&fields(&[1])));
        assert!(!s.installable(&fields(&[2])));
    }
}
