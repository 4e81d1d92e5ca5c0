//! The screener's soundness rests on its static summaries
//! *over-approximating* the dynamic ones the Context Deriver consumes:
//! anything the deriver can observe in a seed trace must have a static
//! counterpart, or "statically uninstallable ⇒ deriver fails" breaks.
//! These tests check that direction empirically on the whole corpus —
//! including the two deliberate non-approximations documented in
//! `summaries.rs` (callee-fresh returns, heap edges left by earlier
//! invocations), which must never matter on C1–C9.
//!
//! Matching is modulo `Statics::chain_variants`: when two sibling fields
//! of one object may hold the same value (C2's `mutex` and `c`), the
//! dynamic analyzer names paths through whichever field it concretely
//! traversed, while the static summary keeps one spelling plus rewrite
//! rules.

use narada_core::{synthesize_observed, SynthesisOptions};
use narada_lang::lower::lower_program;
use narada_obs::Obs;
use narada_screen::summaries;

#[test]
fn static_setters_cover_every_dynamic_setter_summary() {
    for e in narada_corpus::all() {
        let prog = e.compile().expect("corpus compiles");
        let mir = lower_program(&prog);
        let out = synthesize_observed(&prog, &mir, &SynthesisOptions::default(), None, &Obs::new());
        let statics = summaries::analyze(&mir);
        for s in &out.analysis.setters {
            let facts = &statics.methods[s.method.index()];
            let found = facts.writes.iter().any(|(l, r)| {
                let (Some(lp), Some(rp)) = (l.as_path(), r.as_path()) else {
                    return false;
                };
                lp.root == s.lhs.root
                    && rp.root == s.rhs.root
                    && statics.chain_variants(&lp.fields).contains(&s.lhs.fields)
                    && statics.chain_variants(&rp.fields).contains(&s.rhs.fields)
            });
            assert!(
                found,
                "{}: dynamic setter {} ⤳ {} in {} has no static counterpart",
                e.id,
                s.lhs,
                s.rhs,
                prog.qualified_name(s.method)
            );
        }
    }
}

#[test]
fn static_returns_cover_every_dynamic_return_summary() {
    for e in narada_corpus::all() {
        let prog = e.compile().expect("corpus compiles");
        let mir = lower_program(&prog);
        let out = synthesize_observed(&prog, &mir, &SynthesisOptions::default(), None, &Obs::new());
        let statics = summaries::analyze(&mir);
        for r in &out.analysis.returns {
            let facts = &statics.methods[r.method.index()];
            let found = facts.returns.iter().any(|(chain, src)| {
                let Some(sp) = src.as_path() else {
                    return false;
                };
                sp.root == r.src.root
                    && statics.chain_variants(chain).contains(&r.ret_path.fields)
                    && statics.chain_variants(&sp.fields).contains(&r.src.fields)
            });
            assert!(
                found,
                "{}: dynamic return {} ⇐ {} in {} has no static counterpart",
                e.id,
                r.ret_path,
                r.src,
                prog.qualified_name(r.method)
            );
        }
    }
}
