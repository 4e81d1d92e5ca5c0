//! # narada-lang — the MJ object language
//!
//! MJ is a small Java-like object language used as the substrate for the
//! Narada racy-test-synthesis pipeline. It has exactly the semantic
//! ingredients the PLDI 2015 technique needs:
//!
//! * classes with mutable fields, single inheritance and dynamic dispatch,
//! * a shared heap with reference aliasing,
//! * monitor-style locking (`sync` methods and `sync (e) { … }` blocks),
//! * `int`/`bool` scalars and arrays,
//! * sequential client tests (`test name { … }`) that act as the *seed
//!   test-suite*.
//!
//! ## Quick example
//!
//! ```
//! use narada_lang::compile;
//!
//! let program = compile(r#"
//!     class Counter {
//!         int count;
//!         void inc() { this.count = this.count + 1; }
//!     }
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
//! "#)?;
//! assert_eq!(program.classes.len(), 2);
//! assert_eq!(program.tests.len(), 1);
//! # Ok::<(), narada_lang::Diagnostics>(())
//! ```
//!
//! The resolved [`hir::Program`] is executed by `narada-vm` and analyzed by
//! `narada-core`.
//!
//! ## Language reference
//!
//! ```text
//! program  := (class | test)*
//! class    := "class" NAME ("extends" NAME)? "{" (field | method)* "}"
//! field    := type NAME ("=" expr)? ";"           // initializer runs at `new`
//! method   := "static"? "sync"? ("void" | type) NAME "(" params ")" block
//!           | "sync"? "init" "(" params ")" block  // constructor
//! test     := "test" NAME block                    // sequential client code
//! type     := "int" | "bool" | NAME | type "[]"
//! stmt     := "var" NAME "=" expr ";" | lvalue "=" expr ";" | expr ";"
//!           | "if" "(" expr ")" block ("else" block)?
//!           | "while" "(" expr ")" block
//!           | "sync" "(" expr ")" block            // monitor section
//!           | "return" expr? ";" | "assert" expr ";"
//! expr     := literals, `this`, `null`, `new C(args)`, `new T[n]`,
//!             `e.f`, `e.m(args)`, `C.m(args)`, `a[i]`, `a.length`,
//!             `rand()`, arithmetic/comparison/logic operators
//! ```
//!
//! `sync` on a method is sugar for wrapping the body in
//! `sync (this) { … }`; `rand()` returns an integer the client cannot
//! control (the analysis treats it as *not controllable*, paper §3.1.1).

#![warn(missing_docs)]

pub mod ast;
pub mod build;
pub mod error;
pub mod hir;
pub mod lexer;
pub mod lower;
pub mod mir;
pub mod parser;
pub mod pretty;
pub mod span;
pub mod token;
mod typeck;

pub use error::{Diagnostic, Diagnostics, Phase};
pub use span::{LineCol, SourceMap, Span};

/// Parses MJ source into an untyped AST.
///
/// # Errors
///
/// Returns all lexical and syntax errors found in `src`.
pub fn parse(src: &str) -> Result<ast::Program, Diagnostics> {
    parser::parse(src)
}

/// Parses and type-checks MJ source, producing the resolved [`hir::Program`].
///
/// This is the usual entry point; see the crate docs for an example.
///
/// # Errors
///
/// Returns all lexical, syntax, and type errors found in `src`.
pub fn compile(src: &str) -> Result<hir::Program, Diagnostics> {
    let ast = parse(src)?;
    typeck::check(&ast)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_reports_parse_errors() {
        assert!(compile("class {").is_err());
    }

    #[test]
    fn compile_reports_type_errors() {
        assert!(compile("test t { var x = 1 + true; }").is_err());
    }

    #[test]
    fn compile_empty_program() {
        let p = compile("").unwrap();
        assert!(p.classes.is_empty());
        assert!(p.tests.is_empty());
    }
}
