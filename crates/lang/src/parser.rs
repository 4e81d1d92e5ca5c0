//! Recursive-descent parser for MJ.
//!
//! Grammar sketch (see the crate docs for the full language reference):
//!
//! ```text
//! program   := (class | test)*
//! class     := "class" IDENT ("extends" IDENT)? "{" member* "}"
//! member    := field | method | ctor
//! field     := type IDENT ("=" expr)? ";"
//! method    := "static"? "sync"? (type | "void") IDENT "(" params ")" block
//! ctor      := "sync"? "init" "(" params ")" block
//! test      := "test" IDENT block
//! stmt      := "var" IDENT "=" expr ";" | "if" …| "while" … | "sync" (e) block
//!            | "return" expr? ";" | "assert" expr ";" | expr ("=" expr)? ";"
//! expr      := precedence climbing over || && == != < <= > >= + - * / % ! -
//!              with postfix `.f`, `.m(args)`, `[i]`
//! ```

use crate::ast::*;
use crate::error::{Diagnostic, Diagnostics, Phase};
use crate::lexer::lex;
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Parses a complete MJ program.
///
/// # Errors
///
/// Returns accumulated lexical and syntax errors. The parser recovers at
/// member and declaration boundaries so multiple errors can be reported
/// at once.
pub fn parse(src: &str) -> Result<Program, Diagnostics> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        errors: Vec::new(),
        depth: 0,
        height: 0,
    };
    let program = p.program();
    if p.errors.is_empty() {
        Ok(program)
    } else {
        Err(Diagnostics::new(p.errors))
    }
}

/// The deepest syntax tree the parser builds, counted in levels along
/// one path from a method, test or field initializer down to a leaf:
/// each block, statement, operator, call, access and pair of parentheses
/// is one level. The parser and every later pass recurse once per level,
/// so a deeper source (say, 10,000 nested parentheses or a 10,000-term
/// sum) is refused with a diagnostic instead of overflowing the stack.
pub const MAX_DEPTH: usize = 128;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    errors: Vec<Diagnostic>,
    /// Levels above the node being parsed.
    depth: usize,
    /// Height in levels of the expression parsed last.
    height: usize,
}

/// Signals that the current declaration could not be parsed; the caller
/// skips ahead to a synchronization point.
struct Bail;

type PResult<T> = Result<T, Bail>;

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, ahead: usize) -> &TokenKind {
        let i = (self.pos + ahead).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> PResult<Token> {
        if self.peek() == &kind {
            Ok(self.bump())
        } else {
            self.error_here(format!(
                "expected {}, found {}",
                kind.describe(),
                self.peek().describe()
            ));
            Err(Bail)
        }
    }

    fn expect_ident(&mut self) -> PResult<Ident> {
        if let TokenKind::Ident(name) = self.peek().clone() {
            let t = self.bump();
            Ok(Ident::new(name, t.span))
        } else {
            self.error_here(format!(
                "expected identifier, found {}",
                self.peek().describe()
            ));
            Err(Bail)
        }
    }

    fn error_here(&mut self, msg: String) {
        let span = self.span();
        self.errors.push(Diagnostic::new(Phase::Parse, msg, span));
    }

    fn too_deep(&mut self) -> Bail {
        self.error_here(format!("source nests deeper than {MAX_DEPTH} levels"));
        Bail
    }

    /// Parses a child node one level below the current one.
    fn nest<T>(&mut self, parse: impl FnOnce(&mut Self) -> PResult<T>) -> PResult<T> {
        if self.depth + 1 >= MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let node = parse(self);
        self.depth -= 1;
        node
    }

    /// Returns `e`, an expression `height` levels high, after checking
    /// that it fits under [`MAX_DEPTH`] where it sits. Left-associative
    /// chains are built in a loop, so only a height check sees how deep
    /// their first operand ends up.
    fn built(&mut self, e: Expr, height: usize) -> PResult<Expr> {
        if self.depth + height > MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.height = height;
        Ok(e)
    }

    /// Builds `lhs op rhs` from two operands and their heights.
    fn binary(&mut self, op: BinOp, lhs: Expr, lhs_height: usize, rhs: Expr) -> PResult<Expr> {
        let height = lhs_height.max(self.height) + 1;
        let span = lhs.span().merge(rhs.span());
        let e = Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
            span,
        };
        self.built(e, height)
    }

    /// Skips tokens until the next likely declaration start.
    fn recover_to_decl(&mut self) {
        let mut depth = 0usize;
        loop {
            match self.peek() {
                TokenKind::Eof => return,
                TokenKind::LBrace => {
                    depth += 1;
                    self.bump();
                }
                TokenKind::RBrace => {
                    self.bump();
                    if depth == 0 {
                        return;
                    }
                    depth -= 1;
                    if depth == 0 {
                        return;
                    }
                }
                TokenKind::Class | TokenKind::Test if depth == 0 => return,
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// Skips the rest of a member that failed to parse, through its `;`
    /// or the `}` that closes its body, and stops before the class's own
    /// `}`, so the class's later members still parse. `Err(Bail)` at a
    /// `class` or `test` outside any brace: the class body never closed.
    fn recover_to_member(&mut self, member_start: usize) -> PResult<()> {
        // Braces the member opened before it failed.
        let mut depth = self.tokens[member_start..self.pos]
            .iter()
            .fold(0usize, |d, t| match t.kind {
                TokenKind::LBrace => d + 1,
                TokenKind::RBrace => d.saturating_sub(1),
                _ => d,
            });
        loop {
            match self.peek() {
                TokenKind::Eof => return Ok(()),
                TokenKind::RBrace if depth == 0 => return Ok(()),
                TokenKind::Class | TokenKind::Test if depth == 0 => return Err(Bail),
                TokenKind::Semi if depth == 0 => {
                    self.bump();
                    return Ok(());
                }
                TokenKind::LBrace => depth += 1,
                TokenKind::RBrace => {
                    depth -= 1;
                    if depth == 0 {
                        self.bump();
                        return Ok(());
                    }
                }
                _ => {}
            }
            self.bump();
        }
    }

    fn program(&mut self) -> Program {
        let mut program = Program::default();
        loop {
            match self.peek() {
                TokenKind::Eof => break,
                TokenKind::Class => match self.class_decl() {
                    Ok(c) => program.classes.push(c),
                    Err(Bail) => self.recover_to_decl(),
                },
                TokenKind::Test => match self.test_decl() {
                    Ok(t) => program.tests.push(t),
                    Err(Bail) => self.recover_to_decl(),
                },
                _ => {
                    self.error_here(format!(
                        "expected `class` or `test`, found {}",
                        self.peek().describe()
                    ));
                    self.bump();
                    self.recover_to_decl();
                }
            }
        }
        program
    }

    fn class_decl(&mut self) -> PResult<ClassDecl> {
        let start = self.span();
        self.expect(TokenKind::Class)?;
        let name = self.expect_ident()?;
        let parent = if self.eat(&TokenKind::Extends) {
            Some(self.expect_ident()?)
        } else {
            None
        };
        self.expect(TokenKind::LBrace)?;
        let mut fields = Vec::new();
        let mut methods = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            if self.peek() == &TokenKind::Eof {
                self.error_here("unclosed class body".into());
                return Err(Bail);
            }
            let member_start = self.pos;
            if self.member(&mut fields, &mut methods).is_err() {
                self.recover_to_member(member_start)?;
            }
        }
        Ok(ClassDecl {
            name,
            parent,
            fields,
            methods,
            span: start.merge(self.prev_span()),
        })
    }

    fn member(
        &mut self,
        fields: &mut Vec<FieldDecl>,
        methods: &mut Vec<MethodDecl>,
    ) -> PResult<()> {
        let start = self.span();
        let is_static = self.eat(&TokenKind::Static);
        let is_sync = self.eat(&TokenKind::Sync);

        // Constructor: `init ( … ) { … }`
        if self.peek() == &TokenKind::Init {
            let name_tok = self.bump();
            if is_static {
                self.errors.push(Diagnostic::new(
                    Phase::Parse,
                    "constructors cannot be static",
                    name_tok.span,
                ));
            }
            let params = self.params()?;
            let body = self.block()?;
            methods.push(MethodDecl {
                is_static: false,
                is_sync,
                is_ctor: true,
                ret: None,
                name: Ident::new("init", name_tok.span),
                params,
                body,
                span: start.merge(self.prev_span()),
            });
            return Ok(());
        }

        // `void m(…) {…}` or `T m(…) {…}` or field `T f (= e)? ;`
        let ret = if self.eat(&TokenKind::Void) {
            None
        } else {
            Some(self.type_expr()?)
        };
        let name = self.expect_ident()?;
        if self.peek() == &TokenKind::LParen {
            let params = self.params()?;
            let body = self.block()?;
            methods.push(MethodDecl {
                is_static,
                is_sync,
                is_ctor: false,
                ret,
                name,
                params,
                body,
                span: start.merge(self.prev_span()),
            });
        } else {
            if is_static || is_sync {
                self.errors.push(Diagnostic::new(
                    Phase::Parse,
                    "field declarations cannot be `static` or `sync`",
                    start,
                ));
            }
            let Some(ty) = ret else {
                self.error_here("fields cannot have type `void`".into());
                return Err(Bail);
            };
            let init = if self.eat(&TokenKind::Eq) {
                Some(self.expr()?)
            } else {
                None
            };
            self.expect(TokenKind::Semi)?;
            fields.push(FieldDecl {
                ty,
                name,
                init,
                span: start.merge(self.prev_span()),
            });
        }
        Ok(())
    }

    fn params(&mut self) -> PResult<Vec<Param>> {
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.eat(&TokenKind::RParen) {
            loop {
                let ty = self.type_expr()?;
                let name = self.expect_ident()?;
                params.push(Param { ty, name });
                if self.eat(&TokenKind::RParen) {
                    break;
                }
                self.expect(TokenKind::Comma)?;
            }
        }
        Ok(params)
    }

    fn test_decl(&mut self) -> PResult<TestDecl> {
        let start = self.span();
        self.expect(TokenKind::Test)?;
        let name = self.expect_ident()?;
        let body = self.block()?;
        Ok(TestDecl {
            name,
            body,
            span: start.merge(self.prev_span()),
        })
    }

    fn type_expr(&mut self) -> PResult<TypeExpr> {
        let base = match self.peek().clone() {
            TokenKind::IntTy => {
                let t = self.bump();
                TypeExpr::Int(t.span)
            }
            TokenKind::BoolTy => {
                let t = self.bump();
                TypeExpr::Bool(t.span)
            }
            TokenKind::Ident(name) => {
                let t = self.bump();
                TypeExpr::Named(Ident::new(name, t.span))
            }
            other => {
                self.error_here(format!("expected a type, found {}", other.describe()));
                return Err(Bail);
            }
        };
        let mut ty = base;
        while self.peek() == &TokenKind::LBracket && self.peek_at(1) == &TokenKind::RBracket {
            let l = self.bump();
            let r = self.bump();
            ty = TypeExpr::Array(Box::new(ty), l.span.merge(r.span));
        }
        Ok(ty)
    }

    fn block(&mut self) -> PResult<Block> {
        let start = self.span();
        self.expect(TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            if self.peek() == &TokenKind::Eof {
                self.error_here("unclosed block".into());
                return Err(Bail);
            }
            stmts.push(self.nest(Self::stmt)?);
        }
        Ok(Block {
            stmts,
            span: start.merge(self.prev_span()),
        })
    }

    fn stmt(&mut self) -> PResult<Stmt> {
        let start = self.span();
        match self.peek() {
            TokenKind::Var => {
                self.bump();
                let name = self.expect_ident()?;
                self.expect(TokenKind::Eq)?;
                let init = self.nest(Self::expr)?;
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Let {
                    name,
                    init,
                    span: start.merge(self.prev_span()),
                })
            }
            TokenKind::If => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let cond = self.nest(Self::expr)?;
                self.expect(TokenKind::RParen)?;
                let then_blk = self.nest(Self::block)?;
                let else_blk = if self.eat(&TokenKind::Else) {
                    if self.peek() == &TokenKind::If {
                        // `else if` sugar: wrap the nested if in a block
                        // (two levels: the block and the nested if).
                        let nested = self.nest(|p| p.nest(Self::stmt))?;
                        let span = nested.span();
                        Some(Block {
                            stmts: vec![nested],
                            span,
                        })
                    } else {
                        Some(self.nest(Self::block)?)
                    }
                } else {
                    None
                };
                Ok(Stmt::If {
                    cond,
                    then_blk,
                    else_blk,
                    span: start.merge(self.prev_span()),
                })
            }
            TokenKind::While => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let cond = self.nest(Self::expr)?;
                self.expect(TokenKind::RParen)?;
                let body = self.nest(Self::block)?;
                Ok(Stmt::While {
                    cond,
                    body,
                    span: start.merge(self.prev_span()),
                })
            }
            TokenKind::Sync => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let lock = self.nest(Self::expr)?;
                self.expect(TokenKind::RParen)?;
                let body = self.nest(Self::block)?;
                Ok(Stmt::Sync {
                    lock,
                    body,
                    span: start.merge(self.prev_span()),
                })
            }
            TokenKind::Return => {
                self.bump();
                let value = if self.peek() == &TokenKind::Semi {
                    None
                } else {
                    Some(self.nest(Self::expr)?)
                };
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Return {
                    value,
                    span: start.merge(self.prev_span()),
                })
            }
            TokenKind::Assert => {
                self.bump();
                let cond = self.nest(Self::expr)?;
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Assert {
                    cond,
                    span: start.merge(self.prev_span()),
                })
            }
            _ => {
                let e = self.nest(Self::expr)?;
                if self.eat(&TokenKind::Eq) {
                    let value = self.nest(Self::expr)?;
                    self.expect(TokenKind::Semi)?;
                    Ok(Stmt::Assign {
                        target: e,
                        value,
                        span: start.merge(self.prev_span()),
                    })
                } else {
                    self.expect(TokenKind::Semi)?;
                    Ok(Stmt::Expr(e))
                }
            }
        }
    }

    fn expr(&mut self) -> PResult<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.and_expr()?;
        while self.eat(&TokenKind::OrOr) {
            let lhs_height = self.height;
            let rhs = self.and_expr()?;
            lhs = self.binary(BinOp::Or, lhs, lhs_height, rhs)?;
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.cmp_expr()?;
        while self.eat(&TokenKind::AndAnd) {
            let lhs_height = self.height;
            let rhs = self.cmp_expr()?;
            lhs = self.binary(BinOp::And, lhs, lhs_height, rhs)?;
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> PResult<Expr> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            TokenKind::EqEq => BinOp::Eq,
            TokenKind::NotEq => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let lhs_height = self.height;
        let rhs = self.add_expr()?;
        self.binary(op, lhs, lhs_height, rhs)
    }

    fn add_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let lhs_height = self.height;
            let rhs = self.mul_expr()?;
            lhs = self.binary(op, lhs, lhs_height, rhs)?;
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Rem,
                _ => break,
            };
            self.bump();
            let lhs_height = self.height;
            let rhs = self.unary_expr()?;
            lhs = self.binary(op, lhs, lhs_height, rhs)?;
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> PResult<Expr> {
        let start = self.span();
        if self.eat(&TokenKind::Bang) {
            let operand = self.nest(Self::unary_expr)?;
            let span = start.merge(operand.span());
            let height = self.height + 1;
            let e = Expr::Unary {
                op: UnOp::Not,
                operand: Box::new(operand),
                span,
            };
            return self.built(e, height);
        }
        if self.eat(&TokenKind::Minus) {
            let operand = self.nest(Self::unary_expr)?;
            let span = start.merge(operand.span());
            let height = self.height + 1;
            let e = Expr::Unary {
                op: UnOp::Neg,
                operand: Box::new(operand),
                span,
            };
            return self.built(e, height);
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> PResult<Expr> {
        let mut e = self.primary_expr()?;
        loop {
            let e_height = self.height;
            if self.eat(&TokenKind::Dot) {
                let name = self.expect_ident()?;
                if self.peek() == &TokenKind::LParen {
                    let args = self.args()?;
                    let span = e.span().merge(self.prev_span());
                    let height = e_height.max(self.height) + 1;
                    let call = Expr::Call {
                        recv: Box::new(e),
                        method: name,
                        args,
                        span,
                    };
                    e = self.built(call, height)?;
                } else {
                    let span = e.span().merge(name.span);
                    let field = Expr::Field {
                        obj: Box::new(e),
                        field: name,
                        span,
                    };
                    e = self.built(field, e_height + 1)?;
                }
            } else if self.peek() == &TokenKind::LBracket {
                self.bump();
                let idx = self.nest(Self::expr)?;
                self.expect(TokenKind::RBracket)?;
                let span = e.span().merge(self.prev_span());
                let height = e_height.max(self.height) + 1;
                let index = Expr::Index {
                    arr: Box::new(e),
                    idx: Box::new(idx),
                    span,
                };
                e = self.built(index, height)?;
            } else {
                break;
            }
        }
        Ok(e)
    }

    /// A parenthesized argument list; leaves the tallest argument's
    /// height (0 for none) in `self.height`.
    fn args(&mut self) -> PResult<Vec<Expr>> {
        self.expect(TokenKind::LParen)?;
        let mut args = Vec::new();
        let mut height = 0;
        if !self.eat(&TokenKind::RParen) {
            loop {
                args.push(self.nest(Self::expr)?);
                height = height.max(self.height);
                if self.eat(&TokenKind::RParen) {
                    break;
                }
                self.expect(TokenKind::Comma)?;
            }
        }
        self.height = height;
        Ok(args)
    }

    fn primary_expr(&mut self) -> PResult<Expr> {
        let start = self.span();
        match self.peek().clone() {
            TokenKind::Int(n) => {
                self.bump();
                self.built(Expr::Int(n, start), 1)
            }
            TokenKind::True => {
                self.bump();
                self.built(Expr::Bool(true, start), 1)
            }
            TokenKind::False => {
                self.bump();
                self.built(Expr::Bool(false, start), 1)
            }
            TokenKind::Null => {
                self.bump();
                self.built(Expr::Null(start), 1)
            }
            TokenKind::This => {
                self.bump();
                self.built(Expr::This(start), 1)
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.nest(Self::expr)?;
                self.expect(TokenKind::RParen)?;
                let height = self.height + 1;
                self.built(e, height)
            }
            TokenKind::New => {
                self.bump();
                // `new int[len]`, `new bool[len]`, `new C(args)`, `new C[len]`
                match self.peek().clone() {
                    TokenKind::IntTy | TokenKind::BoolTy => {
                        let elem = self.type_expr_no_array()?;
                        self.expect(TokenKind::LBracket)?;
                        let len = self.nest(Self::expr)?;
                        self.expect(TokenKind::RBracket)?;
                        let height = self.height + 1;
                        let e = Expr::NewArray {
                            elem,
                            len: Box::new(len),
                            span: start.merge(self.prev_span()),
                        };
                        self.built(e, height)
                    }
                    TokenKind::Ident(_) => {
                        let class = self.expect_ident()?;
                        let e = if self.peek() == &TokenKind::LBracket {
                            self.bump();
                            let len = self.nest(Self::expr)?;
                            self.expect(TokenKind::RBracket)?;
                            Expr::NewArray {
                                elem: TypeExpr::Named(class),
                                len: Box::new(len),
                                span: start.merge(self.prev_span()),
                            }
                        } else {
                            let args = self.args()?;
                            Expr::New {
                                class,
                                args,
                                span: start.merge(self.prev_span()),
                            }
                        };
                        let height = self.height + 1;
                        self.built(e, height)
                    }
                    other => {
                        self.error_here(format!(
                            "expected a type after `new`, found {}",
                            other.describe()
                        ));
                        Err(Bail)
                    }
                }
            }
            TokenKind::Ident(name) => {
                let t = self.bump();
                let id = Ident::new(name, t.span);
                if self.peek() == &TokenKind::LParen {
                    let args = self.args()?;
                    let height = self.height + 1;
                    let e = Expr::BuiltinCall {
                        name: id,
                        args,
                        span: start.merge(self.prev_span()),
                    };
                    self.built(e, height)
                } else {
                    self.built(Expr::Name(id), 1)
                }
            }
            other => {
                self.error_here(format!(
                    "expected an expression, found {}",
                    other.describe()
                ));
                Err(Bail)
            }
        }
    }

    fn type_expr_no_array(&mut self) -> PResult<TypeExpr> {
        match self.peek().clone() {
            TokenKind::IntTy => {
                let t = self.bump();
                Ok(TypeExpr::Int(t.span))
            }
            TokenKind::BoolTy => {
                let t = self.bump();
                Ok(TypeExpr::Bool(t.span))
            }
            other => {
                self.error_here(format!("expected a type, found {}", other.describe()));
                Err(Bail)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(src: &str) -> Program {
        parse(src).unwrap_or_else(|e| panic!("parse failed:\n{e}"))
    }

    /// An error inside a method body costs that method only: the class's
    /// later members, its closing brace and the next declaration parse
    /// without a diagnostic of their own.
    #[test]
    fn a_bad_member_is_skipped_inside_its_class() {
        let src = "class C { int x; int m() { return (1 + ; } \
                   int n() { return this.x; } int y; }
                   test t { var c = new C(); }";
        let mut p = Parser {
            tokens: lex(src).unwrap(),
            pos: 0,
            errors: Vec::new(),
            depth: 0,
            height: 0,
        };
        let program = p.program();
        assert_eq!(p.errors.len(), 1, "{:?}", p.errors);
        let class = &program.classes[0];
        let methods: Vec<_> = class.methods.iter().map(|m| m.name.name.as_str()).collect();
        let fields: Vec<_> = class.fields.iter().map(|f| f.name.name.as_str()).collect();
        assert_eq!(methods, ["n"]);
        assert_eq!(fields, ["x", "y"]);
        assert_eq!(program.tests.len(), 1);
    }

    #[test]
    fn parse_counter_lib() {
        let p = ok(r#"
            class Counter {
                int count;
                void inc() { this.count = this.count + 1; }
            }
            class Lib {
                Counter c;
                sync void update() { this.c.inc(); }
                sync void set(Counter x) { this.c = x; }
            }
            test t1 {
                var r = new Counter();
                var p = new Lib();
                p.set(r);
                p.update();
            }
        "#);
        assert_eq!(p.classes.len(), 2);
        assert_eq!(p.tests.len(), 1);
        assert_eq!(p.classes[0].name.name, "Counter");
        assert_eq!(p.classes[0].fields.len(), 1);
        assert_eq!(p.classes[1].methods.len(), 2);
        assert!(p.classes[1].methods[0].is_sync);
        assert_eq!(p.tests[0].body.stmts.len(), 4);
    }

    #[test]
    fn parse_extends_and_ctor() {
        let p = ok(r#"
            class Base { int x; }
            class Derived extends Base {
                init(int v) { this.x = v; }
            }
        "#);
        assert_eq!(p.classes[1].parent.as_ref().unwrap().name, "Base");
        assert!(p.classes[1].methods[0].is_ctor);
    }

    #[test]
    fn parse_static_method() {
        let p = ok(r#"
            class Factory {
                static Factory create() { return new Factory(); }
            }
        "#);
        assert!(p.classes[0].methods[0].is_static);
    }

    #[test]
    fn parse_arrays() {
        let p = ok(r#"
            class Buf {
                int[] data;
                init(int n) { this.data = new int[n]; }
                int get(int i) { return this.data[i]; }
                void put(int i, int v) { this.data[i] = v; }
            }
        "#);
        let m = &p.classes[0].methods[2];
        assert!(matches!(m.body.stmts[0], Stmt::Assign { .. }));
    }

    #[test]
    fn parse_control_flow() {
        let p = ok(r#"
            class C {
                int m(int n) {
                    var s = 0;
                    var i = 0;
                    while (i < n) {
                        if (i % 2 == 0) { s = s + i; } else if (i > 10) { s = s - 1; } else { s = s + 1; }
                        i = i + 1;
                    }
                    return s;
                }
            }
        "#);
        let m = &p.classes[0].methods[0];
        assert_eq!(m.body.stmts.len(), 4);
    }

    #[test]
    fn parse_sync_block() {
        let p = ok(r#"
            class C {
                int x;
                void m(C other) { sync (other) { this.x = 1; } }
            }
        "#);
        assert!(matches!(
            p.classes[0].methods[0].body.stmts[0],
            Stmt::Sync { .. }
        ));
    }

    #[test]
    fn parse_builtin_call() {
        let p = ok("class C { int m() { return rand(); } }");
        let Stmt::Return { value: Some(e), .. } = &p.classes[0].methods[0].body.stmts[0] else {
            panic!("expected return");
        };
        assert!(matches!(e, Expr::BuiltinCall { .. }));
    }

    #[test]
    fn parse_static_call_shape() {
        // `Factory.create()` parses as a Call on Name("Factory"); the checker
        // disambiguates.
        let p = ok("test t { var f = Factory.create(); }");
        let Stmt::Let { init, .. } = &p.tests[0].body.stmts[0] else {
            panic!()
        };
        let Expr::Call { recv, method, .. } = init else {
            panic!("expected call, got {init:?}")
        };
        assert!(matches!(**recv, Expr::Name(_)));
        assert_eq!(method.name, "create");
    }

    #[test]
    fn precedence_mul_before_add() {
        let p = ok("test t { var x = 1 + 2 * 3; }");
        let Stmt::Let { init, .. } = &p.tests[0].body.stmts[0] else {
            panic!()
        };
        let Expr::Binary {
            op: BinOp::Add,
            rhs,
            ..
        } = init
        else {
            panic!("expected +, got {init:?}")
        };
        assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn precedence_cmp_below_logic() {
        let p = ok("test t { var x = 1 < 2 && 3 >= 4 || true; }");
        let Stmt::Let { init, .. } = &p.tests[0].body.stmts[0] else {
            panic!()
        };
        assert!(matches!(init, Expr::Binary { op: BinOp::Or, .. }));
    }

    #[test]
    fn error_recovery_reports_multiple() {
        let err = parse("class A { int ; } class B { void m() { return 1 } }").unwrap_err();
        assert!(err.len() >= 2, "expected >=2 errors, got: {err}");
    }

    #[test]
    fn error_missing_semi() {
        let err = parse("test t { var x = 1 }").unwrap_err();
        assert!(err.to_string().contains("expected `;`"), "{err}");
    }

    #[test]
    fn chained_postfix() {
        let p = ok("test t { a.b.c.m(1, 2)[3] = 4; }");
        let Stmt::Assign { target, .. } = &p.tests[0].body.stmts[0] else {
            panic!()
        };
        assert!(matches!(target, Expr::Index { .. }));
    }

    #[test]
    fn unary_chains() {
        let p = ok("test t { var x = !!true; var y = --1; }");
        assert_eq!(p.tests[0].body.stmts.len(), 2);
    }

    #[test]
    fn field_initializer() {
        let p = ok("class C { int x = 5; C next = null; }");
        assert!(p.classes[0].fields[0].init.is_some());
        assert!(matches!(p.classes[0].fields[1].init, Some(Expr::Null(_))));
    }

    #[test]
    fn new_array_of_class() {
        let p = ok("test t { var a = new Task[10]; }");
        let Stmt::Let { init, .. } = &p.tests[0].body.stmts[0] else {
            panic!()
        };
        assert!(matches!(init, Expr::NewArray { .. }));
    }

    #[test]
    fn return_without_value() {
        let p = ok("class C { void m() { return; } }");
        assert!(matches!(
            p.classes[0].methods[0].body.stmts[0],
            Stmt::Return { value: None, .. }
        ));
    }

    #[test]
    fn nesting_past_the_depth_bound_is_a_diagnostic() {
        // The body block, each `if` and its block, the `var` and its
        // literal: 3 + 2n levels.
        let ifs = |n: usize| {
            format!(
                "test t {{ {}var x = 1; {}}}",
                "if (true) { ".repeat(n),
                "} ".repeat(n)
            )
        };
        let fits = (MAX_DEPTH - 3) / 2;
        assert!(parse(&ifs(fits)).is_ok());
        let deep = [
            ifs(fits + 1),
            ifs(10_000),
            format!(
                "class C {{ int f = {}1{}; }}",
                "(".repeat(10_000),
                ")".repeat(10_000)
            ),
            format!("test t {{ var a = b{}; }}", "[0]".repeat(10_000)),
            format!("test t {{ var a = 1{}; }}", " * 1".repeat(10_000)),
        ];
        for src in deep {
            let err = parse(&src).unwrap_err().to_string();
            assert!(err.contains("nests deeper"), "{err}");
        }
    }
}
