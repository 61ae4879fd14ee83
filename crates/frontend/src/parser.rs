//! Recursive-descent parser turning token streams into `trance_nrc` ASTs.
//!
//! Precedence (loosest to tightest): control forms (`for`/`let`/`if`),
//! `union`, `||`, `&&`, `!`, comparisons (non-associative), `+ -`, `* /`,
//! projection, atoms.
//! Inside a tuple literal `>`/`>=` close the tuple instead of comparing;
//! parentheses, brackets and braces restore the usual reading.

use trance_nrc::{CmpOp, Expr, PrimOp, Program, TupleType, Type, Value};

use crate::error::CompileError;
use crate::lexer::{lex, source_line, Span, Tok};

/// Maximum expression/type nesting depth. Exceeding it is a [`CompileError`]
/// ("expression nesting exceeds…"), never a stack overflow — the limit is
/// sized so the recursive-descent frames fit comfortably in a 2 MiB thread
/// stack even in debug builds.
pub const MAX_DEPTH: usize = 100;

type PResult<T> = Result<T, CompileError>;

/// Parses a single expression. The whole input must be consumed.
pub fn parse_expr(src: &str) -> PResult<Expr> {
    let mut p = Parser::new(src)?;
    let e = p.expr(0)?;
    p.expect_eof()?;
    Ok(e)
}

/// Parses a program: a sequence of `name <= expr` assignments. A bare
/// expression is accepted as a single-assignment program named `Q`.
pub fn parse_program(src: &str) -> PResult<Program> {
    let mut p = Parser::new(src)?;
    let mut prog = Program::new();
    if matches!(p.peek(), Tok::Ident(_)) && matches!(p.peek_at(1), Tok::Le) {
        loop {
            let name = match p.peek().clone() {
                Tok::Ident(n) => {
                    p.bump();
                    n
                }
                Tok::Eof => break,
                other => {
                    return Err(p.err_here(
                        format!(
                            "expected an assignment or end of input, found {}",
                            other.describe()
                        ),
                        vec!["identifier".into(), "end of input".into()],
                    ))
                }
            };
            p.expect(Tok::Le)?;
            prog.assign(name, p.expr(0)?);
        }
    } else {
        let e = p.expr(0)?;
        p.expect_eof()?;
        prog.assign("Q", e);
    }
    Ok(prog)
}

/// Parses a type in the surface notation (`int`, `Bag(<a: int>)`, `Label`,
/// `<n: t, ...>`, `?`).
pub fn parse_type(src: &str) -> PResult<Type> {
    let mut p = Parser::new(src)?;
    let t = p.type_ann()?;
    p.expect_eof()?;
    Ok(t)
}

struct Parser<'a> {
    src: &'a str,
    toks: Vec<(Tok, Span)>,
    pos: usize,
    depth: usize,
    /// Inside a tuple literal field, `>`/`>=` close the tuple rather than
    /// acting as comparison operators. Grouping brackets reset this.
    gt_blocked: bool,
}

fn expected_expression() -> Vec<String> {
    [
        "identifier",
        "literal",
        "'('",
        "'<'",
        "'{'",
        "'get'",
        "'dedup'",
        "'groupBy'",
        "'sumBy'",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> PResult<Self> {
        Ok(Parser {
            src,
            toks: lex(src)?,
            pos: 0,
            depth: 0,
            gt_blocked: false,
        })
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos.min(self.toks.len() - 1)].0
    }

    fn peek_at(&self, n: usize) -> &Tok {
        &self.toks[(self.pos + n).min(self.toks.len() - 1)].0
    }

    fn span(&self) -> Span {
        self.toks[self.pos.min(self.toks.len() - 1)].1
    }

    fn bump(&mut self) -> Tok {
        let t = self.peek().clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err_here(&self, message: impl Into<String>, expected: Vec<String>) -> CompileError {
        let span = self.span();
        CompileError::new(
            message,
            span.line,
            span.col,
            expected,
            source_line(self.src, span.line),
        )
    }

    fn expect(&mut self, t: Tok) -> PResult<()> {
        if self.peek() == &t {
            self.bump();
            Ok(())
        } else {
            Err(self.err_here(
                format!(
                    "expected {}, found {}",
                    t.describe(),
                    self.peek().describe()
                ),
                vec![t.describe()],
            ))
        }
    }

    fn expect_eof(&mut self) -> PResult<()> {
        if matches!(self.peek(), Tok::Eof) {
            Ok(())
        } else {
            Err(self.err_here(
                format!("expected end of input, found {}", self.peek().describe()),
                vec!["end of input".into()],
            ))
        }
    }

    /// A binder position: reserved words are rejected with a dedicated
    /// diagnostic.
    fn binder(&mut self) -> PResult<String> {
        match self.peek().clone() {
            Tok::Ident(n) => {
                self.bump();
                Ok(n)
            }
            kw if kw.is_keyword() => Err(self.err_here(
                format!(
                    "reserved word '{}' cannot be used as a binder",
                    kw.keyword_spelling().unwrap_or("?")
                ),
                vec!["identifier".into()],
            )),
            other => Err(self.err_here(
                format!("expected identifier, found {}", other.describe()),
                vec!["identifier".into()],
            )),
        }
    }

    /// A field/attribute name: reserved words are acceptable here.
    fn field_name(&mut self) -> PResult<String> {
        match self.peek().clone() {
            Tok::Ident(n) => {
                self.bump();
                Ok(n)
            }
            kw => {
                if let Some(s) = kw.keyword_spelling() {
                    self.bump();
                    Ok(s.to_string())
                } else {
                    Err(self.err_here(
                        format!("expected field name, found {}", kw.describe()),
                        vec!["identifier".into()],
                    ))
                }
            }
        }
    }

    fn enter(&mut self) -> PResult<()> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            Err(self.err_here(
                format!("expression nesting exceeds the maximum depth of {MAX_DEPTH}"),
                Vec::new(),
            ))
        } else {
            Ok(())
        }
    }

    fn with_gt<T>(&mut self, blocked: bool, f: impl FnOnce(&mut Self) -> PResult<T>) -> PResult<T> {
        let saved = std::mem::replace(&mut self.gt_blocked, blocked);
        let r = f(self);
        self.gt_blocked = saved;
        r
    }

    fn expr(&mut self, min: u8) -> PResult<Expr> {
        self.enter()?;
        let r = self.expr_inner(min);
        self.depth -= 1;
        r
    }

    fn expr_inner(&mut self, min: u8) -> PResult<Expr> {
        if min == 0 {
            match self.peek() {
                Tok::For => return self.for_expr(),
                Tok::Let => return self.let_expr(),
                Tok::If => return self.if_expr(),
                _ => {}
            }
        }
        self.binary(min)
    }

    fn for_expr(&mut self) -> PResult<Expr> {
        self.bump();
        let var = self.binder()?;
        self.expect(Tok::In)?;
        // The source sits strictly above `union` so the keyword terminates it.
        let source = self.expr(2)?;
        self.expect(Tok::Union)?;
        let body = self.expr(0)?;
        Ok(Expr::For {
            var,
            source: Box::new(source),
            body: Box::new(body),
        })
    }

    fn let_expr(&mut self) -> PResult<Expr> {
        self.bump();
        let var = self.binder()?;
        self.expect(Tok::Assign)?;
        let value = self.expr(1)?;
        self.expect(Tok::In)?;
        let body = self.expr(0)?;
        Ok(Expr::Let {
            var,
            value: Box::new(value),
            body: Box::new(body),
        })
    }

    fn if_expr(&mut self) -> PResult<Expr> {
        self.bump();
        let cond = self.expr(1)?;
        self.expect(Tok::Then)?;
        let then_branch = self.expr(0)?;
        let else_branch = if matches!(self.peek(), Tok::Else) {
            self.bump();
            Some(Box::new(self.expr(0)?))
        } else {
            None
        };
        Ok(Expr::If {
            cond: Box::new(cond),
            then_branch: Box::new(then_branch),
            else_branch,
        })
    }

    fn label_site(&mut self) -> PResult<u32> {
        match self.peek().clone() {
            Tok::Int(i) if i >= 0 && i <= u32::MAX as i64 => {
                self.bump();
                Ok(i as u32)
            }
            other => Err(self.err_here(
                format!("expected a label site number, found {}", other.describe()),
                vec!["integer literal".into()],
            )),
        }
    }

    fn binary(&mut self, min: u8) -> PResult<Expr> {
        let mut lhs = self.unary(min)?;
        while let Some((lvl, is_cmp)) = infix_level(self.peek()) {
            if lvl < min {
                break;
            }
            if self.gt_blocked && matches!(self.peek(), Tok::Gt | Tok::Ge) {
                break;
            }
            let op = self.bump();
            let rhs = if is_cmp {
                self.binary(6)?
            } else {
                self.binary(lvl + 1)?
            };
            lhs = make_binop(&op, lhs, rhs);
            if is_cmp {
                if let Some((5, true)) = infix_level(self.peek()) {
                    if !(self.gt_blocked && matches!(self.peek(), Tok::Gt | Tok::Ge)) {
                        return Err(self.err_here(
                            "comparison operators are non-associative; use parentheses",
                            Vec::new(),
                        ));
                    }
                }
            }
        }
        Ok(lhs)
    }

    fn unary(&mut self, min: u8) -> PResult<Expr> {
        if matches!(self.peek(), Tok::Bang) && min <= 4 {
            self.bump();
            let e = self.binary(5)?;
            return Ok(Expr::Not(Box::new(e)));
        }
        self.postfix()
    }

    fn postfix(&mut self) -> PResult<Expr> {
        let mut e = self.primary()?;
        while matches!(self.peek(), Tok::Dot) {
            self.bump();
            let field = self.field_name()?;
            e = Expr::Proj {
                tuple: Box::new(e),
                field,
            };
        }
        Ok(e)
    }

    fn primary(&mut self) -> PResult<Expr> {
        match self.peek().clone() {
            Tok::Int(i) => {
                self.bump();
                Ok(Expr::Const(Value::Int(i)))
            }
            Tok::Real(r) => {
                self.bump();
                Ok(Expr::Const(Value::Real(r)))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Expr::Const(Value::Str(s)))
            }
            Tok::True => {
                self.bump();
                Ok(Expr::Const(Value::Bool(true)))
            }
            Tok::False => {
                self.bump();
                Ok(Expr::Const(Value::Bool(false)))
            }
            Tok::Null => {
                self.bump();
                Ok(Expr::Const(Value::Null))
            }
            Tok::Date => {
                self.bump();
                self.expect(Tok::LParen)?;
                let negative = if matches!(self.peek(), Tok::Minus) {
                    self.bump();
                    true
                } else {
                    false
                };
                let d = match self.peek().clone() {
                    Tok::Int(i) => {
                        self.bump();
                        if negative {
                            -i
                        } else {
                            i
                        }
                    }
                    other => {
                        return Err(self.err_here(
                            format!("expected integer literal, found {}", other.describe()),
                            vec!["integer literal".into()],
                        ))
                    }
                };
                self.expect(Tok::RParen)?;
                Ok(Expr::Const(Value::Date(d)))
            }
            Tok::Minus => {
                self.bump();
                match self.peek().clone() {
                    Tok::Int(i) => {
                        self.bump();
                        Ok(Expr::Const(Value::Int(-i)))
                    }
                    Tok::Real(r) => {
                        self.bump();
                        Ok(Expr::Const(Value::Real(-r)))
                    }
                    other => Err(self.err_here(
                        format!(
                            "expected a numeric literal after '-', found {}",
                            other.describe()
                        ),
                        vec!["integer literal".into(), "real literal".into()],
                    )),
                }
            }
            Tok::Ident(n) => {
                self.bump();
                Ok(Expr::Var(n))
            }
            Tok::LParen => {
                self.bump();
                let e = self.with_gt(false, |p| p.expr(0))?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Lt => self.tuple_literal(),
            Tok::EmptySet => {
                self.bump();
                let ty = self.opt_type_annotation()?;
                Ok(Expr::EmptyBag(ty))
            }
            Tok::LBrace => {
                self.bump();
                if matches!(self.peek(), Tok::RBrace) {
                    self.bump();
                    let ty = self.opt_type_annotation()?;
                    Ok(Expr::EmptyBag(ty))
                } else {
                    let e = self.with_gt(false, |p| p.expr(0))?;
                    self.expect(Tok::RBrace)?;
                    Ok(Expr::Singleton(Box::new(e)))
                }
            }
            Tok::Get => Ok(Expr::Get(Box::new(self.call1()?))),
            Tok::Dedup => Ok(Expr::Dedup(Box::new(self.call1()?))),
            Tok::GroupBy => self.group_by(),
            Tok::SumBy => self.sum_by(),
            Tok::NewLabel => self.new_label(),
            kw @ (Tok::For | Tok::Let | Tok::If) => Err(self.err_here(
                format!(
                    "'{}' expression must be parenthesised in operand position",
                    kw.keyword_spelling().unwrap_or("?")
                ),
                vec!["'('".into()],
            )),
            other => Err(self.err_here(
                format!("expected an expression, found {}", other.describe()),
                expected_expression(),
            )),
        }
    }

    fn tuple_literal(&mut self) -> PResult<Expr> {
        self.bump(); // '<'
        let mut fields = Vec::new();
        if !matches!(self.peek(), Tok::Gt) {
            loop {
                let name = self.field_name()?;
                self.expect(Tok::Assign)?;
                let value = self.with_gt(true, |p| p.expr(0))?;
                fields.push((name, value));
                if matches!(self.peek(), Tok::Comma) {
                    self.bump();
                    if matches!(self.peek(), Tok::Gt) {
                        break; // trailing comma
                    }
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::Gt)?;
        Ok(Expr::Tuple(fields))
    }

    fn call1(&mut self) -> PResult<Expr> {
        self.bump(); // keyword
        self.expect(Tok::LParen)?;
        let e = self.with_gt(false, |p| p.expr(0))?;
        self.expect(Tok::RParen)?;
        Ok(e)
    }

    fn name_list(&mut self, terminators: &[Tok]) -> PResult<Vec<String>> {
        let mut out = Vec::new();
        if terminators.contains(self.peek()) {
            return Ok(out);
        }
        loop {
            out.push(self.field_name()?);
            if matches!(self.peek(), Tok::Comma) {
                self.bump();
            } else {
                break;
            }
        }
        Ok(out)
    }

    fn group_by(&mut self) -> PResult<Expr> {
        self.bump();
        self.expect(Tok::LBracket)?;
        let key = self.name_list(&[Tok::Semi])?;
        self.expect(Tok::Semi)?;
        let marker = self.field_name()?;
        if marker != "group" {
            return Err(self.err_here(
                format!("expected 'group=' in groupBy, found '{marker}'"),
                vec!["'group'".into()],
            ));
        }
        self.expect(Tok::Eq)?;
        let group_attr = self.field_name()?;
        self.expect(Tok::RBracket)?;
        self.expect(Tok::LParen)?;
        let input = self.with_gt(false, |p| p.expr(0))?;
        self.expect(Tok::RParen)?;
        Ok(Expr::GroupBy {
            input: Box::new(input),
            key,
            group_attr,
        })
    }

    fn sum_by(&mut self) -> PResult<Expr> {
        self.bump();
        self.expect(Tok::LBracket)?;
        let key = self.name_list(&[Tok::Semi])?;
        self.expect(Tok::Semi)?;
        let values = self.name_list(&[Tok::RBracket])?;
        self.expect(Tok::RBracket)?;
        self.expect(Tok::LParen)?;
        let input = self.with_gt(false, |p| p.expr(0))?;
        self.expect(Tok::RParen)?;
        Ok(Expr::SumBy {
            input: Box::new(input),
            key,
            values,
        })
    }

    fn new_label(&mut self) -> PResult<Expr> {
        self.bump();
        self.expect(Tok::Hash)?;
        let site = self.label_site()?;
        self.expect(Tok::LParen)?;
        let mut captures = Vec::new();
        if !matches!(self.peek(), Tok::RParen) {
            loop {
                let name = self.field_name()?;
                self.expect(Tok::Assign)?;
                let value = self.with_gt(false, |p| p.expr(0))?;
                captures.push((name, value));
                if matches!(self.peek(), Tok::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        Ok(Expr::NewLabel { site, captures })
    }

    fn opt_type_annotation(&mut self) -> PResult<Option<Type>> {
        if matches!(self.peek(), Tok::Colon) {
            self.bump();
            Ok(Some(self.type_ann()?))
        } else {
            Ok(None)
        }
    }

    fn type_ann(&mut self) -> PResult<Type> {
        self.enter()?;
        let r = self.type_ann_inner();
        self.depth -= 1;
        r
    }

    fn type_ann_inner(&mut self) -> PResult<Type> {
        match self.peek().clone() {
            Tok::Ident(w) => match w.as_str() {
                "int" => {
                    self.bump();
                    Ok(Type::int())
                }
                "real" => {
                    self.bump();
                    Ok(Type::real())
                }
                "string" => {
                    self.bump();
                    Ok(Type::string())
                }
                "bool" => {
                    self.bump();
                    Ok(Type::boolean())
                }
                "Bag" => {
                    self.bump();
                    self.expect(Tok::LParen)?;
                    let t = self.type_ann()?;
                    self.expect(Tok::RParen)?;
                    Ok(Type::bag(t))
                }
                "Label" => {
                    self.bump();
                    Ok(Type::Label)
                }
                _ => Err(self.err_here(
                    format!("unknown type name '{w}'"),
                    vec![
                        "'int'".into(),
                        "'real'".into(),
                        "'string'".into(),
                        "'bool'".into(),
                        "'date'".into(),
                        "'Bag'".into(),
                        "'Label'".into(),
                    ],
                )),
            },
            Tok::Date => {
                self.bump();
                Ok(Type::date())
            }
            Tok::Question => {
                self.bump();
                Ok(Type::Unknown)
            }
            Tok::Lt => {
                self.bump();
                let mut fields = Vec::new();
                if !matches!(self.peek(), Tok::Gt) {
                    loop {
                        let name = self.field_name()?;
                        self.expect(Tok::Colon)?;
                        let t = self.type_ann()?;
                        fields.push((name, t));
                        if matches!(self.peek(), Tok::Comma) {
                            self.bump();
                            if matches!(self.peek(), Tok::Gt) {
                                break;
                            }
                        } else {
                            break;
                        }
                    }
                }
                self.expect(Tok::Gt)?;
                Ok(Type::Tuple(TupleType { fields }))
            }
            other => Err(self.err_here(
                format!("expected a type, found {}", other.describe()),
                vec![
                    "'int'".into(),
                    "'real'".into(),
                    "'string'".into(),
                    "'bool'".into(),
                    "'date'".into(),
                    "'Bag'".into(),
                    "'Label'".into(),
                    "'<'".into(),
                    "'?'".into(),
                ],
            )),
        }
    }
}

/// Infix operator level plus whether it is a (non-associative) comparison.
fn infix_level(t: &Tok) -> Option<(u8, bool)> {
    Some(match t {
        Tok::Union => (1, false),
        Tok::OrOr => (2, false),
        Tok::AndAnd => (3, false),
        Tok::EqEq | Tok::Ne | Tok::Lt | Tok::Le | Tok::Gt | Tok::Ge => (5, true),
        Tok::Plus | Tok::Minus => (6, false),
        Tok::Star | Tok::Slash => (7, false),
        _ => return None,
    })
}

fn make_binop(op: &Tok, l: Expr, r: Expr) -> Expr {
    let (l, r) = (Box::new(l), Box::new(r));
    match op {
        Tok::Union => Expr::Union(l, r),
        Tok::OrOr => Expr::Or(l, r),
        Tok::AndAnd => Expr::And(l, r),
        Tok::EqEq => Expr::Cmp {
            op: CmpOp::Eq,
            left: l,
            right: r,
        },
        Tok::Ne => Expr::Cmp {
            op: CmpOp::Ne,
            left: l,
            right: r,
        },
        Tok::Lt => Expr::Cmp {
            op: CmpOp::Lt,
            left: l,
            right: r,
        },
        Tok::Le => Expr::Cmp {
            op: CmpOp::Le,
            left: l,
            right: r,
        },
        Tok::Gt => Expr::Cmp {
            op: CmpOp::Gt,
            left: l,
            right: r,
        },
        Tok::Ge => Expr::Cmp {
            op: CmpOp::Ge,
            left: l,
            right: r,
        },
        Tok::Plus => Expr::Prim {
            op: PrimOp::Add,
            left: l,
            right: r,
        },
        Tok::Minus => Expr::Prim {
            op: PrimOp::Sub,
            left: l,
            right: r,
        },
        Tok::Star => Expr::Prim {
            op: PrimOp::Mul,
            left: l,
            right: r,
        },
        Tok::Slash => Expr::Prim {
            op: PrimOp::Div,
            left: l,
            right: r,
        },
        _ => unreachable!("not an infix operator: {op:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trance_nrc::builder::*;

    #[test]
    fn parses_comprehensions_and_operators() {
        let e =
            parse_expr("for x in R union if x.a == 2 && x.b < 3 then { <u := x.a + 1, v := x.s> }")
                .unwrap();
        let want = forin(
            "x",
            var("R"),
            ifthen(
                and(
                    cmp_eq(proj(var("x"), "a"), int(2)),
                    cmp_lt(proj(var("x"), "b"), int(3)),
                ),
                singleton(tuple([
                    ("u", add(proj(var("x"), "a"), int(1))),
                    ("v", proj(var("x"), "s")),
                ])),
            ),
        );
        assert_eq!(e, want);
    }

    #[test]
    fn gt_closes_tuples_but_parens_restore_comparison() {
        let e = parse_expr("<u := x.a>").unwrap();
        assert_eq!(e, tuple([("u", proj(var("x"), "a"))]));
        let e = parse_expr("<u := (x.a > 1)>").unwrap();
        assert_eq!(e, tuple([("u", cmp_gt(proj(var("x"), "a"), int(1)))]));
    }

    #[test]
    fn unicode_alternates_are_accepted() {
        let a = parse_expr("⟨a := 1⟩").unwrap();
        assert_eq!(a, tuple([("a", int(1))]));
        let b = parse_expr("R ⊎ S").unwrap();
        assert_eq!(b, union(var("R"), var("S")));
        let c = parse_expr("∅: Bag(int)").unwrap();
        assert_eq!(c, empty_bag_of(Type::bag(Type::int())));
        let d = parse_expr("{}: int").unwrap();
        assert_eq!(d, empty_bag_of(Type::int()));
    }

    #[test]
    fn precedence_matches_the_documented_table() {
        let e = parse_expr("a.x + b.y * 2 == c.z || !p && q").unwrap();
        let want = or(
            cmp_eq(
                add(proj(var("a"), "x"), mul(proj(var("b"), "y"), int(2))),
                proj(var("c"), "z"),
            ),
            and(not(var("p")), var("q")),
        );
        assert_eq!(e, want);
    }

    #[test]
    fn programs_parse_as_assignment_sequences() {
        let p = parse_program("A <= R\nB <= dedup(A)").unwrap();
        assert_eq!(p.assigned_names(), vec!["A", "B"]);
        assert_eq!(p.assignments[1].expr, dedup(var("A")));
    }

    #[test]
    fn types_round_trip_through_display() {
        for t in [
            Type::int(),
            Type::bag_of([("a", Type::int()), ("s", Type::string())]),
            Type::bag(Type::tuple([(
                "items",
                Type::bag_of([("ik", Type::int())]),
            )])),
            Type::Label,
            Type::Unknown,
        ] {
            let printed = t.to_string();
            let parsed = parse_type(&printed).unwrap();
            assert_eq!(parsed, t, "type `{printed}` must round-trip");
        }
    }

    #[test]
    fn dangling_else_binds_to_the_innermost_if() {
        let e = parse_expr("if a then if b then 1 else 2").unwrap();
        let want = ifthen(var("a"), ifelse(var("b"), int(1), int(2)));
        assert_eq!(e, want);
    }

    #[test]
    fn deep_nesting_is_an_error_not_an_overflow() {
        let src = format!("{}1{}", "(".repeat(5000), ")".repeat(5000));
        let err = parse_expr(&src).unwrap_err();
        assert!(err.message.contains("nesting exceeds"));
    }
}
