//! # trance-frontend
//!
//! The textual surface syntax of **trance-rs**: a hand-written lexer and
//! recursive-descent parser that turn source text into the [`trance_nrc`]
//! AST, with spanned [`CompileError`] diagnostics (line/column, expected
//! token sets, a source excerpt) instead of panics. Parsed programs flow
//! through `trance_nrc::typecheck` and the plan compiler
//! (`trance_algebra::lower`), the one route every strategy executes.
//!
//! The language is core NRC plus `NewLabel`, and the plan compiler runs all
//! of it except what it rejects with a typed lowering error (never a panic):
//!
//! * `get(e)`, in any position;
//! * `if … then … else …` whose branches are bags (the else-less form is a
//!   filter and compiles);
//! * an `if` without `else` outside any `for`;
//! * a `let` that binds a scalar or a tuple rather than a bag;
//! * a bag variable or bag attribute used whole as a `for` body
//!   (`for x in R union S`, `for x in R union x.items`) instead of iterated;
//! * `groupBy` / `dedup` of a whole `let`-bound intermediate;
//! * a `union` of a whole relation with a constructed bag;
//! * in a scalar position, anything but constants, `+ - * /`, comparisons,
//!   `&& || !`, `NewLabel` and (chained) projections of a variable an
//!   enclosing `for` binds: so a bare iteration variable, a nested tuple, a
//!   conditional, or a projection of anything else (`<a := 1>.a`).
//!
//! The shredded strategies also need each inner bag of the output to
//! navigate a bag attribute of the enclosing level or to filter a flat
//! source by equality with it (`trance_shred::query`); other shapes are a
//! typed shredding error.
//!
//! The grammar is the exact language `trance_nrc::pretty` prints, which
//! makes `parse(pretty(e)) == e` a checkable round-trip law (exercised by
//! the seeded fuzzer in the compiler's test suite).
//!
//! ## Grammar (EBNF)
//!
//! ```text
//! program   ::= { ident "<=" expr } | expr
//!
//! expr      ::= "for" ident "in" union_expr "union" expr
//!             | "let" ident ":=" expr "in" expr
//!             | "if" expr "then" expr [ "else" expr ]
//!             | union_expr
//! union_expr::= or_expr { "union" or_expr }
//! or_expr   ::= and_expr { "||" and_expr }
//! and_expr  ::= not_expr { "&&" not_expr }
//! not_expr  ::= "!" cmp_expr | cmp_expr
//! cmp_expr  ::= add_expr [ ("==" | "!=" | "<" | "<=" | ">" | ">=") add_expr ]
//! add_expr  ::= mul_expr { ("+" | "-") mul_expr }
//! mul_expr  ::= proj_expr { ("*" | "/") proj_expr }
//! proj_expr ::= primary { "." field }
//! primary   ::= literal | ident | "(" expr ")"
//!             | "<" [ field ":=" expr { "," field ":=" expr } [ "," ] ] ">"
//!             | "{" "}" [ ":" type ]            (* empty bag, opt. annotated *)
//!             | "{" expr "}"                    (* singleton bag *)
//!             | "get" "(" expr ")" | "dedup" "(" expr ")"
//!             | "groupBy" "[" fields ";" "group" "=" field "]" "(" expr ")"
//!             | "sumBy" "[" fields ";" fields "]" "(" expr ")"
//!             | "NewLabel" "#" int "(" [ field ":=" expr { "," ... } ] ")"
//! literal   ::= int | real | string | "true" | "false" | "NULL"
//!             | "date" "(" int ")" | "-" (int | real)
//! type      ::= "int" | "real" | "string" | "bool" | "date" | "?"
//!             | "Bag" "(" type ")" | "Label"
//!             | "<" [ field ":" type { "," field ":" type } ] ">"
//! ```
//!
//! Notes on the fine print:
//!
//! * **Control forms** (`for`, `let`, `if`) are only
//!   allowed where a full expression is expected (bodies, branches,
//!   parenthesised/braced positions, tuple fields). As an *operand* of an
//!   infix operator they must be parenthesised; the printer inserts those
//!   parentheses.
//! * **Tuples vs. comparisons**: inside a tuple literal the tokens `>` and
//!   `>=` close the tuple rather than acting as comparison operators, so
//!   `<u := x.a>` parses as expected; write `<u := (a > b)>` to compare.
//!   Parentheses, brackets and braces reset that rule.
//! * **Comparisons are non-associative**: `a < b < c` is a parse error
//!   suggesting parentheses.
//! * **`<=` at program scope**: `name <= expr` is an assignment when a
//!   statement is expected; use `parse_expr` (or parentheses) for a
//!   top-level `<=` comparison.
//! * **Unicode alternates** from the paper's notation are accepted:
//!   `⟨` `⟩` (tuple), `∅` (empty bag), `⊎`/`∪` (union), `≠` `≤` `≥` and
//!   `⇐` (assignment).
//! * `//` starts a line comment.
//! * Nesting depth is limited (see [`MAX_DEPTH`]); exceeding it is a
//!   [`CompileError`], not a stack overflow.
//! * Composite constants (bag/tuple/label *values* embedded as literals)
//!   and non-finite reals have no surface spelling; every scalar constant
//!   round-trips.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod error;
mod lexer;
mod parser;

pub use error::CompileError;
pub use lexer::{Span, Tok};
pub use parser::{parse_expr, parse_program, parse_type, MAX_DEPTH};

/// Convenience result alias for front-end operations.
pub type Result<T> = std::result::Result<T, CompileError>;
