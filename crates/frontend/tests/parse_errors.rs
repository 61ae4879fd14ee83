//! Golden diagnostics: every malformed program yields a **spanned**
//! [`CompileError`] — never a panic, never a stack overflow — with a stable
//! message, 1-based position, and expected-token set. These are golden
//! tests: a change to any of these diagnostics is an intentional
//! user-facing change and must update this file.

use trance_frontend::{parse_program, CompileError, MAX_DEPTH};

fn err(src: &str) -> CompileError {
    match parse_program(src) {
        Err(e) => e,
        Ok(p) => panic!("expected a diagnostic for {src:?}, parsed {p:?}"),
    }
}

/// Asserts the exact message, position and expected set of a diagnostic.
fn golden(src: &str, message: &str, line: usize, col: usize, expected: &[&str]) {
    let e = err(src);
    assert_eq!(e.message, message, "message for {src:?}");
    assert_eq!((e.line, e.col), (line, col), "position for {src:?}");
    assert_eq!(e.expected, expected, "expected set for {src:?}");
}

const EXPR_START: &[&str] = &[
    "identifier",
    "literal",
    "'('",
    "'<'",
    "'{'",
    "'get'",
    "'dedup'",
    "'groupBy'",
    "'sumBy'",
];

#[test]
fn lexer_diagnostics() {
    golden("{ \"abc }", "unterminated string literal", 1, 3, &[]);
    golden(
        "\"a\\q\"",
        "invalid escape `\\q` in string literal",
        1,
        4,
        &[],
    );
    golden(
        "a & b",
        "unexpected character `&` (did you mean `&&`?)",
        1,
        3,
        &[],
    );
    golden(
        "a | b",
        "unexpected character `|` (did you mean `||`?)",
        1,
        3,
        &[],
    );
    golden("a $ b", "unexpected character `$`", 1, 3, &[]);
}

#[test]
fn binder_and_field_diagnostics() {
    golden(
        "for let in R union { 1 }",
        "reserved word 'let' cannot be used as a binder",
        1,
        5,
        &["identifier"],
    );
    golden(
        "<1 := 2>",
        "expected field name, found integer literal",
        1,
        2,
        &["identifier"],
    );
    golden(
        "x.",
        "expected field name, found end of input",
        1,
        3,
        &["identifier"],
    );
    golden("<a = 1>", "expected ':=', found '='", 1, 4, &["':='"]);
}

#[test]
fn arity_and_call_diagnostics() {
    golden(
        "get()",
        "expected an expression, found ')'",
        1,
        5,
        EXPR_START,
    );
    golden("groupBy[a](R)", "expected ';', found ']'", 1, 10, &["';'"]);
    golden("dedup(a, b)", "expected ')', found ','", 1, 8, &["')'"]);
}

#[test]
fn structure_diagnostics() {
    golden(
        "",
        "expected an expression, found end of input",
        1,
        1,
        EXPR_START,
    );
    golden(
        "for x in R union",
        "expected an expression, found end of input",
        1,
        17,
        EXPR_START,
    );
    golden(
        "let x := in 1",
        "expected an expression, found 'in'",
        1,
        10,
        EXPR_START,
    );
    golden(
        "if a b",
        "expected 'then', found identifier",
        1,
        6,
        &["'then'"],
    );
    golden("(1 + 2", "expected ')', found end of input", 1, 7, &["')'"]);
    golden(
        "1 2",
        "expected end of input, found integer literal",
        1,
        3,
        &["end of input"],
    );
}

#[test]
fn precedence_diagnostics() {
    golden(
        "1 < 2 < 3",
        "comparison operators are non-associative; use parentheses",
        1,
        7,
        &[],
    );
    golden(
        "1 + for x in R union { x }",
        "'for' expression must be parenthesised in operand position",
        1,
        5,
        &["'('"],
    );
}

#[test]
fn diagnostics_point_into_later_lines() {
    let e = err("A <= 1\nB <=\n  if x then else 2");
    assert_eq!(e.message, "expected an expression, found 'else'");
    assert_eq!((e.line, e.col), (3, 13));
    let rendered = e.to_string();
    assert!(
        rendered.contains("3 |   if x then else 2"),
        "rendered diagnostic must excerpt the offending line:\n{rendered}"
    );
    assert!(
        rendered.contains("at 3:13"),
        "rendered diagnostic must carry the position:\n{rendered}"
    );
}

#[test]
fn deep_nesting_is_a_spanned_error_not_a_stack_overflow() {
    // 5000 levels would overflow a 2 MiB test-thread stack if recursion ran
    // unchecked; the depth guard must fire with a plain diagnostic instead.
    let src = format!("{}1{}", "(".repeat(5000), ")".repeat(5000));
    let e = err(&src);
    assert_eq!(
        e.message,
        format!("expression nesting exceeds the maximum depth of {MAX_DEPTH}")
    );
    assert_eq!(e.line, 1);
    assert_eq!(
        e.col,
        MAX_DEPTH + 1,
        "the guard fires at the paren past the limit"
    );
}

#[test]
fn malformed_inputs_never_panic() {
    // A scattershot of junk: the only contract here is Err, not panic.
    for src in [
        "(((((",
        ">>>",
        "<<",
        "for for for",
        "\u{0}",
        "λλλ",
        "1e+",
        "a.b.c.(",
        "match x = then 1",
        "#site(a := )",
        "{}: Bag(",
        "let let := 1 in 2",
    ] {
        assert!(parse_program(src).is_err(), "{src:?} must be an error");
    }
}
