//! Pretty printing of NRC expressions and programs in the surface syntax
//! accepted by the `trance-frontend` parser.
//!
//! The output is **re-parseable**: for every expression built from scalar
//! constants, `parse(pretty(e)) == e` (the round-trip law checked by the
//! compiler's seeded fuzzer). Indentation and line breaks are cosmetic —
//! only parenthesisation carries meaning. The printer therefore:
//!
//! * renders operands (operator arguments, call arguments, inline tuple
//!   fields) in a fully parenthesised single-line form,
//! * parenthesises control forms (`for`/`let`/`if`) and
//!   `union` chains when they appear as operands of an infix `union`,
//! * parenthesises an `if` without `else` in the then-branch of an `if`
//!   *with* `else` (the dangling-else rule binds `else` to the innermost
//!   `if`),
//! * prints reals in a form that survives the trip (`2.0`, not `2`),
//!   escapes strings, and keeps the element-type annotation on typed empty
//!   bags (`{}: <a: int>`).
//!
//! Composite constants (tuple/bag/label *values*) and non-finite reals
//! have no surface spelling; they fall back to the `Value` display form
//! and are the only expressions that do not round-trip.

use std::fmt::Write as _;

use crate::expr::Expr;
use crate::program::Program;
use crate::value::Value;

/// Renders an expression as indented, human-readable text.
pub fn pretty(expr: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, expr, 0);
    out
}

/// Renders a program: one `name <= expr` block per assignment.
pub fn pretty_program(program: &Program) -> String {
    let mut out = String::new();
    for a in &program.assignments {
        let _ = writeln!(out, "{} <=", a.name);
        write_expr(&mut out, &a.expr, 1);
        out.push('\n');
    }
    out
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

/// Renders a scalar constant in its surface spelling.
fn fmt_const(v: &Value) -> String {
    match v {
        Value::Int(i) => format!("{i}"),
        // `{:?}` keeps the decimal point (`2.0`), so reals re-parse as reals.
        Value::Real(r) => format!("{r:?}"),
        Value::Str(s) => escape_str(s),
        Value::Bool(b) => format!("{b}"),
        Value::Null => "NULL".into(),
        Value::Date(d) => format!("date({d})"),
        // Composite constants have no surface spelling; fall back to the
        // value display form (not re-parseable, documented above).
        other => format!("{other}"),
    }
}

fn escape_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{{{:x}}}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Precedence of the *rendered block form*: only control forms and infix
/// `union` print bare in block mode — everything else is
/// rendered atom-safe by [`inline`].
fn rendered_prec(e: &Expr) -> u8 {
    match e {
        Expr::For { .. } | Expr::Let { .. } | Expr::If { .. } => 0,
        Expr::Union(..) => 1,
        _ => 9,
    }
}

/// Writes `e` in block form, parenthesising it when its rendered
/// precedence is below what the surrounding position requires.
fn write_child(out: &mut String, e: &Expr, level: usize, min: u8) {
    if rendered_prec(e) < min {
        indent(out, level);
        out.push_str("(\n");
        write_expr(out, e, level + 1);
        out.push('\n');
        indent(out, level);
        out.push(')');
    } else {
        write_expr(out, e, level);
    }
}

/// True when a trailing `else` after `e` would attach to an `if` *inside*
/// `e` (the dangling-else rule), so the printer must parenthesise.
fn captures_else(e: &Expr) -> bool {
    match e {
        Expr::If {
            else_branch: None, ..
        } => true,
        Expr::If {
            else_branch: Some(eb),
            ..
        } => captures_else(eb),
        Expr::For { body, .. } | Expr::Let { body, .. } => captures_else(body),
        _ => false,
    }
}

fn write_expr(out: &mut String, expr: &Expr, level: usize) {
    match expr {
        Expr::Const(_)
        | Expr::Var(_)
        | Expr::Proj { .. }
        | Expr::Prim { .. }
        | Expr::Cmp { .. }
        | Expr::And(..)
        | Expr::Or(..)
        | Expr::Not(..)
        | Expr::NewLabel { .. }
        | Expr::Get(_)
        | Expr::EmptyBag(_) => {
            indent(out, level);
            out.push_str(&block_atom(expr));
        }
        Expr::Tuple(fields) => {
            indent(out, level);
            out.push_str("<\n");
            for (n, e) in fields {
                indent(out, level + 1);
                let _ = write!(out, "{n} := ");
                if is_inline(e) {
                    out.push_str(&inline(e));
                } else {
                    out.push('\n');
                    write_expr(out, e, level + 2);
                }
                out.push_str(",\n");
            }
            indent(out, level);
            out.push('>');
        }
        Expr::Singleton(e) => {
            indent(out, level);
            if is_inline(e) {
                let _ = write!(out, "{{ {} }}", inline(e));
            } else {
                out.push_str("{\n");
                write_expr(out, e, level + 1);
                out.push('\n');
                indent(out, level);
                out.push('}');
            }
        }
        Expr::For { var, source, body } => {
            indent(out, level);
            let _ = writeln!(out, "for {var} in {} union", inline(source));
            write_expr(out, body, level + 1);
        }
        Expr::Union(a, b) => {
            write_child(out, a, level, 1);
            out.push('\n');
            indent(out, level);
            out.push_str("union\n");
            write_child(out, b, level, 2);
        }
        Expr::Let { var, value, body } => {
            indent(out, level);
            let _ = writeln!(out, "let {var} := {} in", inline(value));
            write_expr(out, body, level);
        }
        Expr::If {
            cond,
            then_branch,
            else_branch,
        } => {
            indent(out, level);
            let _ = writeln!(out, "if {} then", inline(cond));
            if else_branch.is_some() && captures_else(then_branch) {
                indent(out, level + 1);
                out.push_str("(\n");
                write_expr(out, then_branch, level + 2);
                out.push('\n');
                indent(out, level + 1);
                out.push(')');
            } else {
                write_expr(out, then_branch, level + 1);
            }
            if let Some(e) = else_branch {
                out.push('\n');
                indent(out, level);
                out.push_str("else\n");
                write_expr(out, e, level + 1);
            }
        }
        Expr::Dedup(e) => {
            indent(out, level);
            out.push_str("dedup(\n");
            write_expr(out, e, level + 1);
            out.push(')');
        }
        Expr::GroupBy {
            input,
            key,
            group_attr,
        } => {
            indent(out, level);
            let _ = writeln!(out, "groupBy[{}; group={group_attr}](", key.join(","));
            write_expr(out, input, level + 1);
            out.push(')');
        }
        Expr::SumBy { input, key, values } => {
            indent(out, level);
            let _ = writeln!(out, "sumBy[{}; {}](", key.join(","), values.join(","));
            write_expr(out, input, level + 1);
            out.push(')');
        }
    }
}

/// Block rendering for forms that are single-line anyway. Unlike
/// [`inline`], a typed empty bag needs no parentheses here because block
/// positions are full-expression positions.
fn block_atom(e: &Expr) -> String {
    match e {
        Expr::EmptyBag(None) => "{}".into(),
        Expr::EmptyBag(Some(t)) => format!("{{}}: {t}"),
        _ => inline(e),
    }
}

fn is_inline(e: &Expr) -> bool {
    matches!(
        e,
        Expr::Const(_)
            | Expr::Var(_)
            | Expr::Proj { .. }
            | Expr::Prim { .. }
            | Expr::Cmp { .. }
            | Expr::And(..)
            | Expr::Or(..)
            | Expr::Not(..)
            | Expr::NewLabel { .. }
            | Expr::Get(_)
            | Expr::EmptyBag(_)
    )
}

/// Renders `e` on one line in an *atom-safe* form: the result can be used
/// in any operand position (including as a projection base) without
/// changing how it parses. Non-atomic forms are parenthesised.
fn inline(e: &Expr) -> String {
    match e {
        Expr::Const(v) => fmt_const(v),
        Expr::Var(name) => name.clone(),
        Expr::Proj { tuple, field } => format!("{}.{field}", inline(tuple)),
        Expr::Tuple(fields) => {
            let fs: Vec<String> = fields
                .iter()
                .map(|(n, e)| format!("{n} := {}", inline(e)))
                .collect();
            format!("<{}>", fs.join(", "))
        }
        Expr::EmptyBag(None) => "{}".into(),
        Expr::EmptyBag(Some(t)) => format!("({{}}: {t})"),
        Expr::Singleton(e) => format!("{{ {} }}", inline(e)),
        Expr::Get(e) => format!("get({})", inline(e)),
        Expr::For { var, source, body } => {
            format!("(for {var} in {} union {})", inline(source), inline(body))
        }
        Expr::Union(a, b) => format!("({} union {})", inline(a), inline(b)),
        Expr::Let { var, value, body } => {
            format!("(let {var} := {} in {})", inline(value), inline(body))
        }
        Expr::If {
            cond,
            then_branch,
            else_branch,
        } => match else_branch {
            Some(eb) => format!(
                "(if {} then {} else {})",
                inline(cond),
                inline(then_branch),
                inline(eb)
            ),
            None => format!("(if {} then {})", inline(cond), inline(then_branch)),
        },
        Expr::Prim { op, left, right } => {
            format!("({} {} {})", inline(left), op.symbol(), inline(right))
        }
        Expr::Cmp { op, left, right } => {
            format!("({} {} {})", inline(left), op.symbol(), inline(right))
        }
        Expr::And(a, b) => format!("({} && {})", inline(a), inline(b)),
        Expr::Or(a, b) => format!("({} || {})", inline(a), inline(b)),
        Expr::Not(e) => format!("(!{})", inline(e)),
        Expr::Dedup(e) => format!("dedup({})", inline(e)),
        Expr::GroupBy {
            input,
            key,
            group_attr,
        } => format!(
            "groupBy[{}; group={group_attr}]({})",
            key.join(","),
            inline(input)
        ),
        Expr::SumBy { input, key, values } => format!(
            "sumBy[{}; {}]({})",
            key.join(","),
            values.join(","),
            inline(input)
        ),
        Expr::NewLabel { site, captures } => {
            let caps: Vec<String> = captures
                .iter()
                .map(|(n, e)| format!("{n}:={}", inline(e)))
                .collect();
            format!("NewLabel#{site}({})", caps.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::types::Type;

    #[test]
    fn pretty_prints_the_running_example_shape() {
        let q = forin(
            "cop",
            var("COP"),
            singleton(tuple([
                ("cname", proj(var("cop"), "cname")),
                (
                    "oparts",
                    sum_by(
                        forin(
                            "op",
                            proj(var("cop"), "oparts"),
                            ifthen(
                                cmp_eq(proj(var("op"), "pid"), int(1)),
                                singleton(tuple([("total", proj(var("op"), "qty"))])),
                            ),
                        ),
                        &["pname"],
                        &["total"],
                    ),
                ),
            ])),
        );
        let s = pretty(&q);
        assert!(s.contains("for cop in COP union"));
        assert!(s.contains("sumBy[pname; total]"));
        assert!(s.contains("cop.cname"));
    }

    #[test]
    fn pretty_program_lists_assignments() {
        let mut p = Program::new();
        p.assign("A", var("R"));
        p.assign("B", dedup(var("A")));
        let s = pretty_program(&p);
        assert!(s.contains("A <="));
        assert!(s.contains("B <="));
    }

    #[test]
    fn reals_keep_their_decimal_point() {
        assert_eq!(pretty(&real(2.0)), "2.0");
        assert_eq!(pretty(&real(-0.5)), "-0.5");
        assert_eq!(pretty(&int(2)), "2");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(pretty(&string("a \"b\"\n\\c")), "\"a \\\"b\\\"\\n\\\\c\"");
    }

    #[test]
    fn typed_empty_bags_keep_their_annotation() {
        let e = empty_bag_of(Type::tuple([("a", Type::int())]));
        assert_eq!(pretty(&e), "{}: <a: int>");
    }

    #[test]
    fn union_parenthesises_control_form_operands() {
        let e = union(
            forin("x", var("R"), singleton(var("x"))),
            forin("y", var("S"), singleton(var("y"))),
        );
        let s = pretty(&e);
        assert!(
            s.starts_with("("),
            "left control operand needs parens:\n{s}"
        );
        assert!(s.contains(")\nunion\n("), "both operands need parens:\n{s}");
    }

    #[test]
    fn dangling_else_gets_parenthesised() {
        let e = ifelse(
            var("a"),
            ifthen(var("b"), int(1)), // would capture the else below
            int(2),
        );
        let s = pretty(&e);
        assert!(
            s.contains("("),
            "else-less then-branch must be parenthesised:\n{s}"
        );
    }
}
