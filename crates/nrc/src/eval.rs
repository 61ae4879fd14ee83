//! A reference, single-node evaluator for NRC programs.
//!
//! The evaluator defines the semantics every compilation route must agree
//! with: integration tests compare the output of the distributed standard and
//! shredded pipelines against this evaluator on the same inputs.
//!
//! It is the literal reading of NRC, nested loops by design (no hash join,
//! no plan, no cache), and it copies nothing it only reads: a `for` item or
//! `let` value is bound by reference in a `Scope` on the stack, looked up
//! innermost-first, and the inputs in [`Env`] are borrowed. A variable, a
//! projection of a borrowed tuple and the `get` of a borrowed bag evaluate
//! to a borrow; loops, comparisons and groupings read by reference.
//!
//! **The NULL rule** is the plan layer's, and it is written once, in
//! [`crate::value`]: projecting an attribute a tuple lacks reads as NULL
//! (the outer-join convention), NULL propagates through arithmetic
//! ([`prim_op`]), and NULL compares false, `NULL = NULL` included
//! ([`cmp_op`]) — so `!(NULL = x)` holds. `sumBy` reads an absent value as
//! NULL, which adds nothing; a group of NULLs sums to `0`. Where a bag is
//! expected, NULL reads as `{}`.
//!
//! The one extension of core NRC, `NewLabel`, evaluates to a [`Label`]
//! value of its site and captured values.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::error::{NrcError, Result};
use crate::expr::Expr;
use crate::value::{cmp_op, prim_op, Bag, Label, Tuple, Value};

/// A variable binding environment.
#[derive(Debug, Clone, Default)]
pub struct Env {
    bindings: HashMap<String, Value>,
}

impl Env {
    /// Creates an empty environment.
    pub fn new() -> Self {
        Env::default()
    }

    /// Creates an environment from `(name, value)` pairs.
    pub fn from_bindings<I, S>(bindings: I) -> Self
    where
        I: IntoIterator<Item = (S, Value)>,
        S: Into<String>,
    {
        Env {
            bindings: bindings.into_iter().map(|(n, v)| (n.into(), v)).collect(),
        }
    }

    /// Binds `name` to `value`, replacing any previous binding.
    pub fn bind(&mut self, name: impl Into<String>, value: Value) {
        self.bindings.insert(name.into(), value);
    }

    /// Looks up `name`.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.bindings.get(name)
    }

    /// Looks up `name` or fails with [`NrcError::UnboundVariable`].
    pub fn get_or_err(&self, name: &str) -> Result<&Value> {
        self.get(name)
            .ok_or_else(|| NrcError::UnboundVariable(name.to_string()))
    }
}

/// The bindings in force: the inputs, then one `Bind(name, value, outer)`
/// frame per enclosing `for` or `let`, each borrowing its value.
enum Scope<'a> {
    Root(&'a Env),
    Bind(&'a str, &'a Value, &'a Scope<'a>),
}

impl<'a> Scope<'a> {
    /// The innermost binding of `name`.
    fn get(&self, name: &str) -> Result<&'a Value> {
        match self {
            Scope::Root(env) => env.get_or_err(name),
            Scope::Bind(n, value, _) if *n == name => Ok(value),
            Scope::Bind(_, _, outer) => outer.get(name),
        }
    }
}

/// Evaluates `expr` under `env`.
pub fn eval(expr: &Expr, env: &Env) -> Result<Value> {
    eval_in(expr, &Scope::Root(env)).map(Cow::into_owned)
}

/// Evaluates `expr` in `scope`, borrowing from the scope (or from `expr`'s
/// constants) whatever is read rather than built.
fn eval_in<'a>(expr: &'a Expr, scope: &Scope<'a>) -> Result<Cow<'a, Value>> {
    let owned = |v| Ok(Cow::Owned(v));
    match expr {
        Expr::Const(v) => Ok(Cow::Borrowed(v)),
        Expr::Var(name) => scope.get(name).map(Cow::Borrowed),
        // NULL propagates through projections, and an absent attribute
        // reads as NULL (outer-join semantics).
        Expr::Proj { tuple, field } => part(eval_in(tuple, scope)?, |v| match v {
            Value::Null => Ok(&Value::Null),
            Value::Tuple(t) => Ok(t.get(field).unwrap_or(&Value::Null)),
            other => Err(NrcError::TypeMismatch {
                expected: "tuple".into(),
                found: other.kind().into(),
                context: format!("projection .{field}"),
            }),
        }),
        Expr::Tuple(fields) => {
            let mut t = Tuple::empty();
            for (n, e) in fields {
                t.set(n.clone(), eval_in(e, scope)?.into_owned());
            }
            owned(Value::Tuple(t))
        }
        Expr::EmptyBag(_) => owned(Value::empty_bag()),
        Expr::Singleton(e) => owned(Value::Bag(Bag::singleton(eval_in(e, scope)?.into_owned()))),
        // The first item, or NULL for the empty bag.
        Expr::Get(e) => part(eval_in(e, scope)?, |v| {
            Ok(items(v)?.first().unwrap_or(&Value::Null))
        }),
        Expr::For { var, source, body } => {
            let src = eval_in(source, scope)?;
            let mut out = Vec::new();
            for item in items(&src)? {
                append(&mut out, eval_in(body, &Scope::Bind(var, item, scope))?)?;
            }
            owned(Value::bag(out))
        }
        Expr::Union(a, b) => {
            let mut out = Vec::new();
            append(&mut out, eval_in(a, scope)?)?;
            append(&mut out, eval_in(b, scope)?)?;
            owned(Value::bag(out))
        }
        // The result may borrow the bound value, which dies here.
        Expr::Let { var, value, body } => {
            let value = eval_in(value, scope)?;
            owned(eval_in(body, &Scope::Bind(var, &value, scope))?.into_owned())
        }
        Expr::If {
            cond,
            then_branch,
            else_branch,
        } => {
            if eval_in(cond, scope)?.as_bool()? {
                eval_in(then_branch, scope)
            } else if let Some(e) = else_branch {
                eval_in(e, scope)
            } else {
                owned(Value::empty_bag())
            }
        }
        Expr::Prim { op, left, right } => {
            let l = eval_in(left, scope)?;
            owned(prim_op(*op, &l, &*eval_in(right, scope)?)?)
        }
        Expr::Cmp { op, left, right } => {
            let l = eval_in(left, scope)?;
            owned(Value::Bool(cmp_op(*op, &l, &*eval_in(right, scope)?)))
        }
        Expr::And(a, b) => owned(Value::Bool(
            eval_in(a, scope)?.as_bool()? && eval_in(b, scope)?.as_bool()?,
        )),
        Expr::Or(a, b) => owned(Value::Bool(
            eval_in(a, scope)?.as_bool()? || eval_in(b, scope)?.as_bool()?,
        )),
        Expr::Not(e) => owned(Value::Bool(!eval_in(e, scope)?.as_bool()?)),
        Expr::Dedup(e) => {
            let bag = eval_in(e, scope)?;
            let seen: BTreeSet<&Value> = items(&bag)?.iter().collect();
            owned(Value::bag(seen.into_iter().cloned().collect()))
        }
        Expr::GroupBy {
            input,
            key,
            group_attr,
        } => owned(eval_group_by(&*eval_in(input, scope)?, key, group_attr)?),
        Expr::SumBy { input, key, values } => {
            owned(eval_sum_by(&*eval_in(input, scope)?, key, values)?)
        }
        Expr::NewLabel { site, captures } => {
            let mut vals = Vec::with_capacity(captures.len());
            for (_, e) in captures {
                vals.push(eval_in(e, scope)?.into_owned());
            }
            owned(Value::Label(Label::new(*site, vals)))
        }
    }
}

/// The part of `v` that `pick` selects: borrowed when `v` is, cloned out of
/// `v` when it was built.
fn part<'a>(v: Cow<'a, Value>, pick: impl Fn(&Value) -> Result<&Value>) -> Result<Cow<'a, Value>> {
    match v {
        Cow::Borrowed(v) => pick(v).map(Cow::Borrowed),
        Cow::Owned(v) => pick(&v).map(|p| Cow::Owned(p.clone())),
    }
}

/// The items of a bag-valued result, NULL read as `{}` — what
/// [`Value::into_bag`] does, by reference.
fn items(v: &Value) -> Result<&[Value]> {
    match v {
        Value::Bag(b) => Ok(b.items()),
        Value::Null => Ok(&[]),
        other => Err(NrcError::TypeMismatch {
            expected: "bag".into(),
            found: other.kind().into(),
            context: "into_bag".into(),
        }),
    }
}

/// Appends the items of the bag-valued `v` to `out`, moving them when `v`
/// was built and cloning them when it is borrowed.
fn append(out: &mut Vec<Value>, v: Cow<'_, Value>) -> Result<()> {
    match v {
        Cow::Borrowed(v) => out.extend_from_slice(items(v)?),
        Cow::Owned(v) => out.extend(v.into_bag()?),
    }
    Ok(())
}

fn eval_group_by(bag: &Value, key: &[String], group_attr: &str) -> Result<Value> {
    let key_refs: Vec<&str> = key.iter().map(|s| s.as_str()).collect();
    let mut groups: BTreeMap<Tuple, Bag> = BTreeMap::new();
    for item in items(bag)? {
        let t = item.as_tuple()?;
        groups
            .entry(t.project(&key_refs))
            .or_insert_with(Bag::empty)
            .push(Value::Tuple(t.project_away(&key_refs)));
    }
    let mut out = Bag::empty();
    for (k, group) in groups {
        let mut row = k;
        row.set(group_attr.to_string(), Value::Bag(group));
        out.push(Value::Tuple(row));
    }
    Ok(Value::Bag(out))
}

fn eval_sum_by(bag: &Value, key: &[String], values: &[String]) -> Result<Value> {
    let key_refs: Vec<&str> = key.iter().map(|s| s.as_str()).collect();
    let mut groups: BTreeMap<Tuple, Vec<Value>> = BTreeMap::new();
    for item in items(bag)? {
        let t = item.as_tuple()?;
        let entry = groups
            .entry(t.project(&key_refs))
            .or_insert_with(|| vec![Value::Null; values.len()]);
        for (i, vname) in values.iter().enumerate() {
            let v = t.get(vname).unwrap_or(&Value::Null);
            entry[i] = entry[i].numeric_add(v)?;
        }
    }
    let mut out = Bag::empty();
    for (k, sums) in groups {
        let mut row = k;
        for (vname, sum) in values.iter().zip(sums) {
            let sum = if matches!(sum, Value::Null) {
                Value::Int(0)
            } else {
                sum
            };
            row.set(vname.clone(), sum);
        }
        out.push(Value::Tuple(row));
    }
    Ok(Value::Bag(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    fn part_bag() -> Value {
        Value::bag(vec![
            Value::tuple([
                ("pid", Value::Int(1)),
                ("pname", Value::str("bolt")),
                ("price", Value::Real(2.0)),
            ]),
            Value::tuple([
                ("pid", Value::Int(2)),
                ("pname", Value::str("nut")),
                ("price", Value::Real(0.5)),
            ]),
        ])
    }

    #[test]
    fn for_union_flattens_bags() {
        let env = Env::from_bindings([("R", Value::bag(vec![Value::Int(1), Value::Int(2)]))]);
        let e = forin("x", var("R"), singleton(add(var("x"), int(10))));
        let out = eval(&e, &env).unwrap();
        assert_eq!(out, Value::bag(vec![Value::Int(11), Value::Int(12)]));
    }

    #[test]
    fn if_without_else_yields_empty_bag() {
        let env = Env::from_bindings([("P", part_bag())]);
        let e = forin(
            "p",
            var("P"),
            ifthen(
                cmp_eq(proj(var("p"), "pid"), int(1)),
                singleton(proj(var("p"), "pname")),
            ),
        );
        let out = eval(&e, &env).unwrap();
        assert_eq!(out, Value::bag(vec![Value::str("bolt")]));
    }

    #[test]
    fn group_by_collects_non_key_attributes() {
        let data = Value::bag(vec![
            Value::tuple([("k", Value::Int(1)), ("v", Value::Int(10))]),
            Value::tuple([("k", Value::Int(1)), ("v", Value::Int(20))]),
            Value::tuple([("k", Value::Int(2)), ("v", Value::Int(30))]),
        ]);
        let env = Env::from_bindings([("R", data)]);
        let out = eval(&group_by(var("R"), &["k"], "group"), &env).unwrap();
        let bag = out.as_bag().unwrap();
        assert_eq!(bag.len(), 2);
        let first = bag.items()[0].as_tuple().unwrap();
        assert_eq!(first.get("k"), Some(&Value::Int(1)));
        assert_eq!(first.get("group").unwrap().as_bag().unwrap().len(), 2);
    }

    #[test]
    fn sum_by_sums_value_attributes_per_key() {
        let data = Value::bag(vec![
            Value::tuple([("name", Value::str("a")), ("total", Value::Real(1.5))]),
            Value::tuple([("name", Value::str("a")), ("total", Value::Real(2.5))]),
            Value::tuple([("name", Value::str("b")), ("total", Value::Real(4.0))]),
        ]);
        let env = Env::from_bindings([("R", data)]);
        let out = eval(&sum_by(var("R"), &["name"], &["total"]), &env).unwrap();
        let bag = out.as_bag().unwrap();
        assert_eq!(bag.len(), 2);
        let a = bag
            .iter()
            .find(|v| v.as_tuple().unwrap().get("name") == Some(&Value::str("a")))
            .unwrap();
        assert_eq!(a.as_tuple().unwrap().get("total"), Some(&Value::Real(4.0)));
    }

    #[test]
    fn dedup_resets_multiplicities() {
        let data = Value::bag(vec![Value::Int(1), Value::Int(1), Value::Int(2)]);
        let env = Env::from_bindings([("R", data)]);
        let out = eval(&dedup(var("R")), &env).unwrap();
        assert_eq!(out.as_bag().unwrap().len(), 2);
    }

    #[test]
    fn new_label_is_a_label_of_its_site_and_captured_values() {
        let env = Env::from_bindings([("x", Value::tuple([("k", Value::Int(7))]))]);
        let e = new_label(3, [("k", proj(var("x"), "k")), ("c", string("a"))]);
        assert_eq!(
            eval(&e, &env).unwrap(),
            Value::Label(Label::new(3, vec![Value::Int(7), Value::str("a")]))
        );
    }

    #[test]
    fn null_projection_propagates() {
        let env = Env::from_bindings([("x", Value::Null)]);
        assert_eq!(eval(&proj(var("x"), "a"), &env).unwrap(), Value::Null);
    }

    /// The NULL rule the plans follow: an absent attribute reads as NULL,
    /// NULL propagates through `+ - * /` and compares false on either side
    /// (`NULL = NULL` included), so the negation of such a comparison holds.
    #[test]
    fn absent_reads_as_null_which_propagates_and_compares_false() {
        let row = Value::tuple([("one", Value::Int(1)), ("n", Value::Null)]);
        let env = Env::from_bindings([("x", row)]);
        let one = || proj(var("x"), "one");
        let null = || proj(var("x"), "n");
        let absent = || proj(var("x"), "missing");
        assert_eq!(eval(&absent(), &env), Ok(Value::Null));
        for e in [
            add(null(), one()),
            sub(one(), absent()),
            mul(absent(), null()),
            div(one(), null()),
            div(null(), int(0)),
        ] {
            assert_eq!(eval(&e, &env), Ok(Value::Null), "{e:?}");
        }
        for e in [
            cmp_eq(null(), null()),
            cmp_eq(absent(), null()),
            cmp_lt(null(), one()),
            cmp_eq(one(), null()),
            cmp_ne(one(), absent()),
        ] {
            assert_eq!(eval(&e, &env), Ok(Value::Bool(false)), "{e:?}");
        }
        assert_eq!(
            eval(&not(cmp_eq(null(), one())), &env),
            Ok(Value::Bool(true))
        );
    }

    /// `sumBy` reads an absent value as NULL, as the plans' `Γ+` does: it
    /// adds nothing, and a group with nothing to add sums to `0`.
    #[test]
    fn sum_by_reads_an_absent_value_as_null() {
        let data = Value::bag(vec![
            Value::tuple([("k", Value::Int(1)), ("v", Value::Int(5))]),
            Value::tuple([("k", Value::Int(1))]),
            Value::tuple([("k", Value::Int(2))]),
            Value::tuple([("k", Value::Int(2)), ("v", Value::Null)]),
        ]);
        let env = Env::from_bindings([("R", data)]);
        let out = eval(&sum_by(var("R"), &["k"], &["v"]), &env).unwrap();
        let row = |k, v| Value::tuple([("k", Value::Int(k)), ("v", Value::Int(v))]);
        assert_eq!(out, Value::bag(vec![row(1, 5), row(2, 0)]));
    }

    /// Lookup is innermost-first: an inner `for x` hides an outer `x` only
    /// inside its body, and a `let` hides an input of the same name.
    #[test]
    fn inner_bindings_shadow_outer_ones_and_inputs() {
        let ints = |xs: &[i64]| Value::bag(xs.iter().map(|&i| Value::Int(i)).collect());
        let env = Env::from_bindings([("R", ints(&[1, 2])), ("S", ints(&[10, 20]))]);
        let e = forin(
            "x",
            var("R"),
            union(
                forin("x", var("S"), singleton(var("x"))),
                singleton(var("x")),
            ),
        );
        assert_eq!(eval(&e, &env), Ok(ints(&[10, 20, 1, 10, 20, 2])));
        let e = letin("R", singleton(int(7)), union(var("R"), var("S")));
        assert_eq!(eval(&e, &env), Ok(ints(&[7, 10, 20])));
        let e = letin("x", int(1), letin("x", int(2), var("x")));
        assert_eq!(eval(&e, &env), Ok(Value::Int(2)));
    }

    /// NULL where a bag is expected reads as `{}`: a `for` over it yields
    /// nothing and `get` of it is NULL, whether the NULL is an input, an
    /// absent attribute or a computed value.
    #[test]
    fn null_sources_read_as_the_empty_bag() {
        let env = Env::from_bindings([
            ("n", Value::Null),
            ("t", Value::tuple([("a", Value::Int(1))])),
        ]);
        for source in [var("n"), proj(var("t"), "missing"), get(empty_bag())] {
            let e = forin("y", source.clone(), singleton(var("y")));
            assert_eq!(eval(&e, &env), Ok(Value::empty_bag()), "{source:?}");
            assert_eq!(eval(&get(source.clone()), &env), Ok(Value::Null));
        }
    }

    /// An absent attribute reads as NULL, and so does any projection of it.
    #[test]
    fn projecting_an_absent_attribute_gives_null() {
        let row = Value::tuple([("a", Value::Int(1))]);
        let env = Env::from_bindings([("R", Value::bag(vec![row.clone()])), ("t", row)]);
        assert_eq!(eval(&proj(var("t"), "b"), &env), Ok(Value::Null));
        assert_eq!(eval(&proj(proj(var("t"), "b"), "c"), &env), Ok(Value::Null));
        let e = forin("r", var("R"), singleton(proj(var("r"), "b")));
        assert_eq!(eval(&e, &env), Ok(Value::bag(vec![Value::Null])));
    }

    /// A `for` over a non-bag and an unbound variable are typed errors, the
    /// same whether the value is an input or computed.
    #[test]
    fn non_bag_sources_and_unbound_names_are_typed_errors() {
        let env = Env::from_bindings([
            ("i", Value::Int(3)),
            ("t", Value::tuple([("a", Value::Int(1))])),
        ]);
        let not_a_bag = |found: &str| {
            Err(NrcError::TypeMismatch {
                expected: "bag".into(),
                found: found.into(),
                context: "into_bag".into(),
            })
        };
        for (source, found) in [(var("i"), "int"), (int(3), "int"), (var("t"), "tuple")] {
            let e = forin("y", source.clone(), singleton(var("y")));
            assert_eq!(eval(&e, &env), not_a_bag(found), "{source:?}");
            assert_eq!(eval(&get(source), &env), not_a_bag(found));
        }
        assert_eq!(
            eval(&proj(var("i"), "a"), &env),
            Err(NrcError::TypeMismatch {
                expected: "tuple".into(),
                found: "int".into(),
                context: "projection .a".into(),
            })
        );
        let unbound = Err(NrcError::UnboundVariable("nope".into()));
        assert_eq!(eval(&var("nope"), &env), unbound);
        let e = forin("y", var("t"), singleton(var("nope")));
        assert_eq!(
            eval(&e, &Env::new()),
            Err(NrcError::UnboundVariable("t".into()))
        );
        let e = letin("y", int(1), proj(var("nope"), "a"));
        assert_eq!(eval(&e, &env), unbound);
    }

    #[test]
    fn get_is_the_first_item_or_null() {
        let env = Env::from_bindings([("R", Value::bag(vec![Value::Int(4), Value::Int(5)]))]);
        assert_eq!(eval(&get(var("R")), &env), Ok(Value::Int(4)));
        assert_eq!(eval(&get(empty_bag()), &env), Ok(Value::Null));
    }

    #[test]
    fn running_example_evaluates_locally() {
        // Example 1 from the paper, on a tiny COP / Part instance.
        let cop = Value::bag(vec![Value::tuple([
            ("cname", Value::str("alice")),
            (
                "corders",
                Value::bag(vec![Value::tuple([
                    ("odate", Value::Date(100)),
                    (
                        "oparts",
                        Value::bag(vec![
                            Value::tuple([("pid", Value::Int(1)), ("qty", Value::Real(3.0))]),
                            Value::tuple([("pid", Value::Int(2)), ("qty", Value::Real(2.0))]),
                        ]),
                    ),
                ])]),
            ),
        ])]);
        let env = Env::from_bindings([("COP", cop), ("Part", part_bag())]);
        let q = forin(
            "cop",
            var("COP"),
            singleton(tuple([
                ("cname", proj(var("cop"), "cname")),
                (
                    "corders",
                    forin(
                        "co",
                        proj(var("cop"), "corders"),
                        singleton(tuple([
                            ("odate", proj(var("co"), "odate")),
                            (
                                "oparts",
                                sum_by(
                                    forin(
                                        "op",
                                        proj(var("co"), "oparts"),
                                        forin(
                                            "p",
                                            var("Part"),
                                            ifthen(
                                                cmp_eq(
                                                    proj(var("op"), "pid"),
                                                    proj(var("p"), "pid"),
                                                ),
                                                singleton(tuple([
                                                    ("pname", proj(var("p"), "pname")),
                                                    (
                                                        "total",
                                                        mul(
                                                            proj(var("op"), "qty"),
                                                            proj(var("p"), "price"),
                                                        ),
                                                    ),
                                                ])),
                                            ),
                                        ),
                                    ),
                                    &["pname"],
                                    &["total"],
                                ),
                            ),
                        ])),
                    ),
                ),
            ])),
        );
        let out = eval(&q, &env).unwrap();
        let customers = out.as_bag().unwrap();
        assert_eq!(customers.len(), 1);
        let orders = customers.items()[0]
            .as_tuple()
            .unwrap()
            .get("corders")
            .unwrap()
            .as_bag()
            .unwrap();
        assert_eq!(orders.len(), 1);
        let oparts = orders.items()[0]
            .as_tuple()
            .unwrap()
            .get("oparts")
            .unwrap()
            .as_bag()
            .unwrap();
        // bolt: 3.0 * 2.0 = 6.0 ; nut: 2.0 * 0.5 = 1.0
        assert_eq!(oparts.len(), 2);
        let bolt = oparts
            .iter()
            .find(|v| v.as_tuple().unwrap().get("pname") == Some(&Value::str("bolt")))
            .unwrap();
        assert_eq!(
            bolt.as_tuple().unwrap().get("total"),
            Some(&Value::Real(6.0))
        );
    }
}
