//! A reference, single-node evaluator for NRC programs.
//!
//! The evaluator defines the semantics every compilation route must agree
//! with: integration tests compare the output of the distributed standard and
//! shredded pipelines against this evaluator on the same inputs.
//!
//! **The NULL rule** is the plan layer's, and it is written once, in
//! [`crate::value`]: projecting an attribute a tuple lacks reads as NULL
//! (the outer-join convention), NULL propagates through arithmetic
//! ([`prim_op`]), and NULL compares false, `NULL = NULL` included
//! ([`cmp_op`]) — so `!(NULL = x)` holds. `sumBy` reads an absent value as
//! NULL, which adds nothing; a group of NULLs sums to `0`.
//!
//! The one extension of core NRC, `NewLabel`, evaluates to a [`Label`]
//! value of its site and captured values.

use std::collections::{BTreeMap, HashMap};

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

    /// Names bound in this environment.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.bindings.keys().map(|s| s.as_str())
    }
}

/// Evaluates `expr` under `env`.
pub fn eval(expr: &Expr, env: &Env) -> Result<Value> {
    match expr {
        Expr::Const(v) => Ok(v.clone()),
        Expr::Var(name) => env.get_or_err(name).cloned(),
        Expr::Proj { tuple, field } => {
            let v = eval(tuple, env)?;
            match v {
                // NULL propagates through projections, and an absent
                // attribute reads as NULL (outer-join semantics).
                Value::Null => Ok(Value::Null),
                Value::Tuple(t) => Ok(t.get(field).cloned().unwrap_or(Value::Null)),
                other => Err(NrcError::TypeMismatch {
                    expected: "tuple".into(),
                    found: other.kind().into(),
                    context: format!("projection .{field}"),
                }),
            }
        }
        Expr::Tuple(fields) => {
            let mut t = Tuple::empty();
            for (n, e) in fields {
                t.set(n.clone(), eval(e, env)?);
            }
            Ok(Value::Tuple(t))
        }
        Expr::EmptyBag(_) => Ok(Value::empty_bag()),
        Expr::Singleton(e) => Ok(Value::Bag(Bag::singleton(eval(e, env)?))),
        // The first item, or NULL for the empty bag.
        Expr::Get(e) => Ok(eval(e, env)?
            .into_bag()?
            .into_iter()
            .next()
            .unwrap_or(Value::Null)),
        Expr::For { var, source, body } => {
            let src = eval(source, env)?.into_bag()?;
            let mut out = Bag::empty();
            let mut inner_env = env.clone();
            for item in src {
                inner_env.bind(var.clone(), item);
                out.extend(eval(body, &inner_env)?.into_bag()?);
            }
            Ok(Value::Bag(out))
        }
        Expr::Union(a, b) => {
            let mut left = eval(a, env)?.into_bag()?;
            left.extend(eval(b, env)?.into_bag()?);
            Ok(Value::Bag(left))
        }
        Expr::Let { var, value, body } => {
            let v = eval(value, env)?;
            let mut inner = env.clone();
            inner.bind(var.clone(), v);
            eval(body, &inner)
        }
        Expr::If {
            cond,
            then_branch,
            else_branch,
        } => {
            if eval(cond, env)?.as_bool()? {
                eval(then_branch, env)
            } else if let Some(e) = else_branch {
                eval(e, env)
            } else {
                Ok(Value::empty_bag())
            }
        }
        Expr::Prim { op, left, right } => {
            let l = eval(left, env)?;
            let r = eval(right, env)?;
            prim_op(*op, &l, &r)
        }
        Expr::Cmp { op, left, right } => {
            let l = eval(left, env)?;
            let r = eval(right, env)?;
            Ok(Value::Bool(cmp_op(*op, &l, &r)))
        }
        Expr::And(a, b) => Ok(Value::Bool(
            eval(a, env)?.as_bool()? && eval(b, env)?.as_bool()?,
        )),
        Expr::Or(a, b) => Ok(Value::Bool(
            eval(a, env)?.as_bool()? || eval(b, env)?.as_bool()?,
        )),
        Expr::Not(e) => Ok(Value::Bool(!eval(e, env)?.as_bool()?)),
        Expr::Dedup(e) => {
            let bag = eval(e, env)?.into_bag()?;
            let mut seen = BTreeMap::new();
            for v in bag {
                seen.entry(v).or_insert(());
            }
            Ok(Value::Bag(seen.into_keys().collect()))
        }
        Expr::GroupBy {
            input,
            key,
            group_attr,
        } => {
            let bag = eval(input, env)?.into_bag()?;
            eval_group_by(bag, key, group_attr)
        }
        Expr::SumBy { input, key, values } => {
            let bag = eval(input, env)?.into_bag()?;
            eval_sum_by(bag, key, values)
        }
        Expr::NewLabel { site, captures } => {
            let mut vals = Vec::with_capacity(captures.len());
            for (_, e) in captures {
                vals.push(eval(e, env)?);
            }
            Ok(Value::Label(Label::new(*site, vals)))
        }
    }
}

fn eval_group_by(bag: Bag, key: &[String], group_attr: &str) -> Result<Value> {
    let key_refs: Vec<&str> = key.iter().map(|s| s.as_str()).collect();
    let mut groups: BTreeMap<Tuple, Bag> = BTreeMap::new();
    for item in bag {
        let t = item.as_tuple()?.clone();
        let k = t.project(&key_refs);
        let rest = t.project_away(&key_refs);
        groups
            .entry(k)
            .or_insert_with(Bag::empty)
            .push(Value::Tuple(rest));
    }
    let mut out = Bag::empty();
    for (k, group) in groups {
        let mut row = k;
        row.set(group_attr.to_string(), Value::Bag(group));
        out.push(Value::Tuple(row));
    }
    Ok(Value::Bag(out))
}

fn eval_sum_by(bag: Bag, key: &[String], values: &[String]) -> Result<Value> {
    let key_refs: Vec<&str> = key.iter().map(|s| s.as_str()).collect();
    let mut groups: BTreeMap<Tuple, Vec<Value>> = BTreeMap::new();
    for item in bag {
        let t = item.as_tuple()?.clone();
        let k = t.project(&key_refs);
        let entry = groups
            .entry(k)
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
