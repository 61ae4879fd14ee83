//! Type inference / checking for NRC expressions.
//!
//! The checker serves two purposes: validating user programs before
//! compilation, and annotating the unnesting algorithm with the information it
//! needs (chiefly, which attributes are bag-valued and which grouping keys are
//! flat). It is deliberately structural: `Unknown` acts as a wildcard that is
//! refined by [`Type::merge`].

use std::collections::HashMap;

use crate::error::{NrcError, Result};
use crate::expr::{Expr, PrimOp};
use crate::types::{ScalarType, TupleType, Type};

/// A typing environment: variable name → type.
#[derive(Debug, Clone, Default)]
pub struct TypeEnv {
    bindings: HashMap<String, Type>,
}

impl TypeEnv {
    /// Creates an empty typing environment.
    pub fn new() -> Self {
        TypeEnv::default()
    }

    /// Creates a typing environment from `(name, type)` pairs.
    pub fn from_bindings<I, S>(bindings: I) -> Self
    where
        I: IntoIterator<Item = (S, Type)>,
        S: Into<String>,
    {
        TypeEnv {
            bindings: bindings.into_iter().map(|(n, t)| (n.into(), t)).collect(),
        }
    }

    /// Binds `name` to `ty`.
    pub fn bind(&mut self, name: impl Into<String>, ty: Type) {
        self.bindings.insert(name.into(), ty);
    }

    /// Looks up `name`.
    pub fn get(&self, name: &str) -> Option<&Type> {
        self.bindings.get(name)
    }
}

/// Infers the type of `expr` under `env`.
pub fn infer(expr: &Expr, env: &TypeEnv) -> Result<Type> {
    match expr {
        Expr::Const(v) => Ok(v.infer_type()),
        Expr::Var(name) => env
            .get(name)
            .cloned()
            .ok_or_else(|| NrcError::UnboundVariable(name.clone())),
        Expr::Proj { tuple, field } => {
            let t = infer(tuple, env)?;
            match t {
                Type::Tuple(tt) => tt
                    .field(field)
                    .cloned()
                    .ok_or_else(|| NrcError::UnknownField {
                        field: field.clone(),
                        context: format!("projection on {}", Type::Tuple(tt.clone())),
                    }),
                Type::Unknown => Ok(Type::Unknown),
                other => Err(NrcError::TypeMismatch {
                    expected: "tuple".into(),
                    found: other.to_string(),
                    context: format!("projection .{field}"),
                }),
            }
        }
        Expr::Tuple(fields) => {
            let mut tt = Vec::with_capacity(fields.len());
            for (n, e) in fields {
                tt.push((n.clone(), infer(e, env)?));
            }
            Ok(Type::Tuple(TupleType { fields: tt }))
        }
        Expr::EmptyBag(Some(t)) => Ok(Type::bag(t.clone())),
        Expr::EmptyBag(None) => Ok(Type::bag(Type::Unknown)),
        Expr::Singleton(e) => Ok(Type::bag(infer(e, env)?)),
        Expr::Get(e) => {
            let t = infer(e, env)?;
            match t {
                Type::Bag(inner) => Ok(*inner),
                Type::Unknown => Ok(Type::Unknown),
                other => Err(NrcError::TypeMismatch {
                    expected: "bag".into(),
                    found: other.to_string(),
                    context: "get".into(),
                }),
            }
        }
        Expr::For { var, source, body } => {
            let src = infer(source, env)?;
            let elem = match src {
                Type::Bag(inner) => *inner,
                Type::Unknown => Type::Unknown,
                other => {
                    return Err(NrcError::TypeMismatch {
                        expected: "bag".into(),
                        found: other.to_string(),
                        context: format!("for {var} in …"),
                    })
                }
            };
            let mut inner_env = env.clone();
            inner_env.bind(var.clone(), elem);
            let body_t = infer(body, &inner_env)?;
            expect_bag(body_t, "for body")
        }
        Expr::Union(a, b) => {
            let ta = expect_bag(infer(a, env)?, "union left")?;
            let tb = expect_bag(infer(b, env)?, "union right")?;
            if !ta.compatible(&tb) {
                return Err(NrcError::TypeMismatch {
                    expected: ta.to_string(),
                    found: tb.to_string(),
                    context: "bag union".into(),
                });
            }
            Ok(ta.merge(&tb))
        }
        Expr::Let { var, value, body } => {
            let vt = infer(value, env)?;
            let mut inner = env.clone();
            inner.bind(var.clone(), vt);
            infer(body, &inner)
        }
        Expr::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let ct = infer(cond, env)?;
            if !ct.compatible(&Type::boolean()) {
                return Err(NrcError::TypeMismatch {
                    expected: "bool".into(),
                    found: ct.to_string(),
                    context: "if condition".into(),
                });
            }
            let tt = infer(then_branch, env)?;
            match else_branch {
                Some(e) => {
                    let et = infer(e, env)?;
                    if !tt.compatible(&et) {
                        return Err(NrcError::TypeMismatch {
                            expected: tt.to_string(),
                            found: et.to_string(),
                            context: "if branches".into(),
                        });
                    }
                    Ok(tt.merge(&et))
                }
                None => expect_bag(tt, "if-then without else"),
            }
        }
        Expr::Prim { op, left, right } => {
            let lt = infer(left, env)?;
            let rt = infer(right, env)?;
            for (t, side) in [(&lt, "left"), (&rt, "right")] {
                if !matches!(
                    t,
                    Type::Scalar(ScalarType::Int) | Type::Scalar(ScalarType::Real) | Type::Unknown
                ) {
                    return Err(NrcError::TypeMismatch {
                        expected: "numeric".into(),
                        found: t.to_string(),
                        context: format!("{} operand of {}", side, op.symbol()),
                    });
                }
            }
            if *op == PrimOp::Div {
                return Ok(Type::real());
            }
            if lt == Type::real() || rt == Type::real() {
                Ok(Type::real())
            } else if lt == Type::int() && rt == Type::int() {
                Ok(Type::int())
            } else {
                Ok(Type::Unknown)
            }
        }
        Expr::Cmp { left, right, .. } => {
            let lt = infer(left, env)?;
            let rt = infer(right, env)?;
            if lt.is_bag() || rt.is_bag() {
                return Err(NrcError::TypeMismatch {
                    expected: "scalar".into(),
                    found: "bag".into(),
                    context: "comparison".into(),
                });
            }
            Ok(Type::boolean())
        }
        Expr::And(a, b) | Expr::Or(a, b) => {
            for e in [a, b] {
                let t = infer(e, env)?;
                if !t.compatible(&Type::boolean()) {
                    return Err(NrcError::TypeMismatch {
                        expected: "bool".into(),
                        found: t.to_string(),
                        context: "boolean operator".into(),
                    });
                }
            }
            Ok(Type::boolean())
        }
        Expr::Not(e) => {
            let t = infer(e, env)?;
            if !t.compatible(&Type::boolean()) {
                return Err(NrcError::TypeMismatch {
                    expected: "bool".into(),
                    found: t.to_string(),
                    context: "negation".into(),
                });
            }
            Ok(Type::boolean())
        }
        Expr::Dedup(e) => {
            let t = infer(e, env)?;
            let t = expect_bag(t, "dedup")?;
            if !t.is_flat_bag() && !matches!(t, Type::Bag(ref inner) if **inner == Type::Unknown) {
                return Err(NrcError::TypeMismatch {
                    expected: "flat bag".into(),
                    found: t.to_string(),
                    context: "dedup".into(),
                });
            }
            Ok(t)
        }
        Expr::GroupBy {
            input,
            key,
            group_attr,
        } => {
            let t = expect_bag(infer(input, env)?, "groupBy input")?;
            let elem = t.bag_elem().cloned().unwrap_or(Type::Unknown);
            match elem {
                Type::Tuple(tt) => {
                    check_flat_keys(&tt, key, "groupBy")?;
                    let mut out_fields: Vec<(String, Type)> = Vec::new();
                    let mut group_fields: Vec<(String, Type)> = Vec::new();
                    for (n, ft) in &tt.fields {
                        if key.contains(n) {
                            out_fields.push((n.clone(), ft.clone()));
                        } else {
                            group_fields.push((n.clone(), ft.clone()));
                        }
                    }
                    out_fields.push((
                        group_attr.clone(),
                        Type::bag(Type::Tuple(TupleType {
                            fields: group_fields,
                        })),
                    ));
                    Ok(Type::bag(Type::Tuple(TupleType { fields: out_fields })))
                }
                Type::Unknown => Ok(Type::bag(Type::Unknown)),
                other => Err(NrcError::TypeMismatch {
                    expected: "bag of tuples".into(),
                    found: other.to_string(),
                    context: "groupBy".into(),
                }),
            }
        }
        Expr::SumBy { input, key, values } => {
            let t = expect_bag(infer(input, env)?, "sumBy input")?;
            let elem = t.bag_elem().cloned().unwrap_or(Type::Unknown);
            match elem {
                Type::Tuple(tt) => {
                    check_flat_keys(&tt, key, "sumBy")?;
                    let mut out_fields: Vec<(String, Type)> = Vec::new();
                    for (n, ft) in &tt.fields {
                        if key.contains(n) {
                            out_fields.push((n.clone(), ft.clone()));
                        } else if values.contains(n) {
                            if !matches!(
                                ft,
                                Type::Scalar(ScalarType::Int)
                                    | Type::Scalar(ScalarType::Real)
                                    | Type::Unknown
                            ) {
                                return Err(NrcError::TypeMismatch {
                                    expected: "numeric".into(),
                                    found: ft.to_string(),
                                    context: format!("sumBy value attribute {n}"),
                                });
                            }
                            out_fields.push((n.clone(), ft.clone()));
                        }
                    }
                    Ok(Type::bag(Type::Tuple(TupleType { fields: out_fields })))
                }
                Type::Unknown => Ok(Type::bag(Type::Unknown)),
                other => Err(NrcError::TypeMismatch {
                    expected: "bag of tuples".into(),
                    found: other.to_string(),
                    context: "sumBy".into(),
                }),
            }
        }
        Expr::NewLabel { .. } => Ok(Type::Label),
    }
}

fn expect_bag(t: Type, context: &str) -> Result<Type> {
    match t {
        Type::Bag(_) => Ok(t),
        Type::Unknown => Ok(Type::bag(Type::Unknown)),
        other => Err(NrcError::TypeMismatch {
            expected: "bag".into(),
            found: other.to_string(),
            context: context.to_string(),
        }),
    }
}

fn check_flat_keys(tt: &TupleType, key: &[String], context: &str) -> Result<()> {
    for k in key {
        match tt.field(k) {
            None => {
                return Err(NrcError::UnknownField {
                    field: k.clone(),
                    context: format!("{context} key"),
                })
            }
            Some(t) if t.is_bag() || t.is_tuple() => {
                return Err(NrcError::TypeMismatch {
                    expected: "flat (scalar or label) key".into(),
                    found: t.to_string(),
                    context: format!("{context} key {k}"),
                })
            }
            Some(_) => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    fn cop_env() -> TypeEnv {
        TypeEnv::from_bindings([
            (
                "COP",
                Type::bag_of([
                    ("cname", Type::string()),
                    (
                        "corders",
                        Type::bag_of([
                            ("odate", Type::date()),
                            (
                                "oparts",
                                Type::bag_of([("pid", Type::int()), ("qty", Type::real())]),
                            ),
                        ]),
                    ),
                ]),
            ),
            (
                "Part",
                Type::bag_of([
                    ("pid", Type::int()),
                    ("pname", Type::string()),
                    ("price", Type::real()),
                ]),
            ),
        ])
    }

    #[test]
    fn infers_nested_projection_types() {
        let env = cop_env();
        let e = forin(
            "c",
            var("COP"),
            singleton(tuple([("orders", proj(var("c"), "corders"))])),
        );
        let t = infer(&e, &env).unwrap();
        let elem = t.bag_elem().unwrap().as_tuple().unwrap();
        assert!(elem.field("orders").unwrap().is_bag());
    }

    #[test]
    fn rejects_unbound_variables_and_bad_fields() {
        let env = cop_env();
        assert!(matches!(
            infer(&var("Missing"), &env),
            Err(NrcError::UnboundVariable(_))
        ));
        let e = forin("c", var("COP"), singleton(proj(var("c"), "nope")));
        assert!(matches!(
            infer(&e, &env),
            Err(NrcError::UnknownField { .. })
        ));
    }

    #[test]
    fn sum_by_requires_numeric_values() {
        let env = cop_env();
        let bad = sum_by(var("Part"), &["pid"], &["pname"]);
        assert!(infer(&bad, &env).is_err());
        let good = sum_by(var("Part"), &["pname"], &["price"]);
        let t = infer(&good, &env).unwrap();
        let elem = t.bag_elem().unwrap().as_tuple().unwrap();
        assert_eq!(elem.field("price"), Some(&Type::real()));
        assert!(
            elem.field("pid").is_none(),
            "non-key non-value attrs dropped"
        );
    }

    #[test]
    fn group_by_produces_bag_valued_group_attribute() {
        let env = cop_env();
        let e = group_by(var("Part"), &["pname"], "group");
        let t = infer(&e, &env).unwrap();
        let elem = t.bag_elem().unwrap().as_tuple().unwrap();
        assert!(elem.field("group").unwrap().is_bag());
    }

    #[test]
    fn grouping_on_bag_valued_key_is_rejected() {
        let env = cop_env();
        let e = group_by(var("COP"), &["corders"], "group");
        assert!(infer(&e, &env).is_err());
    }

    #[test]
    fn comparisons_on_bags_are_rejected() {
        let env = cop_env();
        let e = cmp_eq(var("Part"), var("Part"));
        assert!(infer(&e, &env).is_err());
    }

    #[test]
    fn running_example_typechecks() {
        let env = cop_env();
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
        let t = infer(&q, &env).unwrap();
        assert!(t.is_bag());
        let c = t.bag_elem().unwrap().as_tuple().unwrap();
        assert_eq!(c.field("cname"), Some(&Type::string()));
        let orders = c
            .field("corders")
            .unwrap()
            .bag_elem()
            .unwrap()
            .as_tuple()
            .unwrap();
        let oparts = orders.field("oparts").unwrap();
        assert!(oparts.is_flat_bag());
    }
}
