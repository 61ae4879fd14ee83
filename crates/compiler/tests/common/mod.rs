//! Helpers shared by the differential test suites (`strategies_agree.rs`,
//! `spill_agree.rs`, `scheduler_stress.rs`, `cancellation.rs`,
//! `expr_agree.rs` and `frontend_roundtrip.rs`): the paper's running example, the seeded-random
//! NRC program generators and the cases built from them — each with its
//! `nrc::eval` reference bag, the one oracle every suite holds the engine
//! to — the (float-tolerant) canonical bag comparison, and the wall-clock
//! watchdog that turns a hung differential suite into a loud abort.

// Each test binary compiles this module separately and uses the subset of
// helpers it needs.
#![allow(dead_code)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trance_compiler::{collect_unshredded, InputSet, QuerySpec, RunResult};
use trance_dist::DistContext;
use trance_nrc::builder::*;
use trance_nrc::{eval, Bag, Env, Expr, Value};
use trance_shred::{NestingStructure, ShreddedInputDecl};

/// A wall-clock watchdog for the long differential suites: if the owning
/// test has not disarmed it (by dropping it) within `limit`, the process
/// aborts with a message naming the suite — a hang becomes a loud, fast CI
/// failure instead of a silent timeout an hour later. The cancellation
/// contract is "typed error or matching result, never a hang", so the
/// watchdog is itself part of what the cancellation suite proves.
pub struct Watchdog {
    armed: Arc<AtomicBool>,
}

impl Watchdog {
    /// Arms a watchdog that aborts the process after `limit` unless dropped
    /// first.
    pub fn arm(label: &str, limit: Duration) -> Watchdog {
        let armed = Arc::new(AtomicBool::new(true));
        let flag = armed.clone();
        let label = label.to_string();
        std::thread::spawn(move || {
            let start = Instant::now();
            while start.elapsed() < limit {
                std::thread::sleep(Duration::from_millis(100));
                if !flag.load(Ordering::Relaxed) {
                    return;
                }
            }
            if flag.load(Ordering::Relaxed) {
                eprintln!(
                    "watchdog: `{label}` still running after {:.0}s — aborting (a bug that \
                     hangs must fail loudly, not eat the CI timeout)",
                    limit.as_secs_f64()
                );
                std::process::abort();
            }
        });
        Watchdog { armed }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.armed.store(false, Ordering::Relaxed);
    }
}

/// The customers/orders/parts nested input of the running example.
pub fn cop_value(customers: usize) -> Value {
    let mut rows = Vec::new();
    for c in 0..customers {
        let mut orders = Vec::new();
        for o in 0..(c % 4) {
            let mut parts = Vec::new();
            for p in 0..(o + c) % 5 {
                parts.push(Value::tuple([
                    ("pid", Value::Int((p % 7) as i64)),
                    ("qty", Value::Real(1.0 + p as f64)),
                ]));
            }
            orders.push(Value::tuple([
                ("odate", Value::Date(100 + o as i64)),
                ("oparts", Value::bag(parts)),
            ]));
        }
        rows.push(Value::tuple([
            ("cname", Value::str(format!("c{c}"))),
            ("corders", Value::bag(orders)),
        ]));
    }
    Value::bag(rows)
}

/// The flat `Part` side of the running example.
pub fn part_value() -> Value {
    Value::bag(
        (0..7)
            .map(|p| {
                Value::tuple([
                    ("pid", Value::Int(p)),
                    ("pname", Value::str(format!("part{p}"))),
                    ("price", Value::Real(0.5 + p as f64)),
                ])
            })
            .collect(),
    )
}

/// The nesting structure of [`cop_value`].
pub fn cop_structure() -> NestingStructure {
    NestingStructure::flat().with_child(
        "corders",
        NestingStructure::flat().with_child("oparts", NestingStructure::flat()),
    )
}

/// The paper's running example query (nested output, join + aggregation at
/// the innermost level).
pub fn running_example() -> Expr {
    running_example_as("corders", "oparts")
}

/// [`running_example`] with its two output bag attributes named `orders` and
/// `parts` — output dictionary paths are these names joined by `_`.
pub fn running_example_as(orders: &str, parts: &str) -> Expr {
    forin(
        "cop",
        var("COP"),
        singleton(tuple([
            ("cname", proj(var("cop"), "cname")),
            (
                orders,
                forin(
                    "co",
                    proj(var("cop"), "corders"),
                    singleton(tuple([
                        ("odate", proj(var("co"), "odate")),
                        (
                            parts,
                            sum_by(
                                forin(
                                    "op",
                                    proj(var("co"), "oparts"),
                                    forin(
                                        "p",
                                        var("Part"),
                                        ifthen(
                                            cmp_eq(proj(var("op"), "pid"), proj(var("p"), "pid")),
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
    )
}

/// One input of a differential case: `(name, value, is it nested?)`.
pub type CaseInput = (&'static str, Value, bool);

/// What the reference evaluator (`nrc::eval`, the ground truth) computes for
/// `query` over `values`, when it defines a result at all.
pub fn try_reference_bag(query: &Expr, values: &[CaseInput]) -> trance_nrc::Result<Bag> {
    let env = Env::from_bindings(values.iter().map(|(n, v, _)| (*n, v.clone())));
    eval(query, &env)?.into_bag()
}

/// The reference evaluator's result for `query` over `values`.
pub fn reference_bag(query: &Expr, values: &[CaseInput]) -> Bag {
    try_reference_bag(query, values).unwrap()
}

/// Registers `values` in a fresh input set on `ctx`.
pub fn input_set(ctx: DistContext, values: &[CaseInput]) -> InputSet {
    let mut inputs = InputSet::new(ctx);
    for (name, v, nested) in values {
        let rows = v.as_bag().unwrap().clone();
        if *nested {
            inputs.add_nested(name, rows).unwrap();
        } else {
            inputs.add_flat(name, rows).unwrap();
        }
    }
    inputs
}

/// The bag a run produced (shredded outputs reassembled locally); panics,
/// naming `context`, when the run failed.
pub fn outcome_bag(result: &RunResult, context: &str) -> Bag {
    match result {
        RunResult::Nested(d) => d.collect_bag(),
        RunResult::Shredded(out) => collect_unshredded(out).unwrap(),
        RunResult::Failed(e) => panic!("{context}: run failed: {e}"),
    }
}

/// Canonicalizes nested rows for comparison — the shared
/// `trance_nrc::compare` definition (bags and tuple fields sort
/// recursively), so the tests and the benchmark harness's oracle checks use
/// one comparator.
pub fn canonical(bag: &Bag) -> Vec<Value> {
    trance_nrc::canonical_rows(bag)
}

/// Panics unless the two bags are multiset-equal up to float tolerance
/// (distributed aggregation sums reals in a different order than the
/// sequential reference evaluator).
pub fn assert_bags_approx_eq(expected: &Bag, produced: &Bag, context: &str) {
    let e = canonical(expected);
    let p = canonical(produced);
    assert_eq!(e.len(), p.len(), "{context}: cardinality mismatch");
    for (ev, pv) in e.iter().zip(p.iter()) {
        assert!(
            trance_nrc::approx_eq(ev, pv),
            "{context}: rows differ beyond float tolerance\n  expected: {ev:?}\n  produced: {pv:?}"
        );
    }
}

/// The small string vocabulary of [`random_flat`]'s `s` field — few distinct
/// values over many rows, so dictionary-encoded predicates have codes to
/// reuse.
pub const STR_VOCAB: [&str; 5] = ["red", "green", "blue", "amber", "teal"];

/// Random flat relation `R(a, b, c, s)` (ints, reals and low-cardinality
/// strings, with duplicate keys so joins and groupings hit multiplicities).
pub fn random_flat(rng: &mut StdRng, rows: usize, key_space: i64) -> Value {
    Value::bag(
        (0..rows)
            .map(|_| {
                Value::tuple([
                    ("a", Value::Int(rng.gen_range(0..key_space))),
                    ("b", Value::Int(rng.gen_range(-5..50))),
                    ("c", Value::Real(rng.gen_range(0.0..10.0))),
                    (
                        "s",
                        Value::str(STR_VOCAB[rng.gen_range(0..STR_VOCAB.len())]),
                    ),
                ])
            })
            .collect(),
    )
}

/// The nesting structure of [`random_nested`].
pub fn items_structure() -> NestingStructure {
    NestingStructure::flat().with_child("items", NestingStructure::flat())
}

/// Random nested relation `N(key, name, items: {(ik, iv)})`, some item bags
/// empty so outer-regrouping paths are exercised.
pub fn random_nested(rng: &mut StdRng, rows: usize, key_space: i64) -> Value {
    Value::bag(
        (0..rows)
            .map(|i| {
                let n_items = rng.gen_range(0..5usize);
                let items: Vec<Value> = (0..n_items)
                    .map(|_| {
                        Value::tuple([
                            ("ik", Value::Int(rng.gen_range(0..key_space))),
                            ("iv", Value::Real(rng.gen_range(0.0..4.0))),
                        ])
                    })
                    .collect();
                Value::tuple([
                    ("key", Value::Int(i as i64 % key_space)),
                    ("name", Value::str(format!("n{i}"))),
                    ("items", Value::bag(items)),
                ])
            })
            .collect(),
    )
}

/// Random flat relation `RN(a, b, c, s, m)` with **awkward operands**: `b`
/// is sometimes NULL, `s` is sometimes absent (the tuple lacks the
/// attribute), and `m` mixes integer and real lanes so its column falls off
/// every dense fast path. The reference evaluator and the plans read these
/// operands by one rule (absent reads as NULL, NULL propagates through
/// arithmetic, a comparison with NULL is false), so programs over it are
/// held to `nrc::eval` like any other.
pub fn random_flat_nullable(rng: &mut StdRng, rows: usize, key_space: i64) -> Value {
    Value::bag(
        (0..rows)
            .map(|_| {
                let b = if rng.gen_bool(0.15) {
                    Value::Null
                } else {
                    Value::Int(rng.gen_range(-5..50))
                };
                let m = if rng.gen_bool(0.5) {
                    Value::Int(rng.gen_range(-3..30))
                } else {
                    Value::Real(rng.gen_range(-3.0..30.0))
                };
                let mut fields = vec![
                    ("a", Value::Int(rng.gen_range(0..key_space))),
                    ("b", b),
                    ("c", Value::Real(rng.gen_range(0.5..10.0))),
                    ("m", m),
                ];
                if !rng.gen_bool(0.2) {
                    fields.push((
                        "s",
                        Value::str(STR_VOCAB[rng.gen_range(0..STR_VOCAB.len())]),
                    ));
                }
                Value::tuple(fields)
            })
            .collect(),
    )
}

/// A random scalar expression over the fields of `x` (no division — the
/// generator must not manufacture runtime errors).
fn random_scalar(rng: &mut StdRng, var: &str) -> Expr {
    match rng.gen_range(0..4u32) {
        0 => proj(trance_nrc::builder::var(var), "a"),
        1 => proj(trance_nrc::builder::var(var), "b"),
        2 => add(
            proj(trance_nrc::builder::var(var), "a"),
            proj(trance_nrc::builder::var(var), "b"),
        ),
        _ => mul(
            proj(trance_nrc::builder::var(var), "c"),
            Expr::Const(Value::Real(rng.gen_range(0.5..2.0))),
        ),
    }
}

/// A random filter over `x` (comparisons only — NULL-safe by construction).
fn random_predicate(rng: &mut StdRng, var: &str) -> Expr {
    let field = if rng.gen_bool(0.5) { "a" } else { "b" };
    let bound = Value::Int(rng.gen_range(0..20));
    let lhs = proj(trance_nrc::builder::var(var), field);
    if rng.gen_bool(0.5) {
        cmp_lt(lhs, Expr::Const(bound))
    } else {
        cmp_eq(lhs, Expr::Const(bound))
    }
}

/// One random NRC query over `R`, `S` (flat) and `N` (nested).
pub fn random_query(rng: &mut StdRng) -> Expr {
    match rng.gen_range(0..6u32) {
        // Filter + project.
        0 => forin(
            "x",
            var("R"),
            ifthen(
                random_predicate(rng, "x"),
                singleton(tuple([
                    ("u", random_scalar(rng, "x")),
                    ("v", proj(var("x"), "c")),
                ])),
            ),
        ),
        // Equi-join with a residual predicate.
        1 => forin(
            "x",
            var("R"),
            forin(
                "y",
                var("S"),
                ifthen(
                    and(
                        cmp_eq(proj(var("x"), "a"), proj(var("y"), "a")),
                        random_predicate(rng, "y"),
                    ),
                    singleton(tuple([
                        ("u", random_scalar(rng, "x")),
                        ("w", proj(var("y"), "c")),
                    ])),
                ),
            ),
        ),
        // Aggregation over a join.
        2 => sum_by(
            forin(
                "x",
                var("R"),
                forin(
                    "y",
                    var("S"),
                    ifthen(
                        cmp_eq(proj(var("x"), "a"), proj(var("y"), "a")),
                        singleton(tuple([
                            ("k", proj(var("x"), "b")),
                            ("total", mul(proj(var("x"), "c"), proj(var("y"), "c"))),
                        ])),
                    ),
                ),
            ),
            &["k"],
            &["total"],
        ),
        // Nested output: navigate the nested input, join the flat side at the
        // inner level, regroup. The output bag attribute carries an
        // underscore: dictionary paths are `_`-joined, and nothing may take
        // one apart to find an attribute.
        3 => forin(
            "n",
            var("N"),
            singleton(tuple([
                ("name", proj(var("n"), "name")),
                (
                    "n_stuff",
                    forin(
                        "i",
                        proj(var("n"), "items"),
                        forin(
                            "y",
                            var("S"),
                            ifthen(
                                cmp_eq(proj(var("i"), "ik"), proj(var("y"), "a")),
                                singleton(tuple([
                                    ("ik", proj(var("i"), "ik")),
                                    ("score", mul(proj(var("i"), "iv"), proj(var("y"), "c"))),
                                ])),
                            ),
                        ),
                    ),
                ),
            ])),
        ),
        // Grouping into bags.
        4 => group_by(
            forin(
                "x",
                var("R"),
                ifthen(
                    random_predicate(rng, "x"),
                    singleton(tuple([
                        ("k", proj(var("x"), "a")),
                        ("p", proj(var("x"), "b")),
                    ])),
                ),
            ),
            &["k"],
            "grp",
        ),
        // Union of two filtered branches.
        _ => Expr::Union(
            Box::new(forin(
                "x",
                var("R"),
                ifthen(
                    random_predicate(rng, "x"),
                    singleton(tuple([("u", proj(var("x"), "a"))])),
                ),
            )),
            Box::new(forin(
                "x",
                var("R"),
                ifthen(
                    random_predicate(rng, "x"),
                    singleton(tuple([("u", proj(var("x"), "b"))])),
                ),
            )),
        ),
    }
}

/// The seeded random program `seed` over fresh `R`, `S` (flat) and `N`
/// (nested) inputs, with its reference result — one generator and one seed
/// space for every suite, so a failure in one cross-references directly in
/// the others.
pub fn random_case(seed: u64) -> (QuerySpec, Vec<CaseInput>, Bag) {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE + seed);
    let r_rows = rng.gen_range(5..40usize);
    let s_rows = rng.gen_range(5..30usize);
    let n_rows = rng.gen_range(3..20usize);
    let r = random_flat(&mut rng, r_rows, 8);
    let s = random_flat(&mut rng, s_rows, 8);
    let n = random_nested(&mut rng, n_rows, 8);
    let query = random_query(&mut rng);
    let values = vec![("R", r, false), ("S", s, false), ("N", n, true)];
    let expected = reference_bag(&query, &values);
    let spec = QuerySpec::new(
        format!("random-{seed}"),
        query,
        vec![ShreddedInputDecl::new("N", items_structure())],
    );
    (spec, values, expected)
}

// ---------------------------------------------------------------------------
// Expression-heavy generator (the expr_agree differential corpus)
// ---------------------------------------------------------------------------

/// A random numeric scalar over `x`'s awkward fields (`a`, `b`-nullable,
/// `c`, `m`-mixed) — recursive add/sub/mul nests plus constants, never
/// division (the generator must not manufacture runtime errors).
pub fn random_deep_scalar(rng: &mut StdRng, var_name: &str, depth: usize) -> Expr {
    if depth == 0 {
        return match rng.gen_range(0..6u32) {
            0 => proj(var(var_name), "a"),
            1 => proj(var(var_name), "b"),
            2 => proj(var(var_name), "c"),
            3 => proj(var(var_name), "m"),
            4 => int(rng.gen_range(-4..10)),
            _ => real(rng.gen_range(0.5..3.0)),
        };
    }
    let l = random_deep_scalar(rng, var_name, depth - 1);
    let r = random_deep_scalar(rng, var_name, depth - 1);
    match rng.gen_range(0..3u32) {
        0 => add(l, r),
        1 => sub(l, r),
        _ => mul(l, r),
    }
}

/// A random deep predicate over `x`: And/Or/Not nests whose leaves compare
/// arithmetic nests, nullable and mixed-kind fields, and the sometimes-absent
/// string field `s` against vocabulary constants.
pub fn random_deep_predicate(rng: &mut StdRng, var_name: &str, depth: usize) -> Expr {
    if depth == 0 {
        return match rng.gen_range(0..5u32) {
            0 => cmp_lt(
                random_deep_scalar(rng, var_name, 1),
                random_deep_scalar(rng, var_name, 1),
            ),
            1 => cmp_ge(proj(var(var_name), "b"), int(rng.gen_range(0..20))),
            2 => cmp_eq(
                proj(var(var_name), "s"),
                string(STR_VOCAB[rng.gen_range(0..STR_VOCAB.len())]),
            ),
            3 => cmp_ne(
                proj(var(var_name), "s"),
                string(STR_VOCAB[rng.gen_range(0..STR_VOCAB.len())]),
            ),
            _ => cmp_gt(proj(var(var_name), "m"), real(rng.gen_range(0.0..20.0))),
        };
    }
    let l = random_deep_predicate(rng, var_name, depth - 1);
    match rng.gen_range(0..3u32) {
        0 => and(l, random_deep_predicate(rng, var_name, depth - 1)),
        1 => or(l, random_deep_predicate(rng, var_name, depth - 1)),
        _ => not(l),
    }
}

/// One random **expression-heavy** NRC query over `RN` (awkward flat input:
/// NULL `b` lanes, absent `s` lanes, mixed-kind `m`), `S` (clean flat) and
/// `N` (nested). The shapes stack deep scalar/predicate nests onto
/// select/extend/project chains so the compiled kernels and the reference
/// evaluator disagree loudly on any semantic drift.
pub fn random_expr_query(rng: &mut StdRng) -> Expr {
    match rng.gen_range(0..4u32) {
        // Deep filter + computed projection off the awkward relation.
        0 => forin(
            "x",
            var("RN"),
            ifthen(
                random_deep_predicate(rng, "x", 2),
                singleton(tuple([
                    ("u", random_deep_scalar(rng, "x", 2)),
                    ("v", random_deep_scalar(rng, "x", 1)),
                    ("is_red", cmp_eq(proj(var("x"), "s"), string(STR_VOCAB[0]))),
                ])),
            ),
        ),
        // Join with a deep residual predicate on both sides.
        1 => forin(
            "x",
            var("RN"),
            forin(
                "y",
                var("S"),
                ifthen(
                    and(
                        cmp_eq(proj(var("x"), "a"), proj(var("y"), "a")),
                        and(
                            random_deep_predicate(rng, "x", 1),
                            random_deep_predicate(rng, "y", 1),
                        ),
                    ),
                    singleton(tuple([
                        ("u", random_deep_scalar(rng, "x", 2)),
                        ("w", proj(var("y"), "c")),
                        ("tag", proj(var("y"), "s")),
                    ])),
                ),
            ),
        ),
        // Nested output with deep inner predicates: the lowered plans carry
        // label-building extends between the selects.
        2 => forin(
            "n",
            var("N"),
            singleton(tuple([
                ("name", proj(var("n"), "name")),
                (
                    "picks",
                    forin(
                        "i",
                        proj(var("n"), "items"),
                        forin(
                            "y",
                            var("S"),
                            ifthen(
                                and(
                                    cmp_eq(proj(var("i"), "ik"), proj(var("y"), "a")),
                                    random_deep_predicate(rng, "y", 1),
                                ),
                                singleton(tuple([
                                    ("ik", proj(var("i"), "ik")),
                                    (
                                        "score",
                                        mul(proj(var("i"), "iv"), random_deep_scalar(rng, "y", 1)),
                                    ),
                                ])),
                            ),
                        ),
                    ),
                ),
            ])),
        ),
        // Union of two deep-filtered branches over the same scan.
        _ => union(
            forin(
                "x",
                var("RN"),
                ifthen(
                    random_deep_predicate(rng, "x", 2),
                    singleton(tuple([("u", random_deep_scalar(rng, "x", 1))])),
                ),
            ),
            forin(
                "x",
                var("RN"),
                ifthen(
                    random_deep_predicate(rng, "x", 2),
                    singleton(tuple([("u", random_deep_scalar(rng, "x", 1))])),
                ),
            ),
        ),
    }
}

/// The seeded expression-heavy program `seed` over fresh `RN` (awkward
/// flat), `S` (clean flat) and `N` (nested) inputs, with its reference
/// result (a program that projects `m` off `S`, which lacks it, reads NULL
/// there on both sides).
pub fn random_expr_case(seed: u64) -> (QuerySpec, Vec<CaseInput>, Bag) {
    let mut rng = StdRng::seed_from_u64(0xE1_0000 + seed);
    let rn_rows = rng.gen_range(15..40usize);
    let s_rows = rng.gen_range(10..30usize);
    let n_rows = rng.gen_range(3..15usize);
    let rn = random_flat_nullable(&mut rng, rn_rows, 8);
    let s = random_flat(&mut rng, s_rows, 8);
    let n = random_nested(&mut rng, n_rows, 8);
    let query = random_expr_query(&mut rng);
    let values = vec![("RN", rn, false), ("S", s, false), ("N", n, true)];
    let expected = reference_bag(&query, &values);
    let spec = QuerySpec::new(
        format!("expr-{seed}"),
        query,
        vec![ShreddedInputDecl::new("N", items_structure())],
    );
    (spec, values, expected)
}

// ---------------------------------------------------------------------------
// front-end round-trip fuzzing
// ---------------------------------------------------------------------------

/// Asserts the front-end round-trip law `parse(pretty(e)) == e` and returns
/// the re-parsed expression (structurally equal to `e`, but produced by the
/// text path — feed it to the pipeline for differential runs).
pub fn assert_round_trips(e: &Expr, context: &str) -> Expr {
    let text = trance_nrc::pretty::pretty(e);
    match trance_frontend::parse_expr(&text) {
        Ok(parsed) => {
            assert_eq!(
                &parsed, e,
                "{context}: parse(pretty(e)) != e for program:\n{text}"
            );
            parsed
        }
        Err(err) => panic!(
            "{context}: pretty output failed to re-parse:\n{text}\n--- diagnostic ---\n{err}"
        ),
    }
}

/// Reads a `u64` knob from the environment (trimmed), falling back to
/// `default` on absence or junk — fuzz suites must never panic on a bad
/// knob, they just run the default corpus.
pub fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(v) => v.trim().parse::<u64>().unwrap_or_else(|_| {
            eprintln!("{name}={v:?} is not a number; using default {default}");
            default
        }),
        Err(_) => default,
    }
}
