//! Key edge semantics of the breakers, pinned two ways: the typed path
//! (`ColCollection`) must equal the `Value` definition written out here on
//! join keys that are equal only under `Value::cmp` (Int vs Real, NaN, signed zero), on `i64` keys whose
//! hashes collide, on NULL vs absent grouping keys, on empty and all-absent
//! key columns, on mixed Int/Real sums, and on `sumBy` overflow — and the
//! re-nesting join equal to its definition on every path the engine takes.

use trance_dist::{ClusterConfig, ColCollection, DistContext, ExecError, JoinHint, JoinSpec};
use trance_nrc::builder::{sum_by, var};
use trance_nrc::{canonical_rows, eval, Bag, Env, Label, NrcError, Tuple, Value};

const BIG: i64 = 1 << 53;

fn ctx() -> DistContext {
    // Below the parallel threshold and above it behave alike; keep a small
    // broadcast limit so `Auto` would shuffle too.
    DistContext::new(ClusterConfig::new(2, 4).with_broadcast_limit(64))
}

fn rows_of(field: &str, keys: &[Option<Value>]) -> Vec<Value> {
    keys.iter()
        .enumerate()
        .map(|(i, k)| {
            let mut t = Tuple::new([(format!("{field}_id"), Value::Int(i as i64))]);
            if let Some(k) = k {
                t.set(field, k.clone());
            }
            Value::Tuple(t)
        })
        .collect()
}

fn sorted(mut rows: Vec<Value>) -> Vec<Value> {
    rows.sort();
    rows
}

fn columnar(ctx: &DistContext, rows: &[Value]) -> ColCollection {
    ColCollection::ingest(&ctx.parallelize(rows.to_vec()), &[]).unwrap()
}

/// Whether left row `l` and right row `r` match on `k = dk`: NULL and absent
/// keys never match, everything else matches under `Value`'s equality.
fn matches(l: &Value, r: &Value) -> bool {
    let (lt, rt) = (l.as_tuple().unwrap(), r.as_tuple().unwrap());
    match (lt.get("k"), rt.get("dk")) {
        (Some(a), Some(b)) => *a != Value::Null && a == b,
        _ => false,
    }
}

/// The `Value` definition of the inner equi-join on `k = dk`.
fn join_definition(left: &[Value], right: &[Value]) -> Vec<Value> {
    let mut out = Vec::new();
    for l in left {
        for r in right.iter().filter(|r| matches(l, r)) {
            let rt = r.as_tuple().unwrap();
            out.push(Value::Tuple(l.as_tuple().unwrap().concat(rt)));
        }
    }
    sorted(out)
}

/// The `Value` definition of the re-nesting join on `k = dk` of `left` and
/// `right` grouped by `dk`: every left row once, `g` the bag of the
/// `dk_id`s of the right rows it matches — `{}` when there are none.
fn renest_definition(left: &[Value], right: &[Value]) -> Vec<Value> {
    let rows = left.iter().map(|l| {
        let group = right.iter().filter(|r| matches(l, r)).map(|r| {
            let id = r.as_tuple().unwrap().get("dk_id").unwrap().clone();
            Value::tuple([("dk_id", id)])
        });
        let mut t = l.as_tuple().unwrap().clone();
        t.set("g", Value::bag(group.collect()));
        Value::Tuple(t)
    });
    canonical_rows(&Bag::new(rows.collect()))
}

/// `right` grouped by `dk` into `g`, as the plans' `Γ⊎` leaves the right
/// side of every re-nesting join.
fn grouped(right: &ColCollection) -> ColCollection {
    let (key, values) = (["dk".to_string()], ["dk_id".to_string()]);
    right.nest_bag(&key, &values, "g").unwrap()
}

fn assert_joins_agree(name: &str, left_keys: &[Option<Value>], right_keys: &[Option<Value>]) {
    let ctx = ctx();
    let left = rows_of("k", left_keys);
    let right = rows_of("dk", right_keys);
    for hint in [JoinHint::Shuffle, JoinHint::BroadcastRight] {
        let spec = JoinSpec::inner(&["k"], &["dk"]).with_hint(hint);
        let typed = columnar(&ctx, &left)
            .join(&columnar(&ctx, &right), &spec)
            .unwrap()
            .collect_bag()
            .unwrap();
        let case = format!("{name}, inner, {hint:?}");
        let want = join_definition(&left, &right);
        assert_eq!(sorted(typed.into_items()), want, "typed path, {case}");

        let spec = JoinSpec::renest(&["k"], &["dk"], "g").with_hint(hint);
        let typed = columnar(&ctx, &left)
            .join(&grouped(&columnar(&ctx, &right)), &spec)
            .unwrap()
            .collect_bag()
            .unwrap();
        let case = format!("{name}, renest, {hint:?}");
        let want = renest_definition(&left, &right);
        assert_eq!(canonical_rows(&typed), want, "typed path, {case}");
    }
}

fn int(i: i64) -> Option<Value> {
    Some(Value::Int(i))
}

fn real(r: f64) -> Option<Value> {
    Some(Value::Real(r))
}

#[test]
fn join_keys_follow_value_equality_not_hash_equality() {
    // Two i64 above 2^53 share their f64 image, hence their hash: they must
    // land in one chain and still not join each other.
    assert_joins_agree(
        "int x int with colliding hashes",
        &[
            int(1),
            int(BIG),
            int(BIG + 1),
            Some(Value::Null),
            None,
            int(BIG + 1),
        ],
        &[
            int(BIG + 1),
            int(1),
            int(1),
            int(BIG + 2),
            Some(Value::Null),
        ],
    );
    assert_joins_agree(
        "int x real",
        &[int(1), int(2), int(0), int(BIG)],
        &[
            real(1.0),
            real(2.5),
            real(-0.0),
            real(f64::NAN),
            real(BIG as f64),
        ],
    );
    assert_joins_agree(
        "real x real: NaN joins NaN, -0.0 joins 0.0",
        &[real(f64::NAN), real(-0.0), real(0.0), real(1.5), None],
        &[real(-f64::NAN), real(0.0), real(1.5), real(2.5)],
    );
    assert_joins_agree(
        "mixed kinds in one column: a date never equals an int",
        &[
            int(3),
            real(3.0),
            Some(Value::Date(3)),
            Some(Value::str("3")),
            Some(Value::Bool(true)),
        ],
        &[int(3), Some(Value::Date(3)), Some(Value::str("3")), int(1)],
    );
    let label = |site, v| Some(Value::Label(Label::new(site, vec![Value::Int(v)])));
    assert_joins_agree(
        "labels, the SHRED join keys",
        &[label(1, 7), label(1, 8), label(2, 7), None],
        &[label(1, 7), label(1, 7), label(2, 8)],
    );
    assert_joins_agree(
        "strings and dates",
        &[
            Some(Value::str("a")),
            Some(Value::str("b")),
            Some(Value::Null),
        ],
        &[
            Some(Value::str("b")),
            Some(Value::str("b")),
            Some(Value::str("c")),
        ],
    );
    assert_joins_agree("empty sides", &[], &[int(1)]);
    assert_joins_agree("all-absent key column", &[None, None], &[int(1), None]);
}

/// The law of the re-nesting join, held on every path the engine can take:
/// both sides in place, shuffled, the right side broadcast, skew-aware with
/// a heavy key, and Grace-style under a memory cap. The left side has NULL
/// and absent keys; the right side has groups for a few keys only, so some
/// of its partitions hold no rows; and a right side with no rows at all
/// gives every left row `{}`.
#[test]
fn renest_equals_its_definition_on_every_path() {
    // Key 1 owns half of the left rows, keys 2..=10 the rest; one row in ten
    // has a NULL or no key.
    let keys: Vec<Option<Value>> = (0..400)
        .map(|i| match i % 20 {
            0 => Some(Value::Null),
            10 => None,
            _ if i % 2 == 0 => int(1),
            _ => int(2 + i % 9),
        })
        .collect();
    let left_rows = rows_of("k", &keys);
    let right_rows = rows_of("dk", &[int(1), int(3), int(3), Some(Value::Null), int(40)]);
    let spec = JoinSpec::renest(&["k"], &["dk"], "g");
    let check = |path: &str, ctx: &DistContext, left: &ColCollection, right: &[Value]| {
        let grouped = grouped(&columnar(ctx, right));
        ctx.stats().reset();
        let got = match path {
            // The groups fit the broadcast limit; only a shuffle join is
            // skew-aware.
            "skew" => left.skew_join(&grouped, &spec.clone().with_hint(JoinHint::Shuffle)),
            "broadcast" => left.join(&grouped, &spec.clone().with_hint(JoinHint::BroadcastRight)),
            _ => left.join(&grouped, &spec.clone().with_hint(JoinHint::Shuffle)),
        };
        let got = got.unwrap().collect_bag().unwrap();
        let left = left.collect_bag().unwrap().into_items();
        let want = renest_definition(&left, right);
        assert_eq!(canonical_rows(&got), want, "{path}");
        ctx.stats().snapshot()
    };
    let ctx = DistContext::new(ClusterConfig::new(2, 4).with_broadcast_limit(1 << 20));
    let left = columnar(&ctx, &left_rows);
    for right in [&right_rows[..], &[]] {
        check("shuffle", &ctx, &left, right);
        check("broadcast", &ctx, &left, right);
        let stats = check("skew", &ctx, &left, right);
        assert_eq!(stats.skew_broadcast_joins, 1, "key 1 is heavy");
        // Placed by its key the way a grouping leaves it, every row — the
        // invalid-key ones included — where the join would send it.
        let (key, place_by) = (strings(&["k", "k_id"]), strings(&["k"]));
        let placed = left.nest_bag_placed(&key, &[], "none", &place_by).unwrap();
        let stats = check("in place", &ctx, &placed, right);
        assert_eq!((stats.shuffles_in_place, stats.shuffled_bytes), (2, 0));
    }
    let capped = DistContext::new(
        ClusterConfig::new(2, 4)
            .with_broadcast_limit(64)
            .with_worker_memory(2048)
            .with_spill(),
    );
    let left = columnar(&capped, &left_rows);
    assert!(check("grace", &capped, &left, &right_rows).spill_files > 0);
}

/// The `Value` definition of `Γ+`: group by the projected key tuple (a NULL
/// key and an absent key are different tuples), fold `numeric_add`.
fn sum_definition(rows: &[Value], key: &[&str], values: &[&str]) -> Vec<Value> {
    let mut groups: Vec<(Tuple, Vec<Value>)> = Vec::new();
    for row in rows {
        let t = row.as_tuple().unwrap();
        let k = t.project(key);
        let at = match groups.iter().position(|(g, _)| *g == k) {
            Some(at) => at,
            None => {
                groups.push((k, vec![Value::Null; values.len()]));
                groups.len() - 1
            }
        };
        for (slot, name) in groups[at].1.iter_mut().zip(values) {
            *slot = slot
                .numeric_add(t.get(name).unwrap_or(&Value::Null))
                .unwrap();
        }
    }
    sorted(
        groups
            .into_iter()
            .map(|(mut k, sums)| {
                for (name, sum) in values.iter().zip(sums) {
                    k.set(
                        *name,
                        if sum == Value::Null {
                            Value::Int(0)
                        } else {
                            sum
                        },
                    );
                }
                Value::Tuple(k)
            })
            .collect(),
    )
}

fn bag_definition(rows: &[Value], key: &[&str], values: &[&str], out: &str) -> Vec<Value> {
    let mut groups: Vec<(Tuple, Vec<Value>)> = Vec::new();
    for row in rows {
        let t = row.as_tuple().unwrap();
        let k = t.project(key);
        let elem = Value::Tuple(t.project(values));
        match groups.iter_mut().find(|(g, _)| *g == k) {
            Some((_, elems)) => elems.push(elem),
            None => groups.push((k, vec![elem])),
        }
    }
    sorted(
        groups
            .into_iter()
            .map(|(mut k, elems)| {
                k.set(out, Value::bag(sorted(elems)));
                Value::Tuple(k)
            })
            .collect(),
    )
}

/// Sorts the inner bag of every group row, then the rows.
fn canonical_groups(rows: Vec<Value>, out: &str) -> Vec<Value> {
    sorted(
        rows.into_iter()
            .map(|row| {
                let mut t = row.as_tuple().unwrap().clone();
                let elems = t.get(out).unwrap().as_bag().unwrap().items().to_vec();
                t.set(out, Value::bag(sorted(elems)));
                Value::Tuple(t)
            })
            .collect(),
    )
}

fn strings(names: &[&str]) -> Vec<String> {
    names.iter().map(|n| n.to_string()).collect()
}

fn assert_groupings_agree(name: &str, rows: &[Value], key: &[&str], values: &[&str]) {
    let ctx = ctx();
    let (k, v) = (strings(key), strings(values));
    let typed = columnar(&ctx, rows);

    let want = sum_definition(rows, key, values);
    let got = typed.nest_sum(&k, &v).unwrap().collect_bag().unwrap();
    assert_eq!(sorted(got.into_items()), want, "typed Γ+, {name}");
    let got = typed.nest_sum_skew(&k, &v).unwrap().collect_bag().unwrap();
    assert_eq!(sorted(got.into_items()), want, "typed skew Γ+, {name}");

    let want = bag_definition(rows, key, values, "grp");
    let got = typed
        .nest_bag(&k, &v, "grp")
        .unwrap()
        .collect_bag()
        .unwrap();
    assert_eq!(
        canonical_groups(got.into_items(), "grp"),
        want,
        "typed Γ⊎, {name}"
    );
}

#[test]
fn grouping_keys_keep_null_and_absent_apart_and_sums_keep_their_kind() {
    let t = |fields: &[(&str, Value)]| Value::tuple(fields.iter().cloned());
    // NULL key, absent key and a value key are three groups; the `1` group
    // sums an Int and a Real (→ Real) while the others stay Int, so the sum
    // column is mixed across groups.
    let rows = vec![
        t(&[("k", Value::Int(1)), ("v", Value::Int(10))]),
        t(&[("k", Value::Null), ("v", Value::Int(1))]),
        t(&[("v", Value::Int(2))]),
        t(&[("k", Value::Null), ("v", Value::Int(3))]),
        t(&[("v", Value::Int(4))]),
        t(&[("k", Value::Int(1)), ("v", Value::Real(0.5))]),
        t(&[("k", Value::Int(2)), ("v", Value::Null)]),
        t(&[("k", Value::Int(2))]),
    ];
    assert_groupings_agree("NULL vs absent, mixed sums", &rows, &["k"], &["v"]);
    assert_groupings_agree("all-absent key column", &rows, &["nokey"], &["v"]);
    assert_groupings_agree("empty key", &rows, &[], &["v"]);
    assert_groupings_agree("absent value column", &rows, &["k"], &["nov"]);
    assert_groupings_agree("empty input", &[], &["k"], &["v"]);

    // Two-column keys over a string and an int, with NULL/absent lanes in
    // either position.
    let rows = vec![
        t(&[
            ("a", Value::str("x")),
            ("b", Value::Int(1)),
            ("v", Value::Real(1.0)),
        ]),
        t(&[
            ("a", Value::str("x")),
            ("b", Value::Int(2)),
            ("v", Value::Real(2.0)),
        ]),
        t(&[
            ("a", Value::str("x")),
            ("b", Value::Int(1)),
            ("v", Value::Real(4.0)),
        ]),
        t(&[("a", Value::str("y")), ("v", Value::Real(8.0))]),
        t(&[
            ("a", Value::str("y")),
            ("b", Value::Null),
            ("v", Value::Real(16.0)),
        ]),
        t(&[("b", Value::Int(1)), ("v", Value::Real(32.0))]),
        t(&[
            ("a", Value::Null),
            ("b", Value::Int(1)),
            ("v", Value::Real(64.0)),
        ]),
        t(&[("a", Value::str("y")), ("v", Value::Real(128.0))]),
    ];
    assert_groupings_agree("two-column key", &rows, &["a", "b"], &["v"]);
    // Keys that are equal only under `Value::cmp` land in one group.
    let rows = vec![
        t(&[("k", Value::Real(f64::NAN)), ("v", Value::Int(1))]),
        t(&[("k", Value::Real(-f64::NAN)), ("v", Value::Int(2))]),
        t(&[("k", Value::Int(BIG)), ("v", Value::Int(4))]),
        t(&[("k", Value::Int(BIG + 1)), ("v", Value::Int(8))]),
    ];
    let ctx = ctx();
    let got = columnar(&ctx, &rows)
        .nest_sum(&strings(&["k"]), &strings(&["v"]))
        .unwrap()
        .collect_bag()
        .unwrap();
    let mut sums: Vec<i64> = got
        .iter()
        .map(|r| r.as_tuple().unwrap().get("v").unwrap().as_int().unwrap())
        .collect();
    sums.sort();
    assert_eq!(
        sums,
        vec![3, 4, 8],
        "NaNs group together, colliding ints do not"
    );
}

#[test]
fn sum_by_overflow_is_a_typed_error_on_every_route() {
    let rows = vec![
        Value::tuple([("k", Value::Int(1)), ("v", Value::Int(i64::MAX))]),
        Value::tuple([("k", Value::Int(2)), ("v", Value::Int(5))]),
        Value::tuple([("k", Value::Int(1)), ("v", Value::Int(1))]),
    ];
    let overflow = NrcError::IntegerOverflow("sumBy");

    let env = Env::from_bindings([("R", Value::bag(rows.clone()))]);
    let reference = eval(&sum_by(var("R"), &["k"], &["v"]), &env);
    assert_eq!(reference, Err(overflow.clone()), "nrc::eval");

    let ctx = ctx();
    let (key, values) = (strings(&["k"]), strings(&["v"]));
    let typed = columnar(&ctx, &rows);
    assert_eq!(
        typed.nest_sum(&key, &values).err(),
        Some(ExecError::Nrc(overflow.clone())),
        "Γ+"
    );
    assert_eq!(
        typed.nest_sum_skew(&key, &values).err(),
        Some(ExecError::Nrc(overflow)),
        "skew Γ+"
    );

    // One short of overflow still sums exactly, as an Int.
    let rows = vec![
        Value::tuple([("k", Value::Int(1)), ("v", Value::Int(i64::MAX - 1))]),
        Value::tuple([("k", Value::Int(1)), ("v", Value::Int(1))]),
    ];
    let got = columnar(&ctx, &rows)
        .nest_sum(&key, &values)
        .unwrap()
        .collect_bag()
        .unwrap();
    assert_eq!(
        got.into_items(),
        vec![Value::tuple([
            ("k", Value::Int(1)),
            ("v", Value::Int(i64::MAX))
        ])]
    );
}
