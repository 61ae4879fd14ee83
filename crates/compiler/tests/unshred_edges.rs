//! Edge cases of distributed unshredding, through the public
//! `unshred_distributed_col`, each held to the reference
//! `trance_shred::unshred_pieces`: empty and missing dictionaries, labels
//! without entries three levels down, NULL and absent label attributes on one
//! process and on three ranks, a dictionary that sits on disk, and bag
//! attributes whose names contain `_`. One case goes end to end: every
//! strategy, depth 4, held to `nrc::eval`.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use trance_compiler::{
    ingest_env, run_query, strategy_options, unshred_distributed_col, InputSet, QuerySpec,
    RunResult, Strategy,
};
use trance_dist::{
    owned_range, ClusterConfig, ColCollection, DistCollection, DistContext, Exchange, MemMesh,
    StatsSnapshot,
};
use trance_nrc::builder::{forin, proj, singleton, tuple, var};
use trance_nrc::{bags_approx_equal, eval, Bag, Env, Expr, Value};
use trance_shred::{shred_value, unshred_pieces, NestingStructure, ShreddedInputDecl};

const TOP: &str = "top";

/// Customers → `c_orders` → `o_parts` → `p_tags`: three levels of bags under
/// attribute names that contain `_`, with empty bags at every level (every
/// third customer has no orders, every other order no parts, every other
/// part no tags).
fn nested(customers: i64) -> Bag {
    let bag = |n: i64, item: &dyn Fn(i64) -> Value| Value::bag((0..n).map(item).collect());
    let tags = |n: i64| bag(n % 2 * 2, &|t| Value::tuple([("t", Value::Int(t))]));
    let parts = |n: i64| {
        bag(n % 2 * 3, &|p| {
            Value::tuple([
                ("pid", Value::Int(p)),
                ("p_name", Value::str(format!("part{p}"))),
                ("p_tags", tags(p + n)),
            ])
        })
    };
    let orders = |n: i64| {
        bag(n % 3, &|o| {
            Value::tuple([
                ("odate", Value::str(format!("2020-0{}", o + 1))),
                ("o_parts", parts(o + n)),
            ])
        })
    };
    Bag::new(
        (0..customers)
            .map(|c| {
                Value::tuple([
                    ("cid", Value::Int(c)),
                    ("c_name", Value::str(format!("c{c}"))),
                    ("c_orders", orders(c)),
                ])
            })
            .collect(),
    )
}

fn structure() -> NestingStructure {
    let parts = NestingStructure::flat().with_child("p_tags", NestingStructure::flat());
    let orders = NestingStructure::flat().with_child("o_parts", parts);
    NestingStructure::flat().with_child("c_orders", orders)
}

/// The shredded pieces of [`nested`]: the top bag and its three dictionaries.
fn pieces(customers: i64) -> (Bag, BTreeMap<String, Bag>) {
    let shredded = shred_value(&nested(customers)).expect("the nested input shreds");
    assert_eq!(
        shredded.dicts.keys().collect::<Vec<_>>(),
        ["c_orders", "c_orders_o_parts", "c_orders_o_parts_p_tags"]
    );
    (shredded.top, shredded.dicts)
}

/// Unshreds the pieces on `ctx` — a single process, or the rank that owns
/// `owned` of the partitions — and returns this process's rows and counters.
fn unshred_on(
    ctx: &DistContext,
    owned: std::ops::Range<usize>,
    top: &Bag,
    dicts: &BTreeMap<String, Bag>,
    structure: &NestingStructure,
) -> (Vec<Value>, StatsSnapshot) {
    let load = |bag: &Bag| {
        let all = ctx.parallelize(bag.items().to_vec());
        let parts = all.partitions().iter().enumerate();
        let local = parts.map(|(p, rows)| match owned.contains(&p) {
            true => rows.clone(),
            false => Vec::new(),
        });
        DistCollection::from_partitioned_rows(ctx.clone(), local.collect())
    };
    let mut rows = HashMap::from([(TOP.to_string(), load(top))]);
    for (path, bag) in dicts {
        rows.insert(path.clone(), load(bag));
    }
    let mut cols = ingest_env(&rows).expect("the pieces ingest");
    let top = cols.remove(TOP).expect("the top bag was ingested");
    let dicts: BTreeMap<String, ColCollection> = cols.into_iter().collect();
    let options = strategy_options(Strategy::ShredUnshred, false);
    ctx.set_spill_session(options.spill);
    ctx.stats().reset();
    let out = unshred_distributed_col(&top, &dicts, structure, &options).expect("unshredding runs");
    let rows = out.to_rows().expect("the result crosses to rows");
    (rows.collect_bag().into_items(), ctx.stats().snapshot())
}

fn cluster() -> DistContext {
    DistContext::new(ClusterConfig::new(2, 4).with_broadcast_limit(64))
}

/// Single-process unshredding of the pieces against the reference over the
/// same pieces.
fn agrees_with_the_reference(
    case: &str,
    top: Bag,
    dicts: BTreeMap<String, Bag>,
    structure: &NestingStructure,
) {
    let (rows, _) = unshred_on(&cluster(), 0..4, &top, &dicts, structure);
    let want = unshred_pieces(top, dicts, structure).expect("the reference unshreds");
    let got = Bag::new(rows);
    assert!(
        bags_approx_equal(&got, &want),
        "{case}:\n got {got:?}\nwant {want:?}"
    );
}

#[test]
fn three_levels_with_empty_inner_bags_and_underscored_attributes() {
    let (top, dicts) = pieces(12);
    agrees_with_the_reference("depth 3", top, dicts, &structure());
}

#[test]
fn a_dictionary_without_rows_leaves_empty_bags() {
    for emptied in ["c_orders", "c_orders_o_parts", "c_orders_o_parts_p_tags"] {
        let (top, mut dicts) = pieces(12);
        dicts.insert(emptied.to_string(), Bag::empty());
        agrees_with_the_reference(&format!("{emptied} empty"), top, dicts, &structure());
    }
    // Nothing to unshred into either.
    let (_, dicts) = pieces(12);
    agrees_with_the_reference("empty top bag", Bag::empty(), dicts, &structure());
}

#[test]
fn a_missing_dictionary_leaves_its_attribute_as_it_is() {
    // Without the parts dictionary `o_parts` stays the label it was — what
    // the reference does for an attribute the structure does not list — and
    // the tags below it are unreachable.
    let (top, mut dicts) = pieces(12);
    dicts.remove("c_orders_o_parts");
    let (rows, _) = unshred_on(&cluster(), 0..4, &top, &dicts, &structure());
    let orders_only = NestingStructure::flat().with_child("c_orders", NestingStructure::flat());
    let want = unshred_pieces(top, dicts, &orders_only).unwrap();
    assert!(bags_approx_equal(&Bag::new(rows), &want));
    let labels_left = want.iter().any(|c| {
        let orders = c.as_tuple().unwrap().get("c_orders").unwrap();
        let mut orders = orders.as_bag().unwrap().iter();
        orders.any(|o| matches!(o.as_tuple().unwrap().get("o_parts"), Some(Value::Label(_))))
    });
    assert!(labels_left, "the case must leave a label in place");
}

/// The top bag with every fifth `c_orders` NULL and every seventh absent.
fn with_null_and_absent_labels(top: &Bag) -> Bag {
    let rows = top.iter().enumerate().map(|(i, row)| {
        let mut t = row.as_tuple().unwrap().clone();
        if i % 5 == 0 {
            t.set("c_orders", Value::Null);
        } else if i % 7 == 0 {
            t.remove("c_orders");
        }
        Value::Tuple(t)
    });
    Bag::new(rows.collect())
}

#[test]
fn null_and_absent_labels_on_one_process_and_on_three_ranks() {
    let (top, dicts) = pieces(40);
    let top = with_null_and_absent_labels(&top);
    let structure = structure();
    // A NULL label is an empty bag. A row without the attribute comes out
    // with an empty bag too, where the reference leaves the attribute out:
    // the plan's `coalesce` reads absent as NULL, like every plan operator.
    let reference = unshred_pieces(top.clone(), dicts.clone(), &structure).unwrap();
    let want = Bag::new(
        reference
            .iter()
            .map(|row| {
                let mut t = row.as_tuple().unwrap().clone();
                if t.get("c_orders").is_none() {
                    t.set("c_orders", Value::empty_bag());
                }
                Value::Tuple(t)
            })
            .collect(),
    );
    let config = ClusterConfig::new(2, 6).with_broadcast_limit(64);
    let (single, stats) = unshred_on(
        &DistContext::new(config.clone()),
        0..6,
        &top,
        &dicts,
        &structure,
    );
    assert!(bags_approx_equal(&Bag::new(single), &want));
    // One shuffle join per dictionary; the first `Γ⊎` has no placement to
    // use (the pieces were loaded round-robin), the grouped side of every
    // join does.
    assert_eq!((stats.shuffle_joins, stats.shuffles_in_place), (3, 3));
    // Every rank must skip the same shuffles and agree on the one plan, or
    // the collectives desynchronize; the rank-summed result and meters are
    // the single process's.
    let ranks = 3;
    let per_rank: Vec<(Vec<Value>, StatsSnapshot)> = std::thread::scope(|s| {
        let handles: Vec<_> = MemMesh::cluster(ranks)
            .into_iter()
            .map(|mesh| {
                let (config, top, dicts, structure) = (&config, &top, &dicts, &structure);
                s.spawn(move || {
                    let owned = owned_range(mesh.rank(), 6, ranks);
                    let ctx = DistContext::new(config.clone());
                    ctx.set_exchange(Some(Arc::new(mesh)));
                    unshred_on(&ctx, owned, top, dicts, structure)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut got = Vec::new();
    let mut shuffled = (0, 0);
    for (rows, rank) in per_rank {
        got.extend(rows);
        shuffled = (
            shuffled.0 + rank.shuffled_tuples,
            shuffled.1 + rank.shuffled_bytes,
        );
        assert_eq!(rank.shuffles_in_place, stats.shuffles_in_place);
        assert_eq!(rank.shuffle_joins, stats.shuffle_joins);
    }
    assert!(bags_approx_equal(&Bag::new(got), &want));
    assert_eq!(shuffled, (stats.shuffled_tuples, stats.shuffled_bytes));
}

#[test]
fn a_dictionary_on_disk_unshreds_like_one_in_memory() {
    let (top, dicts) = pieces(60);
    let structure = structure();
    let capped = DistContext::new(
        ClusterConfig::new(2, 4)
            .with_broadcast_limit(64)
            .with_worker_memory(2 * 1024)
            .with_spill(),
    );
    let (rows, stats) = unshred_on(&capped, 0..4, &top, &dicts, &structure);
    assert!(
        stats.spilled_bytes > 0,
        "a 2 KB cap must push pieces to disk"
    );
    let want = unshred_pieces(top, dicts, &structure).unwrap();
    assert!(bags_approx_equal(&Bag::new(rows), &want));
}

/// Four levels of bags — customers → `c_orders` → `o_parts` → `p_tags` →
/// `t_notes` — with an empty bag at each level (a customer without orders,
/// an order without parts, a part without tags, a tag without notes) and one
/// NULL bag lane (the last customer's orders).
fn four_levels(customers: i64) -> Value {
    let bag = |n: i64, item: &dyn Fn(i64) -> Value| Value::bag((0..n).map(item).collect());
    let notes = |n: i64| bag(n % 2, &|k| Value::tuple([("note", Value::Int(k))]));
    let tags = |n: i64| {
        bag(n % 3, &|t| {
            Value::tuple([("t", Value::Int(t)), ("t_notes", notes(t + n))])
        })
    };
    let parts = |n: i64| {
        bag(n % 4, &|p| {
            Value::tuple([("pid", Value::Int(p)), ("p_tags", tags(p + n))])
        })
    };
    let orders = |n: i64| {
        bag(n % 5, &|o| {
            Value::tuple([("ok", Value::Int(o)), ("o_parts", parts(o + n))])
        })
    };
    bag(customers, &|c| {
        let orders = match c + 1 == customers {
            true => Value::Null,
            false => orders(c),
        };
        Value::tuple([("cid", Value::Int(c)), ("c_orders", orders)])
    })
}

#[test]
fn every_strategy_rebuilds_four_levels_with_empty_and_null_bags() {
    // for c in N union {<cid, orders := for o in c.c_orders union {<ok,
    //   parts := for p in o.o_parts union {<pid, tags := for t in p.p_tags
    //   union {<t, notes := for k in t.t_notes union {<note>}>}>}>}>}
    let level = |v: &str, source: Expr, key: &str, inner: Option<(&str, Expr)>| {
        let fields = [(key, proj(var(v), key))].into_iter().chain(inner);
        forin(v, source, singleton(tuple(fields)))
    };
    let notes = level("k", proj(var("t"), "t_notes"), "note", None);
    let tags = level("t", proj(var("p"), "p_tags"), "t", Some(("notes", notes)));
    let parts = level("p", proj(var("o"), "o_parts"), "pid", Some(("tags", tags)));
    let orders = level(
        "o",
        proj(var("c"), "c_orders"),
        "ok",
        Some(("parts", parts)),
    );
    let query = level("c", var("N"), "cid", Some(("orders", orders)));
    let structure = NestingStructure::flat().with_child(
        "c_orders",
        NestingStructure::flat().with_child(
            "o_parts",
            NestingStructure::flat().with_child(
                "p_tags",
                NestingStructure::flat().with_child("t_notes", NestingStructure::flat()),
            ),
        ),
    );
    let input = four_levels(30);
    let want = eval(&query, &Env::from_bindings([("N", input.clone())]))
        .and_then(Value::into_bag)
        .expect("the reference evaluates the query");
    let spec = QuerySpec::new(
        "four-levels",
        query,
        vec![ShreddedInputDecl::new("N", structure)],
    );
    let mut inputs = InputSet::new(cluster());
    inputs
        .add_nested("N", input.into_bag().expect("a bag"))
        .expect("the nested input shreds");
    for strategy in Strategy::all() {
        let case = strategy.label();
        let got = match run_query(&spec, &inputs, strategy).result {
            RunResult::Nested(rows) => rows.collect_bag(),
            RunResult::Shredded(out) => {
                trance_compiler::collect_unshredded(&out).expect("the output unshreds")
            }
            RunResult::Failed(e) => panic!("{case} failed: {e}"),
        };
        assert!(
            bags_approx_equal(&got, &want),
            "{case}:\n got {got:?}\nwant {want:?}"
        );
    }
}
