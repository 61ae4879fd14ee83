//! Engine-level tests of the operator suite ([`ColCollection`]): partition
//! parallelism, operator semantics, the skew-aware join path (heavy-key
//! detection, light ∪ heavy correctness on a Zipf-skewed input,
//! broadcast-limit fallback) and the memory-cap FAIL behaviour — each
//! against a nested-loop or sequential oracle written out here.

use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::ThreadId;

use trance_dist::{
    Batch, ClusterConfig, ColCollection, DistContext, ExecError, JoinHint, JoinSpec,
};
use trance_nrc::{Bag, Tuple, Value};

fn row(k: i64, v: i64) -> Value {
    Value::tuple([("k", Value::Int(k)), ("v", Value::Int(v))])
}

/// Loads `rows` round-robin and converts them to batches (unmetered and
/// uncapped, like every input load).
fn load(ctx: &DistContext, rows: Vec<Value>) -> ColCollection {
    ColCollection::ingest(&ctx.parallelize(rows), &[]).unwrap()
}

/// Applies `f` to every row of a batch.
fn map_rows(b: &Batch, f: impl Fn(&Tuple) -> Value) -> Batch {
    let rows: Vec<Value> = b
        .to_rows()
        .iter()
        .map(|v| f(v.as_tuple().unwrap()))
        .collect();
    Batch::from_rows(&rows)
}

/// A deterministic Zipf-flavoured fact table: key 0 owns `heavy_share` of the
/// rows, the rest spread over `keys` distinct keys.
fn skewed_rows(n: usize, keys: i64, heavy_share: f64) -> Vec<Value> {
    (0..n)
        .map(|i| {
            let k = if (i as f64 / n as f64) < heavy_share {
                0
            } else {
                1 + (i as i64 % (keys - 1))
            };
            row(k, i as i64)
        })
        .collect()
}

fn dim_rows(keys: i64) -> Vec<Value> {
    (0..keys)
        .map(|k| {
            Value::tuple([
                ("dk", Value::Int(k)),
                ("name", Value::str(format!("key{k}"))),
            ])
        })
        .collect()
}

/// Reference nested-loop equi-join used as the correctness oracle.
fn nested_loop_join(left: &[Value], right: &[Value]) -> Bag {
    let mut out = Bag::empty();
    for l in left {
        let lt = l.as_tuple().unwrap();
        for r in right {
            let rt = r.as_tuple().unwrap();
            if lt.get("k") == rt.get("dk") {
                out.push(Value::Tuple(lt.concat(rt)));
            }
        }
    }
    out
}

fn canonical(bag: &Bag) -> Vec<Value> {
    let mut items: Vec<Value> = bag
        .iter()
        .map(|v| {
            let t = v.as_tuple().unwrap();
            let mut fields: Vec<(String, Value)> =
                t.iter().map(|(n, v)| (n.to_string(), v.clone())).collect();
            fields.sort_by(|a, b| a.0.cmp(&b.0));
            Value::Tuple(Tuple::new(fields))
        })
        .collect();
    items.sort();
    items
}

// ---------------------------------------------------------------------------
// partition parallelism
// ---------------------------------------------------------------------------

#[test]
fn operators_run_partition_parallel_across_workers() {
    // The persistent pool models 4 workers as 3 pool threads plus the
    // calling thread. Work stealing makes *full* participation
    // timing-dependent (a descheduled worker's tasks get stolen), so the
    // assertion is that the operator genuinely ran across multiple
    // threads — not that every participant won a task.
    let ctx = DistContext::new(ClusterConfig::new(4, 8));
    assert_eq!(ctx.pool().participants(), 4);
    let data = load(&ctx, (0..800).map(|i| row(i, i)).collect());
    let threads: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
    let out = data
        .map_batches("map", |b| {
            threads.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_millis(10));
            Ok(b.clone())
        })
        .unwrap();
    assert_eq!(out.len(), 800);
    assert_eq!(out.num_partitions(), 8);
    let distinct_threads = threads.lock().unwrap().len();
    assert!(
        distinct_threads >= 2,
        "expected partition-parallel execution across pool threads, saw {distinct_threads}"
    );
}

#[test]
fn single_worker_runs_inline() {
    let ctx = DistContext::new(ClusterConfig::new(1, 4));
    let data = load(&ctx, (0..1000).map(|i| row(i, i)).collect());
    let threads: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
    data.map_batches("map", |b| {
        threads.lock().unwrap().insert(std::thread::current().id());
        Ok(b.clone())
    })
    .unwrap();
    assert_eq!(
        *threads.lock().unwrap(),
        HashSet::from([std::thread::current().id()])
    );
}

// ---------------------------------------------------------------------------
// operator semantics
// ---------------------------------------------------------------------------

#[test]
fn map_filter_union_distinct_roundtrip() {
    let ctx = DistContext::new(ClusterConfig::new(3, 6));
    let a = load(&ctx, (0..50).map(|i| row(i % 5, i)).collect());
    let evens = a
        .map_batches("filter", |b| {
            let mask: Vec<bool> = (0..b.rows())
                .map(|i| matches!(b.value_at(i, "v"), Some(Value::Int(v)) if v % 2 == 0))
                .collect();
            Ok(b.filter(&mask))
        })
        .unwrap();
    assert_eq!(evens.len(), 25);
    let doubled = evens
        .map_batches("map", |b| {
            Ok(map_rows(b, |t| {
                let mut t = t.clone();
                let x = t.get("v").unwrap().as_int().unwrap();
                t.set("v", Value::Int(x * 2));
                Value::Tuple(t)
            }))
        })
        .unwrap();
    let unioned = doubled.union(&evens).unwrap();
    assert_eq!(unioned.len(), 50);
    // Every even `v` appears once as itself; doubling maps 0 to 0 as well.
    let mut vs: Vec<i64> = unioned
        .collect_bag()
        .unwrap()
        .iter()
        .map(|r| r.as_tuple().unwrap().get("v").unwrap().as_int().unwrap())
        .collect();
    vs.sort();
    let mut want: Vec<i64> = (0..50).step_by(2).flat_map(|v| [v, v * 2]).collect();
    want.sort();
    assert_eq!(vs, want);
    let keys = unioned
        .map_batches("map", |b| Ok(b.project_fields(&["k".to_string()])))
        .unwrap()
        .distinct()
        .unwrap();
    assert_eq!(keys.len(), 5);
}

#[test]
fn nest_sum_matches_sequential_aggregation() {
    let ctx = DistContext::new(ClusterConfig::new(4, 8));
    let rows: Vec<Value> = (0..1000).map(|i| row(i % 7, i)).collect();
    let mut expected = [0i64; 7];
    for i in 0..1000i64 {
        expected[(i % 7) as usize] += i;
    }
    let summed = load(&ctx, rows)
        .nest_sum(&["k".to_string()], &["v".to_string()])
        .unwrap();
    assert_eq!(summed.len(), 7);
    for v in summed.collect_bag().unwrap() {
        let t = v.as_tuple().unwrap();
        let k = t.get("k").unwrap().as_int().unwrap();
        assert_eq!(t.get("v").unwrap().as_int().unwrap(), expected[k as usize]);
    }
}

#[test]
fn with_unique_id_assigns_distinct_ids() {
    let ctx = DistContext::new(ClusterConfig::new(4, 8));
    let data = load(&ctx, (0..500).map(|i| row(i % 3, i)).collect());
    // The numbering every id-assigning pipeline step reproduces: each whole
    // partition numbered from 0 with the partition count as stride.
    let stride = data.num_partitions() as i64;
    let ids: HashSet<i64> = data
        .batches()
        .unwrap()
        .iter()
        .enumerate()
        .flat_map(|(p, b)| b.with_unique_ids("__id", p, 0, stride).to_rows())
        .map(|v| v.as_tuple().unwrap().get("__id").unwrap().as_int().unwrap())
        .collect();
    assert_eq!(ids.len(), 500);
}

#[test]
fn memory_cap_fails_operators_but_not_loading() {
    let ctx = DistContext::new(ClusterConfig::new(2, 4).with_worker_memory(500));
    // Loading is not capped (the paper excludes input caching)...
    let data = load(&ctx, (0..200).map(|i| row(i, i)).collect());
    // ...but the first operator that materializes output is.
    let result = data.map_batches("map", |b| Ok(b.clone()));
    match result {
        Err(ExecError::MemoryExceeded { limit_bytes, .. }) => assert_eq!(limit_bytes, 500),
        other => panic!("expected MemoryExceeded, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// skew handling (Section 5)
// ---------------------------------------------------------------------------

/// How many keys a skew join over `facts ⋈ dim_rows(keys)` treated as heavy,
/// read off the engine's own counters: the dimension holds one row per key,
/// the light part is forced through a shuffle, so the only rows broadcast
/// are the heavy keys' dimension rows — once per worker.
fn heavy_keys_joined(config: ClusterConfig, facts: Vec<Value>, keys: i64) -> u64 {
    let workers = config.workers as u64;
    let ctx = DistContext::new(config);
    let spec = JoinSpec::inner(&["k"], &["dk"]).with_hint(JoinHint::Shuffle);
    let joined = load(&ctx, facts.clone())
        .skew_join(&load(&ctx, dim_rows(keys)), &spec)
        .unwrap();
    assert_eq!(joined.len(), facts.len());
    let snap = ctx.stats().snapshot();
    assert_eq!(snap.skew_fallback_joins, 0);
    assert_eq!(snap.broadcast_joins, 0);
    assert_eq!(
        snap.skew_broadcast_joins > 0,
        snap.broadcast_tuples > 0,
        "heavy keys are joined by exactly one skew broadcast: {snap:?}"
    );
    snap.broadcast_tuples / workers
}

#[test]
fn heavy_key_detection_respects_threshold() {
    // The threshold is `1 / partitions`. Key 0: 50% of rows; keys 1–10: 5%
    // each — at 4 partitions (25%) only key 0 is heavy.
    let facts = skewed_rows(2000, 11, 0.5);
    assert_eq!(
        heavy_keys_joined(ClusterConfig::new(2, 4), facts.clone(), 11),
        1
    );

    // At 32 partitions (3.125%) every key (each ≥ 5% of rows) is heavy.
    assert_eq!(heavy_keys_joined(ClusterConfig::new(2, 32), facts, 11), 11);

    // A uniform distribution over many keys has no heavy keys at the default
    // (1/partitions) threshold.
    let uniform: Vec<Value> = (0..2000).map(|i| row(i % 100, i)).collect();
    assert_eq!(heavy_keys_joined(ClusterConfig::new(2, 4), uniform, 100), 0);
}

#[test]
fn skew_join_on_zipf_input_equals_nested_loop_join() {
    let facts = skewed_rows(4000, 40, 0.6);
    let dims = dim_rows(40);
    let expected = nested_loop_join(&facts, &dims);

    let ctx = DistContext::new(ClusterConfig::new(4, 16).with_broadcast_limit(16 * 1024));
    let left = load(&ctx, facts);
    let right = load(&ctx, dims);
    let spec = JoinSpec::inner(&["k"], &["dk"]);

    let standard = left.join(&right, &spec).unwrap();
    assert_eq!(ctx.stats().snapshot().skew_broadcast_joins, 0);
    let skewed = left.skew_join(&right, &spec).unwrap();

    assert_eq!(
        canonical(&expected),
        canonical(&standard.collect_bag().unwrap())
    );
    assert_eq!(
        canonical(&expected),
        canonical(&skewed.collect_bag().unwrap())
    );

    // Key 0 must have been detected heavy and joined by the heavy-key
    // broadcast strategy.
    let snap = ctx.stats().snapshot();
    assert!(
        snap.skew_broadcast_joins >= 1,
        "expected a heavy-key broadcast join, stats: {snap:?}"
    );
}

#[test]
fn skew_renest_join_gives_unmatched_rows_the_empty_bag() {
    // The groups cover only half the keys, and some facts have a NULL or no
    // key at all: every fact comes out once, its group or `{}` under
    // `names`, identically on both paths.
    let mut facts = skewed_rows(2000, 20, 0.5);
    facts.push(Value::tuple([("k", Value::Null), ("v", Value::Int(-1))]));
    facts.push(Value::tuple([("v", Value::Int(-2))]));
    let expected: Bag = facts
        .iter()
        .map(|f| {
            let mut t = f.as_tuple().unwrap().clone();
            let names = match t.get("k") {
                Some(Value::Int(k)) if *k < 10 => {
                    vec![Value::tuple([("name", Value::str(format!("key{k}")))])]
                }
                _ => Vec::new(),
            };
            t.set("names", Value::bag(names));
            Value::Tuple(t)
        })
        .collect();
    let ctx = DistContext::new(ClusterConfig::new(3, 8).with_broadcast_limit(8 * 1024));
    let left = load(&ctx, facts);
    let right = load(&ctx, dim_rows(10))
        .nest_bag(&["dk".into()], &["name".into()], "names")
        .unwrap();
    let spec = JoinSpec::renest(&["k"], &["dk"], "names");
    let standard = left.join(&right, &spec).unwrap();
    let skewed = left.skew_join(&right, &spec).unwrap();
    assert!(ctx.stats().snapshot().skew_broadcast_joins >= 1);
    assert_eq!(
        canonical(&expected),
        canonical(&standard.collect_bag().unwrap())
    );
    assert_eq!(
        canonical(&expected),
        canonical(&skewed.collect_bag().unwrap())
    );
}

#[test]
fn skew_join_falls_back_to_shuffle_over_broadcast_limit() {
    let facts = skewed_rows(3000, 30, 0.6);
    // Wide dimension rows so the heavy-matching right rows exceed the limit.
    let dims: Vec<Value> = (0..30)
        .map(|k| Value::tuple([("dk", Value::Int(k)), ("pad", Value::str("x".repeat(256)))]))
        .collect();
    let expected = nested_loop_join(&facts, &dims);
    // Broadcast limit smaller than a single padded dimension row.
    let ctx = DistContext::new(ClusterConfig::new(4, 8).with_broadcast_limit(128));
    let spec = JoinSpec::inner(&["k"], &["dk"]);
    let merged = load(&ctx, facts)
        .skew_join(&load(&ctx, dims), &spec)
        .unwrap();
    assert_eq!(
        canonical(&expected),
        canonical(&merged.collect_bag().unwrap())
    );
    let snap = ctx.stats().snapshot();
    assert!(
        snap.skew_fallback_joins >= 1,
        "expected the heavy part to fall back to a shuffle join, stats: {snap:?}"
    );
    assert_eq!(snap.skew_broadcast_joins, 0);
}

#[test]
fn skew_nest_sum_equals_standard_nest_sum() {
    let rows = skewed_rows(3000, 25, 0.7);
    let mut expected = [0i64; 25];
    for r in &rows {
        let t = r.as_tuple().unwrap();
        let k = t.get("k").unwrap().as_int().unwrap();
        expected[k as usize] += t.get("v").unwrap().as_int().unwrap();
    }
    let expected: Bag = (0..25).map(|k| row(k, expected[k as usize])).collect();
    let ctx = DistContext::new(ClusterConfig::new(4, 8));
    let data = load(&ctx, rows);
    let key = vec!["k".to_string()];
    let values = vec!["v".to_string()];
    let standard = data.nest_sum(&key, &values).unwrap();
    let skewed = data.nest_sum_skew(&key, &values).unwrap();
    assert_eq!(
        canonical(&expected),
        canonical(&standard.collect_bag().unwrap())
    );
    assert_eq!(
        canonical(&expected),
        canonical(&skewed.collect_bag().unwrap())
    );
}

/// Heavy keys are hashes: `2^53` and `2^53 + 1` hash equally (their `f64`
/// images coincide) but are different keys. `2^53` is heavy; `2^53 + 1` is
/// light by count, so its rows take the heavy side only because its hash is
/// heavy — and there they still match only their own key.
#[test]
fn colliding_keys_take_the_heavy_side_together_and_stay_apart() {
    let big = 1i64 << 53;
    let facts: Vec<Value> = (0..2000)
        .map(|i| match i % 100 {
            1 => row(big + 1, i),
            _ if i % 2 == 0 => row(big, i),
            _ => row(i % 7, i),
        })
        .collect();
    let dims: Vec<Value> = [big, big + 1, 0, 1, 2, 3, 4, 5, 6]
        .iter()
        .map(|k| Value::tuple([("dk", Value::Int(*k)), ("name", Value::str(k.to_string()))]))
        .collect();
    let ctx = DistContext::new(ClusterConfig::new(2, 4));
    let (left, right) = (load(&ctx, facts.clone()), load(&ctx, dims.clone()));
    let spec = JoinSpec::inner(&["k"], &["dk"]).with_hint(JoinHint::Shuffle);
    let joined = left.skew_join(&right, &spec).unwrap();
    assert_eq!(
        canonical(&nested_loop_join(&facts, &dims)),
        canonical(&joined.collect_bag().unwrap())
    );
    // One heavy hash, and both keys' dimension rows were broadcast under it.
    let snap = ctx.stats().snapshot();
    assert_eq!(snap.skew_broadcast_joins, 1, "{snap:?}");
    assert_eq!(snap.broadcast_tuples, 2 * ctx.config().workers as u64);

    let mut sums = std::collections::BTreeMap::new();
    for f in &facts {
        let t = f.as_tuple().unwrap();
        let k = t.get("k").unwrap().as_int().unwrap();
        *sums.entry(k).or_insert(0) += t.get("v").unwrap().as_int().unwrap();
    }
    assert!(sums.contains_key(&(big + 1)));
    let expected: Bag = sums.into_iter().map(|(k, v)| row(k, v)).collect();
    let (key, values) = (vec!["k".to_string()], vec!["v".to_string()]);
    let standard = left.nest_sum(&key, &values).unwrap();
    let skewed = left.nest_sum_skew(&key, &values).unwrap();
    // The union of a light and a heavy aggregation is not placed.
    assert!(standard.placement().is_some() && skewed.placement().is_none());
    assert_eq!(
        canonical(&expected),
        canonical(&standard.collect_bag().unwrap())
    );
    assert_eq!(
        canonical(&expected),
        canonical(&skewed.collect_bag().unwrap())
    );
}

#[test]
fn skew_join_shuffles_less_than_standard_on_heavy_input() {
    // The headline property: with a heavy key, the skew-aware join moves far
    // fewer rows through the shuffle because heavy rows stay in place.
    let facts = skewed_rows(8000, 50, 0.8);
    let dims = dim_rows(50);
    let spec = JoinSpec::inner(&["k"], &["dk"]);

    // Force both paths to shuffle-join the light part by keeping the
    // dimension over the broadcast limit, but leave room to broadcast the
    // heavy-matching rows.
    let standard_ctx = DistContext::new(ClusterConfig::new(4, 16).with_broadcast_limit(512));
    let l = load(&standard_ctx, facts.clone());
    let r = load(&standard_ctx, dims.clone());
    l.join(&r, &spec).unwrap();
    let standard_shuffled = standard_ctx.stats().snapshot().shuffled_tuples;

    let skew_ctx = DistContext::new(ClusterConfig::new(4, 16).with_broadcast_limit(512));
    let l = load(&skew_ctx, facts);
    let r = load(&skew_ctx, dims);
    l.skew_join(&r, &spec).unwrap();
    let skew_shuffled = skew_ctx.stats().snapshot().shuffled_tuples;

    assert!(
        skew_shuffled * 2 < standard_shuffled,
        "skew path should shuffle far less: {skew_shuffled} vs {standard_shuffled}"
    );
}
