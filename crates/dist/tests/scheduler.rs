//! Engine-level tests of the persistent worker pool and the morsel-driven
//! pipeline drivers: fused pipelines must be byte-equivalent to their staged
//! operator chains — one `map_batches` materialization per step — (rows
//! *and* order), unique-id assignment under sequential morsel cursors must
//! reproduce the staged numbering (each whole partition numbered from 0 by
//! `Batch::with_unique_ids`), steal/morsel/time
//! accounting must be truthful, and a morsel task that panics mid-pipeline
//! must not leak spill files.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use trance_dist::colops::{unique_ids_batch, unnest_batch};
use trance_dist::{Batch, ClusterConfig, ColCollection, DistContext, FieldHint, MorselCtx};
use trance_nrc::{Tuple, Value};

fn row(k: i64, v: i64) -> Value {
    Value::tuple([("k", Value::Int(k)), ("v", Value::Int(v))])
}

fn nested_row(k: i64, items: usize) -> Value {
    Value::tuple([
        ("k", Value::Int(k)),
        (
            "items",
            Value::bag(
                (0..items)
                    .map(|i| Value::tuple([("x", Value::Int(i as i64))]))
                    .collect(),
            ),
        ),
    ])
}

fn col_ingest(ctx: &DistContext, rows: Vec<Value>) -> ColCollection {
    let coll = ctx.parallelize(rows);
    ColCollection::ingest(&coll, &[FieldHint::scalar("k"), FieldHint::scalar("v")]).unwrap()
}

// ---------------------------------------------------------------------------
// fused pipelines vs staged operator chains
// ---------------------------------------------------------------------------

#[test]
fn columnar_pipeline_matches_staged_chain_rows_and_order() {
    for workers in [1, 2, 7] {
        let ctx = DistContext::new(ClusterConfig::new(workers, 8));
        let data = col_ingest(&ctx, (0..20_000).map(|i| row(i % 50, i)).collect());

        let staged = data
            .map_batches("filter", |b| {
                let mask: Vec<bool> = (0..b.rows())
                    .map(|i| matches!(b.value_at(i, "v"), Some(Value::Int(v)) if v % 3 == 0))
                    .collect();
                Ok(b.filter(&mask))
            })
            .unwrap()
            .map_batches("map", |b| {
                let doubled: Vec<Value> = (0..b.rows())
                    .map(|i| match b.value_at(i, "v") {
                        Some(Value::Int(v)) => Value::Int(v * 2),
                        other => other.unwrap_or(Value::Null),
                    })
                    .collect();
                Ok(b.with_column(
                    "v2",
                    std::sync::Arc::new(trance_dist::Column::from_values(doubled)),
                ))
            })
            .unwrap();

        let fused = data
            .run_pipeline(
                "pipeline[select+extend]",
                &["select".to_string(), "extend".to_string()],
                false,
                |b, _| {
                    let mask: Vec<bool> = (0..b.rows())
                        .map(|i| matches!(b.value_at(i, "v"), Some(Value::Int(v)) if v % 3 == 0))
                        .collect();
                    let b = b.filter(&mask);
                    let doubled: Vec<Value> = (0..b.rows())
                        .map(|i| match b.value_at(i, "v") {
                            Some(Value::Int(v)) => Value::Int(v * 2),
                            other => other.unwrap_or(Value::Null),
                        })
                        .collect();
                    Ok(b.with_column(
                        "v2",
                        std::sync::Arc::new(trance_dist::Column::from_values(doubled)),
                    ))
                },
            )
            .unwrap();

        // Identical rows in identical partition order: the reorder buffer
        // re-assembles stolen morsels in source order.
        let staged_parts: Vec<Vec<Value>> = staged
            .batches()
            .unwrap()
            .iter()
            .map(|b| b.to_rows())
            .collect();
        let fused_parts: Vec<Vec<Value>> = fused
            .batches()
            .unwrap()
            .iter()
            .map(|b| b.to_rows())
            .collect();
        assert_eq!(
            staged_parts, fused_parts,
            "workers={workers}: fused pipeline must be byte-identical to the staged chain"
        );
    }
}

#[test]
fn sequential_pipeline_reproduces_staged_unique_ids_exactly() {
    let ctx = DistContext::new(ClusterConfig::new(4, 8));
    let data = col_ingest(&ctx, (0..9_000).map(|i| row(i % 10, i)).collect());
    let fused = data
        .run_pipeline(
            "pipeline[add_index]",
            &["add_index".to_string()],
            true,
            |b, cx: &mut MorselCtx| unique_ids_batch(b, "__id", cx, 0),
        )
        .unwrap();
    // The definition: each whole partition numbered from 0.
    let stride = data.num_partitions() as i64;
    let staged_rows: Vec<Vec<Value>> = data
        .batches()
        .unwrap()
        .iter()
        .enumerate()
        .map(|(p, b)| b.with_unique_ids("__id", p, 0, stride).to_rows())
        .collect();
    let fused_rows: Vec<Vec<Value>> = fused
        .batches()
        .unwrap()
        .iter()
        .map(|b| b.to_rows())
        .collect();
    assert_eq!(
        staged_rows, fused_rows,
        "fused id assignment must reproduce the staged numbering"
    );
    // Ids must be globally unique either way.
    let ids: HashSet<i64> = fused_rows
        .iter()
        .flatten()
        .map(|v| v.as_tuple().unwrap().get("__id").unwrap().as_int().unwrap())
        .collect();
    assert_eq!(ids.len(), 9_000);
}

#[test]
fn fused_unnest_kernel_matches_staged_unnest() {
    let ctx = DistContext::new(ClusterConfig::new(3, 6));
    let rows: Vec<Value> = (0..500).map(|i| nested_row(i, (i % 4) as usize)).collect();
    let coll = ctx.parallelize(rows);
    let data = ColCollection::ingest(
        &coll,
        &[
            FieldHint::scalar("k"),
            FieldHint::bag("items", vec![FieldHint::scalar("x")]),
        ],
    )
    .unwrap();
    let staged = data
        .map_batches("flat_map", |b| unnest_batch(b, "items", "it"))
        .unwrap();
    let fused = data
        .run_pipeline(
            "pipeline[unnest]",
            &["unnest".to_string()],
            false,
            |b, _| unnest_batch(b, "items", "it"),
        )
        .unwrap();
    let staged_rows: Vec<Vec<Value>> = staged
        .batches()
        .unwrap()
        .iter()
        .map(|b| b.to_rows())
        .collect();
    let fused_rows: Vec<Vec<Value>> = fused
        .batches()
        .unwrap()
        .iter()
        .map(|b| b.to_rows())
        .collect();
    assert_eq!(staged_rows, fused_rows);
    // Rows with an empty bag yield none: 125 rows each of 0, 1, 2, 3 items.
    assert_eq!(fused_rows.iter().map(Vec::len).sum::<usize>(), 750);
}

// ---------------------------------------------------------------------------
// accounting: morsels, steals, per-pipeline op attribution
// ---------------------------------------------------------------------------

#[test]
fn pipeline_stats_attribute_time_to_the_pipeline_with_member_ops() {
    let ctx = DistContext::new(ClusterConfig::new(4, 8));
    let data = col_ingest(&ctx, (0..30_000).map(|i| row(i % 20, i)).collect());
    ctx.stats().reset();
    data.run_pipeline(
        "pipeline[select+extend+project]",
        &[
            "select".to_string(),
            "extend".to_string(),
            "project".to_string(),
        ],
        false,
        |b, _| Ok(b.clone()),
    )
    .unwrap();
    let snap = ctx.stats().snapshot();
    let timing = &snap.pipeline_timings["pipeline[select+extend+project]"];
    assert_eq!(timing.calls, 1);
    assert_eq!(timing.ops, vec!["select", "extend", "project"]);
    // Ample partitions (8 ≥ 2×4 workers): one morsel per partition.
    assert!(
        timing.morsels >= 8,
        "expected morsel-grained execution, saw {}",
        timing.morsels
    );
    assert_eq!(snap.total_morsels(), timing.morsels);
    assert!(snap.pipeline_ms() >= 0.0);
    // op_ms stays truthful: the fused run shows up under its pipeline label,
    // never under a member operator's bucket.
    assert!(snap
        .op_timings
        .contains_key("pipeline[select+extend+project]"));
    assert!(!snap.op_timings.contains_key("select"));
    assert!(!snap.op_timings.contains_key("map"));
}

#[test]
fn uneven_morsels_get_stolen_and_counted() {
    // Two workers over three partitions (scarce relative to the pool, so
    // resident partitions split into 4096-row morsels): 12 morsels, dealt
    // round-robin, six to each participant's deque. The participant that
    // runs the first morsel is held on a latch until the *other* one has
    // started seven — one more than its own deque held — so a steal is
    // forced, not hoped for, and it must show up in the stats.
    const DEALT_PER_PARTICIPANT: usize = 6;
    struct Latch {
        holder: Option<std::thread::ThreadId>,
        started_by_other: usize,
    }
    let latch = Mutex::new(Latch {
        holder: None,
        started_by_other: 0,
    });
    let released = std::sync::Condvar::new();

    let ctx = DistContext::new(ClusterConfig::new(2, 3));
    let data = col_ingest(&ctx, (0..40_000).map(|i| row(i % 4, i)).collect());
    ctx.stats().reset();
    data.run_pipeline(
        "pipeline[extend]",
        &["extend".to_string()],
        false,
        |b, _| {
            let me = std::thread::current().id();
            let mut state = latch.lock().unwrap();
            match state.holder {
                None => {
                    state.holder = Some(me);
                    while state.started_by_other <= DEALT_PER_PARTICIPANT {
                        state = released.wait(state).unwrap();
                    }
                }
                Some(holder) if holder != me => {
                    state.started_by_other += 1;
                    released.notify_all();
                }
                Some(_) => {}
            }
            drop(state);
            Ok(b.with_column(
                "h",
                std::sync::Arc::new(trance_dist::Column::from_const(&Value::Int(7), b.rows())),
            ))
        },
    )
    .unwrap();
    let snap = ctx.stats().snapshot();
    assert_eq!(
        snap.total_morsels(),
        2 * DEALT_PER_PARTICIPANT as u64,
        "the latch arithmetic assumes six morsels per participant"
    );
    assert!(
        snap.steal_count > 0,
        "the held participant's morsels must have been stolen, stats: {snap:?}"
    );
}

// ---------------------------------------------------------------------------
// panics × spill cleanup
// ---------------------------------------------------------------------------

#[test]
fn morsel_panic_mid_pipeline_cleans_up_spill_files() {
    let dir = std::env::temp_dir().join(format!("trance-sched-panic-{}", std::process::id()));
    let ctx = DistContext::new(
        ClusterConfig::new(3, 8)
            .with_worker_memory(16 * 1024)
            .with_spill_dir(&dir),
    );
    // Enough rows that materialized inputs spill under the 16 KiB cap.
    let rows: Vec<Value> = (0..6_000)
        .map(|i| {
            Value::tuple([
                ("k", Value::Int(i)),
                ("pad", Value::str(format!("padding-{i:06}"))),
            ])
        })
        .collect();
    let coll = ctx.parallelize(rows);
    let data =
        ColCollection::ingest(&coll, &[FieldHint::scalar("k"), FieldHint::scalar("pad")]).unwrap();
    // A first (successful) pipeline forces real spill traffic.
    let spilled = data
        .run_pipeline(
            "pipeline[extend]",
            &["extend".to_string()],
            false,
            |b, _| Ok(b.clone()),
        )
        .unwrap();
    assert!(
        ctx.stats().snapshot().spilled_bytes > 0,
        "the cap is meant to force the pipeline output out-of-core"
    );

    // Now a morsel task panics mid-pipeline: the panic must propagate to the
    // caller AFTER the scope settles, and no spill file of the failed run
    // may survive once the collections drop.
    let hits = AtomicUsize::new(0);
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _ = spilled.run_pipeline(
            "pipeline[select]",
            &["select".to_string()],
            false,
            |b, _| {
                if hits.fetch_add(1, Ordering::Relaxed) == 2 {
                    panic!("injected morsel failure");
                }
                Ok(b.clone())
            },
        );
    }));
    assert!(result.is_err(), "the morsel panic must reach the caller");

    // The engine survives the panic: the same collection still executes.
    let after = spilled
        .run_pipeline(
            "pipeline[select]",
            &["select".to_string()],
            false,
            |b, _| Ok(b.clone()),
        )
        .unwrap();
    assert_eq!(after.len(), 6_000);

    // Dropping every collection (and the context) must drain the scoped
    // spill directory — including files of the panicked run's sinks.
    let spill_dir = ctx.spill_dir();
    drop(after);
    drop(spilled);
    drop(data);
    drop(coll);
    drop(ctx);
    if let Some(d) = spill_dir {
        assert!(
            !d.exists(),
            "dropping the context must remove the scoped spill directory"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// pool behaviour through the public context API
// ---------------------------------------------------------------------------

#[test]
fn context_pool_is_created_once_and_shared_by_clones() {
    let ctx = DistContext::new(ClusterConfig::new(5, 10));
    assert_eq!(ctx.pool().participants(), 5);
    let clone = ctx.clone();
    assert!(std::ptr::eq(ctx.pool(), clone.pool()));
}

#[test]
fn run_tasks_records_steals_into_stats() {
    let ctx = DistContext::new(ClusterConfig::new(2, 4));
    ctx.stats().reset();
    let order: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..16)
        .map(|i| {
            let order = &order;
            Box::new(move || {
                if i == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(30));
                }
                order.lock().unwrap().push(i);
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    ctx.run_tasks(tasks);
    assert_eq!(order.lock().unwrap().len(), 16);
    assert!(
        ctx.stats().snapshot().steal_count >= 1,
        "the idle participant should have stolen the sleeper's queued tasks"
    );
}

#[test]
fn empty_partitions_preserve_schema_through_pipelines() {
    let ctx = DistContext::new(ClusterConfig::new(2, 6));
    // One row only: five partitions stay empty but keep their schema.
    let data = col_ingest(&ctx, vec![row(1, 2)]);
    let out = data
        .run_pipeline(
            "pipeline[select]",
            &["select".to_string()],
            false,
            |b, _| Ok(b.filter(&vec![false; b.rows()])),
        )
        .unwrap();
    assert_eq!(out.len(), 0);
    let staged = data
        .map_batches("filter", |b| Ok(b.filter(&vec![false; b.rows()])))
        .unwrap();
    let fields = |c: &ColCollection| -> Vec<Vec<String>> {
        let batches = c.batches().unwrap();
        batches
            .iter()
            .map(|b| b.schema().fields().to_vec())
            .collect()
    };
    assert_eq!(fields(&out), fields(&staged));
    let _ = Tuple::empty();
    let _ = Batch::empty();
}
