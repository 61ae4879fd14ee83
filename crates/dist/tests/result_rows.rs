//! The collect boundary: a result handed over by `ColCollection::to_rows` is
//! its batches, and its rows are built from them on demand. Whatever is
//! asked of it — `len`, `is_empty`, `partitions`, `collect`, `collect_bag` —
//! must read exactly as per-partition `Batch::to_rows` would, row for row
//! and in partition order, on every batch shape: NULL and absent
//! attributes, nested bags (empty ones included), opaque and `Column::Other`
//! batches holding labels, empty partitions, and partitions spilled under a
//! memory cap. Building the rows is not an operator: it meters nothing and
//! observes no cancellation.

use rand::rngs::StdRng;
use rand::SeedableRng;
use trance_dist::{Batch, ClusterConfig, ColCollection, Column, DistContext, ExecError};
use trance_nrc::{Label, Value};

mod common;
use common::{random_row, strict_eq};

fn cluster() -> DistContext {
    DistContext::new(ClusterConfig::new(2, 4))
}

fn label(i: i64) -> Value {
    Value::Label(Label::new(1, vec![Value::Int(i)]))
}

/// The rows per partition the way the row conversion reads them: each
/// partition's batch (spilled ones read back) through `Batch::to_rows`.
fn per_partition_rows(coll: &ColCollection) -> Vec<Vec<Value>> {
    coll.batches()
        .expect("read partitions")
        .iter()
        .map(|b| b.to_rows())
        .collect()
}

fn assert_rows_eq(what: &str, expected: &[Value], got: &[Value]) {
    assert_eq!(expected.len(), got.len(), "{what}: row count");
    for (i, (e, g)) in expected.iter().zip(got).enumerate() {
        assert!(
            strict_eq(e, g),
            "{what}: row {i}\n  expected {e:?}\n  got      {g:?}"
        );
    }
}

/// Holds a result's every reading to the per-partition conversion.
fn assert_result_matches_batches(shape: &str, coll: &ColCollection) {
    let expected = per_partition_rows(coll);
    let flat: Vec<Value> = expected.iter().flatten().cloned().collect();
    let rows = coll.to_rows().expect("to_rows");

    // `collect` / `collect_bag` / `len` before anything filled the row cell.
    assert_eq!(rows.len(), flat.len(), "{shape}: len");
    assert_eq!(rows.is_empty(), flat.is_empty(), "{shape}: is_empty");
    assert_rows_eq(&format!("{shape}: collect"), &flat, &rows.collect());
    let bag = rows.collect_bag();
    let bag_items: Vec<Value> = bag.iter().cloned().collect();
    assert_rows_eq(&format!("{shape}: collect_bag"), &flat, &bag_items);

    let parts = rows.partitions();
    assert_eq!(parts.len(), expected.len(), "{shape}: partition count");
    for (p, (e, g)) in expected.iter().zip(parts).enumerate() {
        assert_rows_eq(&format!("{shape}: partition {p}"), e, g);
    }
    // And after it: the cell does not change what `collect` reads.
    assert_rows_eq(
        &format!("{shape}: collect after partitions"),
        &flat,
        &rows.collect(),
    );
    assert_eq!(rows.len(), flat.len(), "{shape}: len after partitions");
}

#[test]
fn a_result_reads_as_its_per_partition_batch_rows_on_every_shape() {
    let ctx = cluster();

    // NULL and absent attributes, nested bags (empty, NULL and scalar ones
    // included) two levels deep, and label-valued scalars.
    let mut rng = StdRng::seed_from_u64(0x7E5017);
    let nested: Vec<Value> = (0..300).map(|_| random_row(&mut rng, 2, 6)).collect();
    let coll = ColCollection::ingest(&ctx.parallelize(nested), &[]).expect("ingest");
    assert_result_matches_batches("nested", &coll);

    // An explicitly empty bag next to a full one, and NULL next to absent.
    let bags = vec![
        Value::tuple([("k", Value::Int(1)), ("items", Value::bag(Vec::new()))]),
        Value::tuple([
            ("k", Value::Null),
            (
                "items",
                Value::bag(vec![Value::tuple([("v", Value::Int(2))])]),
            ),
        ]),
        Value::tuple([("items", Value::bag(Vec::new()))]),
    ];
    let coll = ColCollection::ingest(&ctx.parallelize(bags), &[]).expect("ingest");
    assert_result_matches_batches("empty bags", &coll);

    // Opaque batches: rows that are labels, not tuples.
    let opaque: Vec<Value> = (0..20).map(label).collect();
    let coll = ColCollection::ingest(&ctx.parallelize(opaque), &[]).expect("ingest");
    assert!(coll
        .batches()
        .unwrap()
        .iter()
        .all(|b| b.schema().is_opaque()));
    assert_result_matches_batches("opaque labels", &coll);

    // A `Column::Other` attribute: labels mixed with ints and NULL.
    let mixed: Vec<Value> = (0..24)
        .map(|i| {
            let v = match i % 3 {
                0 => label(i),
                1 => Value::Int(i),
                _ => Value::Null,
            };
            Value::tuple([("id", Value::Int(i)), ("lbl", v)])
        })
        .collect();
    let coll = ColCollection::ingest(&ctx.parallelize(mixed), &[]).expect("ingest");
    assert!(coll
        .batches()
        .unwrap()
        .iter()
        .all(|b| matches!(b.column("lbl"), Some(Column::Other { .. }))));
    assert_result_matches_batches("Column::Other labels", &coll);

    // Empty partitions: two rows over four partitions, then none at all.
    let two = vec![label(7), Value::tuple([("a", Value::Int(1))])];
    let coll = ColCollection::ingest(&ctx.parallelize(two), &[]).expect("ingest");
    assert_result_matches_batches("two rows", &coll);
    assert_result_matches_batches("empty", &ColCollection::empty(&ctx));
    assert_result_matches_batches(
        "one partition",
        &ColCollection::single(&ctx, Batch::from_rows(&[Value::Int(3), Value::Int(4)])),
    );
}

#[test]
fn a_result_with_spilled_partitions_reads_as_its_batch_rows() {
    let ctx = DistContext::new(
        ClusterConfig::new(2, 4)
            .with_worker_memory(64 * 1024)
            .with_spill(),
    );
    let mut rng = StdRng::seed_from_u64(0x5B1);
    let rows: Vec<Value> = (0..2_000).map(|_| random_row(&mut rng, 1, 6)).collect();
    let loaded = ColCollection::ingest(&ctx.parallelize(rows), &[]).expect("ingest");
    // An operator's output is where the memory governor evicts partitions.
    let coll = loaded
        .map_batches("copy", |b| Ok(b.clone()))
        .expect("capped copy");
    assert!(
        coll.spilled_partitions() > 0,
        "the cap must spill a partition for this test to mean anything"
    );
    assert_result_matches_batches("spilled", &coll);
}

#[test]
fn partitions_returns_the_same_rows_on_a_second_call_and_through_clones() {
    let ctx = cluster();
    let mut rng = StdRng::seed_from_u64(11);
    let rows: Vec<Value> = (0..50).map(|_| random_row(&mut rng, 1, 3)).collect();
    let coll = ColCollection::ingest(&ctx.parallelize(rows), &[]).expect("ingest");
    let result = coll.to_rows().expect("to_rows");
    let clone = result.clone();
    let first = result.partitions();
    assert!(std::ptr::eq(first, result.partitions()));
    assert!(std::ptr::eq(first, clone.partitions()));
    for (a, b) in first.iter().zip(per_partition_rows(&coll)) {
        assert_rows_eq("second call", &b, a);
    }
}

#[test]
fn a_result_still_collects_after_its_context_was_cancelled() {
    let base = cluster();
    let ctx = base.session();
    // Above the partition runner's parallel threshold, so a cancellation
    // check there would be reached on the pool path too.
    let mut rng = StdRng::seed_from_u64(3);
    let rows: Vec<Value> = (0..1_000).map(|_| random_row(&mut rng, 1, 4)).collect();
    let coll = ColCollection::ingest(&ctx.parallelize(rows.clone()), &[]).expect("ingest");
    let result = coll.to_rows().expect("to_rows before the cancel");
    let expected = per_partition_rows(&coll);

    ctx.cancel_token().cancel("client went away");
    assert!(matches!(coll.to_rows(), Err(ExecError::Cancelled { .. })));

    let flat: Vec<Value> = expected.iter().flatten().cloned().collect();
    assert_eq!(result.len(), rows.len());
    assert_rows_eq("collect after cancel", &flat, &result.collect());
    assert_eq!(result.collect_bag().len(), rows.len());
    for (p, (e, g)) in expected.iter().zip(result.partitions()).enumerate() {
        assert_rows_eq(&format!("partition {p} after cancel"), e, g);
    }
}
