//! The out-of-core spill subsystem, engine side:
//!
//! * the on-disk batch serialization must round-trip seeded-random nested
//!   batches **losslessly** through `SpillFile` frames (strict variant
//!   equality, like the in-memory `Value` ↔ `Batch` round trip);
//! * memory-capped runs with spilling enabled must complete with results
//!   identical to uncapped runs, while the same cap without spilling still
//!   raises `MemoryExceeded` (the paper's FAIL);
//! * spill files are scoped to the run: they disappear when the spilled
//!   collections drop, on the error path, and after a worker panic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trance_dist::colops::unnest_batch;
use trance_dist::{Batch, ClusterConfig, ColCollection, DistContext, ExecError, JoinSpec};
use trance_nrc::Value;
use trance_store::{ByteReader, ByteWriter, SpillManager, Spillable};

mod common;
use common::{random_row, strict_eq};

#[test]
fn spill_frames_round_trip_random_nested_batches_losslessly() {
    let manager = SpillManager::new(None).expect("spill dir");
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(0x5B111 + seed);
        let n = rng.gen_range(1..80usize);
        let rows: Vec<Value> = (0..n).map(|_| random_row(&mut rng, 2, 4)).collect();
        let batch = Batch::from_rows(&rows);

        // Chunked framing: split the batch into several frames like the
        // engine does, stream them back, and compare the concatenation.
        let mut file = manager.create().expect("spill file");
        let chunk = rng.gen_range(1..n + 1);
        let mut lo = 0;
        while lo < n {
            let hi = (lo + chunk).min(n);
            let idx: Vec<usize> = (lo..hi).collect();
            let mut w = ByteWriter::new();
            batch.take(&idx).encode(&mut w).expect("encode chunk");
            file.append(&w.into_bytes()).expect("append frame");
            lo = hi;
        }
        let handle = file.finish().expect("seal");
        let mut reader = handle.open().expect("open");
        let mut back: Vec<Value> = Vec::new();
        while let Some(frame) = reader.next_frame().expect("frame") {
            let decoded = Batch::decode(&mut ByteReader::new(&frame)).expect("decode");
            back.extend(decoded.to_rows());
        }
        assert_eq!(back.len(), rows.len(), "seed {seed}: cardinality changed");
        for (i, (orig, got)) in rows.iter().zip(&back).enumerate() {
            assert!(
                strict_eq(orig, got),
                "seed {seed}: row {i} changed on disk\n  original: {orig:?}\n  restored: {got:?}"
            );
        }
    }
    assert_eq!(
        manager.live_files().unwrap(),
        0,
        "dropping every handle must have deleted every spill file"
    );
}

/// 600 wide rows, each with a nested bag — enough that unnest + join output
/// overruns a small worker cap.
fn wide_rows() -> Vec<Value> {
    (0..600)
        .map(|i| {
            Value::tuple([
                ("id", Value::Int(i)),
                ("pad", Value::str("x".repeat(64))),
                (
                    "items",
                    Value::bag(
                        (0..8)
                            .map(|j| {
                                Value::tuple([
                                    ("k", Value::Int((i + j) % 40)),
                                    ("v", Value::Real(j as f64)),
                                    ("note", Value::str(format!("item note {j}"))),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect()
}

fn side_rows() -> Vec<Value> {
    (0..40)
        .map(|k| {
            Value::tuple([
                ("k", Value::Int(k)),
                ("label", Value::str(format!("side-{k}"))),
            ])
        })
        .collect()
}

/// Canonicalizes nested rows for comparison: bags are multisets, and
/// out-of-core execution may emit a group's elements in a different order
/// than the in-memory run, so bags sort recursively before comparing.
fn canonical(v: &Value) -> Value {
    match v {
        Value::Bag(b) => {
            let mut items: Vec<Value> = b.iter().map(canonical).collect();
            items.sort();
            Value::Bag(trance_nrc::Bag::new(items))
        }
        Value::Tuple(t) => Value::Tuple(trance_nrc::Tuple::new(
            t.iter().map(|(n, v)| (n.to_string(), canonical(v))),
        )),
        other => other.clone(),
    }
}

/// Unnests `bag_attr` of every partition: one row-local `map_batches` pass,
/// streaming spilled partitions chunk by chunk.
fn unnest(
    data: &ColCollection,
    bag_attr: &str,
    alias: Option<&str>,
) -> trance_dist::Result<ColCollection> {
    data.map_batches("flat_map", |b| unnest_batch(b, bag_attr, alias))
}

/// Unnest + shuffle join + regroup over the columnar representation.
fn columnar_pipeline(ctx: &DistContext) -> trance_dist::Result<Vec<Value>> {
    let data = ColCollection::ingest(&ctx.parallelize(wide_rows()), &[]).expect("ingest");
    let side = ColCollection::ingest(&ctx.parallelize(side_rows()), &[]).expect("ingest");
    let flat = unnest(&data, "items", Some("i"))?;
    let joined = flat.join(&side, &JoinSpec::inner(&["i.k"], &["k"]))?;
    let grouped = joined.nest_bag(
        &["id".to_string()],
        &["i.v".to_string(), "label".to_string()],
        "grp",
    )?;
    let mut out: Vec<Value> = grouped.collect_bag()?.iter().map(canonical).collect();
    out.sort();
    Ok(out)
}

fn capped_cluster(spill: bool) -> ClusterConfig {
    let cfg = ClusterConfig::new(2, 4)
        .with_broadcast_limit(512)
        .with_worker_memory(96 * 1024);
    if spill {
        cfg.with_spill()
    } else {
        cfg
    }
}

#[test]
fn capped_columnar_run_spills_instead_of_failing_and_matches_uncapped() {
    let uncapped = DistContext::new(ClusterConfig::new(2, 4).with_broadcast_limit(512));
    let expected = columnar_pipeline(&uncapped).expect("uncapped run");

    // Same cap, no spill subsystem: the paper's FAIL.
    let failing = DistContext::new(capped_cluster(false));
    match columnar_pipeline(&failing) {
        Err(ExecError::MemoryExceeded { .. }) => {}
        other => panic!("expected MemoryExceeded without spill, got {other:?}"),
    }

    // Same cap, spill on: completes, identical result, real spill traffic.
    let capped = DistContext::new(capped_cluster(true));
    let produced = columnar_pipeline(&capped).expect("capped spill run");
    assert_eq!(expected.len(), produced.len());
    for (a, b) in expected.iter().zip(&produced) {
        assert!(strict_eq(a, b), "spill changed a row: {a:?} vs {b:?}");
    }
    let stats = capped.stats().snapshot();
    assert!(
        stats.spilled_bytes > 0 && stats.spill_files > 0,
        "capped run must actually spill ({stats:?})"
    );

    // The session toggle reproduces FAIL on the same spill-capable cluster.
    capped.stats().reset();
    capped.set_spill_session(false);
    match columnar_pipeline(&capped) {
        Err(ExecError::MemoryExceeded { .. }) => {}
        other => panic!("expected MemoryExceeded with the session off, got {other:?}"),
    }
    capped.set_spill_session(true);
}

fn live_spill_files(ctx: &DistContext) -> usize {
    match ctx.spill_dir() {
        None => 0,
        Some(dir) => std::fs::read_dir(dir).map(|d| d.count()).unwrap_or(0),
    }
}

#[test]
fn spill_files_are_deleted_when_collections_drop_and_on_error_paths() {
    let ctx = DistContext::new(capped_cluster(true));
    let out = columnar_pipeline(&ctx).expect("capped run");
    drop(out);
    // The pipeline's intermediates are gone: every spill file must be too
    // (the scoped directory itself lives until the context drops).
    assert_eq!(
        live_spill_files(&ctx),
        0,
        "success path left spill files behind"
    );

    // Error path: a type error after spilling has happened.
    let data = ColCollection::ingest(&ctx.parallelize(wide_rows()), &[]).expect("ingest");
    let flat = unnest(&data, "items", Some("i")).expect("unnest");
    assert!(flat.spilled_partitions() > 0, "cap should force spilling");
    let err = unnest(&flat, "id", None);
    assert!(err.is_err(), "unnesting a scalar must fail");
    drop(flat);
    drop(data);
    assert_eq!(
        live_spill_files(&ctx),
        0,
        "error path left spill files behind"
    );

    let dir = ctx.spill_dir().expect("spill dir was created");
    assert!(dir.exists());
    drop(ctx);
    assert!(
        !dir.exists(),
        "context drop must remove the scoped directory"
    );
}

#[test]
fn spill_files_survive_worker_panics_without_leaking() {
    let ctx = DistContext::new(capped_cluster(true));
    let data = ColCollection::ingest(&ctx.parallelize(wide_rows()), &[]).expect("ingest");
    let flat = unnest(&data, "items", Some("i")).expect("unnest");
    assert!(flat.spilled_partitions() > 0);
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = flat.map_batches("map", |_| panic!("worker down"));
    }));
    assert!(panicked.is_err(), "the worker panic must propagate");
    drop(flat);
    drop(data);
    assert_eq!(
        live_spill_files(&ctx),
        0,
        "worker panic left spill files behind"
    );
}
