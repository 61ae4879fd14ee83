//! Value ↔ Batch round-tripping: seeded-random nested bags must survive the
//! columnar representation **losslessly** — field order, explicit NULLs vs
//! absent attributes, Int vs Real flavour, labels, empty and NULL bags,
//! non-tuple bag elements, opaque (non-tuple) rows — plus the byte-accounting
//! invariants the benchmarks rely on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trance_dist::batch::BagElems;
use trance_dist::{Batch, ClusterConfig, ColCollection, Column, DistContext};
use trance_nrc::{Label, MemSize, Value};

/// Strict structural equality: unlike `Value::eq` (where `Int(3) == Real(3.0)`),
/// the round trip must preserve the exact variant of every scalar.
fn strict_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Real(x), Value::Real(y)) => x.to_bits() == y.to_bits(),
        (Value::Tuple(x), Value::Tuple(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y.iter())
                    .all(|((nx, vx), (ny, vy))| nx == ny && strict_eq(vx, vy))
        }
        (Value::Bag(x), Value::Bag(y)) => {
            x.len() == y.len() && x.iter().zip(y.iter()).all(|(vx, vy)| strict_eq(vx, vy))
        }
        _ => a == b,
    }
}

/// A random scalar; `flavour` keeps a column's kind stable for most rows so
/// typed columns are actually exercised (mixed columns fall back anyway).
fn random_scalar(rng: &mut StdRng, flavour: u32) -> Value {
    if rng.gen_bool(0.1) {
        return Value::Null;
    }
    match flavour % 6 {
        0 => Value::Int(rng.gen_range(-50..50)),
        1 => Value::Real(rng.gen_range(0.0..100.0)),
        2 => Value::Bool(rng.gen_bool(0.5)),
        3 => Value::Date(rng.gen_range(0..20_000)),
        4 => {
            if rng.gen_bool(0.5) {
                // Repeated strings (dictionary hits).
                Value::str(format!("tag-{}", rng.gen_range(0..4u32)))
            } else {
                // Unique strings (dictionary misses).
                Value::str(format!("unique-{}", rng.gen_range(0..1_000_000u32)))
            }
        }
        _ => Value::Label(Label::new(
            rng.gen_range(0..3u32),
            vec![Value::Int(rng.gen_range(0..10))],
        )),
    }
}

/// A random tuple row. Fields keep a per-level order; each field is sometimes
/// missing entirely (absent ≠ NULL). `depth` controls nested bag columns.
fn random_row(rng: &mut StdRng, depth: usize, mixed: bool) -> Value {
    let mut fields: Vec<(String, Value)> = Vec::new();
    for f in 0..4u32 {
        if rng.gen_bool(0.12) {
            continue; // absent attribute
        }
        let flavour = if mixed { rng.gen_range(0..6u32) } else { f };
        fields.push((format!("f{f}"), random_scalar(rng, flavour)));
    }
    if depth > 0 && !rng.gen_bool(0.1) {
        let bag = if rng.gen_bool(0.08) {
            Value::Null // NULL bag, distinct from the empty bag
        } else {
            let n = rng.gen_range(0..4usize);
            if rng.gen_bool(0.1) {
                // Non-tuple elements: the column degrades to a value vector
                // but must still round-trip exactly.
                Value::bag((0..n).map(|_| random_scalar(rng, 0)).collect())
            } else {
                Value::bag((0..n).map(|_| random_row(rng, depth - 1, mixed)).collect())
            }
        };
        fields.push(("items".to_string(), bag));
    }
    Value::Tuple(trance_nrc::Tuple::new(fields))
}

#[test]
fn seeded_random_nested_bags_round_trip_losslessly() {
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(0xBA7C4 + seed);
        let n = rng.gen_range(1..60usize);
        let mixed = rng.gen_bool(0.25);
        let rows: Vec<Value> = (0..n).map(|_| random_row(&mut rng, 2, mixed)).collect();
        let batch = Batch::from_rows(&rows);
        let back = batch.to_rows();
        assert_eq!(back.len(), rows.len(), "seed {seed}: cardinality changed");
        for (i, (orig, got)) in rows.iter().zip(&back).enumerate() {
            assert!(
                strict_eq(orig, got),
                "seed {seed}: row {i} changed\n  original: {orig:?}\n  restored: {got:?}"
            );
        }
    }
}

#[test]
fn round_trip_through_the_columnar_collection_boundaries() {
    // Scan-ingest and collect are the only row/column boundaries; together
    // they must be the identity on every partition.
    let ctx = DistContext::new(ClusterConfig::new(3, 8));
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0xD15C + seed);
        let rows: Vec<Value> = (0..rng.gen_range(1..80usize))
            .map(|_| random_row(&mut rng, 2, false))
            .collect();
        let coll = ctx.parallelize(rows);
        let round = ColCollection::ingest(&coll, &[])
            .unwrap()
            .to_rows()
            .unwrap();
        let orig = coll.collect();
        let back = round.collect();
        assert_eq!(orig.len(), back.len());
        for (a, b) in orig.iter().zip(&back) {
            assert!(strict_eq(a, b), "seed {seed}: {a:?} != {b:?}");
        }
    }
}

#[test]
fn non_tuple_rows_survive_as_opaque_batches() {
    let rows = vec![
        Value::Int(1),
        Value::str("two"),
        Value::Null,
        Value::bag(vec![Value::Int(3)]),
    ];
    let batch = Batch::from_rows(&rows);
    assert!(batch.schema().is_opaque());
    let back = batch.to_rows();
    for (a, b) in rows.iter().zip(&back) {
        assert!(strict_eq(a, b));
    }
}

#[test]
fn physical_accounting_beats_logical_on_typed_data() {
    // Numeric + string rows: schema-once plus buffer-dictionary strings must
    // ship fewer physical bytes than the row-equivalent estimate, and the
    // logical estimate must agree with `Value::mem_size` exactly.
    let rows: Vec<Value> = (0..500)
        .map(|i| {
            Value::tuple([
                ("order_key", Value::Int(i)),
                ("quantity", Value::Real(i as f64 * 0.5)),
                (
                    "comment",
                    Value::str(format!("row comment {i} lorem ipsum")),
                ),
                ("flag", Value::Bool(i % 3 == 0)),
            ])
        })
        .collect();
    let batch = Batch::from_rows(&rows);
    let row_bytes: usize = rows.iter().map(MemSize::mem_size).sum();
    assert_eq!(
        batch.logical_bytes(),
        row_bytes,
        "logical accounting must equal the row representation's mem_size"
    );
    assert!(
        batch.physical_bytes() * 2 < row_bytes,
        "typed batches should ship under half the row bytes ({} vs {})",
        batch.physical_bytes(),
        row_bytes
    );

    // The logical law holds through offset-encoded bag columns too — empty
    // and NULL bags included — which is what lets a shuffle of nested rows
    // report the bytes those rows would occupy as heap values.
    let nested: Vec<Value> = (0..200)
        .map(|i| {
            let items = match i % 5 {
                0 => Value::Null,
                n => Value::bag(
                    (0..n - 1)
                        .map(|j| {
                            Value::tuple([
                                ("pid", Value::Int(j)),
                                ("note", Value::str(format!("item {j} of {i}"))),
                            ])
                        })
                        .collect(),
                ),
            };
            Value::tuple([("id", Value::Int(i)), ("items", items)])
        })
        .collect();
    let batch = Batch::from_rows(&nested);
    assert_eq!(
        batch.logical_bytes(),
        nested.iter().map(MemSize::mem_size).sum::<usize>(),
        "logical accounting must equal mem_size on nested-bag batches"
    );
    assert!(batch.physical_bytes() < batch.logical_bytes());
}

/// The law of [`Column::coalesce_empty_bag`]: a taken lane reads `{}`, every
/// other lane reads what the source reads (absence as NULL, the expression
/// convention) — so an untaken NULL lane stays NULL.
fn assert_coalesce_law(col: &Column, taken: &[bool], context: &str) {
    let out = col
        .coalesce_empty_bag(taken)
        .unwrap_or_else(|| panic!("{context}: NULL and absent bag rows span no elements"));
    assert_eq!(out.len(), col.len(), "{context}: length changed");
    for (i, taken) in taken.iter().enumerate() {
        let want = if *taken {
            Value::empty_bag()
        } else {
            col.value_at(i).unwrap_or(Value::Null)
        };
        let got = out.value_at(i).expect("no lane of the result is absent");
        assert!(
            strict_eq(&want, &got),
            "{context}: lane {i} (taken = {taken}) reads {got:?}, want {want:?}"
        );
    }
}

#[test]
fn coalescing_null_bags_to_empty_only_flips_validity() {
    use trance_store::{ByteReader, ByteWriter, Spillable};
    let (mut rows_elems, mut values_elems, mut nulls, mut absents) = (0, 0, 0, 0);
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0xC0A1 + seed);
        let n = rng.gen_range(4..60usize);
        let rows: Vec<Value> = (0..n).map(|_| random_row(&mut rng, 2, false)).collect();
        let batch = Batch::from_rows(&rows);
        // The same column as built, gathered, concatenated and decoded.
        let idx: Vec<usize> = (0..n).rev().filter(|_| rng.gen_bool(0.7)).collect();
        let mut w = ByteWriter::new();
        batch.encode(&mut w).unwrap();
        let forms = [
            ("built", batch.clone()),
            ("gathered", batch.take(&idx)),
            (
                "concatenated",
                Batch::concat(&[batch.take(&idx), batch.clone()]),
            ),
            (
                "decoded",
                Batch::decode(&mut ByteReader::new(&w.into_bytes())).unwrap(),
            ),
        ];
        for (form, b) in &forms {
            let Some(col @ Column::Bag { elems, .. }) = b.column("items") else {
                continue;
            };
            match elems {
                BagElems::Rows(_) => rows_elems += 1,
                BagElems::Values(_) => values_elems += 1,
            }
            let context = format!("seed {seed}, {form}");
            let all = col.null_lanes();
            nulls += (0..col.len())
                .filter(|&i| all[i] && !col.is_absent(i))
                .count();
            absents += (0..col.len()).filter(|&i| col.is_absent(i)).count();
            assert_coalesce_law(col, &all, &context);
            // Under a guard only some NULL lanes take the fallback.
            let some: Vec<bool> = all.iter().map(|t| *t && rng.gen_bool(0.5)).collect();
            assert_coalesce_law(col, &some, &context);
            assert_coalesce_law(col, &vec![false; col.len()], &context);
        }
    }
    assert!(
        rows_elems > 0 && values_elems > 0 && nulls > 0 && absents > 0,
        "the corpus must cover both element layouts and both kinds of missing lane"
    );

    // Anything else is the caller's row-wise path: a taken lane that holds
    // elements, a column that is not bag-typed.
    let batch = Batch::from_rows(&[
        Value::tuple([
            ("k", Value::Int(1)),
            ("items", Value::bag(vec![Value::Int(3)])),
        ]),
        Value::tuple([("k", Value::Int(2)), ("items", Value::Null)]),
    ]);
    let items = batch.column("items").unwrap();
    assert!(items.coalesce_empty_bag(&[true, true]).is_none());
    assert!(items.coalesce_empty_bag(&[false, true]).is_some());
    assert!(batch
        .column("k")
        .unwrap()
        .coalesce_empty_bag(&[false, true])
        .is_none());
}
