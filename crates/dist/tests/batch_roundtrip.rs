//! Value ↔ Batch round-tripping: seeded-random nested bags must survive the
//! columnar representation **losslessly** — field order, explicit NULLs vs
//! absent attributes, Int vs Real flavour, labels, empty and NULL bags,
//! non-tuple bag elements, opaque (non-tuple) rows — plus the byte-accounting
//! invariants the benchmarks rely on, and the laws that let a shuffle meter
//! and merge *selections* of batches instead of gathered copies of them.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trance_dist::batch::BagElems;
use trance_dist::{Batch, ClusterConfig, ColCollection, Column, DistContext, RowSel, SelScratch};
use trance_nrc::{Label, MemSize, Value};
use trance_store::{ByteWriter, Spillable};

mod common;

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
            let all: Vec<bool> = (0..col.len()).map(|i| col.is_null_at(i)).collect();
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

// ---------------------------------------------------------------------------
// selections: metering and merging rows of a batch without gathering them
// ---------------------------------------------------------------------------

/// The exact bytes of a batch — its spill/wire frame. Equal frames mean equal
/// buffers: column variants, dictionary entry order, placeholder codes,
/// offsets and validity bitmaps.
fn frame(b: &Batch) -> Vec<u8> {
    let mut w = ByteWriter::new();
    b.encode(&mut w).unwrap();
    w.into_bytes()
}

/// Row lists over an `n`-row batch: empty, every row in order, one row, rows
/// drawn with repetition, every row backwards, an ordered subset.
fn row_lists(rng: &mut StdRng, n: usize) -> Vec<Vec<usize>> {
    let mut lists = vec![Vec::new(), (0..n).collect(), (0..n).rev().collect()];
    if n > 0 {
        lists.push(vec![rng.gen_range(0..n)]);
        lists.push((0..2 * n).map(|_| rng.gen_range(0..n)).collect());
        lists.push((0..n).filter(|_| rng.gen_bool(0.5)).collect());
    }
    lists
}

/// `bytes(b, rows) == b.take(rows).bytes()`, for both byte accountings.
fn assert_metering_law(b: &Batch, rows: RowSel<'_>, scratch: &mut SelScratch, context: &str) {
    let taken = b.select(rows);
    assert_eq!(
        b.logical_bytes_of(rows, scratch),
        taken.logical_bytes(),
        "{context}: logical bytes of {rows:?}"
    );
    assert_eq!(
        b.physical_bytes_of(rows, scratch),
        taken.physical_bytes(),
        "{context}: physical bytes of {rows:?}"
    );
}

/// `merge(selections) == concat(take of each selection)`, buffer for buffer,
/// and the merged rows are the selected rows in order.
fn assert_merge_law(sources: &[(&Batch, RowSel<'_>)], context: &str) -> Batch {
    let takes: Vec<Batch> = sources.iter().map(|(b, rows)| b.select(*rows)).collect();
    let want = Batch::concat(&takes);
    let got = Batch::merge(sources);
    assert_eq!(got.rows(), want.rows(), "{context}: rows");
    assert_eq!(got.schema(), want.schema(), "{context}: schema");
    assert!(frame(&got) == frame(&want), "{context}: buffers differ");
    assert_eq!(got.physical_bytes(), want.physical_bytes(), "{context}");
    assert_eq!(got.logical_bytes(), want.logical_bytes(), "{context}");
    let selected: Vec<Value> = takes.iter().flat_map(Batch::to_rows).collect();
    let merged = got.to_rows();
    assert_eq!(merged.len(), selected.len());
    for (i, (a, b)) in selected.iter().zip(&merged).enumerate() {
        assert!(
            strict_eq(a, b),
            "{context}: row {i} reads {b:?}, want {a:?}"
        );
    }
    got
}

/// What a corpus of batches covers, counted over every nesting level.
#[derive(Debug, Default)]
struct Coverage {
    strs: usize,
    others: usize,
    rows_bags: usize,
    values_bags: usize,
    null_lanes: usize,
    absent_lanes: usize,
    /// Deepest chain of bag columns whose elements are child batches.
    depth: usize,
}

impl Coverage {
    fn walk(&mut self, b: &Batch, depth: usize) {
        self.depth = self.depth.max(depth);
        for col in b.columns() {
            self.absent_lanes += (0..col.len()).filter(|&i| col.is_absent(i)).count();
            self.null_lanes += (0..col.len())
                .filter(|&i| col.is_null_at(i) && !col.is_absent(i))
                .count();
            match col.as_ref() {
                Column::Str { .. } => self.strs += 1,
                Column::Other { .. } => self.others += 1,
                Column::Bag { elems, .. } => match elems {
                    BagElems::Rows(child) => {
                        self.rows_bags += 1;
                        self.walk(child, depth + 1);
                    }
                    BagElems::Values(_) => self.values_bags += 1,
                },
                _ => {}
            }
        }
    }
}

#[test]
fn selections_meter_and_merge_like_the_batches_they_stand_for() {
    let mut covered = Coverage::default();
    let (mut columnwise, mut rebuilt) = (0, 0);
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x5E1EC7 + seed);
        // Two to five sources over one row shape: every scalar kind (strings
        // and labels included) and bags three levels deep. Small sources now
        // and then miss an attribute altogether, so their schemas differ.
        let sources: Vec<Batch> = (0..rng.gen_range(2..6usize))
            .map(|_| {
                let n = rng.gen_range(0..24usize);
                let rows: Vec<Value> = (0..n).map(|_| common::random_row(&mut rng, 3, 6)).collect();
                Batch::from_rows(&rows)
            })
            .collect();
        let mut scratch = SelScratch::default();
        let mut lists: Vec<Vec<Vec<usize>>> = Vec::new();
        for (s, b) in sources.iter().enumerate() {
            covered.walk(b, 0);
            let context = format!("seed {seed}, source {s}");
            // One scratch serves every list of every source, as it serves
            // every target of a shuffle.
            assert_metering_law(b, None, &mut scratch, &context);
            let of_source = row_lists(&mut rng, b.rows());
            for idx in &of_source {
                assert_metering_law(b, Some(idx), &mut scratch, &context);
            }
            lists.push(of_source);
        }
        for round in 0..8 {
            let selections: Vec<(&Batch, RowSel<'_>)> = sources
                .iter()
                .zip(&lists)
                .map(|(b, lists)| match rng.gen_range(0..lists.len() + 1) {
                    0 => (b, None),
                    l => (b, Some(lists[l - 1].as_slice())),
                })
                .collect();
            let contributing: Vec<&Batch> = selections
                .iter()
                .filter(|(b, rows)| rows.map_or(b.rows(), <[usize]>::len) > 0)
                .map(|(b, _)| *b)
                .collect();
            if contributing.len() > 1 {
                match contributing
                    .iter()
                    .all(|b| b.schema() == contributing[0].schema())
                {
                    true => columnwise += 1,
                    false => rebuilt += 1,
                }
            }
            let merged = assert_merge_law(&selections, &format!("seed {seed}, round {round}"));
            // A merged batch is a source of the next shuffle.
            for idx in row_lists(&mut rng, merged.rows()) {
                assert_metering_law(&merged, Some(&idx), &mut scratch, "merged");
            }
        }
    }
    assert!(
        covered.strs > 0
            && covered.others > 0
            && covered.rows_bags > 0
            && covered.values_bags > 0
            && covered.null_lanes > 0
            && covered.absent_lanes > 0
            && covered.depth >= 3,
        "the corpus must cover every column layout: {covered:?}"
    );
    assert!(
        columnwise > 50 && rebuilt > 10,
        "both merge paths must run ({columnwise} column-wise, {rebuilt} rebuilt)"
    );
}

#[test]
fn merge_edge_rules_are_those_of_concat() {
    let mut rng = StdRng::seed_from_u64(0xED6E);
    let tuples = |rng: &mut StdRng, n: usize, width: u32| {
        let rows: Vec<Value> = (0..n).map(|_| common::random_row(rng, 1, width)).collect();
        Batch::from_rows(&rows)
    };
    let wide = tuples(&mut rng, 40, 6);
    let narrow = tuples(&mut rng, 40, 3);
    let opaque = Batch::from_rows(&[
        Value::Int(1),
        Value::str("two"),
        Value::Null,
        Value::bag(vec![Value::Int(3)]),
    ]);
    assert!(opaque.schema().is_opaque());
    let mut scratch = SelScratch::default();

    // Opaque batches meter and merge like any other.
    for idx in row_lists(&mut rng, opaque.rows()) {
        assert_metering_law(&opaque, Some(&idx), &mut scratch, "opaque");
        let merged = assert_merge_law(&[(&opaque, Some(&idx)), (&opaque, None)], "opaque");
        assert!(merged.schema().is_opaque());
    }

    // Sources whose schemas differ are rebuilt from the selected rows.
    assert_ne!(wide.schema(), narrow.schema());
    for idx in row_lists(&mut rng, 40) {
        assert_merge_law(&[(&wide, Some(&idx)), (&narrow, None)], "schemas");
        assert_merge_law(&[(&narrow, Some(&idx)), (&opaque, None)], "opaque + tuples");
    }

    // One schema, two column variants: an `Int` column against the `Other`
    // column an all-NULL attribute is stored as.
    let ints = Batch::from_rows(&[
        Value::tuple([("x", Value::Int(1)), ("s", Value::str("a"))]),
        Value::tuple([("x", Value::Int(2)), ("s", Value::str("b"))]),
    ]);
    let nulls = Batch::from_rows(&[
        Value::tuple([("x", Value::Null), ("s", Value::str("b"))]),
        Value::tuple([("x", Value::Null), ("s", Value::str("c"))]),
    ]);
    assert_eq!(ints.schema(), nulls.schema());
    assert!(matches!(ints.column("x"), Some(Column::Int { .. })));
    assert!(matches!(nulls.column("x"), Some(Column::Other { .. })));
    let merged = assert_merge_law(&[(&ints, Some(&[1, 0])), (&nulls, Some(&[1]))], "variants");
    assert!(matches!(merged.column("x"), Some(Column::Int { .. })));

    // No source contributes a row: the schema of the first source that has
    // one survives; nothing at all merges to the empty batch.
    let void = Batch::empty();
    for sources in [
        vec![(&wide, Some(&[][..])), (&narrow, Some(&[][..]))],
        vec![
            (&void, None),
            (&narrow, Some(&[][..])),
            (&wide, Some(&[][..])),
        ],
        vec![(&void, None), (&void, Some(&[][..]))],
        vec![],
    ] {
        let merged = assert_merge_law(&sources, "nothing selected");
        assert_eq!(merged.rows(), 0);
        let schema = sources
            .iter()
            .map(|(b, _)| b.schema())
            .find(|s| !s.fields().is_empty());
        assert_eq!(Some(merged.schema()), schema.or(Some(void.schema())));
    }

    // A single contributing source that selects every row in order shares
    // its columns — named as a row list or not, next to empty selections or
    // not. This is what keeps an already co-partitioned shuffle free.
    let every: Vec<usize> = (0..wide.rows()).collect();
    for sources in [
        vec![(&wide, Some(every.as_slice()))],
        vec![(&narrow, Some(&[][..])), (&wide, None), (&void, None)],
    ] {
        let merged = assert_merge_law(&sources, "identity");
        for (got, want) in merged.columns().iter().zip(wide.columns()) {
            assert!(
                Arc::ptr_eq(got, want),
                "an identity selection copies nothing"
            );
        }
    }
    assert_eq!(
        wide.physical_bytes_of(Some(&every), &mut scratch),
        wide.physical_bytes()
    );
}
