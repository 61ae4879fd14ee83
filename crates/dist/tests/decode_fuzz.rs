//! Batch-frame hardening: `Batch::decode` reads what a TCP peer shipped as a
//! shuffle piece or an allgather payload and what a spill file holds, so a
//! forged, flipped or truncated frame must surface as a typed `InvalidData`
//! error at decode — never an allocation driven by a forged count, never a
//! batch that panics an operator later.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trance_dist::{Batch, SelScratch};
use trance_nrc::Value;
use trance_store::{ByteReader, ByteWriter, Spillable};

mod common;
use common::random_row;

// Column tags of the frame format (`dist/src/spill.rs`).
const COL_INT: u8 = 0;
const COL_STR: u8 = 4;
const COL_BAG_ROWS: u8 = 5;

fn decode(bytes: &[u8]) -> std::io::Result<Batch> {
    Batch::decode(&mut ByteReader::new(bytes))
}

/// Asserts that `bytes` is rejected with a typed `InvalidData` naming `what`.
fn assert_rejected(bytes: &[u8], what: &str) {
    match decode(bytes) {
        Ok(batch) => panic!("{what}: forged frame decoded to {batch:?}"),
        Err(e) => assert_eq!(
            e.kind(),
            std::io::ErrorKind::InvalidData,
            "{what}: untyped error {e}"
        ),
    }
}

/// The header of a tuple batch: row count, opaque flag, field names, column
/// count.
fn header(w: &mut ByteWriter, rows: u32, fields: &[&str], columns: u32) {
    w.u32(rows);
    w.u8(0);
    w.u32(fields.len() as u32);
    for f in fields {
        w.str(f).unwrap();
    }
    w.u32(columns);
}

/// A bitmap of `bits` bits with the given words.
fn bitmap(w: &mut ByteWriter, bits: u32, words: &[u64]) {
    w.u32(bits);
    for word in words {
        w.u64(*word);
    }
}

fn u32s(w: &mut ByteWriter, values: &[u32]) {
    w.u32(values.len() as u32);
    for v in values {
        w.u32(*v);
    }
}

#[test]
fn a_forged_column_count_is_a_typed_error_not_an_allocation() {
    // 40 bytes claiming four billion columns: pre-allocating for the claim
    // asks for 32 GiB and aborts the process.
    let mut w = ByteWriter::new();
    header(&mut w, 0, &[], u32::MAX);
    w.raw(&[0xFF; 27]);
    let frame = w.into_bytes();
    assert_eq!(frame.len(), 40);
    assert_rejected(&frame, "forged column count");

    // The same claim on every other count of the format.
    let mut w = ByteWriter::new();
    w.u32(0);
    w.u8(0);
    w.u32(u32::MAX); // fields
    assert_rejected(&w.into_bytes(), "forged field count");
    for tag in 0..8u8 {
        let mut w = ByteWriter::new();
        header(&mut w, 0, &["c"], 1);
        w.u8(tag);
        if tag == COL_STR {
            w.str("").unwrap();
        }
        w.u32(u32::MAX); // values / dictionary offsets / bag offsets
        w.raw(&[0; 16]);
        assert_rejected(
            &w.into_bytes(),
            &format!("forged length in column tag {tag}"),
        );
    }
    let mut w = ByteWriter::new();
    header(&mut w, 0, &["c"], 1);
    w.u8(COL_INT);
    w.u32(0);
    w.u32(u32::MAX); // bits of the nulls bitmap
    assert_rejected(&w.into_bytes(), "forged bitmap length");
}

/// One bag column `b` over `child_rows` empty child tuples.
fn bag_frame(offsets: &[u32], child_rows: u32, nulls: u64, absent: u64) -> Vec<u8> {
    let rows = offsets.len().saturating_sub(1) as u32;
    let mut w = ByteWriter::new();
    header(&mut w, rows, &["b"], 1);
    w.u8(COL_BAG_ROWS);
    u32s(&mut w, offsets);
    header(&mut w, child_rows, &[], 0);
    bitmap(&mut w, rows, &[nulls]);
    bitmap(&mut w, rows, &[absent]);
    w.into_bytes()
}

fn empty_tuple() -> Value {
    Value::Tuple(trance_nrc::Tuple::empty())
}

#[test]
fn forged_bag_offsets_are_rejected_at_decode() {
    // Offsets [0, 5] over zero elements used to decode fine and panic at the
    // first `value_at` (`range end index 5 out of range`).
    assert_rejected(&bag_frame(&[0, 5], 0, 0, 0), "offsets past the elements");
    assert_rejected(&bag_frame(&[1, 2], 2, 0, 0), "offsets not starting at 0");
    assert_rejected(&bag_frame(&[0, 2, 1, 3], 3, 0, 0), "decreasing offsets");
    assert_rejected(
        &bag_frame(&[0, 1], 3, 0, 0),
        "offsets short of the elements",
    );
    assert_rejected(&bag_frame(&[], 0, 0, 0), "no offsets at all");
    // The invariant `Column::coalesce_empty_bag` reads validity by.
    assert_rejected(
        &bag_frame(&[0, 2], 2, 1, 0),
        "NULL bag row spanning elements",
    );
    assert_rejected(
        &bag_frame(&[0, 2], 2, 0, 1),
        "absent bag row spanning elements",
    );
    // The honest twins decode.
    let ok = decode(&bag_frame(&[0, 2, 2], 2, 0b10, 0)).expect("valid bag frame");
    assert_eq!(
        ok.to_rows(),
        vec![
            Value::tuple([("b", Value::bag(vec![empty_tuple(), empty_tuple()]))]),
            Value::tuple([("b", Value::Null)]),
        ]
    );
}

#[test]
fn columns_must_cover_the_batch_and_codes_the_dictionary() {
    let int_column = |w: &mut ByteWriter, values: &[i64], bits: u32| {
        w.u8(COL_INT);
        w.u32(values.len() as u32);
        for v in values {
            w.i64(*v);
        }
        bitmap(w, bits, &[0]);
        bitmap(w, bits, &[0]);
    };
    let mut w = ByteWriter::new();
    header(&mut w, 3, &["a"], 1);
    int_column(&mut w, &[1, 2], 2);
    assert_rejected(&w.into_bytes(), "column shorter than the batch");
    let mut w = ByteWriter::new();
    header(&mut w, 2, &["a", "b"], 1);
    int_column(&mut w, &[1, 2], 2);
    assert_rejected(&w.into_bytes(), "fewer columns than fields");
    let mut w = ByteWriter::new();
    header(&mut w, 2, &["a"], 1);
    int_column(&mut w, &[1, 2], 1);
    assert_rejected(&w.into_bytes(), "validity bitmaps shorter than the column");
    let mut w = ByteWriter::new();
    w.u32(2);
    w.u8(1); // opaque: exactly one value column
    w.u32(0);
    w.u32(1);
    int_column(&mut w, &[1, 2], 2);
    assert_rejected(&w.into_bytes(), "opaque batch over a typed column");

    // A dictionary column over "ab" | "é": offsets, codes, then validity.
    let str_frame = |offsets: &[u32], codes: &[u32], nulls: u64| {
        let mut w = ByteWriter::new();
        header(&mut w, codes.len() as u32, &["s"], 1);
        w.u8(COL_STR);
        w.str("abé").unwrap();
        u32s(&mut w, offsets);
        u32s(&mut w, codes);
        bitmap(&mut w, codes.len() as u32, &[nulls]);
        bitmap(&mut w, codes.len() as u32, &[0]);
        w.into_bytes()
    };
    assert_rejected(
        &str_frame(&[0, 2, 4], &[0, 2], 0),
        "code past the dictionary",
    );
    assert_rejected(
        &str_frame(&[0, 2, 3], &[0, 1], 0),
        "offsets short of the bytes",
    );
    assert_rejected(
        &str_frame(&[0, 3, 4], &[0, 1], 0),
        "offset inside a UTF-8 sequence",
    );
    assert_rejected(&str_frame(&[], &[], 0), "dictionary without offsets");
    // A NULL lane's placeholder code need not index the dictionary.
    let ok = decode(&str_frame(&[0, 2, 4], &[1, 9], 0b10)).expect("valid string frame");
    assert_eq!(
        ok.to_rows(),
        vec![
            Value::tuple([("s", Value::str("é"))]),
            Value::tuple([("s", Value::Null)]),
        ]
    );
}

/// Drives a decoded batch through what the operators do with one — row
/// materialization, both byte accountings, a gather, a concat, a re-encode —
/// and what a shuffle does with a random selection of one: metering it in
/// place and merging it with others.
fn exercise(batch: &Batch, rng: &mut StdRng) {
    let rows = batch.to_rows();
    assert_eq!(rows.len(), batch.rows());
    let _ = (batch.logical_bytes(), batch.physical_bytes());
    let reversed: Vec<usize> = (0..batch.rows()).rev().collect();
    let taken = batch.take(&reversed);
    assert_eq!(
        Batch::concat(&[taken.clone(), batch.clone()]).rows(),
        2 * batch.rows()
    );
    batch.encode(&mut ByteWriter::new()).unwrap();

    let n = batch.rows();
    let list: Vec<usize> = (0..rng.gen_range(0..2 * n + 1))
        .map(|_| rng.gen_range(0..n))
        .collect();
    let mut scratch = SelScratch::default();
    for rows in [Some(list.as_slice()), Some(reversed.as_slice()), None] {
        let _ = batch.logical_bytes_of(rows, &mut scratch);
        let _ = batch.physical_bytes_of(rows, &mut scratch);
    }
    let merged = Batch::merge(&[
        (batch, Some(&list)),
        (&taken, None),
        (batch, Some(&reversed)),
    ]);
    assert_eq!(merged.rows(), list.len() + 2 * n);
}

#[test]
fn flipped_and_truncated_frames_never_panic() {
    // Corpus: nested batches, depth 2, every column kind. Each mutation must
    // end in a typed error or in a batch that every operator can walk.
    let mut rng = StdRng::seed_from_u64(0xF1A5);
    let (mut rejected, mut survived) = (0, 0);
    for seed in 0..8u64 {
        let mut data = StdRng::seed_from_u64(0xD0DE + seed);
        let rows: Vec<Value> = (0..40).map(|_| random_row(&mut data, 2, 6)).collect();
        let mut w = ByteWriter::new();
        Batch::from_rows(&rows).encode(&mut w).unwrap();
        let frame = w.into_bytes();
        exercise(&decode(&frame).expect("clean frame"), &mut rng);
        for _ in 0..600 {
            let mut bytes = frame.clone();
            let at = rng.gen_range(0..bytes.len());
            match rng.gen_range(0..4u32) {
                0 => bytes[at] ^= 1 << rng.gen_range(0..8u32),
                1 => bytes[at] = rng.gen_range(0..256u32) as u8,
                2 => bytes.truncate(at),
                // A forged 32-bit count wherever it lands.
                _ => {
                    let forged =
                        [u32::MAX, 1 << 31, rows.len() as u32 + 1][rng.gen_range(0..3usize)];
                    let end = (at + 4).min(bytes.len());
                    bytes[at..end].copy_from_slice(&forged.to_le_bytes()[..end - at]);
                }
            }
            match decode(&bytes) {
                Ok(batch) => {
                    exercise(&batch, &mut rng);
                    survived += 1;
                }
                Err(e) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "untyped: {e}");
                    rejected += 1;
                }
            }
        }
    }
    assert!(
        rejected > 1000 && survived > 100,
        "the loop must see both outcomes ({rejected} rejected, {survived} survived)"
    );
}
