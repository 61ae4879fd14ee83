//! Helpers shared by the batch-level suites (`spill_roundtrip.rs`,
//! `decode_fuzz.rs`, the selection laws of `batch_roundtrip.rs`):
//! seeded-random nested rows and strict value equality.

// Each test binary compiles this module separately and uses the subset of
// helpers it needs.
#![allow(dead_code)]

use rand::rngs::StdRng;
use rand::Rng;
use trance_nrc::{Label, Value};

/// Strict structural equality: unlike `Value::eq` (where `Int(3) == Real(3.0)`),
/// a round trip must preserve the exact variant of every scalar.
pub fn strict_eq(a: &Value, b: &Value) -> bool {
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

/// A random scalar of the kind `flavour` picks (one in ten NULL).
pub fn random_scalar(rng: &mut StdRng, flavour: u32) -> Value {
    if rng.gen_bool(0.1) {
        return Value::Null;
    }
    match flavour % 6 {
        0 => Value::Int(rng.gen_range(-50..50)),
        1 => Value::Real(rng.gen_range(0.0..100.0)),
        2 => Value::Bool(rng.gen_bool(0.5)),
        3 => Value::Date(rng.gen_range(0..20_000)),
        4 => Value::str(format!("tag-{}", rng.gen_range(0..6u32))),
        _ => Value::Label(Label::new(
            rng.gen_range(0..3u32),
            vec![Value::Int(rng.gen_range(0..10))],
        )),
    }
}

/// A random tuple row of up to `width` scalar attributes `f0…` (attribute
/// `f` of kind `f`, each sometimes missing entirely) plus, above depth 0, a
/// bag attribute `items` of rows one level down — or of scalars, or NULL.
pub fn random_row(rng: &mut StdRng, depth: usize, width: u32) -> Value {
    let mut fields: Vec<(String, Value)> = Vec::new();
    for f in 0..width {
        if rng.gen_bool(0.12) {
            continue; // absent attribute (≠ NULL)
        }
        fields.push((format!("f{f}"), random_scalar(rng, f)));
    }
    if depth > 0 && !rng.gen_bool(0.1) {
        let bag = if rng.gen_bool(0.08) {
            Value::Null
        } else {
            let n = rng.gen_range(0..4usize);
            if rng.gen_bool(0.1) {
                Value::bag((0..n).map(|_| random_scalar(rng, 0)).collect())
            } else {
                Value::bag((0..n).map(|_| random_row(rng, depth - 1, width)).collect())
            }
        };
        fields.push(("items".to_string(), bag));
    }
    Value::Tuple(trance_nrc::Tuple::new(fields))
}
