//! The binary wire format of spill frames: little-endian primitives plus a
//! lossless [`trance_nrc::Value`] encoding.
//!
//! Frames are written through a [`ByteWriter`] and decoded through a
//! [`ByteReader`]; anything that can cross the memory/disk boundary
//! implements [`Spillable`]. The columnar batch layout is encoded by
//! `trance-dist` (which owns the batch type) on top of these primitives.
//!
//! Every length written into a frame goes through [`ByteWriter::len_u32`]:
//! a collection too large for the `u32` length prefix fails with a typed
//! [`CodecError::LengthOverflow`] instead of silently truncating the count
//! and corrupting the frame. Decoders bound every pre-allocation by the
//! bytes actually remaining, so a malicious count cannot balloon memory.

use std::io;

use trance_nrc::{Bag, Label, Tuple, Value};

/// A typed encoding error. Carried across the `io::Error` boundary (the
/// [`Spillable`] trait speaks `io::Result`) as an
/// [`io::ErrorKind::InvalidData`] error whose source downcasts back to
/// `CodecError`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// A collection is too large for the format's `u32` length prefix.
    LengthOverflow {
        /// What was being encoded (e.g. `"string bytes"`, `"bag items"`).
        what: &'static str,
        /// The offending length.
        len: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::LengthOverflow { what, len } => {
                write!(f, "{what} length {len} exceeds the u32 frame limit")
            }
        }
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for io::Error {
    fn from(e: CodecError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Growable byte buffer with little-endian append helpers.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current encoded length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32` (little-endian).
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64` (little-endian).
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` by bit pattern (NaN payloads survive).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length as a checked `u32` prefix: lengths beyond
    /// `u32::MAX` fail with [`CodecError::LengthOverflow`] instead of
    /// wrapping and corrupting the frame.
    pub fn len_u32(&mut self, n: usize, what: &'static str) -> io::Result<()> {
        let v = u32::try_from(n).map_err(|_| CodecError::LengthOverflow { what, len: n })?;
        self.u32(v);
        Ok(())
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) -> io::Result<()> {
        self.len_u32(s.len(), "string bytes")?;
        self.buf.extend_from_slice(s.as_bytes());
        Ok(())
    }

    /// Appends raw bytes (caller is responsible for framing).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Cursor over an encoded frame; every read checks bounds and returns
/// `InvalidData` on truncation, so a corrupt spill file surfaces as an error
/// instead of a panic.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn truncated() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, "truncated spill frame")
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Bounds a decoded element count by the bytes actually left in the
    /// frame: every encoded element occupies at least one byte, so a
    /// pre-allocation beyond `remaining()` can only come from a corrupt or
    /// malicious count — clamping keeps the decoder's allocation
    /// proportional to the input instead of to the attacker's claim.
    pub fn bounded_capacity(&self, n: usize) -> usize {
        n.min(self.remaining())
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(truncated());
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> io::Result<u32> {
        let mut bytes = [0u8; 4];
        bytes.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(bytes))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> io::Result<u64> {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(bytes))
    }

    /// Reads an `i64`.
    pub fn i64(&mut self) -> io::Result<i64> {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(self.take(8)?);
        Ok(i64::from_le_bytes(bytes))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> io::Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 spill string"))
    }

    /// Reads `n` raw bytes.
    pub fn raw(&mut self, n: usize) -> io::Result<&'a [u8]> {
        self.take(n)
    }
}

/// A type that can cross the memory/disk boundary as one spill frame.
pub trait Spillable: Sized {
    /// Appends the encoded form to `w`. Fails with a typed
    /// [`CodecError`]-backed error when the value cannot be represented
    /// (e.g. a collection too large for a length prefix).
    fn encode(&self, w: &mut ByteWriter) -> io::Result<()>;
    /// Decodes one value previously written by [`Spillable::encode`].
    fn decode(r: &mut ByteReader<'_>) -> io::Result<Self>;
}

// Value tags — part of the on-disk format, do not renumber.
const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_REAL: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_DATE: u8 = 5;
const TAG_LABEL: u8 = 6;
const TAG_TUPLE: u8 = 7;
const TAG_BAG: u8 = 8;

/// Encodes one [`Value`] (all nine variants, recursively).
pub fn encode_value(v: &Value, w: &mut ByteWriter) -> io::Result<()> {
    match v {
        Value::Null => w.u8(TAG_NULL),
        Value::Bool(b) => {
            w.u8(TAG_BOOL);
            w.u8(u8::from(*b));
        }
        Value::Int(i) => {
            w.u8(TAG_INT);
            w.i64(*i);
        }
        Value::Real(x) => {
            w.u8(TAG_REAL);
            w.f64(*x);
        }
        Value::Str(s) => {
            w.u8(TAG_STR);
            w.str(s)?;
        }
        Value::Date(d) => {
            w.u8(TAG_DATE);
            w.i64(*d);
        }
        Value::Label(l) => {
            w.u8(TAG_LABEL);
            w.u32(l.site);
            w.len_u32(l.values.len(), "label values")?;
            for v in l.values.iter() {
                encode_value(v, w)?;
            }
        }
        Value::Tuple(t) => {
            w.u8(TAG_TUPLE);
            w.len_u32(t.fields().len(), "tuple fields")?;
            for (name, value) in t.fields() {
                w.str(name)?;
                encode_value(value, w)?;
            }
        }
        Value::Bag(b) => {
            w.u8(TAG_BAG);
            w.len_u32(b.len(), "bag items")?;
            for v in b.iter() {
                encode_value(v, w)?;
            }
        }
    }
    Ok(())
}

/// Decodes one [`Value`] written by [`encode_value`].
pub fn decode_value(r: &mut ByteReader<'_>) -> io::Result<Value> {
    Ok(match r.u8()? {
        TAG_NULL => Value::Null,
        TAG_BOOL => Value::Bool(r.u8()? != 0),
        TAG_INT => Value::Int(r.i64()?),
        TAG_REAL => Value::Real(r.f64()?),
        TAG_STR => Value::Str(r.str()?),
        TAG_DATE => Value::Date(r.i64()?),
        TAG_LABEL => {
            let site = r.u32()?;
            let n = r.u32()? as usize;
            let mut values = Vec::with_capacity(r.bounded_capacity(n));
            for _ in 0..n {
                values.push(decode_value(r)?);
            }
            Value::Label(Label::new(site, values))
        }
        TAG_TUPLE => {
            let n = r.u32()? as usize;
            let mut fields = Vec::with_capacity(r.bounded_capacity(n));
            for _ in 0..n {
                let name = r.str()?;
                fields.push((name, decode_value(r)?));
            }
            Value::Tuple(Tuple::new(fields))
        }
        TAG_BAG => {
            let n = r.u32()? as usize;
            let mut items = Vec::with_capacity(r.bounded_capacity(n));
            for _ in 0..n {
                items.push(decode_value(r)?);
            }
            Value::Bag(Bag::new(items))
        }
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown value tag {other} in spill frame"),
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value) -> Value {
        let mut w = ByteWriter::new();
        encode_value(v, &mut w).expect("encode");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = decode_value(&mut r).expect("decode");
        assert_eq!(r.remaining(), 0, "decoder must consume the whole frame");
        back
    }

    #[test]
    fn every_value_variant_round_trips() {
        let values = vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Real(3.5),
            Value::Real(f64::NAN),
            Value::str("héllo"),
            Value::Date(19_000),
            Value::Label(Label::new(7, vec![Value::Int(1), Value::str("k")])),
            Value::tuple([
                ("a", Value::Int(1)),
                ("b", Value::bag(vec![Value::tuple([("x", Value::Null)])])),
            ]),
        ];
        for v in &values {
            let back = round_trip(v);
            match v {
                // NaN != NaN: compare bit patterns instead.
                Value::Real(x) if x.is_nan() => match back {
                    Value::Real(y) => assert_eq!(x.to_bits(), y.to_bits()),
                    other => panic!("expected real, got {other:?}"),
                },
                _ => assert_eq!(*v, back),
            }
        }
    }

    #[test]
    fn truncated_frames_error_instead_of_panicking() {
        let mut w = ByteWriter::new();
        encode_value(&Value::str("truncate me"), &mut w).unwrap();
        let bytes = w.into_bytes();
        let cut = &bytes[..bytes.len() - 3];
        assert!(decode_value(&mut ByteReader::new(cut)).is_err());
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn over_limit_lengths_error_instead_of_truncating() {
        // A 4 GiB collection cannot be materialized in a unit test; the
        // checked length prefix is exercised directly.
        let mut w = ByteWriter::new();
        let too_big = (u32::MAX as usize) + 1;
        let err = w.len_u32(too_big, "bag items").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let codec = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<CodecError>())
            .expect("typed codec error");
        assert_eq!(
            *codec,
            CodecError::LengthOverflow {
                what: "bag items",
                len: too_big
            }
        );
        // An in-range length still writes the exact prefix.
        let mut ok = ByteWriter::new();
        ok.len_u32(7, "bag items").unwrap();
        assert_eq!(ok.into_bytes(), 7u32.to_le_bytes());
    }

    #[test]
    fn corrupt_counts_do_not_over_allocate() {
        // A bag frame claiming u32::MAX items backed by 1 byte of payload:
        // the decoder must fail on truncation without ballooning memory.
        let mut bytes = vec![TAG_BAG];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.push(TAG_NULL);
        assert!(decode_value(&mut ByteReader::new(&bytes)).is_err());
    }
}
