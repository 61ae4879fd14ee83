//! # trance-store
//!
//! The out-of-core spill subsystem of **trance-rs**: the machinery that turns
//! the engine's simulated `MemoryExceeded` aborts into graceful spill events,
//! so memory-capped runs complete instead of reproducing only the paper's
//! FAIL cells.
//!
//! Three pieces:
//!
//! * **Spill files** ([`SpillFile`] / [`SpillHandle`] / [`SpillReader`]) —
//!   length-prefixed binary frames on disk. A frame is one encoded chunk
//!   (`trance-dist` encodes columnar `Batch` chunks through the
//!   [`Spillable`] trait); the reader streams frames back one at
//!   a time, so a spilled partition is never materialized wholesale just to
//!   be scanned. Every handle deletes its file on drop, and every file lives
//!   inside a scoped [`SpillManager`] directory that is removed when the run's
//!   context goes away — spill data cannot outlive the run on either the
//!   success or the error path.
//! * **Codec** ([`ByteWriter`] / [`ByteReader`] plus [`encode_value`] /
//!   [`decode_value`]) — the compact little-endian wire format frames are
//!   written in. `trance_nrc::Value` round-trips losslessly (all nine
//!   variants, nested bags and tuples included); the columnar batch layout
//!   (schema header + typed column buffers + string dictionaries + null /
//!   absent bitmaps) is encoded by `trance-dist` on top of these primitives.
//! * **[`MemoryGovernor`]** — per-worker reservation accounting against the
//!   cluster's `worker_memory` cap. Under pressure it picks victim partitions
//!   (largest first on each overloaded worker) instead of failing; the engine
//!   spills exactly those victims.
//!
//! The crate deliberately depends only on `trance-nrc`: the engine
//! (`trance-dist`) builds its spill-aware operators — external Grace-style
//! hash joins, spilling shuffle writers, spilling grouping — on top of these
//! primitives, which keeps the dependency graph acyclic.

#![warn(missing_docs)]
// I/O paths must surface typed errors, never panic: a corrupt or truncated
// spill file is a recoverable fault, not a bug. Tests may still unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod codec;
pub mod file;
pub mod governor;
pub mod wire;

pub use codec::{decode_value, encode_value, ByteReader, ByteWriter, CodecError, Spillable};
pub use file::{SpillFile, SpillHandle, SpillManager, SpillReader};
pub use governor::MemoryGovernor;
pub use wire::{
    crc32, read_frame, write_frame, FrameHeader, DEFAULT_MAX_FRAME, HEADER_LEN, WIRE_MAGIC,
    WIRE_VERSION,
};
