//! The control-plane protocol between the coordinator and the
//! `trance-worker` processes, plus the frame-kind constants shared with the
//! worker⇄worker data plane.
//!
//! Every message rides one [`trance_store::wire`] frame (magic, version,
//! kind, length, CRC-32), so the transport inherits the spill codec's
//! hardening: corrupt frames surface as typed `InvalidData` errors, lengths
//! are capped at [`MAX_NET_FRAME`], and payload buffers grow only as bytes
//! actually arrive. Message bodies are encoded with the bounded
//! [`ByteReader`]/[`ByteWriter`] primitives — the same length-validated
//! codec the spill files use — so a malformed body can never panic or
//! over-allocate either.

use std::io;

use trance_dist::StatsSnapshot;
use trance_nrc::Value;
use trance_shred::NestingStructure;
use trance_store::{decode_value, encode_value, ByteReader, ByteWriter};

/// Frame kind: a control-plane message (coordinator ⇄ worker).
pub const FRAME_CTRL: u8 = 0x10;

/// Frame kind: a data-plane collective payload (worker ⇄ worker).
pub const FRAME_DATA: u8 = 0x11;

/// Frame kind: a data-plane credit grant (flow control).
pub const FRAME_CREDIT: u8 = 0x12;

/// Frame kind: the data-plane link handshake (mesh epoch + dialing rank).
pub const FRAME_HELLO: u8 = 0x13;

/// Per-frame payload cap on network links: far above any frame the engine
/// produces (shuffle pieces and row chunks are bounded), far below anything
/// a corrupt length prefix could use to balloon memory.
pub const MAX_NET_FRAME: usize = 64 * 1024 * 1024;

/// Nesting depth cap when decoding input structures — matches the frontend's
/// expression depth guard in spirit: untrusted recursion must be bounded.
const MAX_STRUCTURE_DEPTH: usize = 64;

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Cluster shape the coordinator imposes on every worker (ranks share one
/// deterministic configuration, or their plans would diverge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterParams {
    /// Hash partitions of every collection (global, not per rank).
    pub partitions: u32,
    /// Worker-pool threads per rank.
    pub threads: u32,
    /// Broadcast-join size limit in bytes.
    pub broadcast_limit: u64,
}

/// Which input map a [`Ctrl::Load`] message fills on the worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadKind {
    /// A flat relation (registered for both the nested and shredded routes).
    Flat,
    /// The nested form of a nested relation.
    Nested,
    /// One shredded collection (flat top bag or dictionary) under its exact
    /// shredded name.
    Shredded,
}

/// A seeded chaos instruction: the victim rank severs one of its data links
/// after sending `after_frames` frames, so the run exercises the
/// connection-loss → `Retryable` → global-retry recovery path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DropSpec {
    /// Rank that performs the drop.
    pub victim: u32,
    /// Data-plane frames the victim sends before severing the link.
    pub after_frames: u64,
}

/// How a worker's run ended, classified for the coordinator's retry loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrKind {
    /// Transient (a lost link or peer): the coordinator retries the whole
    /// job on a fresh mesh.
    Retryable,
    /// The run was cancelled (explicitly or by deadline): never retried.
    Cancelled,
    /// Deterministic failure (bad query, unsupported strategy, engine
    /// error): retrying cannot help.
    Fatal,
}

/// Declares [`NetStats`], once: each name is a [`StatsSnapshot`] counter a
/// rank reports. The public field (documented by a link to that counter), its
/// saturating sum and its slot on the wire all expand from this table, whose
/// order *is* the `Ctrl::Result` wire order. The coordinator and its ranks
/// always come from one build (`spawn_cluster` / `spawn_self_cluster`), so
/// the table may change freely between builds.
macro_rules! net_stats {
    ($($name:ident,)*) => {
        /// The per-rank counters a worker ships with its result; the coordinator
        /// sums them across ranks, and the `dist_agree` suite asserts the summed
        /// logical shuffle bytes equal the single-process oracle's.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct NetStats {
            $(
                #[doc = concat!("This rank's [`StatsSnapshot::", stringify!($name), "`].")]
                pub $name: u64,
            )*
        }

        impl NetStats {
            /// Adds another rank's counters into this one (saturating: a sum of
            /// per-rank meters must never wrap into a *smaller* report).
            pub fn absorb(&mut self, other: &NetStats) {
                $(self.$name = self.$name.saturating_add(other.$name);)*
            }

            fn encode(&self, w: &mut ByteWriter) {
                $(w.u64(self.$name);)*
            }

            fn decode(r: &mut ByteReader<'_>) -> io::Result<NetStats> {
                Ok(NetStats { $($name: r.u64()?,)* })
            }
        }

        impl From<&StatsSnapshot> for NetStats {
            fn from(s: &StatsSnapshot) -> NetStats {
                NetStats { $($name: s.$name,)* }
            }
        }
    };
}

net_stats! {
    shuffled_tuples,
    shuffled_bytes,
    shuffled_bytes_phys,
    broadcast_tuples,
    broadcast_bytes,
    broadcast_bytes_phys,
    shuffle_joins,
    broadcast_joins,
    skew_broadcast_joins,
    skew_fallback_joins,
    spilled_bytes,
    spill_files,
    cancelled,
}

/// How a worker's run ended: the counters on success, a classified error
/// otherwise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The rank completed; its rows were shipped as [`Ctrl::Rows`] chunks.
    Ok(NetStats),
    /// The rank failed.
    Err {
        /// Error class for the coordinator's retry decision.
        kind: ErrKind,
        /// Human-readable detail.
        detail: String,
    },
}

/// A control-plane message.
#[derive(Debug, Clone, PartialEq)]
pub enum Ctrl {
    /// Worker → coordinator, first message: here is my data-plane address.
    Hello {
        /// The worker's data listener address (`host:port`).
        data_addr: String,
    },
    /// Coordinator → worker: your rank, everyone's data addresses, and the
    /// cluster shape every rank must configure identically.
    Peers {
        /// The receiving worker's rank.
        rank: u32,
        /// Data-plane addresses indexed by rank.
        data_addrs: Vec<String>,
        /// Shared cluster configuration.
        params: ClusterParams,
    },
    /// Coordinator → worker: register pre-partitioned input rows. Only the
    /// receiving rank's owned partition slots are populated; the vector is
    /// full-length so every rank sees the same partition layout.
    Load {
        /// Which input map to fill.
        kind: LoadKind,
        /// Input (or shredded-collection) name.
        name: String,
        /// Full-length partition vector, non-owned slots empty.
        parts: Vec<Vec<Value>>,
    },
    /// Coordinator → worker: execute one attempt of a job.
    Run {
        /// Mesh epoch — data links handshake with it so late connections
        /// from an aborted attempt can never join the wrong mesh.
        epoch: u64,
        /// Job id.
        job: u64,
        /// Attempt number (0-based; chaos drops fire on attempt 0 only).
        attempt: u32,
        /// Strategy label (see `trance_compiler::Strategy::label`).
        strategy: String,
        /// The query as NRC surface text (`parse(pretty(e)) == e`).
        query: String,
        /// Nested-input declarations: name plus nesting structure.
        decls: Vec<(String, NestingStructure)>,
        /// Cooperative deadline for the run, in milliseconds.
        deadline_ms: Option<u64>,
        /// Chaos instruction, if this attempt injects a connection drop.
        drop: Option<DropSpec>,
    },
    /// Worker → coordinator: one chunk of result rows for `(job, attempt)`.
    Rows {
        /// Job id.
        job: u64,
        /// Attempt the rows belong to (stale attempts are discarded).
        attempt: u32,
        /// Result rows, in the rank's partition order.
        rows: Vec<Value>,
    },
    /// Worker → coordinator: the rank's attempt finished.
    Result {
        /// Job id.
        job: u64,
        /// Attempt number.
        attempt: u32,
        /// Success (with counters) or classified failure.
        outcome: Outcome,
    },
    /// Coordinator → worker: cancel the in-flight run.
    Cancel {
        /// Job id (informational; the current run is cancelled).
        job: u64,
        /// Reason surfaced in the `Cancelled` error.
        reason: String,
    },
    /// Coordinator → worker: exit the serve loop.
    Shutdown,
}

const TAG_HELLO: u8 = 1;
const TAG_PEERS: u8 = 2;
const TAG_LOAD: u8 = 3;
const TAG_RUN: u8 = 4;
const TAG_ROWS: u8 = 5;
const TAG_RESULT: u8 = 6;
const TAG_CANCEL: u8 = 7;
const TAG_SHUTDOWN: u8 = 8;

fn encode_rows(w: &mut ByteWriter, rows: &[Value]) -> io::Result<()> {
    w.len_u32(rows.len(), "row chunk")?;
    for row in rows {
        encode_value(row, w)?;
    }
    Ok(())
}

fn decode_rows(r: &mut ByteReader<'_>) -> io::Result<Vec<Value>> {
    let n = r.u32()? as usize;
    let mut rows = Vec::with_capacity(r.bounded_capacity(n));
    for _ in 0..n {
        rows.push(decode_value(r)?);
    }
    Ok(rows)
}

fn encode_parts(w: &mut ByteWriter, parts: &[Vec<Value>]) -> io::Result<()> {
    w.len_u32(parts.len(), "partition vector")?;
    for part in parts {
        encode_rows(w, part)?;
    }
    Ok(())
}

fn decode_parts(r: &mut ByteReader<'_>) -> io::Result<Vec<Vec<Value>>> {
    let n = r.u32()? as usize;
    let mut parts = Vec::with_capacity(r.bounded_capacity(n));
    for _ in 0..n {
        parts.push(decode_rows(r)?);
    }
    Ok(parts)
}

fn encode_structure(w: &mut ByteWriter, s: &NestingStructure) -> io::Result<()> {
    w.len_u32(s.children.len(), "structure children")?;
    for (name, child) in &s.children {
        w.str(name)?;
        encode_structure(w, child)?;
    }
    Ok(())
}

fn decode_structure(r: &mut ByteReader<'_>, depth: usize) -> io::Result<NestingStructure> {
    if depth > MAX_STRUCTURE_DEPTH {
        return Err(invalid("input structure nests too deep"));
    }
    let n = r.u32()? as usize;
    let mut s = NestingStructure::flat();
    for _ in 0..n {
        let name = r.str()?;
        let child = decode_structure(r, depth + 1)?;
        s.children.insert(name, child);
    }
    Ok(s)
}

fn encode_opt_u64(w: &mut ByteWriter, v: Option<u64>) {
    match v {
        Some(v) => {
            w.u8(1);
            w.u64(v);
        }
        None => w.u8(0),
    }
}

fn decode_opt_u64(r: &mut ByteReader<'_>) -> io::Result<Option<u64>> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u64()?)),
        other => Err(invalid(format!("bad option tag {other}"))),
    }
}

impl Ctrl {
    /// Encodes the message body (the caller frames it as [`FRAME_CTRL`]).
    pub fn encode(&self) -> io::Result<Vec<u8>> {
        let mut w = ByteWriter::new();
        match self {
            Ctrl::Hello { data_addr } => {
                w.u8(TAG_HELLO);
                w.str(data_addr)?;
            }
            Ctrl::Peers {
                rank,
                data_addrs,
                params,
            } => {
                w.u8(TAG_PEERS);
                w.u32(*rank);
                w.len_u32(data_addrs.len(), "peer addresses")?;
                for addr in data_addrs {
                    w.str(addr)?;
                }
                w.u32(params.partitions);
                w.u32(params.threads);
                w.u64(params.broadcast_limit);
            }
            Ctrl::Load { kind, name, parts } => {
                w.u8(TAG_LOAD);
                w.u8(match kind {
                    LoadKind::Flat => 0,
                    LoadKind::Nested => 1,
                    LoadKind::Shredded => 2,
                });
                w.str(name)?;
                encode_parts(&mut w, parts)?;
            }
            Ctrl::Run {
                epoch,
                job,
                attempt,
                strategy,
                query,
                decls,
                deadline_ms,
                drop,
            } => {
                w.u8(TAG_RUN);
                w.u64(*epoch);
                w.u64(*job);
                w.u32(*attempt);
                w.str(strategy)?;
                w.str(query)?;
                w.len_u32(decls.len(), "input declarations")?;
                for (name, structure) in decls {
                    w.str(name)?;
                    encode_structure(&mut w, structure)?;
                }
                encode_opt_u64(&mut w, *deadline_ms);
                match drop {
                    Some(d) => {
                        w.u8(1);
                        w.u32(d.victim);
                        w.u64(d.after_frames);
                    }
                    None => w.u8(0),
                }
            }
            Ctrl::Rows { job, attempt, rows } => {
                w.u8(TAG_ROWS);
                w.u64(*job);
                w.u32(*attempt);
                encode_rows(&mut w, rows)?;
            }
            Ctrl::Result {
                job,
                attempt,
                outcome,
            } => {
                w.u8(TAG_RESULT);
                w.u64(*job);
                w.u32(*attempt);
                match outcome {
                    Outcome::Ok(stats) => {
                        w.u8(0);
                        stats.encode(&mut w);
                    }
                    Outcome::Err { kind, detail } => {
                        w.u8(match kind {
                            ErrKind::Retryable => 1,
                            ErrKind::Cancelled => 2,
                            ErrKind::Fatal => 3,
                        });
                        w.str(detail)?;
                    }
                }
            }
            Ctrl::Cancel { job, reason } => {
                w.u8(TAG_CANCEL);
                w.u64(*job);
                w.str(reason)?;
            }
            Ctrl::Shutdown => w.u8(TAG_SHUTDOWN),
        }
        Ok(w.into_bytes())
    }

    /// Decodes a message body. Every field is untrusted: lengths are bounded
    /// by the buffer, recursion is depth-capped, unknown tags are
    /// `InvalidData` — never a panic, never an over-allocation.
    pub fn decode(bytes: &[u8]) -> io::Result<Ctrl> {
        let mut r = ByteReader::new(bytes);
        let msg = match r.u8()? {
            TAG_HELLO => Ctrl::Hello {
                data_addr: r.str()?,
            },
            TAG_PEERS => {
                let rank = r.u32()?;
                let n = r.u32()? as usize;
                let mut data_addrs = Vec::with_capacity(r.bounded_capacity(n));
                for _ in 0..n {
                    data_addrs.push(r.str()?);
                }
                let params = ClusterParams {
                    partitions: r.u32()?,
                    threads: r.u32()?,
                    broadcast_limit: r.u64()?,
                };
                Ctrl::Peers {
                    rank,
                    data_addrs,
                    params,
                }
            }
            TAG_LOAD => {
                let kind = match r.u8()? {
                    0 => LoadKind::Flat,
                    1 => LoadKind::Nested,
                    2 => LoadKind::Shredded,
                    other => return Err(invalid(format!("bad load kind {other}"))),
                };
                let name = r.str()?;
                let parts = decode_parts(&mut r)?;
                Ctrl::Load { kind, name, parts }
            }
            TAG_RUN => {
                let epoch = r.u64()?;
                let job = r.u64()?;
                let attempt = r.u32()?;
                let strategy = r.str()?;
                let query = r.str()?;
                let n = r.u32()? as usize;
                let mut decls = Vec::with_capacity(r.bounded_capacity(n));
                for _ in 0..n {
                    let name = r.str()?;
                    let structure = decode_structure(&mut r, 0)?;
                    decls.push((name, structure));
                }
                let deadline_ms = decode_opt_u64(&mut r)?;
                let drop = match r.u8()? {
                    0 => None,
                    1 => Some(DropSpec {
                        victim: r.u32()?,
                        after_frames: r.u64()?,
                    }),
                    other => return Err(invalid(format!("bad drop tag {other}"))),
                };
                Ctrl::Run {
                    epoch,
                    job,
                    attempt,
                    strategy,
                    query,
                    decls,
                    deadline_ms,
                    drop,
                }
            }
            TAG_ROWS => Ctrl::Rows {
                job: r.u64()?,
                attempt: r.u32()?,
                rows: decode_rows(&mut r)?,
            },
            TAG_RESULT => {
                let job = r.u64()?;
                let attempt = r.u32()?;
                let outcome = match r.u8()? {
                    0 => Outcome::Ok(NetStats::decode(&mut r)?),
                    kind @ 1..=3 => Outcome::Err {
                        kind: match kind {
                            1 => ErrKind::Retryable,
                            2 => ErrKind::Cancelled,
                            _ => ErrKind::Fatal,
                        },
                        detail: r.str()?,
                    },
                    other => return Err(invalid(format!("bad outcome tag {other}"))),
                };
                Ctrl::Result {
                    job,
                    attempt,
                    outcome,
                }
            }
            TAG_CANCEL => Ctrl::Cancel {
                job: r.u64()?,
                reason: r.str()?,
            },
            TAG_SHUTDOWN => Ctrl::Shutdown,
            other => return Err(invalid(format!("unknown control message tag {other}"))),
        };
        if r.remaining() != 0 {
            return Err(invalid(format!(
                "{} trailing bytes after control message",
                r.remaining()
            )));
        }
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Ctrl) {
        let bytes = msg.encode().unwrap();
        assert_eq!(Ctrl::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn control_messages_round_trip() {
        roundtrip(Ctrl::Hello {
            data_addr: "127.0.0.1:4000".into(),
        });
        roundtrip(Ctrl::Peers {
            rank: 2,
            data_addrs: vec!["a:1".into(), "b:2".into(), "c:3".into()],
            params: ClusterParams {
                partitions: 8,
                threads: 2,
                broadcast_limit: 64,
            },
        });
        roundtrip(Ctrl::Load {
            kind: LoadKind::Nested,
            name: "COP".into(),
            parts: vec![
                vec![Value::Int(1), Value::str("x")],
                Vec::new(),
                vec![Value::tuple([("a", Value::Real(0.5))])],
            ],
        });
        let structure = NestingStructure::flat().with_child(
            "corders",
            NestingStructure::flat().with_child("oparts", NestingStructure::flat()),
        );
        roundtrip(Ctrl::Run {
            epoch: 9,
            job: 3,
            attempt: 1,
            strategy: "STANDARD".into(),
            query: "for x in R union {( u := x.a )}".into(),
            decls: vec![("COP".into(), structure)],
            deadline_ms: Some(250),
            drop: Some(DropSpec {
                victim: 1,
                after_frames: 4,
            }),
        });
        roundtrip(Ctrl::Rows {
            job: 3,
            attempt: 1,
            rows: vec![Value::Int(7), Value::Null],
        });
        roundtrip(Ctrl::Result {
            job: 3,
            attempt: 1,
            outcome: Outcome::Ok(NetStats {
                shuffled_bytes: 123,
                spill_files: 1,
                ..NetStats::default()
            }),
        });
        roundtrip(Ctrl::Result {
            job: 3,
            attempt: 0,
            outcome: Outcome::Err {
                kind: ErrKind::Retryable,
                detail: "data link to rank 1 closed".into(),
            },
        });
        roundtrip(Ctrl::Cancel {
            job: 3,
            reason: "deadline".into(),
        });
        roundtrip(Ctrl::Shutdown);
    }

    #[test]
    fn decode_rejects_garbage_without_panicking() {
        assert!(Ctrl::decode(&[]).is_err());
        assert!(Ctrl::decode(&[0xFF]).is_err());
        // Truncated in the middle of a Peers address list.
        let good = Ctrl::Peers {
            rank: 0,
            data_addrs: vec!["addr".into()],
            params: ClusterParams {
                partitions: 4,
                threads: 1,
                broadcast_limit: 1,
            },
        }
        .encode()
        .unwrap();
        for cut in 1..good.len() {
            let _ = Ctrl::decode(&good[..cut]); // must not panic
        }
        // A forged huge length must not allocate: the reader bounds capacity
        // by the bytes actually present.
        let mut forged = Vec::new();
        forged.push(TAG_ROWS);
        forged.extend_from_slice(&0u64.to_le_bytes());
        forged.extend_from_slice(&0u32.to_le_bytes());
        forged.extend_from_slice(&u32::MAX.to_le_bytes()); // "4 billion rows"
        assert!(Ctrl::decode(&forged).is_err());
    }

    /// The thirteen counters ride `Ctrl::Result` as little-endian `u64`s in
    /// table order; the coordinator decodes them by position.
    #[test]
    fn stats_wire_order_is_pinned() {
        let stats = NetStats {
            shuffled_tuples: 1,
            shuffled_bytes: 2,
            shuffled_bytes_phys: 3,
            broadcast_tuples: 4,
            broadcast_bytes: 5,
            broadcast_bytes_phys: 6,
            shuffle_joins: 7,
            broadcast_joins: 8,
            skew_broadcast_joins: 9,
            skew_fallback_joins: 10,
            spilled_bytes: 11,
            spill_files: 12,
            cancelled: 13,
        };
        let bytes = Ctrl::Result {
            job: 0,
            attempt: 0,
            outcome: Outcome::Ok(stats),
        }
        .encode()
        .unwrap();
        // tag, job, attempt and the outcome tag precede the counters.
        let counters = &bytes[1 + 8 + 4 + 1..];
        let expected: Vec<u8> = (1..=13u64).flat_map(u64::to_le_bytes).collect();
        assert_eq!(counters, expected);
    }

    #[test]
    fn stats_absorb_saturates() {
        let mut a = NetStats {
            shuffled_bytes: u64::MAX - 1,
            ..NetStats::default()
        };
        a.absorb(&NetStats {
            shuffled_bytes: 10,
            spill_files: 2,
            ..NetStats::default()
        });
        assert_eq!(a.shuffled_bytes, u64::MAX);
        assert_eq!(a.spill_files, 2);
    }
}
