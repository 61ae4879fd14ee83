//! Cross-process data exchange: the seam the multi-node runtime plugs into.
//!
//! A [`DistContext`](crate::DistContext) optionally carries an [`Exchange`]
//! — a handle to the other worker *processes* of a cluster run. When one is
//! installed, every rank (process) executes the **same** deterministic plan
//! over the **same** full-length partition vector, but only materializes the
//! contiguous block of partitions it owns ([`owned_range`]); non-owned slots
//! hold empty partitions. All cross-partition movement then funnels through
//! two collectives:
//!
//! * [`Exchange::shuffle`] — each rank hands over opaque payloads addressed
//!   to other ranks and receives the payloads addressed to it, in arbitrary
//!   order (the engine tags payloads with their source so receivers can
//!   restore the single-process merge order);
//! * [`Exchange::allgather`] — every rank contributes one payload and
//!   receives all contributions **in rank order** (used for broadcast sides,
//!   global size sums and schema/sample agreement during planning).
//!
//! Because ownership blocks are contiguous and allgather results are
//! rank-ordered, concatenating per-rank contributions reproduces exactly the
//! partition-ordered result the single-process engine computes — which is
//! what the differential suite (`dist_agree` in `trance-net`) asserts.
//!
//! The trait is transport-agnostic: `trance-net` implements it over TCP;
//! [`MemMesh`] here implements it over in-process channels so the
//! distributed execution paths are testable without sockets.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use trance_nrc::Value;

use crate::error::Result;
use crate::ExecError;

/// A connection to the other ranks of a multi-process run. Implementations
/// must be usable from the driving thread of a query; the engine only calls
/// collectives from plan-aligned points, never from inside worker-pool
/// tasks, so every rank reaches each collective in the same order.
pub trait Exchange: Send + Sync + std::fmt::Debug {
    /// This process's rank in `0..ranks()`.
    fn rank(&self) -> usize;

    /// Number of participating processes.
    fn ranks(&self) -> usize;

    /// All-to-all: ships each `(target_rank, payload)` pair to its target
    /// and returns the payloads other ranks addressed to this one, in
    /// arbitrary order. Every rank must call `shuffle` once per engine
    /// shuffle pass (even with nothing to send).
    fn shuffle(&self, outgoing: Vec<(usize, Vec<u8>)>) -> Result<Vec<Vec<u8>>>;

    /// Contributes `payload` and returns every rank's contribution in rank
    /// order (`result[r]` is rank `r`'s payload, including our own).
    fn allgather(&self, payload: Vec<u8>) -> Result<Vec<Vec<u8>>>;
}

/// First partition of rank `r`'s contiguous ownership block.
fn block_start(rank: usize, partitions: usize, ranks: usize) -> usize {
    rank * partitions / ranks.max(1)
}

/// The contiguous block of partitions rank `rank` owns out of `partitions`
/// total across `ranks` processes. Blocks tile `0..partitions` exactly; a
/// rank beyond the partition count owns an empty range.
pub fn owned_range(rank: usize, partitions: usize, ranks: usize) -> Range<usize> {
    block_start(rank, partitions, ranks)..block_start(rank + 1, partitions, ranks)
}

/// The rank owning partition `part` under the contiguous-block layout of
/// [`owned_range`].
pub fn owner_of_partition(part: usize, partitions: usize, ranks: usize) -> usize {
    debug_assert!(part < partitions);
    // ranks is tiny (a handful of processes): a linear scan is clearer than
    // inverting the flooring division and trivially matches owned_range.
    for r in 0..ranks {
        if owned_range(r, partitions, ranks).contains(&part) {
            return r;
        }
    }
    ranks.saturating_sub(1)
}

/// Allgathers one `u64` per rank, returned in rank order.
pub fn allgather_u64(ex: &dyn Exchange, local: u64) -> Result<Vec<u64>> {
    let parts = ex.allgather(local.to_le_bytes().to_vec())?;
    parts
        .into_iter()
        .map(|bytes| {
            let arr: [u8; 8] = bytes
                .as_slice()
                .try_into()
                .map_err(|_| ExecError::Retryable {
                    detail: format!("malformed u64 allgather payload ({} bytes)", bytes.len()),
                })?;
            Ok(u64::from_le_bytes(arr))
        })
        .collect()
}

/// Round-robin input partitioning (row `i` → partition `i % partitions`),
/// the exact layout [`crate::DistContext::parallelize`] produces — exposed
/// so a cluster coordinator can partition inputs identically before
/// shipping each rank the slots it owns.
pub fn split_rows_round_robin(rows: Vec<Value>, partitions: usize) -> Vec<Vec<Value>> {
    crate::partition::split_round_robin(rows, partitions)
}

/// Sums one `u64` per rank: allgathers the local value and adds. Every rank
/// returns the same total, which is how distributed planning guards (size
/// thresholds, broadcast limits) stay rank-aligned.
pub fn global_sum(ex: &dyn Exchange, local: u64) -> Result<u64> {
    Ok(allgather_u64(ex, local)?
        .into_iter()
        .fold(0u64, u64::wrapping_add))
}

// ---------------------------------------------------------------------------
// In-process reference implementation
// ---------------------------------------------------------------------------

/// One collective in flight: deposits accumulate until every rank arrived,
/// then each rank collects its share; the round is dropped once all have.
#[derive(Debug, Default)]
struct MeshRound {
    kind: u8,
    arrived: usize,
    collected: usize,
    /// `shuffle` inboxes, one per rank.
    inboxes: Vec<Vec<Vec<u8>>>,
    /// `allgather` contributions, rank-ordered.
    gathers: Vec<Option<Vec<u8>>>,
}

const KIND_SHUFFLE: u8 = 1;
const KIND_ALLGATHER: u8 = 2;

#[derive(Debug)]
struct MeshInner {
    ranks: usize,
    rounds: Mutex<HashMap<u64, MeshRound>>,
    cond: Condvar,
}

/// An in-process [`Exchange`] mesh: `ranks` handles sharing one rendezvous
/// table. The reference implementation the TCP transport is tested against,
/// and the cheap way to exercise distributed execution paths in unit tests
/// (run each rank's query on its own thread).
#[derive(Debug)]
pub struct MemMesh {
    inner: Arc<MeshInner>,
    rank: usize,
    /// Per-handle collective counter; rank alignment is the caller's
    /// contract, mismatched op kinds at the same sequence number error out.
    seq: AtomicU64,
}

impl MemMesh {
    /// Creates one connected handle per rank.
    pub fn cluster(ranks: usize) -> Vec<MemMesh> {
        let inner = Arc::new(MeshInner {
            ranks: ranks.max(1),
            rounds: Mutex::new(HashMap::new()),
            cond: Condvar::new(),
        });
        (0..ranks.max(1))
            .map(|rank| MemMesh {
                inner: inner.clone(),
                rank,
                seq: AtomicU64::new(0),
            })
            .collect()
    }

    fn collective(
        &self,
        kind: u8,
        deposit: impl FnOnce(&mut MeshRound),
        collect: impl FnOnce(&mut MeshRound) -> Result<Vec<Vec<u8>>>,
    ) -> Result<Vec<Vec<u8>>> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let ranks = self.inner.ranks;
        let mut rounds = self.inner.rounds.lock().unwrap_or_else(|e| e.into_inner());
        let round = rounds.entry(seq).or_insert_with(|| MeshRound {
            kind,
            inboxes: vec![Vec::new(); ranks],
            gathers: vec![None; ranks],
            ..MeshRound::default()
        });
        if round.kind != kind {
            return Err(ExecError::Retryable {
                detail: format!(
                    "exchange desync: rank {} sent op {kind} at round {seq}, peers sent {}",
                    self.rank, round.kind
                ),
            });
        }
        deposit(round);
        round.arrived += 1;
        self.inner.cond.notify_all();
        while rounds.get(&seq).map(|r| r.arrived) != Some(ranks) {
            rounds = self
                .inner
                .cond
                .wait(rounds)
                .unwrap_or_else(|e| e.into_inner());
        }
        // A round is removed only once every rank collected it.
        let Some(round) = rounds.get_mut(&seq) else {
            return Err(ExecError::Other(format!(
                "exchange invariant: round {seq} vanished before rank {} collected it",
                self.rank
            )));
        };
        let out = collect(round)?;
        round.collected += 1;
        if round.collected == ranks {
            rounds.remove(&seq);
        }
        Ok(out)
    }
}

impl Exchange for MemMesh {
    fn rank(&self) -> usize {
        self.rank
    }

    fn ranks(&self) -> usize {
        self.inner.ranks
    }

    fn shuffle(&self, outgoing: Vec<(usize, Vec<u8>)>) -> Result<Vec<Vec<u8>>> {
        let me = self.rank;
        self.collective(
            KIND_SHUFFLE,
            |round| {
                for (target, payload) in outgoing {
                    round.inboxes[target].push(payload);
                }
            },
            |round| Ok(std::mem::take(&mut round.inboxes[me])),
        )
    }

    fn allgather(&self, payload: Vec<u8>) -> Result<Vec<Vec<u8>>> {
        let me = self.rank;
        self.collective(
            KIND_ALLGATHER,
            |round| round.gathers[me] = Some(payload),
            |round| {
                round
                    .gathers
                    .iter()
                    .map(|g| {
                        g.clone().ok_or_else(|| ExecError::Retryable {
                            detail: "allgather contribution missing".into(),
                        })
                    })
                    .collect()
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ownership_blocks_tile_the_partition_space() {
        for &(parts, ranks) in &[(8usize, 3usize), (7, 2), (4, 4), (5, 8), (16, 1)] {
            let mut owners = Vec::new();
            for r in 0..ranks {
                for p in owned_range(r, parts, ranks) {
                    owners.push((p, r));
                }
            }
            assert_eq!(owners.len(), parts, "{parts} parts / {ranks} ranks");
            for (p, r) in owners {
                assert_eq!(owner_of_partition(p, parts, ranks), r);
            }
        }
    }

    #[test]
    fn mem_mesh_shuffles_and_gathers() {
        let mesh = MemMesh::cluster(3);
        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = mesh
                .iter()
                .map(|ex| {
                    s.spawn(move || {
                        let me = ex.rank();
                        // Everyone sends one tagged payload to every rank.
                        let outgoing = (0..ex.ranks())
                            .filter(|t| *t != me)
                            .map(|t| (t, vec![me as u8, t as u8]))
                            .collect();
                        let mut got = ex.shuffle(outgoing).unwrap();
                        got.sort();
                        let gathered = ex.allgather(vec![me as u8]).unwrap();
                        let total = global_sum(ex, (me as u64) + 1).unwrap();
                        (got, gathered, total)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (rank, (got, gathered, total)) in results.into_iter().enumerate() {
            let expect: Vec<Vec<u8>> = (0..3u8)
                .filter(|s| *s as usize != rank)
                .map(|s| vec![s, rank as u8])
                .collect();
            assert_eq!(got, expect, "rank {rank} inbox");
            assert_eq!(gathered, vec![vec![0u8], vec![1], vec![2]]);
            assert_eq!(total, 6);
        }
    }
}
