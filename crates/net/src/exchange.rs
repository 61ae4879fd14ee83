//! The TCP data plane: a full mesh of worker⇄worker links implementing the
//! engine's [`Exchange`] collectives over sockets.
//!
//! Topology: every worker binds one persistent data listener at startup
//! ([`DataPlane::bind`]); for each run attempt the coordinator broadcasts a
//! fresh **mesh epoch**, and rank `a` dials rank `b` iff `a < b`, opening
//! exactly one connection per worker pair. The dialing side leads with a
//! [`FRAME_HELLO`] carrying the epoch and its rank, so a late connection
//! from an aborted attempt can never join the wrong mesh.
//!
//! Per link, per direction, the transport is length-prefixed
//! [`trance_store::wire`] frames, one per payload a collective hands over.
//! The engine coalesces a shuffle's pieces per target rank, so a collective
//! costs about one frame per peer (a shuffle adds one empty "done" frame per
//! peer). Framing copies no payload: a data frame's `(seq, op)` prefix and
//! payload are checksummed and written as parts of one frame
//! ([`wire::write_frame_parts`]), and the receiver strips the prefix from
//! the buffer it read in place.
//!
//! Frames flow under **credit-based backpressure**: a
//! sender starts with [`CREDIT_WINDOW`] credits, every data frame consumes
//! one, and the receiver's reader thread grants one back per frame it
//! ingests — bounding the frames in flight on any link. Senders blocked on
//! credit (and collectives blocked on stragglers) wake every 100 ms to check
//! for cancellation and link failure, so cancellation propagates even
//! mid-collective.
//!
//! Failure semantics: a reader hitting EOF or an I/O error marks **its
//! link** broken. Brokenness is deliberately per-link, not mesh-global: a
//! rank that finishes the job closes its mesh, and the resulting EOF is
//! benign — its frames for every round were already delivered in order, and
//! no *data* is ever sent to a finished rank again (a rank can only finish
//! once every peer's final contributions are in; the credit grants still
//! owed to it are why [`NetExchange::close`] keeps reading). So a send fails
//! only when the *target* link is broken, and a collective wait fails only
//! when a broken-link peer's contribution to *that round* is still missing —
//! in which case it returns a typed [`ExecError::Retryable`], the signal the
//! coordinator's whole-job retry acts on.
//! Out-of-order deliveries are fine by construction: shuffle payloads carry
//! their source tags, and the engine's reorder-buffer sinks restore the
//! single-process merge order.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use trance_dist::{CancelToken, Exchange, ExecError};
use trance_store::wire;
use trance_store::{ByteReader, ByteWriter};

use crate::msg::{FRAME_CREDIT, FRAME_DATA, FRAME_HELLO, MAX_NET_FRAME};

/// Data frames a sender may have in flight on one link before it blocks
/// waiting for the receiver to grant credit back.
pub const CREDIT_WINDOW: u32 = 32;

/// How often blocked senders/collectives wake to check cancellation and
/// link failure.
const WAIT_TICK: Duration = Duration::from_millis(100);

/// How long a closed mesh's readers keep a silent link open for the peer's
/// own close before giving up on it.
const LINGER: Duration = Duration::from_secs(10);

/// How long mesh formation retries dialing a peer's listener.
const DIAL_TIMEOUT: Duration = Duration::from_secs(10);

/// How long mesh formation waits for an expected inbound link.
const ACCEPT_TIMEOUT: Duration = Duration::from_secs(30);

/// The `(seq, op)` prefix of every data frame's payload.
const DATA_PREFIX: usize = 9;

const OP_SHUFFLE: u8 = 1;
const OP_GATHER: u8 = 2;
const OP_SHUFFLE_DONE: u8 = 3;

fn net_err(detail: impl Into<String>) -> ExecError {
    ExecError::Retryable {
        detail: detail.into(),
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One collective in flight: what this rank has received so far.
#[derive(Debug)]
struct Round {
    shuffle: Vec<Vec<u8>>,
    done: Vec<bool>,
    gathers: Vec<Option<Vec<u8>>>,
    desync: Option<String>,
}

impl Round {
    fn new(ranks: usize) -> Round {
        Round {
            shuffle: Vec::new(),
            done: vec![false; ranks],
            gathers: vec![None; ranks],
            desync: None,
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    rounds: HashMap<u64, Round>,
}

#[derive(Debug)]
struct Shared {
    ranks: usize,
    inner: Mutex<Inner>,
    cond: Condvar,
}

/// One direction-agnostic TCP link to a peer rank.
#[derive(Debug)]
struct Link {
    peer: usize,
    /// The original stream handle, kept for `shutdown` (teardown + chaos).
    stream: TcpStream,
    writer: Mutex<TcpStream>,
    credits: Mutex<u32>,
    credit_cond: Condvar,
    /// Set once this link's reader hits EOF or an I/O error. Per-link, not
    /// mesh-global: see the module docs for why a finished peer's close must
    /// not fail traffic between the remaining ranks.
    broken: Mutex<Option<String>>,
}

impl Link {
    fn send_credit(&self, n: u32) {
        let mut w = lock(&self.writer);
        // A failed grant is not an error here: the write path will surface
        // the broken link the next time anyone sends on it.
        let _ = wire::write_frame(&mut *w, FRAME_CREDIT, &n.to_le_bytes()).and_then(|_| w.flush());
    }

    fn broken_detail(&self) -> Option<String> {
        lock(&self.broken).clone()
    }

    /// Records the first failure on this link and wakes both the credit
    /// waiters and the collective waiters so they re-evaluate.
    fn mark_broken(&self, shared: &Shared, detail: String) {
        {
            let mut slot = lock(&self.broken);
            if slot.is_none() {
                *slot = Some(detail);
            }
        }
        self.credit_cond.notify_all();
        shared.cond.notify_all();
    }
}

/// A connected TCP [`Exchange`] mesh for one run attempt.
#[derive(Debug)]
pub struct NetExchange {
    rank: usize,
    shared: Arc<Shared>,
    links: Vec<Option<Arc<Link>>>,
    seq: AtomicU64,
    cancel: Mutex<Option<CancelToken>>,
    /// Data frames sent across all links (chaos trigger counter).
    sent_frames: AtomicU64,
    /// Sever a link after this many sent frames (`u64::MAX` = never).
    drop_after: AtomicU64,
}

impl NetExchange {
    fn new(rank: usize, streams: Vec<Option<TcpStream>>) -> io::Result<NetExchange> {
        let ranks = streams.len();
        let shared = Arc::new(Shared {
            ranks,
            inner: Mutex::new(Inner::default()),
            cond: Condvar::new(),
        });
        let mut links: Vec<Option<Arc<Link>>> = Vec::with_capacity(ranks);
        for (peer, slot) in streams.into_iter().enumerate() {
            let Some(stream) = slot else {
                links.push(None);
                continue;
            };
            stream.set_nodelay(true).ok();
            let read_half = stream.try_clone()?;
            let write_half = stream.try_clone()?;
            let link = Arc::new(Link {
                peer,
                stream,
                writer: Mutex::new(write_half),
                credits: Mutex::new(CREDIT_WINDOW),
                credit_cond: Condvar::new(),
                broken: Mutex::new(None),
            });
            let reader_link = link.clone();
            let reader_shared = shared.clone();
            // Detached: the reader ends with its link (see `close`).
            thread::Builder::new()
                .name(format!("trance-net-rx-{peer}"))
                .spawn(move || reader_loop(read_half, reader_link, reader_shared))?;
            links.push(Some(link));
        }
        Ok(NetExchange {
            rank,
            shared,
            links,
            seq: AtomicU64::new(0),
            cancel: Mutex::new(None),
            sent_frames: AtomicU64::new(0),
            drop_after: AtomicU64::new(u64::MAX),
        })
    }

    /// Installs the run's cancellation token: senders and collective waiters
    /// observe it at every wake-up tick, so a cancelled run unblocks even
    /// while peers straggle.
    pub fn set_cancel(&self, token: Option<CancelToken>) {
        *lock(&self.cancel) = token;
    }

    /// Arms the chaos drop: after `after_frames` sent data frames, this rank
    /// severs its link to the next rank, simulating a mid-run connection
    /// loss.
    pub fn set_drop_after(&self, after_frames: u64) {
        self.drop_after
            .store(after_frames.max(1), Ordering::Relaxed);
    }

    fn check_cancel(&self) -> trance_dist::Result<()> {
        if let Some(token) = lock(&self.cancel).as_ref() {
            token.check()?;
        }
        Ok(())
    }

    /// The failure recorded on the link to `peer`, if any.
    fn link_broken(&self, peer: usize) -> Option<String> {
        self.links[peer].as_ref().and_then(|l| l.broken_detail())
    }

    /// The peer whose link the chaos drop severs: the victim's next rank.
    fn drop_target(&self) -> Option<usize> {
        (self.shared.ranks > 1).then(|| (self.rank + 1) % self.shared.ranks)
    }

    fn send_data(&self, peer: usize, seq: u64, op: u8, payload: &[u8]) -> trance_dist::Result<()> {
        let link = self.links[peer]
            .as_ref()
            .ok_or_else(|| ExecError::Other("no data link to own rank".into()))?;
        let mut prefix = [0u8; DATA_PREFIX];
        prefix[..8].copy_from_slice(&seq.to_le_bytes());
        prefix[8] = op;

        // Acquire one credit, waking periodically to observe cancellation
        // and failure of the target link (a broken link elsewhere in the
        // mesh must not abort this send — see the module docs).
        loop {
            if let Some(detail) = link.broken_detail() {
                return Err(net_err(detail));
            }
            self.check_cancel()?;
            let mut credits = lock(&link.credits);
            if *credits > 0 {
                *credits -= 1;
                break;
            }
            let (guard, _) = link
                .credit_cond
                .wait_timeout(credits, WAIT_TICK)
                .unwrap_or_else(|e| e.into_inner());
            drop(guard);
        }

        // Chaos: sever the designated link exactly when the counter crosses
        // the armed threshold.
        let sent = self.sent_frames.fetch_add(1, Ordering::Relaxed) + 1;
        if sent == self.drop_after.load(Ordering::Relaxed) {
            if let Some(target) = self.drop_target() {
                if let Some(victim_link) = self.links[target].as_ref() {
                    victim_link.stream.shutdown(Shutdown::Both).ok();
                }
            }
        }

        let result = {
            let mut w = lock(&link.writer);
            wire::write_frame_parts(&mut *w, FRAME_DATA, &[&prefix, payload])
                .and_then(|_| w.flush())
        };
        if let Err(e) = result {
            let detail = format!("data link to rank {} failed: {e}", link.peer);
            link.mark_broken(&self.shared, detail.clone());
            return Err(net_err(detail));
        }
        Ok(())
    }

    /// Waits until `ready` holds for round `seq`, then removes and returns
    /// the round. Readiness is checked **before** failure, and failure is
    /// per-peer: the wait aborts (typed `Retryable`) only when some peer's
    /// link is broken while `missing(round, peer)` says its contribution to
    /// *this* round has not arrived — frames a finished peer delivered
    /// ahead of its orderly close still complete their rounds.
    fn wait_round(
        &self,
        seq: u64,
        ready: impl Fn(&Round) -> bool,
        missing: impl Fn(&Round, usize) -> bool,
    ) -> trance_dist::Result<Round> {
        let ranks = self.shared.ranks;
        let mut inner = lock(&self.shared.inner);
        loop {
            let round = inner.rounds.entry(seq).or_insert_with(|| Round::new(ranks));
            if let Some(d) = round.desync.clone() {
                inner.rounds.remove(&seq);
                return Err(net_err(d));
            }
            if ready(round) {
                return inner.rounds.remove(&seq).ok_or_else(|| {
                    ExecError::Other(format!("exchange round {seq} vanished under its lock"))
                });
            }
            for peer in 0..ranks {
                if peer == self.rank || !missing(round, peer) {
                    continue;
                }
                if let Some(detail) = self.link_broken(peer) {
                    inner.rounds.remove(&seq);
                    return Err(net_err(detail));
                }
            }
            if let Some(token) = lock(&self.cancel).as_ref() {
                token.check()?;
            }
            inner = self
                .shared
                .cond
                .wait_timeout(inner, WAIT_TICK)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    /// Tears the mesh down: half-closes every link. Called by the worker
    /// after each attempt — on failure the EOF
    /// this sends is what cascades to peers so nobody waits on a rank that
    /// already gave up.
    ///
    /// Only the write side shuts: our FIN follows every frame we sent. The
    /// read side stays open because peers still owe a credit grant for each
    /// of those frames they have yet to ingest, and a segment arriving on a
    /// socket shut for reading is answered with a reset — which discards
    /// what the peer has received but not read, the very frames it was
    /// about to acknowledge. (A job whose last collective is small enough
    /// to fit the credit window finishes without ever waiting for the peer
    /// to read, so the window is real.) The readers keep draining until
    /// each peer half-closes in turn — or says nothing for `LINGER` — and
    /// then drop their sockets; nobody waits for them.
    pub fn close(&self) {
        for link in self.links.iter().flatten() {
            link.stream.set_read_timeout(Some(LINGER)).ok();
            link.stream.shutdown(Shutdown::Write).ok();
        }
    }
}

impl Exchange for NetExchange {
    fn rank(&self) -> usize {
        self.rank
    }

    fn ranks(&self) -> usize {
        self.shared.ranks
    }

    fn shuffle(&self, outgoing: Vec<(usize, Vec<u8>)>) -> trance_dist::Result<Vec<Vec<u8>>> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let me = self.rank;
        let ranks = self.shared.ranks;
        let mut local = Vec::new();
        for (target, payload) in outgoing {
            if target >= ranks {
                return Err(ExecError::Other(format!(
                    "shuffle target rank {target} out of range (ranks {ranks})"
                )));
            }
            if target == me {
                local.push(payload);
            } else {
                self.send_data(target, seq, OP_SHUFFLE, &payload)?;
            }
        }
        for peer in 0..ranks {
            if peer != me {
                self.send_data(peer, seq, OP_SHUFFLE_DONE, &[])?;
            }
        }
        let mut round = self.wait_round(
            seq,
            |r| (0..ranks).all(|q| q == me || r.done[q]),
            |r, q| !r.done[q],
        )?;
        round.shuffle.append(&mut local);
        Ok(round.shuffle)
    }

    fn allgather(&self, payload: Vec<u8>) -> trance_dist::Result<Vec<Vec<u8>>> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let me = self.rank;
        let ranks = self.shared.ranks;
        for peer in 0..ranks {
            if peer != me {
                self.send_data(peer, seq, OP_GATHER, &payload)?;
            }
        }
        {
            let mut inner = lock(&self.shared.inner);
            let round = inner.rounds.entry(seq).or_insert_with(|| Round::new(ranks));
            round.gathers[me] = Some(payload);
            self.shared.cond.notify_all();
        }
        let round = self.wait_round(
            seq,
            |r| r.gathers.iter().all(|g| g.is_some()),
            |r, q| r.gathers[q].is_none(),
        )?;
        round
            .gathers
            .into_iter()
            .map(|g| g.ok_or_else(|| net_err("allgather contribution missing")))
            .collect()
    }
}

fn reader_loop(mut stream: TcpStream, link: Arc<Link>, shared: Arc<Shared>) {
    let peer = link.peer;
    loop {
        match wire::read_frame(&mut stream, MAX_NET_FRAME, None) {
            Ok(None) => {
                link.mark_broken(&shared, format!("data link to rank {peer} closed"));
                return;
            }
            Err(e) => {
                link.mark_broken(&shared, format!("data link to rank {peer} failed: {e}"));
                return;
            }
            Ok(Some((header, payload))) => match header.kind {
                FRAME_CREDIT => {
                    let Ok(grant) = <[u8; 4]>::try_from(payload.as_slice()) else {
                        link.mark_broken(
                            &shared,
                            format!("malformed credit frame from rank {peer}"),
                        );
                        return;
                    };
                    let mut credits = lock(&link.credits);
                    *credits = credits.saturating_add(u32::from_le_bytes(grant));
                    link.credit_cond.notify_all();
                }
                FRAME_DATA => {
                    let mut rest = payload;
                    let mut r = ByteReader::new(&rest);
                    let (Ok(seq), Ok(op)) = (r.u64(), r.u8()) else {
                        link.mark_broken(&shared, format!("malformed data frame from rank {peer}"));
                        return;
                    };
                    // The frame's payload becomes the collective's, in place.
                    rest.drain(..DATA_PREFIX);
                    {
                        let ranks = shared.ranks;
                        let mut inner = lock(&shared.inner);
                        let round = inner.rounds.entry(seq).or_insert_with(|| Round::new(ranks));
                        match op {
                            OP_SHUFFLE => round.shuffle.push(rest),
                            OP_SHUFFLE_DONE if !round.done[peer] => round.done[peer] = true,
                            OP_GATHER if round.gathers[peer].is_none() => {
                                round.gathers[peer] = Some(rest);
                            }
                            _ => {
                                round.desync = Some(format!(
                                    "exchange desync: unexpected op {op} from rank {peer} at \
                                     round {seq}"
                                ));
                            }
                        }
                        shared.cond.notify_all();
                    }
                    // Grant the credit back now that the frame is ingested.
                    link.send_credit(1);
                }
                other => {
                    link.mark_broken(
                        &shared,
                        format!("unexpected frame kind {other:#04x} on data link from rank {peer}"),
                    );
                    return;
                }
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Mesh formation
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct Pending {
    map: Mutex<HashMap<(u64, u32), TcpStream>>,
    cond: Condvar,
}

impl Pending {
    fn wait(&self, epoch: u64, from: u32, timeout: Duration) -> io::Result<TcpStream> {
        let deadline = Instant::now() + timeout;
        let mut map = lock(&self.map);
        loop {
            // Connections from aborted older attempts can never be claimed
            // again; drop them so the table stays bounded.
            map.retain(|(e, _), _| *e >= epoch);
            if let Some(stream) = map.remove(&(epoch, from)) {
                return Ok(stream);
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("no inbound data link from rank {from} for epoch {epoch}"),
                ));
            }
            map = self
                .cond
                .wait_timeout(map, WAIT_TICK)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }
}

/// A worker's persistent data-plane endpoint: one listener bound for the
/// process lifetime, an acceptor thread routing inbound links by their
/// handshake `(epoch, rank)`, and [`DataPlane::connect_mesh`] to assemble
/// the full mesh of one run attempt.
#[derive(Debug)]
pub struct DataPlane {
    addr: String,
    pending: Arc<Pending>,
}

impl DataPlane {
    /// Binds a loopback data listener and starts the acceptor thread.
    pub fn bind() -> io::Result<DataPlane> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let pending = Arc::new(Pending::default());
        let accept_pending = pending.clone();
        thread::Builder::new()
            .name("trance-net-accept".into())
            .spawn(move || accept_loop(listener, accept_pending))?;
        Ok(DataPlane { addr, pending })
    }

    /// The listener's `host:port`, reported to the coordinator in `HELLO`.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Assembles the full mesh for one attempt: dials every higher rank
    /// (leading with the epoch handshake) and claims the inbound link of
    /// every lower rank.
    pub fn connect_mesh(
        &self,
        epoch: u64,
        rank: usize,
        addrs: &[String],
    ) -> io::Result<NetExchange> {
        let ranks = addrs.len();
        if rank >= ranks {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("rank {rank} outside cluster of {ranks}"),
            ));
        }
        let mut streams: Vec<Option<TcpStream>> = (0..ranks).map(|_| None).collect();
        for (peer, slot) in streams.iter_mut().enumerate().skip(rank + 1) {
            let mut stream = connect_retry(&addrs[peer], DIAL_TIMEOUT)?;
            stream.set_nodelay(true).ok();
            let mut hello = Vec::with_capacity(12);
            hello.extend_from_slice(&epoch.to_le_bytes());
            hello.extend_from_slice(&(rank as u32).to_le_bytes());
            wire::write_frame(&mut stream, FRAME_HELLO, &hello)?;
            stream.flush()?;
            *slot = Some(stream);
        }
        for (peer, slot) in streams.iter_mut().enumerate().take(rank) {
            *slot = Some(self.pending.wait(epoch, peer as u32, ACCEPT_TIMEOUT)?);
        }
        NetExchange::new(rank, streams)
    }
}

fn connect_retry(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let deadline = Instant::now() + timeout;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) if Instant::now() >= deadline => {
                return Err(io::Error::new(
                    e.kind(),
                    format!("dialing data link {addr}: {e}"),
                ));
            }
            Err(_) => thread::sleep(Duration::from_millis(50)),
        }
    }
}

fn accept_loop(listener: TcpListener, pending: Arc<Pending>) {
    for stream in listener.incoming() {
        let Ok(mut stream) = stream else { continue };
        // The handshake must arrive promptly or the connection is junk; a
        // bounded read keeps a stalled dialer from wedging the acceptor.
        stream.set_read_timeout(Some(Duration::from_secs(10))).ok();
        let hello = wire::read_frame(&mut stream, 64, None);
        let Ok(Some((header, payload))) = hello else {
            continue;
        };
        if header.kind != FRAME_HELLO || payload.len() != 12 {
            continue;
        }
        let mut r = ByteReader::new(&payload);
        let (Ok(epoch), Ok(from)) = (r.u64(), r.u32()) else {
            continue;
        };
        stream.set_read_timeout(None).ok();
        let mut map = lock(&pending.map);
        map.insert((epoch, from), stream);
        pending.cond.notify_all();
    }
}

/// Builds the wire bytes of one data frame — exposed for the socket fuzz
/// tests, which corrupt real frames and assert the decoder's typed errors.
pub fn encode_data_frame(seq: u64, op: u8, payload: &[u8]) -> io::Result<Vec<u8>> {
    let mut body = ByteWriter::new();
    body.u64(seq);
    body.u8(op);
    body.raw(payload);
    let body = body.into_bytes();
    let mut frame = Vec::with_capacity(wire::HEADER_LEN + body.len());
    wire::write_frame(&mut frame, FRAME_DATA, &body)?;
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Spins up an n-rank TCP mesh on loopback and returns the exchanges.
    fn tcp_mesh(ranks: usize) -> Vec<Arc<NetExchange>> {
        let planes: Vec<DataPlane> = (0..ranks).map(|_| DataPlane::bind().unwrap()).collect();
        let addrs: Vec<String> = planes.iter().map(|p| p.addr().to_string()).collect();
        thread::scope(|s| {
            let handles: Vec<_> = planes
                .iter()
                .enumerate()
                .map(|(rank, plane)| {
                    let addrs = addrs.clone();
                    s.spawn(move || plane.connect_mesh(7, rank, &addrs).unwrap())
                })
                .collect();
            handles
                .into_iter()
                .map(|h| Arc::new(h.join().unwrap()))
                .collect()
        })
    }

    #[test]
    fn tcp_mesh_shuffles_and_gathers_like_the_reference() {
        let mesh = tcp_mesh(3);
        let results: Vec<_> = thread::scope(|s| {
            let handles: Vec<_> = mesh
                .iter()
                .map(|ex| {
                    let ex = ex.clone();
                    s.spawn(move || {
                        let me = ex.rank();
                        let outgoing: Vec<(usize, Vec<u8>)> = (0..ex.ranks())
                            .map(|t| (t, vec![me as u8, t as u8]))
                            .collect();
                        let mut got = ex.shuffle(outgoing).unwrap();
                        got.sort();
                        let gathered = ex.allgather(vec![me as u8; me + 1]).unwrap();
                        (got, gathered)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (rank, (got, gathered)) in results.iter().enumerate() {
            let expect: Vec<Vec<u8>> = (0..3u8).map(|s| vec![s, rank as u8]).collect();
            assert_eq!(got, &expect, "rank {rank} shuffle inbox");
            assert_eq!(
                gathered,
                &vec![vec![0u8; 1], vec![1u8; 2], vec![2u8; 3]],
                "rank {rank} allgather"
            );
        }
        for ex in &mesh {
            ex.close();
        }
    }

    #[test]
    fn severed_link_surfaces_typed_retryable() {
        let mesh = tcp_mesh(2);
        // Rank 0 severs its link, then both sides must fail with a typed
        // Retryable — never a panic or a hang.
        mesh[0].links[1]
            .as_ref()
            .unwrap()
            .stream
            .shutdown(Shutdown::Both)
            .ok();
        let errs: Vec<_> = thread::scope(|s| {
            let handles: Vec<_> = mesh
                .iter()
                .map(|ex| {
                    let ex = ex.clone();
                    s.spawn(move || ex.allgather(vec![1, 2, 3]).unwrap_err())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for err in errs {
            assert!(err.is_retryable(), "expected retryable, got {err}");
        }
        for ex in &mesh {
            ex.close();
        }
    }

    #[test]
    fn credit_window_survives_many_small_frames() {
        // Far more frames than the credit window: progress proves grants
        // flow back while both sides keep sending.
        let mesh = tcp_mesh(2);
        let rounds = (CREDIT_WINDOW * 4) as usize;
        thread::scope(|s| {
            for ex in &mesh {
                let ex = ex.clone();
                s.spawn(move || {
                    for i in 0..rounds {
                        let out = vec![(1 - ex.rank(), vec![i as u8; 64])];
                        let got = ex.shuffle(out).unwrap();
                        assert_eq!(got.len(), 1);
                        assert_eq!(got[0], vec![i as u8; 64]);
                    }
                });
            }
        });
        for ex in &mesh {
            ex.close();
        }
    }
}
