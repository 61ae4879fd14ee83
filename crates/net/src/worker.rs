//! The worker process loop: connect to the coordinator, receive the cluster
//! shape and pre-partitioned inputs, then execute [`crate::msg::Ctrl::Run`]
//! attempts over the TCP data plane.
//!
//! Every rank drives the **same** deterministic `PlanProgram` the
//! single-process engine runs (the SPMD model): it owns a contiguous range
//! of partitions, keeps non-owned slots empty, and funnels every
//! cross-partition move through the [`crate::exchange::NetExchange`]
//! collectives installed on its [`DistContext`]. Cancellation arrives out of
//! band: a dedicated control reader fires the run's [`CancelToken`] the
//! moment a `Cancel` frame lands, without waiting for the run loop.

use std::collections::VecDeque;
use std::io;
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use trance_compiler::{
    run_query_with, strategy_options, ExecOptions, InputSet, QuerySpec, RunResult, Strategy,
};
use trance_dist::{CancelToken, ClusterConfig, DistContext};
use trance_frontend::parse_expr;
use trance_shred::ShreddedInputDecl;

use crate::exchange::DataPlane;
use crate::link::FramedConn;
use crate::msg::{Ctrl, ErrKind, LoadKind, NetStats, Outcome};

/// Result rows per [`Ctrl::Rows`] chunk, keeping control frames bounded.
const ROWS_PER_CHUNK: usize = 4096;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Inbound control messages, decoupled from the socket so `Cancel` can be
/// applied by the reader thread while a run is in flight.
#[derive(Default)]
struct MsgQueue {
    state: Mutex<(VecDeque<Ctrl>, bool)>,
    cond: Condvar,
}

impl MsgQueue {
    fn push(&self, msg: Ctrl) {
        lock(&self.state).0.push_back(msg);
        self.cond.notify_all();
    }

    fn close(&self) {
        lock(&self.state).1 = true;
        self.cond.notify_all();
    }

    /// Next message, or `None` once the control connection closed and the
    /// queue drained.
    fn pop(&self) -> Option<Ctrl> {
        let mut state = lock(&self.state);
        loop {
            if let Some(msg) = state.0.pop_front() {
                return Some(msg);
            }
            if state.1 {
                return None;
            }
            state = self.cond.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Connects to the coordinator and serves until `Shutdown` (or the control
/// connection closes). This is the whole body of the `trance-worker` binary.
pub fn serve(coordinator_addr: &str) -> io::Result<()> {
    let plane = DataPlane::bind()?;
    let conn = Arc::new(FramedConn::new(TcpStream::connect(coordinator_addr)?)?);
    conn.send(&Ctrl::Hello {
        data_addr: plane.addr().to_string(),
    })?;

    // The token of the run currently in flight, for out-of-band Cancel.
    let cancel_slot: Arc<Mutex<Option<CancelToken>>> = Arc::new(Mutex::new(None));
    let queue = Arc::new(MsgQueue::default());
    {
        let conn = conn.clone();
        let queue = queue.clone();
        let cancel_slot = cancel_slot.clone();
        thread::Builder::new()
            .name("trance-net-ctrl-rx".into())
            .spawn(move || loop {
                match conn.recv() {
                    Ok(Some(Ctrl::Cancel { reason, .. })) => {
                        if let Some(token) = lock(&cancel_slot).as_ref() {
                            token.cancel(&reason);
                        }
                    }
                    Ok(Some(msg)) => queue.push(msg),
                    Ok(None) | Err(_) => {
                        queue.close();
                        return;
                    }
                }
            })?;
    }

    // The cluster shape must arrive before anything else; every rank builds
    // the identical configuration or plans would diverge.
    let (rank, data_addrs, params) = match queue.pop() {
        Some(Ctrl::Peers {
            rank,
            data_addrs,
            params,
        }) => (rank as usize, data_addrs, params),
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected Peers as the first control message, got {other:?}"),
            ));
        }
    };
    let config = ClusterConfig::new(params.threads as usize, params.partitions as usize)
        .with_broadcast_limit(params.broadcast_limit as usize);
    let ctx = DistContext::new(config);
    let mut inputs = InputSet::new(ctx.clone());

    while let Some(msg) = queue.pop() {
        match msg {
            Ctrl::Load { kind, name, parts } => {
                // A rank shreds the nested partitions it owns itself. `Load`
                // has no reply, so a rank that cannot hold a table leaves.
                match kind {
                    LoadKind::Flat => inputs.add_flat_partitioned(&name, parts),
                    LoadKind::Nested => inputs.add_nested_partitioned(&name, parts),
                }
                .map_err(|e| io::Error::other(format!("loading {name}: {e}")))?;
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
                let run = RunRequest {
                    epoch,
                    strategy,
                    query,
                    decls,
                    deadline_ms,
                    drop,
                };
                let outcome =
                    match run_one(&plane, rank, &data_addrs, &ctx, &inputs, &cancel_slot, run) {
                        Ok((rows, stats)) => {
                            let mut rows = rows.into_iter();
                            loop {
                                let chunk: Vec<_> =
                                    rows.by_ref().take(ROWS_PER_CHUNK.max(1)).collect();
                                if chunk.is_empty() {
                                    break;
                                }
                                conn.send(&Ctrl::Rows {
                                    job,
                                    attempt,
                                    rows: chunk,
                                })?;
                            }
                            Outcome::Ok(stats)
                        }
                        Err((kind, detail)) => Outcome::Err { kind, detail },
                    };
                conn.send(&Ctrl::Result {
                    job,
                    attempt,
                    outcome,
                })?;
            }
            Ctrl::Shutdown => break,
            // Hello/Peers/Rows/Result/Cancel are not expected here; ignore
            // rather than tearing the worker down mid-session.
            _ => {}
        }
    }
    Ok(())
}

struct RunRequest {
    epoch: u64,
    strategy: String,
    query: String,
    decls: Vec<(String, trance_shred::NestingStructure)>,
    deadline_ms: Option<u64>,
    drop: Option<crate::msg::DropSpec>,
}

fn run_one(
    plane: &DataPlane,
    rank: usize,
    data_addrs: &[String],
    ctx: &DistContext,
    inputs: &InputSet,
    cancel_slot: &Arc<Mutex<Option<CancelToken>>>,
    run: RunRequest,
) -> Result<(Vec<trance_nrc::Value>, NetStats), (ErrKind, String)> {
    let fatal = |detail: String| (ErrKind::Fatal, detail);

    let strategy = Strategy::from_label(&run.strategy)
        .ok_or_else(|| fatal(format!("unknown strategy label {:?}", run.strategy)))?;
    // Shredded-result strategies have no nested bag to ship back; the
    // coordinator protocol is nested-rows only.
    if strategy.is_shredded() && !strategy.unshreds() {
        return Err(fatal(format!(
            "strategy {} produces a shredded result; multi-node jobs must unshred",
            strategy.label()
        )));
    }
    let query = parse_expr(&run.query).map_err(|e| fatal(format!("bad query text: {e}")))?;
    let decls = run
        .decls
        .into_iter()
        .map(|(name, structure)| ShreddedInputDecl::new(name, structure))
        .collect();
    let spec = QuerySpec::new("dist-job", query, decls);

    // Fresh full mesh for this attempt; a failure to form it is transient
    // (a peer may still be tearing down its previous attempt).
    let mesh = plane
        .connect_mesh(run.epoch, rank, data_addrs)
        .map(Arc::new)
        .map_err(|e| (ErrKind::Retryable, format!("mesh formation failed: {e}")))?;
    if let Some(drop) = run.drop {
        if drop.victim as usize == rank {
            mesh.set_drop_after(drop.after_frames);
        }
    }
    let token = ctx.cancel_token();
    mesh.set_cancel(Some(token.clone()));
    *lock(cancel_slot) = Some(token);
    ctx.set_exchange(Some(mesh.clone()));

    let options = ExecOptions {
        deadline: run.deadline_ms.map(Duration::from_millis),
        ..strategy_options(strategy, false)
    };
    let outcome = run_query_with(&spec, inputs, strategy, &options);

    ctx.set_exchange(None);
    *lock(cancel_slot) = None;
    mesh.set_cancel(None);
    mesh.close();

    match outcome.result {
        RunResult::Nested(coll) => {
            let rows = coll.collect_bag().into_items();
            Ok((rows, NetStats::from(&outcome.stats)))
        }
        RunResult::Shredded(_) => Err(fatal(
            "strategy unexpectedly produced a shredded result".into(),
        )),
        RunResult::Failed(e) => {
            let kind = if e.is_cancelled() {
                ErrKind::Cancelled
            } else if e.is_retryable() {
                ErrKind::Retryable
            } else {
                ErrKind::Fatal
            };
            Err((kind, e.to_string()))
        }
    }
}
