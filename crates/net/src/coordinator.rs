//! The coordinator: owns the catalog, partitions it across worker
//! processes, drives jobs attempt by attempt, and merges per-rank results
//! back into one bag.
//!
//! Recovery model: this is the engine's one recovery layer. Any rank
//! reporting a [`ErrKind::Retryable`] outcome (a lost link or peer) aborts
//! the attempt, and the whole job reruns on a fresh mesh epoch — SPMD plans
//! are deterministic, so a rerun is bag-identical. Cancellation and
//! deterministic failures are never retried.

use std::io;
use std::net::{TcpListener, ToSocketAddrs};

use trance_dist::exchange::{owned_range, split_rows_round_robin};
use trance_dist::ExecError;
use trance_nrc::pretty::pretty;
use trance_nrc::{Bag, Expr, Value};
use trance_shred::{flat_input_name, input_dict_name, shred_value, NestingStructure};

use trance_compiler::Strategy;

use crate::link::FramedConn;
use crate::msg::{ClusterParams, Ctrl, DropSpec, ErrKind, LoadKind, NetStats, Outcome};

/// Whole-job attempts before the coordinator gives up on transient
/// failures.
pub const MAX_JOB_ATTEMPTS: u32 = 4;

/// One distributed job: a query over previously loaded inputs.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The NRC query.
    pub query: Expr,
    /// Nested-input declarations (name, nesting structure).
    pub decls: Vec<(String, NestingStructure)>,
    /// Execution strategy (must produce a nested result).
    pub strategy: Strategy,
    /// Cooperative deadline in milliseconds, if any.
    pub deadline_ms: Option<u64>,
    /// Chaos drop injected on attempt 0, if any.
    pub chaos: Option<DropSpec>,
}

impl JobSpec {
    /// A plain job: no deadline, no chaos.
    pub fn new(query: Expr, decls: Vec<(String, NestingStructure)>, strategy: Strategy) -> JobSpec {
        JobSpec {
            query,
            decls,
            strategy,
            deadline_ms: None,
            chaos: None,
        }
    }
}

/// A finished job: merged rows, summed per-rank counters, attempts used.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Result rows merged in rank order (= partition order, so exactly the
    /// single-process collection order).
    pub rows: Bag,
    /// Per-rank counters summed across the successful attempt.
    pub stats: NetStats,
    /// Attempts consumed (1 = clean first run).
    pub attempts: u32,
}

/// A bound coordinator listener, waiting for workers to register.
#[derive(Debug)]
pub struct CoordinatorListener {
    listener: TcpListener,
    params: ClusterParams,
}

impl CoordinatorListener {
    /// Binds the control listener.
    pub fn bind(
        addr: impl ToSocketAddrs,
        params: ClusterParams,
    ) -> io::Result<CoordinatorListener> {
        Ok(CoordinatorListener {
            listener: TcpListener::bind(addr)?,
            params,
        })
    }

    /// The bound control address (workers connect here).
    pub fn local_addr(&self) -> io::Result<String> {
        Ok(self.listener.local_addr()?.to_string())
    }

    /// Accepts `count` workers: collects every `Hello`, assigns ranks in
    /// connection order, then broadcasts the peer table so data planes can
    /// mesh.
    pub fn accept_workers(self, count: usize) -> io::Result<Coordinator> {
        let mut workers = Vec::with_capacity(count);
        let mut data_addrs = Vec::with_capacity(count);
        for _ in 0..count {
            let (stream, _) = self.listener.accept()?;
            let conn = FramedConn::new(stream)?;
            match conn.recv()? {
                Some(Ctrl::Hello { data_addr }) => {
                    data_addrs.push(data_addr);
                    workers.push(conn);
                }
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("expected Hello from worker, got {other:?}"),
                    ));
                }
            }
        }
        for (rank, conn) in workers.iter().enumerate() {
            conn.send(&Ctrl::Peers {
                rank: rank as u32,
                data_addrs: data_addrs.clone(),
                params: self.params,
            })?;
        }
        Ok(Coordinator {
            workers,
            partitions: self.params.partitions as usize,
            epoch: 0,
            next_job: 0,
        })
    }
}

/// A connected cluster: one control link per worker, ready to load inputs
/// and run jobs.
#[derive(Debug)]
pub struct Coordinator {
    workers: Vec<FramedConn>,
    partitions: usize,
    epoch: u64,
    next_job: u64,
}

impl Coordinator {
    /// Round-robin partitions `rows` and ships each rank the full-length
    /// partition vector with only its owned contiguous slots populated —
    /// exactly the layout the in-process engine builds, so plans and
    /// shuffles agree byte for byte.
    fn ship(&self, kind: LoadKind, name: &str, rows: Vec<Value>) -> io::Result<()> {
        let parts = split_rows_round_robin(rows, self.partitions);
        let ranks = self.workers.len();
        for (rank, conn) in self.workers.iter().enumerate() {
            let mut owned: Vec<Vec<Value>> = vec![Vec::new(); self.partitions];
            for slot in owned_range(rank, self.partitions, ranks) {
                owned[slot] = parts[slot].clone();
            }
            conn.send(&Ctrl::Load {
                kind,
                name: name.to_string(),
                parts: owned,
            })?;
        }
        Ok(())
    }

    /// Loads a flat relation into every rank (both routes).
    pub fn load_flat(&self, name: &str, rows: Vec<Value>) -> io::Result<()> {
        self.ship(LoadKind::Flat, name, rows)
    }

    /// Loads a nested relation: the nested form for the standard routes and
    /// the shredded form (top bag + dictionaries) for the shredded routes.
    pub fn load_nested(&self, name: &str, rows: Bag) -> io::Result<()> {
        let shredded =
            shred_value(&rows).map_err(|e| io::Error::other(format!("shredding {name}: {e}")))?;
        self.ship(LoadKind::Nested, name, rows.into_items())?;
        self.ship(
            LoadKind::Shredded,
            &flat_input_name(name),
            shredded.top.into_items(),
        )?;
        for (path, bag) in shredded.dicts {
            self.ship(
                LoadKind::Shredded,
                &input_dict_name(name, &path),
                bag.into_items(),
            )?;
        }
        Ok(())
    }

    /// Runs one job to completion, retrying transient failures on fresh
    /// mesh epochs up to [`MAX_JOB_ATTEMPTS`].
    pub fn run(&mut self, spec: &JobSpec) -> Result<JobReport, ExecError> {
        let job = self.next_job;
        self.next_job += 1;
        let query_text = pretty(&spec.query);
        let mut last_detail = String::new();

        for attempt in 0..MAX_JOB_ATTEMPTS {
            self.epoch += 1;
            let msg = Ctrl::Run {
                epoch: self.epoch,
                job,
                attempt,
                strategy: spec.strategy.label().to_string(),
                query: query_text.clone(),
                decls: spec.decls.clone(),
                deadline_ms: spec.deadline_ms,
                drop: spec.chaos.filter(|_| attempt == 0),
            };
            for conn in &self.workers {
                conn.send(&msg)
                    .map_err(|e| ExecError::Other(format!("worker control link failed: {e}")))?;
            }

            match self.collect_attempt(job, attempt)? {
                AttemptResult::Done(mut rows_per_rank, stats) => {
                    let mut rows = Vec::new();
                    for rank_rows in &mut rows_per_rank {
                        rows.append(rank_rows);
                    }
                    return Ok(JobReport {
                        rows: Bag::new(rows),
                        stats,
                        attempts: attempt + 1,
                    });
                }
                AttemptResult::Failed { kind, detail } => match kind {
                    ErrKind::Cancelled => {
                        return Err(ExecError::Cancelled { reason: detail });
                    }
                    ErrKind::Fatal => {
                        return Err(ExecError::Other(detail));
                    }
                    ErrKind::Retryable => {
                        eprintln!(
                            "coordinator: job {job} attempt {attempt} failed \
                             ({detail}); retrying on a fresh mesh"
                        );
                        last_detail = detail;
                    }
                },
            }
        }
        Err(ExecError::Retryable {
            detail: format!("job {job} failed after {MAX_JOB_ATTEMPTS} attempts: {last_detail}"),
        })
    }

    /// Waits for every rank's `Result` for `(job, attempt)`, accumulating
    /// its `Rows` chunks. Stale frames from older attempts are discarded.
    fn collect_attempt(&self, job: u64, attempt: u32) -> Result<AttemptResult, ExecError> {
        let mut rows_per_rank: Vec<Vec<Value>> = vec![Vec::new(); self.workers.len()];
        let mut stats = NetStats::default();
        let mut failure: Option<(ErrKind, String)> = None;
        for (rank, conn) in self.workers.iter().enumerate() {
            loop {
                let msg = conn.recv().map_err(|e| {
                    ExecError::Other(format!("worker {rank} control link failed: {e}"))
                })?;
                match msg {
                    Some(Ctrl::Rows {
                        job: j,
                        attempt: a,
                        mut rows,
                    }) if j == job && a == attempt => {
                        rows_per_rank[rank].append(&mut rows);
                    }
                    Some(Ctrl::Result {
                        job: j,
                        attempt: a,
                        outcome,
                    }) if j == job && a == attempt => {
                        match outcome {
                            Outcome::Ok(s) => stats.absorb(&s),
                            Outcome::Err { kind, detail } => {
                                // Keep the most decisive failure: Cancelled
                                // and Fatal outrank Retryable.
                                let decisive = !matches!(kind, ErrKind::Retryable);
                                if failure.is_none()
                                    || (decisive
                                        && matches!(failure, Some((ErrKind::Retryable, _))))
                                {
                                    failure = Some((kind, format!("rank {rank}: {detail}")));
                                }
                            }
                        }
                        break;
                    }
                    // Stale chunk or result from an aborted attempt.
                    Some(Ctrl::Rows { .. }) | Some(Ctrl::Result { .. }) => {}
                    Some(other) => {
                        return Err(ExecError::Other(format!(
                            "unexpected control message from rank {rank}: {other:?}"
                        )));
                    }
                    None => {
                        return Err(ExecError::Other(format!(
                            "worker {rank} control connection closed mid-job"
                        )));
                    }
                }
            }
        }
        Ok(match failure {
            None => AttemptResult::Done(rows_per_rank, stats),
            Some((kind, detail)) => AttemptResult::Failed { kind, detail },
        })
    }

    /// Asks every worker to exit its serve loop.
    pub fn shutdown(&mut self) {
        for conn in &self.workers {
            let _ = conn.send(&Ctrl::Shutdown);
        }
    }
}

enum AttemptResult {
    Done(Vec<Vec<Value>>, NetStats),
    Failed { kind: ErrKind, detail: String },
}
