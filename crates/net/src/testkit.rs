//! True multi-process clusters for the test suites and the benchmark: one
//! worker process per rank — the shipped `trance-worker` ([`spawn_cluster`])
//! or a re-execution of the current binary ([`spawn_self_cluster`]) — meshed
//! under a freshly bound coordinator over real sockets.

use std::io;
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::Duration;

use crate::coordinator::{Coordinator, CoordinatorListener};
use crate::msg::ClusterParams;

/// A coordinator plus the worker child processes it controls.
#[derive(Debug)]
pub struct LocalCluster {
    /// The connected coordinator.
    pub coordinator: Coordinator,
    workers: Vec<Child>,
}

/// Starts `ranks` processes of the worker binary at `worker`, each run as
/// `worker --connect ADDR`, meshed under a freshly bound coordinator.
pub fn spawn_cluster(
    worker: &Path,
    ranks: usize,
    params: ClusterParams,
) -> io::Result<LocalCluster> {
    spawn_cluster_with(worker, ranks, params, |rank, addr| {
        rank.arg("--connect").arg(addr);
    })
}

/// Spawns `ranks` copies of the current executable as workers and meshes
/// them under a freshly bound coordinator. Each child sees `env_var` set to
/// the coordinator address; the caller's `main` must check that variable
/// first and divert into [`crate::worker::serve`].
pub fn spawn_self_cluster(
    env_var: &str,
    ranks: usize,
    params: ClusterParams,
) -> io::Result<LocalCluster> {
    spawn_cluster_with(&std::env::current_exe()?, ranks, params, |rank, addr| {
        rank.env(env_var, addr);
    })
}

/// The body of both spawns: binds a coordinator, starts `ranks` children
/// of `program`, each configured by `configure(command, coordinator
/// address)`, and accepts their registrations. A child that exits before
/// the cluster has formed fails the spawn with an error naming it and its
/// exit status, instead of leaving the coordinator waiting for it forever.
pub fn spawn_cluster_with(
    program: &Path,
    ranks: usize,
    params: ClusterParams,
    configure: impl Fn(&mut Command, &str),
) -> io::Result<LocalCluster> {
    let listener = CoordinatorListener::bind("127.0.0.1:0", params)?;
    let addr = listener.local_addr()?;
    let mut workers = Vec::with_capacity(ranks);
    let formed = (|| {
        for _ in 0..ranks {
            let mut command = Command::new(program);
            configure(&mut command, &addr);
            workers.push(command.stdin(Stdio::null()).spawn()?);
        }
        accept_while_alive(listener, &addr, &mut workers)
    })();
    if formed.is_err() {
        reap(&mut workers);
    }
    Ok(LocalCluster {
        coordinator: formed?,
        workers,
    })
}

/// Accepts the registrations on a helper thread, polling the children 1 ms apart.
fn accept_while_alive(
    listener: CoordinatorListener,
    addr: &str,
    workers: &mut [Child],
) -> io::Result<Coordinator> {
    let ranks = workers.len();
    let (tx, rx) = mpsc::channel();
    thread::scope(|scope| {
        thread::Builder::new()
            .name("trance-net-accept".into())
            .spawn_scoped(scope, move || tx.send(listener.accept_workers(ranks)))?;
        loop {
            match rx.recv_timeout(Duration::from_millis(1)) {
                Ok(accepted) => return accepted,
                Err(RecvTimeoutError::Timeout) => {}
                Err(e) => return Err(io::Error::other(e)),
            }
            for (i, child) in workers.iter_mut().enumerate() {
                let failed = match child.try_wait() {
                    Ok(None) => continue,
                    Ok(Some(status)) => io::Error::other(format!(
                        "worker process {i} of {ranks} exited before the cluster formed ({status})"
                    )),
                    Err(e) => e,
                };
                // A connection that closes without a `Hello` ends the
                // helper's `accept_workers`, so the scope can join it.
                let _ = TcpStream::connect(addr);
                return Err(failed);
            }
        }
    })
}

fn reap(workers: &mut Vec<Child>) {
    for child in workers.iter_mut() {
        let _ = child.kill();
        let _ = child.wait();
    }
    workers.clear();
}

impl LocalCluster {
    /// Orderly teardown: ask every worker to exit, then reap the children.
    pub fn shutdown(&mut self) {
        self.coordinator.shutdown();
        for child in &mut self.workers {
            let _ = child.wait();
        }
        self.workers.clear();
    }
}

impl Drop for LocalCluster {
    fn drop(&mut self) {
        // If shutdown was skipped (a failing test), don't leak processes.
        reap(&mut self.workers);
    }
}
