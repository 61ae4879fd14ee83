//! One run of one workload: set-up, checks, the timed sweeps and the
//! end-to-end metrics (tracing off), or the traced passes and the per-layer
//! metrics (tracing on).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::metrics::MetricSet;
use crate::probes;
use crate::stats::fast_decile;
use crate::workload::{
    oracle_check, reference_sum, sum_matches, Bench, Checks, OpRun, Workload, STRATEGIES,
};
use trance_nrc::{bags_approx_equal, Bag};

/// How often the untraced run sets up; `setup_s` is the fastest.
const SETUPS: usize = 4;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: &'static Workload,
    /// Goes into `TpchConfig.seed` and nowhere else.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    pub trace: bool,
    /// Scale 0.05 and two timed sweeps: the self-test's size.
    pub quick: bool,
    /// Self-test: perturb one price of the hash-map reference, so that the
    /// sum check must fail.
    pub corrupt_reference: bool,
    /// Where traces and spill files go (inside the checkout).
    pub out_dir: PathBuf,
}

impl RunConfig {
    pub fn scale(&self) -> f64 {
        if self.quick {
            self.workload.oracle_scale()
        } else {
            self.workload.scale
        }
    }

    pub fn spill_dir(&self) -> PathBuf {
        self.out_dir.join("spill")
    }
}

#[derive(Debug, Clone)]
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: MetricSet,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// What the warm-up sweep established: every later op of a strategy must
/// repeat its row counts and its logical shuffle bytes exactly.
#[derive(Debug, Clone, Default)]
pub struct WarmUp {
    pub rows: Vec<Vec<usize>>,
    pub shuffle_bytes: Vec<u64>,
}

impl WarmUp {
    pub fn repeats(&self, strategy_index: usize, op: &OpRun) -> bool {
        let rows: Vec<usize> = op.outputs.iter().map(|o| o.rows()).collect();
        rows == self.rows[strategy_index] && op.shuffle_bytes == self.shuffle_bytes[strategy_index]
    }

    /// Logical shuffle volume of one sweep of the seven strategies.
    pub fn sweep_shuffle_mib(&self) -> f64 {
        self.shuffle_bytes.iter().sum::<u64>() as f64 / (1024.0 * 1024.0)
    }
}

/// Sets the workload up once: data, nested input, route, and the oracle
/// check at small scale. Returns the bench, the checks and the wall.
pub fn set_up(cfg: &RunConfig) -> Result<(Bench, Checks, Duration), String> {
    let t0 = Instant::now();
    let bench = Bench::build(cfg.workload, cfg.scale(), cfg.seed, &cfg.spill_dir())?;
    let checks = oracle_check(cfg.workload, cfg.seed, &cfg.spill_dir())?;
    Ok((bench, checks, t0.elapsed()))
}

/// The warm-up sweep, checked at full scale: all strategies agree with each
/// other, and every output's leaf sum equals the hash-map reference.
pub fn warm_up(cfg: &RunConfig, bench: &mut Bench, checks: &mut Checks) -> Result<WarmUp, String> {
    let mut references = Vec::with_capacity(bench.queries.len());
    for q in &bench.queries {
        references.push(reference_sum(&bench.data, q.family, cfg.corrupt_reference)?);
    }
    let mut warm = WarmUp::default();
    let mut first: Option<Vec<Bag>> = None;
    for (strategy, _) in STRATEGIES {
        let op = match bench.run_op(strategy) {
            Ok(op) => op,
            Err(e) => {
                eprintln!("warm-up {} failed: {e}", strategy.label());
                checks.record(false);
                warm.rows.push(Vec::new());
                warm.shuffle_bytes.push(0);
                continue;
            }
        };
        let mut bags = Vec::with_capacity(op.outputs.len());
        for output in &op.outputs {
            bags.push(output.bag()?);
        }
        let agree = match &first {
            Some(base) => base.iter().zip(&bags).all(|(a, b)| bags_approx_equal(a, b)),
            None => true,
        };
        let sums = bags
            .iter()
            .zip(&bench.queries)
            .zip(&references)
            .all(|((bag, q), reference)| sum_matches(bag, q.family, *reference));
        if !agree || !sums {
            eprintln!(
                "warm-up {}: agrees with {} = {agree}, sums match reference = {sums}",
                strategy.label(),
                STRATEGIES[0].0.label()
            );
        }
        checks.record(agree && sums);
        warm.rows
            .push(op.outputs.iter().map(|o| o.rows()).collect());
        warm.shuffle_bytes.push(op.shuffle_bytes);
        first.get_or_insert(bags);
    }
    Ok(warm)
}

/// One sweep: every strategy once, starting at `start` so that no strategy
/// always runs right after the same neighbour. Returns each completed op
/// with its strategy's index; a failed or non-repeating op counts as failed.
/// Outputs are checked and dropped before the next op starts, so no op runs
/// against the memory of its predecessors' results.
pub fn sweep(
    bench: &mut Bench,
    warm: &WarmUp,
    start: usize,
    checks: &mut Checks,
) -> Vec<(usize, OpRun)> {
    let mut ops = Vec::with_capacity(STRATEGIES.len());
    for k in 0..STRATEGIES.len() {
        let i = (start + k) % STRATEGIES.len();
        match bench.run_op(STRATEGIES[i].0) {
            Ok(mut op) => {
                checks.record(warm.repeats(i, &op));
                op.outputs.clear();
                ops.push((i, op));
            }
            Err(e) => {
                eprintln!("{} failed: {e}", STRATEGIES[i].0.label());
                checks.record(false);
            }
        }
    }
    ops
}

/// The timed sweeps of the untraced run and the end-to-end metrics.
fn timed_run(
    cfg: &RunConfig,
    bench: &mut Bench,
    warm: &WarmUp,
    checks: &mut Checks,
    setup_s: &[f64],
) -> MetricSet {
    let mut walls_ms: Vec<Vec<f64>> = vec![Vec::new(); STRATEGIES.len()];
    let started = Instant::now();
    let mut sweeps = 0;
    loop {
        for (i, op) in sweep(bench, warm, sweeps % STRATEGIES.len(), checks) {
            walls_ms[i].push(op.wall.as_secs_f64() * 1e3);
        }
        sweeps += 1;
        let done = if cfg.quick {
            sweeps >= 2
        } else {
            started.elapsed().as_secs_f64() >= cfg.seconds
        };
        if done {
            break;
        }
    }
    let mut metrics = MetricSet::default();
    metrics.set_fast("setup_s", setup_s);
    for ((_, name), walls) in STRATEGIES.iter().zip(&walls_ms) {
        metrics.set_fast(name, walls);
    }
    // Ops per second of op wall over one sweep, each op at its fast decile —
    // a mean over all op walls would carry the box's slow phases.
    let sweep_s: f64 = walls_ms.iter().map(|w| fast_decile(w)).sum::<f64>() / 1e3;
    metrics.set("queries_per_s", STRATEGIES.len() as f64 / sweep_s);
    metrics.set("shuffle_mib", warm.sweep_shuffle_mib());
    metrics.set("peak_rss_mib", bench.peak_rss_kib() as f64 / 1024.0);
    metrics
}

pub fn run(cfg: &RunConfig) -> Result<RunReport, String> {
    let mut checks = Checks::default();
    let mut setup_s = Vec::new();
    let mut bench: Option<Bench> = None;
    for _ in 0..if cfg.trace { 1 } else { SETUPS } {
        // The previous set-up goes first: two TCP clusters at once would
        // put more threads in flight than the box has cores.
        if let Some(mut old) = bench.take() {
            old.shutdown();
        }
        let (b, oracle, wall) = set_up(cfg)?;
        checks.absorb(oracle);
        setup_s.push(wall.as_secs_f64());
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up");
    let warm = warm_up(cfg, &mut bench, &mut checks)?;

    let metrics = if cfg.trace {
        probes::traced_run(cfg, &mut bench, &warm, &mut checks)?
    } else {
        timed_run(cfg, &mut bench, &warm, &mut checks, &setup_s)
    };
    bench.shutdown();
    Ok(RunReport {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
    })
}
