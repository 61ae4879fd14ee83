//! Engine metrics: shuffle / broadcast volume, join strategy counters and
//! per-operator wall-clock timings.
//!
//! A [`Stats`] instance lives inside the [`crate::DistContext`] and is shared
//! (lock-free for the hot counters) by every operator executed under that
//! context. Benchmark harnesses call [`Stats::reset`] before a run and
//! [`Stats::snapshot`] after it; the resulting [`StatsSnapshot`] is a plain
//! value that can be stored, compared and serialized.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Locks a mutex, recovering the guard when a worker panicked while holding
/// it. Every state the engine guards this way — the label-keyed maps here (a
/// few independent counter additions on one entry), a cancel reason, the
/// spill-manager slot — is valid at every step, and a resident engine must
/// survive one query's panic instead of panicking again at the next query's
/// [`Stats::reset`].
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Which physical strategy a join execution took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Both sides hash-partitioned by key, per-partition hash join.
    Shuffle,
    /// One side small enough to replicate to every worker.
    Broadcast,
    /// Skew path: heavy keys joined by broadcasting the matching rows of the
    /// other side (Section 5).
    SkewBroadcast,
    /// Skew path: the heavy keys' matching rows exceeded the broadcast
    /// limit, so every row shipped in one plain shuffle join.
    SkewFallback,
}

/// Aggregated calls/time of one operator kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpTiming {
    /// Number of operator executions.
    pub calls: u64,
    /// Total wall-clock microseconds across those executions.
    pub micros: u64,
}

/// Aggregated executions of one **fused pipeline** shape: how often it ran,
/// how many morsels it drove, its total wall-clock time, and the member
/// operators it fused — so `--explain` and `op_ms` stay truthful about where
/// operator time went once operators no longer run (or are timed) one at a
/// time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineTiming {
    /// Number of pipeline executions.
    pub calls: u64,
    /// Total morsels driven across those executions.
    pub morsels: u64,
    /// Total wall-clock microseconds across those executions.
    pub micros: u64,
    /// The fused member operators, in execution order (source side first).
    pub ops: Vec<String>,
}

/// Aggregated compilations of one expression kernel program: how often the
/// program was (re)compiled, how many SSA instructions it holds, the
/// wall-clock compile time, and its rendered instruction listing — so
/// `--explain` can show the compiled program per pipeline and regressions in
/// compile overhead stay visible. A healthy run compiles once per pipeline
/// execution, never per morsel.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExprProgramStat {
    /// Number of compilations recorded under this label.
    pub compiles: u64,
    /// Total kernel instructions across those compilations.
    pub instrs: u64,
    /// Total wall-clock microseconds spent compiling.
    pub micros: u64,
    /// The rendered instruction listing (first compilation wins; later
    /// programs under the same label are counted but not re-rendered).
    pub text: String,
}

/// Declares the scalar counters, once: the atomic behind each, its line in
/// [`Stats::reset`] and [`Stats::snapshot`] and its documented public
/// [`StatsSnapshot`] field all expand from this table, so a new counter is one
/// entry here (plus the `record_*` that feeds it) and cannot miss its reset.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Shared, thread-safe metric accumulators of one [`crate::DistContext`].
        #[derive(Default)]
        pub struct Stats {
            $($name: AtomicU64,)*
            timings: Mutex<BTreeMap<String, OpTiming>>,
            pipelines: Mutex<BTreeMap<String, PipelineTiming>>,
            expr_programs: Mutex<BTreeMap<String, ExprProgramStat>>,
        }

        /// A point-in-time copy of the engine metrics.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $($(#[$doc])* pub $name: u64,)*
            /// Per-operator call counts and wall-clock time. Fused pipelines appear
            /// here under their `pipeline[...]` label, never under a member
            /// operator's name.
            pub op_timings: BTreeMap<String, OpTiming>,
            /// Per-pipeline executions: morsel counts, wall-clock time and the
            /// member operators each fused shape ran.
            pub pipeline_timings: BTreeMap<String, PipelineTiming>,
            /// Per-pipeline compiled expression kernel programs: compile counts,
            /// instruction counts and the rendered instruction listing (shown by
            /// `--explain`).
            pub expr_programs: BTreeMap<String, ExprProgramStat>,
        }

        impl Stats {
            /// Zeroes every counter and timing.
            pub fn reset(&self) {
                $(self.$name.store(0, Ordering::Relaxed);)*
                lock(&self.timings).clear();
                lock(&self.pipelines).clear();
                lock(&self.expr_programs).clear();
            }

            /// Copies the current counters into a plain value.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                    op_timings: lock(&self.timings).clone(),
                    pipeline_timings: lock(&self.pipelines).clone(),
                    expr_programs: lock(&self.expr_programs).clone(),
                }
            }
        }
    };
}

counters! {
    /// Rows moved through shuffles.
    shuffled_tuples,
    /// Logical (row-equivalent `Value::mem_size`) bytes moved through
    /// shuffles — comparable across representations.
    shuffled_bytes,
    /// Exact physical buffer bytes moved through shuffles (schema and string
    /// dictionaries counted once per batch on the columnar path; equal to
    /// `shuffled_bytes` on the row path).
    shuffled_bytes_phys,
    /// Breaker inputs that were already hashed the way the breaker would
    /// have routed them, so their shuffle did not run (and booked nothing
    /// above).
    shuffles_in_place,
    /// Rows replicated by broadcasts (counted once per receiving worker).
    broadcast_tuples,
    /// Logical (row-equivalent) bytes replicated by broadcasts.
    broadcast_bytes,
    /// Exact physical buffer bytes replicated by broadcasts.
    broadcast_bytes_phys,
    /// Joins executed as partitioned shuffle hash joins.
    shuffle_joins,
    /// Joins executed by broadcasting the small side.
    broadcast_joins,
    /// Skew-aware joins whose heavy part used the broadcast strategy.
    skew_broadcast_joins,
    /// Skew-aware joins that fell back to one plain shuffle join.
    skew_fallback_joins,
    /// Bytes written to spill files (frame payloads plus prefixes).
    spilled_bytes,
    /// Spill files created during the run.
    spill_files,
    /// Wall-clock microseconds spent on spill encode/write/read/decode.
    spill_micros,
    /// Tasks executed by a pool participant other than the one they were
    /// assigned to (work-stealing events).
    steal_count,
    /// Always 0: no operator retries in process. A multi-process job that
    /// is rerun on a fresh mesh reports its attempts as the coordinator's
    /// `JobReport::attempts`. Kept because the benchmark reads it as
    /// `dist.retries`.
    retries,
    /// 1 when the run was cancelled (explicitly or by deadline), else 0.
    cancelled,
    /// Wall-clock microseconds spent compiling expression kernel programs
    /// (once per pipeline, never per morsel).
    expr_compile_micros,
    /// Total SSA instructions across all compiled expression kernel
    /// programs.
    expr_kernel_instrs,
}

impl Stats {
    /// Creates a zeroed metric set.
    pub fn new() -> Self {
        Stats::default()
    }

    /// Meters rows moving through a shuffle (repartition-by-key).
    ///
    /// `bytes` is the *logical* volume — `Σ Value::mem_size` of the rows,
    /// what they would ship as heap values, independent of how a batch
    /// encodes them. `phys_bytes` is the *exact physical* buffer volume
    /// actually shipped: the batch buffer size with the schema and string
    /// dictionaries counted once per batch.
    pub fn record_shuffle(&self, tuples: u64, bytes: u64, phys_bytes: u64) {
        self.shuffled_tuples.fetch_add(tuples, Ordering::Relaxed);
        self.shuffled_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.shuffled_bytes_phys
            .fetch_add(phys_bytes, Ordering::Relaxed);
    }

    /// Counts one shuffle that did not run because its input was in place.
    pub fn record_shuffle_in_place(&self) {
        self.shuffles_in_place.fetch_add(1, Ordering::Relaxed);
    }

    /// Meters a dataset replicated to every worker. `bytes` / `phys_bytes`
    /// follow the same logical-vs-physical split as
    /// [`Stats::record_shuffle`].
    pub fn record_broadcast(&self, tuples: u64, bytes: u64, phys_bytes: u64) {
        self.broadcast_tuples.fetch_add(tuples, Ordering::Relaxed);
        self.broadcast_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.broadcast_bytes_phys
            .fetch_add(phys_bytes, Ordering::Relaxed);
    }

    /// Counts which physical strategy a join execution took.
    pub fn record_join(&self, strategy: JoinStrategy) {
        let counter = match strategy {
            JoinStrategy::Shuffle => &self.shuffle_joins,
            JoinStrategy::Broadcast => &self.broadcast_joins,
            JoinStrategy::SkewBroadcast => &self.skew_broadcast_joins,
            JoinStrategy::SkewFallback => &self.skew_fallback_joins,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Meters bytes written to spill files (`bytes`), the number of spill
    /// files created (`files`), and wall-clock time spent encoding, writing,
    /// reading or decoding spill frames (`elapsed`). The spill subsystem
    /// calls this from both the write and the read side, so `spill_ms` is
    /// the run's total out-of-core I/O time.
    pub fn record_spill(&self, bytes: u64, files: u64, elapsed: Duration) {
        self.spilled_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.spill_files.fetch_add(files, Ordering::Relaxed);
        self.spill_micros
            .fetch_add(elapsed.as_micros() as u64, Ordering::Relaxed);
    }

    /// Adds one execution of operator `op` taking `elapsed`.
    pub fn record_op(&self, op: &str, elapsed: Duration) {
        let mut timings = lock(&self.timings);
        let entry = timings.entry(op.to_string()).or_default();
        entry.calls += 1;
        entry.micros += elapsed.as_micros() as u64;
    }

    /// Counts work-stealing events of the persistent worker pool.
    pub fn record_steals(&self, steals: u64) {
        self.steal_count.fetch_add(steals, Ordering::Relaxed);
    }

    /// Records that the run was cancelled (explicitly or by deadline).
    pub fn record_cancelled(&self) {
        self.cancelled.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds one execution of a fused pipeline under `label` (e.g.
    /// `pipeline[scan+select+project]`) that drove `morsels` morsels across
    /// its `ops` member operators in `elapsed`. The pipeline is mirrored
    /// into the per-operator timings under the same label — fused time is
    /// attributed to the *pipeline with its member list*, never lumped into
    /// a single member operator's bucket.
    pub fn record_pipeline(&self, label: &str, ops: &[String], morsels: u64, elapsed: Duration) {
        let micros = elapsed.as_micros() as u64;
        {
            let mut pipelines = lock(&self.pipelines);
            let entry = pipelines.entry(label.to_string()).or_default();
            entry.calls += 1;
            entry.morsels += morsels;
            entry.micros += micros;
            if entry.ops.is_empty() {
                entry.ops = ops.to_vec();
            }
        }
        let mut timings = lock(&self.timings);
        let entry = timings.entry(label.to_string()).or_default();
        entry.calls += 1;
        entry.micros += micros;
    }

    /// Records one compilation of an expression kernel program under `label`
    /// (the fused pipeline's label plus `#k<i>`, its i-th program): `instrs`
    /// SSA instructions compiled in `elapsed`, with `text` the rendered
    /// instruction listing. Called once per pipeline compilation — the
    /// scheduler tests assert the compile count never scales with morsels.
    pub fn record_expr_compile(&self, label: &str, instrs: u64, elapsed: Duration, text: &str) {
        let micros = elapsed.as_micros() as u64;
        self.expr_compile_micros
            .fetch_add(micros, Ordering::Relaxed);
        self.expr_kernel_instrs.fetch_add(instrs, Ordering::Relaxed);
        let mut programs = lock(&self.expr_programs);
        let entry = programs.entry(label.to_string()).or_default();
        entry.compiles += 1;
        entry.instrs += instrs;
        entry.micros += micros;
        if entry.text.is_empty() {
            entry.text = text.to_string();
        }
    }
}

impl fmt::Debug for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Stats({:?})", self.snapshot())
    }
}

impl StatsSnapshot {
    /// Shuffled volume in mebibytes.
    pub fn shuffled_mib(&self) -> f64 {
        self.shuffled_bytes as f64 / (1024.0 * 1024.0)
    }

    /// Spill I/O time in milliseconds.
    pub fn spill_ms(&self) -> f64 {
        self.spill_micros as f64 / 1000.0
    }

    /// Expression-kernel compile time in milliseconds.
    pub fn expr_compile_ms(&self) -> f64 {
        self.expr_compile_micros as f64 / 1000.0
    }

    /// Total expression-kernel compilations across all pipelines.
    pub fn expr_compiles(&self) -> u64 {
        self.expr_programs.values().map(|p| p.compiles).sum()
    }

    /// Total wall-clock milliseconds spent inside fused pipelines.
    pub fn pipeline_ms(&self) -> f64 {
        self.pipeline_timings
            .values()
            .map(|p| p.micros)
            .sum::<u64>() as f64
            / 1000.0
    }

    /// Total morsels driven across all fused pipelines.
    pub fn total_morsels(&self) -> u64 {
        self.pipeline_timings.values().map(|p| p.morsels).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panic_under_a_stats_lock_does_not_poison_later_queries() {
        let stats = Stats::new();
        stats.record_op("map", Duration::from_micros(42));
        std::thread::scope(|s| {
            let worker = s.spawn(|| {
                let _timings = stats.timings.lock().unwrap();
                let _pipelines = stats.pipelines.lock().unwrap();
                let _programs = stats.expr_programs.lock().unwrap();
                panic!("worker panics while recording");
            });
            assert!(worker.join().is_err());
        });
        assert!(stats.timings.is_poisoned());
        stats.record_op("map", Duration::from_micros(8));
        stats.record_pipeline("p", &["select".to_string()], 1, Duration::from_micros(5));
        stats.record_expr_compile("p", 3, Duration::from_micros(2), "r0 = col a");
        let snap = stats.snapshot();
        assert_eq!(snap.op_timings["map"].calls, 2);
        assert_eq!(snap.pipeline_timings["p"].morsels, 1);
        assert_eq!(snap.expr_programs["p"].instrs, 3);
        stats.reset();
        assert!(stats.snapshot().op_timings.is_empty());
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let stats = Stats::new();
        stats.record_shuffle(10, 1000, 400);
        stats.record_shuffle(5, 500, 200);
        stats.record_broadcast(3, 300, 120);
        stats.record_join(JoinStrategy::Shuffle);
        stats.record_join(JoinStrategy::SkewBroadcast);
        stats.record_op("map", Duration::from_micros(42));
        let snap = stats.snapshot();
        assert_eq!(snap.shuffled_tuples, 15);
        assert_eq!(snap.shuffled_bytes, 1500);
        assert_eq!(snap.shuffled_bytes_phys, 600);
        assert_eq!(snap.broadcast_bytes, 300);
        assert_eq!(snap.broadcast_bytes_phys, 120);
        assert_eq!(snap.shuffle_joins, 1);
        assert_eq!(snap.skew_broadcast_joins, 1);
        assert_eq!(snap.op_timings["map"].calls, 1);
        stats.reset();
        assert_eq!(stats.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn pipeline_attribution_keeps_member_ops_and_never_lumps_into_one_op() {
        let stats = Stats::new();
        let ops = vec!["scan".to_string(), "select".to_string(), "map".to_string()];
        stats.record_pipeline(
            "pipeline[scan+select+map]",
            &ops,
            7,
            Duration::from_micros(1500),
        );
        stats.record_pipeline(
            "pipeline[scan+select+map]",
            &ops,
            5,
            Duration::from_micros(500),
        );
        stats.record_steals(3);
        let snap = stats.snapshot();
        let p = &snap.pipeline_timings["pipeline[scan+select+map]"];
        assert_eq!(p.calls, 2);
        assert_eq!(p.morsels, 12);
        assert_eq!(p.micros, 2000);
        assert_eq!(p.ops, ops, "the member operator list must be reported");
        assert_eq!(snap.total_morsels(), 12);
        assert!((snap.pipeline_ms() - 2.0).abs() < 1e-9);
        assert_eq!(snap.steal_count, 3);
        // Fused time shows up under the pipeline label, not under any single
        // member operator's bucket.
        assert_eq!(snap.op_timings["pipeline[scan+select+map]"].micros, 2000);
        assert!(!snap.op_timings.contains_key("select"));
        assert!(!snap.op_timings.contains_key("map"));
    }
}
