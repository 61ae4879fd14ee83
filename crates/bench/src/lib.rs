//! # trance-bench
//!
//! The paper-reproduction harness: three binaries that regenerate the
//! figures of the paper's evaluation (Section 6) on the simulated cluster.
//!
//! * `figure7` — the TPC-H micro-benchmark: flat-to-nested, nested-to-nested
//!   and nested-to-flat queries at nesting depths 0–4, narrow and wide
//!   (Figure 7a / 7b);
//! * `figure8` — the skew experiment: nested-to-nested narrow at depth 2 for
//!   skew factors 0–4, with and without skew-aware operators (Figure 8);
//! * `figure9` — the biomedical end-to-end pipeline, per step, small and full
//!   datasets (Figure 9).
//!
//! Each binary prints a table with one line per configuration: runtime in
//! milliseconds (or `FAIL` when the run exceeded the simulated per-worker
//! memory cap) and shuffled mebibytes per strategy. What those tables must
//! show — which cells FAIL and complete once spilling is on, who ships fewer
//! bytes than whom — is asserted by `tests/paper_cells.rs`.
//!
//! The binaries show the paper's *shape*; they are not how a change's speed
//! is judged. That is the repo benchmark's job (`benchmark/run.sh`, declared
//! in `BENCHMARK.json`): repeated, warmed-up runs of six workloads with
//! per-layer probes.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

use trance_dist::FaultPlan;

pub mod harness;

pub use harness::{
    explain_biomed_pipeline, observe_biomed_pipeline, run_biomed_pipeline_tuned, run_strategies,
    run_tpch_query, tpch_input_set_tuned, BenchRow, ClusterTuning, Family, PipelineRow,
};

/// The command line of a figure binary. Every way of getting it wrong — an
/// unknown flag, a flag without its value, a value that does not parse — is
/// a usage error: the offending flag and the binary's usage line go to
/// stderr and the process exits with status 2.
#[derive(Debug)]
pub struct Cli {
    usage: &'static str,
    args: Vec<String>,
}

impl Cli {
    /// The process's command line. `usage` is the binary's usage line; it
    /// doubles as the list of flags the binary knows, so a `--flag` it does
    /// not mention is rejected (`--fault 42` must not run fault-free).
    pub fn from_env(usage: &'static str) -> Cli {
        let cli = Cli {
            usage,
            args: std::env::args().skip(1).collect(),
        };
        cli.or_exit(cli.check_flags());
        cli
    }

    fn check_flags(&self) -> Result<(), String> {
        let known = |flag: &str| {
            self.usage
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .any(|word| word == flag)
        };
        match self.args.iter().find(|a| a.starts_with("--") && !known(a)) {
            Some(unknown) => Err(format!("unknown flag `{unknown}`")),
            None => Ok(()),
        }
    }

    /// The value following `name`, read by `parse`; `Ok(None)` when the flag
    /// is absent. The error names the flag and the rejected value.
    fn lookup<T>(
        &self,
        name: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        let Some(at) = self.args.iter().position(|a| a == name) else {
            return Ok(None);
        };
        let raw = self
            .args
            .get(at + 1)
            .ok_or_else(|| format!("`{name}` needs a value"))?;
        parse(raw)
            .map(Some)
            .map_err(|e| format!("`{name} {raw}`: {e}"))
    }

    fn or_exit<T>(&self, parsed: Result<T, String>) -> T {
        parsed.unwrap_or_else(|e| {
            eprintln!("error: {e}\nusage: {}", self.usage);
            std::process::exit(2)
        })
    }

    /// True when `name` appears on the command line.
    pub fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// The value following `name` as read by `parse`, if the flag is present.
    pub fn value_with<T>(
        &self,
        name: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Option<T> {
        self.or_exit(self.lookup(name, parse))
    }

    /// The value following `name`, or `default` when the flag is absent.
    pub fn value<T: FromStr<Err: Display>>(&self, name: &str, default: T) -> T {
        self.value_with(name, parse_as).unwrap_or(default)
    }

    /// The cluster-shape flags shared by every figure binary:
    /// `--partitions N`, `--memory BYTES` (an absolute per-worker cap
    /// overriding `--memory-factor`), `--spill` (enable the out-of-core
    /// subsystem) and `--faults SPEC` (arm
    /// the deterministic fault injector, e.g. `--faults 42` or
    /// `--faults seed=42,morsel=0.02,once=spill_read@3`; the
    /// `TRANCE_FAULT_SEED` environment variable supplies the spec when the
    /// flag is absent), so capped, spilling and chaos runs are
    /// reproducible from the command line.
    pub fn tuning(&self) -> ClusterTuning {
        ClusterTuning {
            partitions: self.value_with("--partitions", parse_as),
            memory_bytes: self.value_with("--memory", parse_as),
            spill: self.flag("--spill"),
            faults: self.value_with("--faults", FaultPlan::parse),
        }
    }
}

/// The exit status of a figure binary whose run ended in `result`. A cell
/// that could not be set up (its input did not materialize or register)
/// puts the error on stderr and exits with status 1; usage errors exit
/// with 2 (see [`Cli`]).
pub fn exit_code(result: trance_dist::Result<()>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_as<T: FromStr<Err: Display>>(raw: &str) -> Result<T, String> {
    raw.parse().map_err(|e: T::Err| e.to_string())
}
