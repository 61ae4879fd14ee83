//! Deterministic fault injection and cooperative cancellation.
//!
//! The fault-tolerance layer of the engine is driven from here:
//!
//! * [`FaultPlan`] — a *seeded schedule* of failures: a base seed, one
//!   injection probability per [`FaultSite`], and targeted one-shot faults
//!   (`the 5th morsel of this run fails`, optionally as a burst so bounded
//!   retry is exhausted and partition recompute must kick in). Plans parse
//!   from / render to a compact `key=value` spec so the bench binaries can
//!   take them on the command line (`--faults`) or from the environment
//!   (`TRANCE_FAULT_SEED`).
//! * [`FaultInjector`] — the runtime side: each potential failure point
//!   *draws* from a counter-indexed splitmix64 stream, so the decision
//!   sequence per site is a pure function of `(seed, site, draw index)`.
//!   A retried operation performs a *fresh* draw — exactly like a retried
//!   I/O against flaky hardware — which is what makes bounded retry
//!   converge, while one-shot bursts stay pinned to their draw indices so
//!   tests can force retry exhaustion deterministically.
//! * [`CancelToken`] — cooperative cancellation with an optional deadline,
//!   checked at morsel boundaries and spill frame boundaries (never per
//!   row). One token lives in every [`crate::DistContext`]; the compiler
//!   resets it at the start of each run and arms the deadline from the
//!   caller's timeout.
//!
//! Everything here is clock-free except the deadline (which *is* a clock by
//! definition): given the same plan, partition layout and worker count = 1,
//! a run replays the same fault schedule byte for byte.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{ExecError, Result};

/// Where a fault can be injected. Every site is a *boundary* the engine
/// already crosses (a morsel, a spill frame, a shuffle pass) — injection
/// never adds per-row work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Before a fused-pipeline morsel executes.
    Morsel,
    /// Before a spill frame is read back from disk.
    SpillRead,
    /// Before a spill frame is appended to disk.
    SpillWrite,
    /// Before a shuffle routes one source partition.
    Shuffle,
}

impl FaultSite {
    /// Every injection point, in spec order.
    pub const ALL: [FaultSite; 4] = [
        FaultSite::Morsel,
        FaultSite::SpillRead,
        FaultSite::SpillWrite,
        FaultSite::Shuffle,
    ];

    /// Position of the site in [`FaultSite::ALL`] (stable array index for
    /// per-site accounting).
    pub fn index(self) -> usize {
        match self {
            FaultSite::Morsel => 0,
            FaultSite::SpillRead => 1,
            FaultSite::SpillWrite => 2,
            FaultSite::Shuffle => 3,
        }
    }

    /// The spec keyword of the site (`morsel`, `spill_read`, ...).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::Morsel => "morsel",
            FaultSite::SpillRead => "spill_read",
            FaultSite::SpillWrite => "spill_write",
            FaultSite::Shuffle => "shuffle",
        }
    }

    fn from_name(name: &str) -> Option<FaultSite> {
        // Specs come from shell environments and CLI flags: tolerate case
        // and `-` for `_` (e.g. `SPILL-READ`), but nothing fuzzier.
        let norm = name.trim().to_ascii_lowercase().replace('-', "_");
        FaultSite::ALL.into_iter().find(|s| s.name() == norm)
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A targeted fault: the draws `[at, at + burst)` of `site` fail,
/// independent of the site's probability. A burst longer than the bounded
/// retry budget forces the coarser recovery layer (partition recompute).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OneShot {
    /// The site the fault is pinned to.
    pub site: FaultSite,
    /// First failing draw index of that site (0-based).
    pub at: u64,
    /// Number of consecutive failing draws (at least 1).
    pub burst: u64,
}

/// A seeded, deterministic schedule of injected faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Base seed of the per-site decision streams.
    pub seed: u64,
    /// Injection probability per site, indexed by [`FaultSite`] order.
    pub rates: [f64; 4],
    /// Targeted faults pinned to specific draw indices.
    pub one_shots: Vec<OneShot>,
}

impl FaultPlan {
    /// A plan that never fires (useful as a base for builders).
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rates: [0.0; 4],
            one_shots: Vec::new(),
        }
    }

    /// The default chaos mix for a given seed: modest rates at every
    /// injection point (what `TRANCE_FAULT_SEED=N` alone turns on).
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rates: [0.02, 0.05, 0.05, 0.02],
            one_shots: Vec::new(),
        }
    }

    /// Sets the injection probability of one site (clamped to `[0, 1]`).
    pub fn with_rate(mut self, site: FaultSite, rate: f64) -> FaultPlan {
        self.rates[site.index()] = rate.clamp(0.0, 1.0);
        self
    }

    /// Adds a one-shot fault at draw `at` of `site`.
    pub fn with_one_shot(mut self, site: FaultSite, at: u64) -> FaultPlan {
        self.one_shots.push(OneShot { site, at, burst: 1 });
        self
    }

    /// Adds a burst of `burst` consecutive faults starting at draw `at`.
    pub fn with_burst(mut self, site: FaultSite, at: u64, burst: u64) -> FaultPlan {
        self.one_shots.push(OneShot {
            site,
            at,
            burst: burst.max(1),
        });
        self
    }

    /// Parses the compact spec the CLI and environment use:
    /// comma-separated `key=value` entries where `key` is `seed`, a site
    /// name (`morsel`, `spill_read`, `spill_write`, `shuffle`) mapping to a
    /// rate in `[0, 1]`, or `once=SITE@AT` (optionally with an `xBURST`
    /// suffix). A bare integer is shorthand for [`FaultPlan::seeded`].
    ///
    /// Example: `seed=42,morsel=0.02,spill_read=0.1,once=morsel@5x4`.
    pub fn parse(spec: &str) -> std::result::Result<FaultPlan, String> {
        let spec = spec.trim();
        if let Ok(seed) = spec.parse::<u64>() {
            return Ok(FaultPlan::seeded(seed));
        }
        let mut plan = FaultPlan::quiet(0);
        for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault spec entry `{entry}` is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            match key.to_ascii_lowercase().as_str() {
                "seed" => {
                    plan.seed = value
                        .parse::<u64>()
                        .map_err(|_| format!("invalid fault seed `{value}`"))?;
                }
                "once" => {
                    let (site, rest) = value
                        .split_once('@')
                        .ok_or_else(|| format!("one-shot `{value}` is not SITE@AT"))?;
                    let site = FaultSite::from_name(site.trim())
                        .ok_or_else(|| format!("unknown fault site `{site}`"))?;
                    let (at, burst) = match rest.split_once('x') {
                        Some((at, burst)) => (
                            at,
                            burst
                                .trim()
                                .parse::<u64>()
                                .map_err(|_| format!("invalid one-shot burst `{burst}`"))?
                                .max(1),
                        ),
                        None => (rest, 1),
                    };
                    let at = at
                        .trim()
                        .parse::<u64>()
                        .map_err(|_| format!("invalid one-shot index `{rest}`"))?;
                    plan.one_shots.push(OneShot { site, at, burst });
                }
                site => {
                    let site = FaultSite::from_name(site)
                        .ok_or_else(|| format!("unknown fault spec key `{key}`"))?;
                    let rate = value
                        .parse::<f64>()
                        .map_err(|_| format!("invalid rate `{value}` for `{key}`"))?;
                    if !(0.0..=1.0).contains(&rate) {
                        return Err(format!("rate `{value}` for `{key}` is outside [0, 1]"));
                    }
                    plan.rates[site.index()] = rate;
                }
            }
        }
        Ok(plan)
    }

    /// Renders the plan back into the spec format [`FaultPlan::parse`]
    /// accepts — what the chaos CI job echoes so a red run is reproducible.
    pub fn render(&self) -> String {
        let mut out = format!("seed={}", self.seed);
        for site in FaultSite::ALL {
            let rate = self.rates[site.index()];
            if rate > 0.0 {
                out.push_str(&format!(",{}={rate}", site.name()));
            }
        }
        for shot in &self.one_shots {
            out.push_str(&format!(",once={}@{}", shot.site.name(), shot.at));
            if shot.burst > 1 {
                out.push_str(&format!("x{}", shot.burst));
            }
        }
        out
    }
}

/// splitmix64 finalizer — the one-instruction-per-step mixer the engine
/// already uses for Grace bucket salting.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The runtime decision engine of a [`FaultPlan`]: per-site draw counters
/// plus per-site fired counters, shared by every operator of one context.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    draws: [AtomicU64; 4],
    fired: [AtomicU64; 4],
}

impl FaultInjector {
    /// An injector executing `plan`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            draws: Default::default(),
            fired: Default::default(),
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Performs one draw at `site` and reports whether a fault fires. Each
    /// call consumes one draw index, so a retried operation re-draws.
    pub fn should_fault(&self, site: FaultSite) -> bool {
        let idx = site.index();
        let draw = self.draws[idx].fetch_add(1, Ordering::Relaxed);
        let mut fire = self
            .plan
            .one_shots
            .iter()
            .any(|s| s.site == site && draw >= s.at && draw < s.at + s.burst);
        let rate = self.plan.rates[idx];
        if !fire && rate > 0.0 {
            let x = splitmix64(
                self.plan
                    .seed
                    .wrapping_add((idx as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F))
                    .wrapping_add(draw.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            );
            // 53 uniform mantissa bits -> [0, 1).
            fire = ((x >> 11) as f64 / (1u64 << 53) as f64) < rate;
        }
        if fire {
            self.fired[idx].fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// Draws performed at `site` so far.
    pub fn draws(&self, site: FaultSite) -> u64 {
        self.draws[site.index()].load(Ordering::Relaxed)
    }

    /// Faults fired at `site` so far.
    pub fn fired(&self, site: FaultSite) -> u64 {
        self.fired[site.index()].load(Ordering::Relaxed)
    }

    /// Faults fired across all sites.
    pub fn total_fired(&self) -> u64 {
        self.fired.iter().map(|f| f.load(Ordering::Relaxed)).sum()
    }
}

/// Maximum extra attempts bounded retry grants a retryable failure before
/// it escalates to the next recovery layer (partition recompute, then the
/// caller's typed error).
pub const MAX_TASK_RETRIES: u32 = 3;

/// Backoff before retry `attempt` (1-based): tiny exponential waits — the
/// simulated cluster's faults clear fast, and chaos suites must stay quick.
pub(crate) fn retry_backoff(attempt: u32) -> Duration {
    Duration::from_micros(50u64 << attempt.min(6))
}

/// Runs `f`, retrying retryable failures up to [`MAX_TASK_RETRIES`] times
/// with [`retry_backoff`]. Each retry is metered into the context stats.
/// Non-retryable errors (and retryable ones that exhaust the budget)
/// propagate to the caller's recovery layer.
pub(crate) fn with_retry<T>(
    ctx: &crate::DistContext,
    mut f: impl FnMut() -> Result<T>,
) -> Result<T> {
    let mut attempt = 0u32;
    loop {
        match f() {
            Err(e) if e.is_retryable() && attempt < MAX_TASK_RETRIES => {
                attempt += 1;
                ctx.stats().record_retry();
                std::thread::sleep(retry_backoff(attempt));
            }
            other => return other,
        }
    }
}

const DEADLINE_UNSET: u64 = u64::MAX;

#[derive(Debug)]
struct CancelState {
    cancelled: AtomicBool,
    /// Deadline as nanos since `anchor`; [`DEADLINE_UNSET`] when unarmed.
    deadline_nanos: AtomicU64,
    anchor: Instant,
    reason: std::sync::Mutex<Option<String>>,
}

/// Cooperative cancellation handle: cheap to clone, checked at morsel and
/// spill frame boundaries. One token lives in every [`crate::DistContext`];
/// the compiler resets it at the start of each run.
#[derive(Debug, Clone)]
pub struct CancelToken {
    state: Arc<CancelState>,
}

impl Default for CancelToken {
    fn default() -> CancelToken {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A fresh, unarmed token.
    pub fn new() -> CancelToken {
        CancelToken {
            state: Arc::new(CancelState {
                cancelled: AtomicBool::new(false),
                deadline_nanos: AtomicU64::new(DEADLINE_UNSET),
                anchor: Instant::now(),
                reason: std::sync::Mutex::new(None),
            }),
        }
    }

    /// Requests cancellation with a caller-supplied reason. Idempotent; the
    /// first reason wins.
    pub fn cancel(&self, reason: &str) {
        {
            let mut slot = self.state.reason.lock().unwrap();
            if slot.is_none() {
                *slot = Some(reason.to_string());
            }
        }
        self.state.cancelled.store(true, Ordering::Release);
    }

    /// Arms (or clears) a deadline `timeout` from now: the next boundary
    /// check after it elapses cancels the run, even mid-spill.
    pub fn set_timeout(&self, timeout: Option<Duration>) {
        let nanos = match timeout {
            Some(t) => {
                let from_anchor = self.state.anchor.elapsed() + t;
                (from_anchor.as_nanos() as u64).min(DEADLINE_UNSET - 1)
            }
            None => DEADLINE_UNSET,
        };
        self.state.deadline_nanos.store(nanos, Ordering::Release);
    }

    /// Clears the flag, the reason and the deadline — the start-of-run
    /// reset.
    pub fn reset(&self) {
        self.state.cancelled.store(false, Ordering::Release);
        self.state
            .deadline_nanos
            .store(DEADLINE_UNSET, Ordering::Release);
        *self.state.reason.lock().unwrap() = None;
    }

    /// True once cancellation was requested (does not evaluate the
    /// deadline).
    pub fn is_cancelled(&self) -> bool {
        self.state.cancelled.load(Ordering::Acquire)
    }

    /// The boundary check: `Ok` while the run may continue,
    /// [`ExecError::Cancelled`] once cancelled or past the deadline.
    pub fn check(&self) -> Result<()> {
        if self.state.cancelled.load(Ordering::Acquire) {
            let reason = self
                .state
                .reason
                .lock()
                .unwrap()
                .clone()
                .unwrap_or_else(|| "cancelled".to_string());
            return Err(ExecError::Cancelled { reason });
        }
        let deadline = self.state.deadline_nanos.load(Ordering::Acquire);
        if deadline != DEADLINE_UNSET && self.state.anchor.elapsed().as_nanos() as u64 >= deadline {
            self.cancel("deadline exceeded");
            return Err(ExecError::Cancelled {
                reason: "deadline exceeded".to_string(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_spec_round_trips() {
        let plan = FaultPlan::quiet(42)
            .with_rate(FaultSite::Morsel, 0.02)
            .with_rate(FaultSite::SpillRead, 0.1)
            .with_one_shot(FaultSite::Shuffle, 3)
            .with_burst(FaultSite::Morsel, 5, 4);
        let rendered = plan.render();
        assert_eq!(FaultPlan::parse(&rendered).unwrap(), plan);
        assert_eq!(FaultPlan::parse("17").unwrap(), FaultPlan::seeded(17));
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("morsel=1.5").is_err());
        assert!(FaultPlan::parse("once=morsel").is_err());
    }

    #[test]
    fn specs_tolerate_case_whitespace_and_dashes() {
        let canonical = FaultPlan::parse("seed=9,spill_read=0.1,once=morsel@5x4").unwrap();
        let sloppy =
            FaultPlan::parse("  SEED = 9 , SPILL-READ = 0.1 , Once = Morsel @ 5x4  ").unwrap();
        assert_eq!(sloppy, canonical);
        assert_eq!(FaultPlan::parse(" 17 ").unwrap(), FaultPlan::seeded(17));
    }

    #[test]
    fn junk_specs_are_errors_not_panics() {
        for junk in [
            "once=morsel@5xZZ",
            "once=morsel@",
            "morsel=NaN-ish",
            "seed=-3",
            "seed=",
            "=0.5",
            "morsel",
            "worker_start=0.25",
            "once=worker_start@0",
        ] {
            assert!(FaultPlan::parse(junk).is_err(), "`{junk}` must be rejected");
        }
        // NaN rates fail the [0, 1] range check rather than slipping through.
        assert!(FaultPlan::parse("morsel=nan").is_err());
    }

    #[test]
    fn draws_are_deterministic_and_counted() {
        let plan = FaultPlan::quiet(7).with_rate(FaultSite::Morsel, 0.5);
        let a = FaultInjector::new(plan.clone());
        let b = FaultInjector::new(plan);
        let seq_a: Vec<bool> = (0..64).map(|_| a.should_fault(FaultSite::Morsel)).collect();
        let seq_b: Vec<bool> = (0..64).map(|_| b.should_fault(FaultSite::Morsel)).collect();
        assert_eq!(seq_a, seq_b, "same plan, same decision stream");
        let fired = seq_a.iter().filter(|f| **f).count() as u64;
        assert!(fired > 0, "a 50% rate over 64 draws must fire");
        assert!(fired < 64, "and must not always fire");
        assert_eq!(a.fired(FaultSite::Morsel), fired);
        assert_eq!(a.draws(FaultSite::Morsel), 64);
        assert_eq!(a.total_fired(), fired);
        assert_eq!(a.fired(FaultSite::Shuffle), 0);
    }

    #[test]
    fn one_shot_bursts_pin_to_draw_indices() {
        let inj = FaultInjector::new(FaultPlan::quiet(0).with_burst(FaultSite::SpillWrite, 2, 3));
        let seq: Vec<bool> = (0..8)
            .map(|_| inj.should_fault(FaultSite::SpillWrite))
            .collect();
        assert_eq!(
            seq,
            vec![false, false, true, true, true, false, false, false]
        );
    }

    #[test]
    fn cancel_token_checks_flag_and_deadline() {
        let token = CancelToken::new();
        assert!(token.check().is_ok());
        token.cancel("user abort");
        assert!(token.is_cancelled());
        match token.check() {
            Err(ExecError::Cancelled { reason }) => assert_eq!(reason, "user abort"),
            other => panic!("expected Cancelled, got {other:?}"),
        }
        token.reset();
        assert!(token.check().is_ok());
        token.set_timeout(Some(Duration::ZERO));
        match token.check() {
            Err(ExecError::Cancelled { reason }) => assert_eq!(reason, "deadline exceeded"),
            other => panic!("expected deadline Cancelled, got {other:?}"),
        }
        assert!(token.is_cancelled(), "a fired deadline latches the flag");
    }
}
