//! Register-based vectorized **expression kernel programs**.
//!
//! [`compile_ops`] flattens the scalar expressions of a run of row-local
//! `select`/`extend`/`project` plan operators — sharing common
//! subexpressions — into one SSA [`KernelProgram`]: a `Vec<Instr>` over
//! numbered column registers, compiled **once per pipeline** at plan time
//! and executed per morsel by type-specialized vectorized kernels.
//!
//! There is no other engine: what a run of operators computes is defined by
//! `ScalarExpr::eval`, the plan layer's one written rule, applied row by row
//! — the unit tests below hold every program to exactly that, on the rows of
//! the batch — and the differential suites hold whole queries to `nrc::eval`.
//! The row-wise lanes call `trance_nrc::value::prim_op` / `cmp_op`, where
//! the NULL rule is written; the dense `i64` / `f64` / `bool` loops and the
//! dictionary string predicate below are the only other places an operator
//! is written, and they follow the same rule (NULL lanes never reach the
//! dense loops, compare false on the dictionary path) and raise the same
//! typed errors (integer overflow, division by zero).
//!
//! The executor's cost model:
//!
//! * `Lit` constants and absent-column loads are **lazy** registers
//!   (`RegVal::Const`) — O(1) per batch instead of `vec![v.clone(); n]`;
//! * arithmetic and comparisons run over dense `i64`/`f64`/`bool` buffers
//!   (constants splatted at read, never materialized);
//! * string predicates against a constant are **dictionary-aware**: one
//!   truth-table entry per distinct string, then a u32 code scan — no
//!   per-row byte comparison;
//! * `Filter` instructions narrow a **selection vector** of surviving row
//!   indices, so downstream instructions evaluate only over surviving rows
//!   and each input column is gathered at most once per morsel;
//! * short-circuit semantics (`And`/`Or`/`Coalesce`) compile to **guard
//!   registers**: the right operand's instructions evaluate under a lane
//!   mask, and raise errors only on guarded lanes — exactly the rows on
//!   which `ScalarExpr::eval` evaluates that operand.

use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use trance_algebra::ScalarExpr;
use trance_dist::{Batch, Bitmap, Column, ExecError, Result};
use trance_nrc::value::{cmp_op, prim_op};
use trance_nrc::{CmpOp, Label, NrcError, PrimOp, Value};

/// A register: the index of the instruction that defines it.
pub type Reg = usize;

/// One SSA instruction of a [`KernelProgram`].
///
/// Instructions that can raise runtime errors (`Prim` division / numeric
/// coercion, `IsTrue` / `Not` boolean coercion) carry an optional **guard**
/// register: errors are raised only on lanes where the guard is true,
/// reproducing `ScalarExpr::eval`'s short-circuit contract that a guarded
/// operand's errors never surface. Error-free instructions
/// carry no guard and may compute every lane (unguarded lanes are never
/// read).
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Load an input column by name (a missing column is a lazy NULL
    /// constant, the outer-join convention).
    Load {
        /// The column name.
        name: String,
    },
    /// A literal constant — a lazy O(1) register.
    Lit {
        /// The constant value.
        value: Value,
    },
    /// Binary arithmetic with `ScalarExpr::eval` semantics (NULL propagates,
    /// Int stays Int except division; integer overflow and division by zero
    /// error).
    Prim {
        /// The operator.
        op: PrimOp,
        /// Left operand register.
        left: Reg,
        /// Right operand register.
        right: Reg,
        /// Error guard (see [`Instr`]).
        guard: Option<Reg>,
    },
    /// Comparison via the total `Value::cmp` order; NULL on either side
    /// compares false. Never errors, so no guard.
    Cmp {
        /// The comparison operator.
        op: CmpOp,
        /// Left operand register.
        left: Reg,
        /// Right operand register.
        right: Reg,
    },
    /// Strict truth of `cond` under `guard` with `as_bool` error semantics
    /// (NULL is false, a non-bool guarded lane errors) — forms the guard
    /// for `And`/`Or` right branches.
    IsTrue {
        /// The condition register.
        cond: Reg,
        /// Error guard (see [`Instr`]).
        guard: Option<Reg>,
    },
    /// `guard && !cond` over boolean registers (the `Or` right-branch
    /// guard). Never errors.
    NotMask {
        /// A boolean register (an [`Instr::IsTrue`] output).
        cond: Reg,
        /// The enclosing guard.
        guard: Option<Reg>,
    },
    /// `guard && cond-is-NULL` (the `Coalesce` right-branch guard). Never
    /// errors.
    NullMask {
        /// The register whose NULL lanes select the fallback.
        cond: Reg,
        /// The enclosing guard.
        guard: Option<Reg>,
    },
    /// `And` merge: lanes where `taken` coerce `b` to bool (errors
    /// surface there only); all other lanes are false.
    AndMerge {
        /// The left-operand-true mask (an [`Instr::IsTrue`] output).
        taken: Reg,
        /// The right operand register.
        b: Reg,
    },
    /// `Or` merge: lanes where `a_true` are true; lanes where `taken`
    /// coerce `b` to bool; all other lanes are false.
    OrMerge {
        /// The left-operand-true mask.
        a_true: Reg,
        /// The right-branch guard ([`Instr::NotMask`] output).
        taken: Reg,
        /// The right operand register.
        b: Reg,
    },
    /// `Coalesce` merge: lanes where `taken` read `b`, the rest read `a`.
    /// When no lane takes the fallback the register is `a` itself. Never
    /// errors.
    CoalesceMerge {
        /// The first operand register.
        a: Reg,
        /// The fallback mask ([`Instr::NullMask`] output).
        taken: Reg,
        /// The fallback operand register.
        b: Reg,
    },
    /// Boolean negation with `as_bool` error semantics on guarded lanes.
    Not {
        /// The operand register.
        input: Reg,
        /// Error guard (see [`Instr`]).
        guard: Option<Reg>,
    },
    /// Construct a label capturing the operand registers (shredded plans).
    NewLabel {
        /// Label construction site.
        site: u32,
        /// Captured value registers.
        captures: Vec<Reg>,
    },
    /// Narrow the selection vector to the lanes where `pred` is true
    /// (`as_bool` errors surface, as a `Select` raises them), then compact
    /// the still-live registers: `live_sets` are output columns (built, then
    /// gathered as columns — see `compact_as_column`), `live` are scratch
    /// registers (compacted positionally).
    Filter {
        /// The predicate register.
        pred: Reg,
        /// Live scratch registers to compact positionally.
        live: Vec<Reg>,
        /// Live output-set registers to compact as columns.
        live_sets: Vec<Reg>,
    },
}

/// One row-local plan operator — the expression payload of a
/// `Select`/`Project`/`Extend` plan node; [`compile_ops`] compiles a run of
/// them.
#[derive(Debug, Clone)]
pub enum KernelOp {
    /// Keep the rows whose predicate evaluates to `true` (a non-bool is a
    /// type error).
    Select(ScalarExpr),
    /// Replace the row with the evaluated columns (all expressions see the
    /// *input* of the project).
    Project(Vec<(String, ScalarExpr)>),
    /// Set columns in order, each seeing the columns set before it (the
    /// `Tuple::set` contract).
    Extend(Vec<(String, ScalarExpr)>),
}

/// A compiled expression kernel program: SSA instructions plus the output
/// script that rebuilds the batch (`with_column` replay over either the
/// filtered input or a fresh unit batch).
#[derive(Debug, Clone)]
pub struct KernelProgram {
    instrs: Vec<Instr>,
    /// True when the output starts from the (filtered) input batch with its
    /// columns Arc-shared; false when a project discarded the input.
    from_input: bool,
    /// Ordered `with_column` sets applied to the base.
    sets: Vec<(String, Reg)>,
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

struct Compiler {
    instrs: Vec<Instr>,
    /// Column name → register set by an extend/project so far.
    bindings: HashMap<String, Reg>,
    /// Whether unresolved names still fall through to the input batch
    /// (false after a project drops the input columns).
    input_visible: bool,
    from_input: bool,
    sets: Vec<(String, Reg)>,
}

impl Compiler {
    fn new() -> Compiler {
        Compiler {
            instrs: Vec::new(),
            bindings: HashMap::new(),
            input_visible: true,
            from_input: true,
            sets: Vec::new(),
        }
    }

    /// Emits an instruction, interning structurally equal pure instructions
    /// (common subexpression elimination). `Filter` is never interned — it
    /// has the side effect of narrowing the selection vector.
    fn emit(&mut self, instr: Instr) -> Reg {
        if !matches!(instr, Instr::Filter { .. }) {
            if let Some(r) = self.instrs.iter().position(|x| *x == instr) {
                return r;
            }
        }
        self.instrs.push(instr);
        self.instrs.len() - 1
    }

    fn resolve(&mut self, name: &str) -> Reg {
        if let Some(r) = self.bindings.get(name) {
            return *r;
        }
        if self.input_visible {
            self.emit(Instr::Load {
                name: name.to_string(),
            })
        } else {
            // The column was dropped by a project: a statically-known NULL.
            self.emit(Instr::Lit { value: Value::Null })
        }
    }

    fn compile_expr(&mut self, e: &ScalarExpr, guard: Option<Reg>) -> Reg {
        match e {
            ScalarExpr::Col(name) => self.resolve(name),
            ScalarExpr::Const(v) => self.emit(Instr::Lit { value: v.clone() }),
            ScalarExpr::Prim { op, left, right } => {
                let l = self.compile_expr(left, guard);
                let r = self.compile_expr(right, guard);
                self.emit(Instr::Prim {
                    op: *op,
                    left: l,
                    right: r,
                    guard,
                })
            }
            ScalarExpr::Cmp { op, left, right } => {
                let l = self.compile_expr(left, guard);
                let r = self.compile_expr(right, guard);
                self.emit(Instr::Cmp {
                    op: *op,
                    left: l,
                    right: r,
                })
            }
            ScalarExpr::And(a, b) => {
                let ra = self.compile_expr(a, guard);
                let taken = self.emit(Instr::IsTrue { cond: ra, guard });
                let rb = self.compile_expr(b, Some(taken));
                self.emit(Instr::AndMerge { taken, b: rb })
            }
            ScalarExpr::Or(a, b) => {
                let ra = self.compile_expr(a, guard);
                let a_true = self.emit(Instr::IsTrue { cond: ra, guard });
                let taken = self.emit(Instr::NotMask {
                    cond: a_true,
                    guard,
                });
                let rb = self.compile_expr(b, Some(taken));
                self.emit(Instr::OrMerge {
                    a_true,
                    taken,
                    b: rb,
                })
            }
            ScalarExpr::Not(x) => {
                let r = self.compile_expr(x, guard);
                self.emit(Instr::Not { input: r, guard })
            }
            ScalarExpr::Coalesce(a, b) => {
                let ra = self.compile_expr(a, guard);
                let taken = self.emit(Instr::NullMask { cond: ra, guard });
                let rb = self.compile_expr(b, Some(taken));
                self.emit(Instr::CoalesceMerge {
                    a: ra,
                    taken,
                    b: rb,
                })
            }
            ScalarExpr::NewLabel { site, captures } => {
                let regs: Vec<Reg> = captures
                    .iter()
                    .map(|(_, e)| self.compile_expr(e, guard))
                    .collect();
                self.emit(Instr::NewLabel {
                    site: *site,
                    captures: regs,
                })
            }
        }
    }

    fn set(&mut self, name: &str, r: Reg) {
        self.bindings.insert(name.to_string(), r);
        self.sets.push((name.to_string(), r));
    }

    fn compile_op(&mut self, op: &KernelOp) {
        match op {
            KernelOp::Select(pred) => {
                let r = self.compile_expr(pred, None);
                self.instrs.push(Instr::Filter {
                    pred: r,
                    live: Vec::new(),
                    live_sets: Vec::new(),
                });
            }
            KernelOp::Extend(cols) => {
                for (name, e) in cols {
                    let r = self.compile_expr(e, None);
                    self.set(name, r);
                }
            }
            KernelOp::Project(cols) => {
                // Every project expression sees the *input* of the project;
                // only then does the output narrow to the projected columns.
                let regs: Vec<(String, Reg)> = cols
                    .iter()
                    .map(|(n, e)| (n.clone(), self.compile_expr(e, None)))
                    .collect();
                self.bindings.clear();
                self.sets.clear();
                self.input_visible = false;
                self.from_input = false;
                for (n, r) in regs {
                    self.set(&n, r);
                }
            }
        }
    }

    /// Fills every `Filter`'s liveness lists: a register is live at a filter
    /// when a later instruction or the output script reads it. Output-set
    /// registers compact as columns, scratch registers positionally.
    fn finish(mut self) -> KernelProgram {
        let set_regs: BTreeSet<Reg> = self.sets.iter().map(|(_, r)| *r).collect();
        let mut read_later: BTreeSet<Reg> = set_regs.clone();
        for p in (0..self.instrs.len()).rev() {
            if matches!(self.instrs[p], Instr::Filter { .. }) {
                let live: Vec<Reg> = read_later
                    .iter()
                    .copied()
                    .filter(|r| *r < p && !set_regs.contains(r))
                    .collect();
                let ls: Vec<Reg> = read_later
                    .iter()
                    .copied()
                    .filter(|r| *r < p && set_regs.contains(r))
                    .collect();
                if let Instr::Filter {
                    live: l, live_sets, ..
                } = &mut self.instrs[p]
                {
                    *l = live;
                    *live_sets = ls;
                }
            }
            for r in instr_reads(&self.instrs[p]) {
                read_later.insert(r);
            }
        }
        KernelProgram {
            instrs: self.instrs,
            from_input: self.from_input,
            sets: self.sets,
        }
    }
}

/// The registers an instruction reads.
fn instr_reads(i: &Instr) -> Vec<Reg> {
    match i {
        Instr::Load { .. } | Instr::Lit { .. } => vec![],
        Instr::Prim {
            left, right, guard, ..
        } => with_guard(vec![*left, *right], guard),
        Instr::Cmp { left, right, .. } => vec![*left, *right],
        Instr::IsTrue { cond, guard } => with_guard(vec![*cond], guard),
        Instr::NotMask { cond, guard } => with_guard(vec![*cond], guard),
        Instr::NullMask { cond, guard } => with_guard(vec![*cond], guard),
        Instr::AndMerge { taken, b } => vec![*taken, *b],
        Instr::OrMerge { a_true, taken, b } => vec![*a_true, *taken, *b],
        Instr::CoalesceMerge { a, taken, b } => vec![*a, *taken, *b],
        Instr::Not { input, guard } => with_guard(vec![*input], guard),
        Instr::NewLabel { captures, .. } => captures.clone(),
        Instr::Filter { pred, .. } => vec![*pred],
    }
}

fn with_guard(mut v: Vec<Reg>, guard: &Option<Reg>) -> Vec<Reg> {
    if let Some(g) = guard {
        v.push(*g);
    }
    v
}

/// Compiles a run of row-local operators into one kernel program, sharing
/// common subexpressions across all their expressions.
pub fn compile_ops(ops: &[KernelOp]) -> KernelProgram {
    let mut c = Compiler::new();
    for op in ops {
        c.compile_op(op);
    }
    c.finish()
}

/// A shared cache of compiled kernel programs, keyed by the structural
/// fingerprint of the [`KernelOp`] run that produced them.
///
/// The serving layer threads one of these through
/// `ExecOptions::kernel_cache` so a warm query replays its fused pipelines
/// with the `Arc`'d programs compiled on the cold run: a hit skips the SSA
/// compiler *and* the `record_expr_compile` accounting, which is what makes
/// a warm query report zero expression-compile time. Misses compile under
/// the lock (kernel compilation is microseconds; duplicate compilation
/// under contention would cost more than it saves) and record the elapsed
/// compile time for the caller to book against its stats.
pub struct KernelCache {
    /// Only ever sees whole-entry inserts and `clear`, so a guard recovered
    /// from a poisoned lock (a query that panicked mid-compile) is valid.
    programs: std::sync::Mutex<HashMap<u64, Arc<KernelProgram>>>,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
}

impl KernelCache {
    /// An empty cache.
    pub fn new() -> KernelCache {
        KernelCache {
            programs: std::sync::Mutex::new(HashMap::new()),
            hits: std::sync::atomic::AtomicU64::new(0),
            misses: std::sync::atomic::AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Arc<KernelProgram>>> {
        self.programs.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs `f` holding the cache's lock — how a test stands in for a query
    /// that panics mid-compile.
    #[doc(hidden)]
    pub fn under_lock(&self, f: impl FnOnce()) {
        let _guard = self.lock();
        f()
    }

    /// Returns the program compiled from `ops`, compiling and inserting it
    /// on first sight. The second component is `None` on a hit and the
    /// measured compile time on a miss, so callers only book compile stats
    /// for work that actually happened.
    pub fn get_or_compile(&self, ops: &[KernelOp]) -> (Arc<KernelProgram>, Option<Duration>) {
        use std::sync::atomic::Ordering;
        let key = trance_algebra::fingerprint(ops);
        let mut map = self.lock();
        if let Some(prog) = map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (prog.clone(), None);
        }
        let t0 = Instant::now();
        let prog = Arc::new(compile_ops(ops));
        let dt = t0.elapsed();
        map.insert(key, prog.clone());
        self.misses.fetch_add(1, Ordering::Relaxed);
        (prog, Some(dt))
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Cache misses (= programs compiled) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Number of distinct programs held.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when no program has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached program and resets the hit/miss counters — the
    /// serving layer's cold-start switch for cold-vs-warm A/B measurement.
    pub fn clear(&self) {
        use std::sync::atomic::Ordering;
        self.lock().clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

impl Default for KernelCache {
    fn default() -> Self {
        KernelCache::new()
    }
}

impl std::fmt::Debug for KernelCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelCache")
            .field("programs", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// A register's runtime value — lazy where possible.
#[derive(Debug, Clone)]
enum RegVal {
    /// An input column, Arc-shared (possibly gathered by a filter).
    Col(Arc<Column>),
    /// A lazy constant (every lane holds this value) — O(1) per batch.
    Const(Value),
    /// Computed dense integers.
    Ints(Vec<i64>),
    /// Computed dense reals.
    Reals(Vec<f64>),
    /// Computed dense booleans.
    Bools(Vec<bool>),
    /// Row-wise values (NULL on unguarded lanes).
    Values(Vec<Value>),
}

impl RegVal {
    fn value_at(&self, i: usize) -> Value {
        match self {
            RegVal::Col(c) => c.value_at(i).unwrap_or(Value::Null),
            RegVal::Const(v) => v.clone(),
            RegVal::Ints(x) => Value::Int(x[i]),
            RegVal::Reals(x) => Value::Real(x[i]),
            RegVal::Bools(x) => Value::Bool(x[i]),
            RegVal::Values(x) => x[i].clone(),
        }
    }

    fn dense_bools(&self) -> Option<&[bool]> {
        match self {
            RegVal::Bools(x) => Some(x),
            RegVal::Col(c) => c.dense_bools(),
            _ => None,
        }
    }

    /// NULL test without cloning values (bag lanes stay untouched).
    fn is_null_at(&self, i: usize) -> bool {
        match self {
            RegVal::Col(c) => c.is_null_at(i),
            RegVal::Const(v) => matches!(v, Value::Null),
            RegVal::Ints(_) | RegVal::Reals(_) | RegVal::Bools(_) => false,
            RegVal::Values(x) => matches!(x[i], Value::Null),
        }
    }
}

/// Dense integer operand view: a buffer or a splatted constant.
enum IntView<'a> {
    Slice(&'a [i64]),
    Splat(i64),
}

impl IntView<'_> {
    fn get(&self, i: usize) -> i64 {
        match self {
            IntView::Slice(x) => x[i],
            IntView::Splat(x) => *x,
        }
    }
}

fn int_view(rv: &RegVal) -> Option<IntView<'_>> {
    match rv {
        RegVal::Ints(x) => Some(IntView::Slice(x)),
        RegVal::Col(c) => c.dense_ints().map(IntView::Slice),
        RegVal::Const(Value::Int(x)) => Some(IntView::Splat(*x)),
        _ => None,
    }
}

/// Dense numeric operand view, widening integers at the read.
enum NumView<'a> {
    I(&'a [i64]),
    R(&'a [f64]),
    Splat(f64),
}

impl NumView<'_> {
    fn get(&self, i: usize) -> f64 {
        match self {
            NumView::I(x) => x[i] as f64,
            NumView::R(x) => x[i],
            NumView::Splat(x) => *x,
        }
    }
}

fn num_view(rv: &RegVal) -> Option<NumView<'_>> {
    match rv {
        RegVal::Ints(x) => Some(NumView::I(x)),
        RegVal::Reals(x) => Some(NumView::R(x)),
        RegVal::Col(c) => c
            .dense_reals()
            .map(NumView::R)
            .or_else(|| c.dense_ints().map(NumView::I)),
        RegVal::Const(Value::Int(x)) => Some(NumView::Splat(*x as f64)),
        RegVal::Const(Value::Real(x)) => Some(NumView::Splat(*x)),
        _ => None,
    }
}

fn guard_true(g: Option<&[bool]>, i: usize) -> bool {
    g.is_none_or(|g| g[i])
}

/// Per-morsel execution state.
struct State<'a> {
    batch: &'a Batch,
    regs: Vec<Option<RegVal>>,
    /// Surviving original-row indices after the filters executed so far
    /// (`None` = every row).
    sel: Option<Vec<u32>>,
    /// Current lane count (`sel` length, or the batch's row count).
    len: usize,
}

/// A broken compiler invariant — a register read before it is defined or
/// after it was consumed, a mask register that is not dense boolean — as a
/// typed error instead of a panic. Checked once per instruction, never per
/// lane.
fn invariant(what: &str) -> ExecError {
    ExecError::Other(format!("kernel invariant: {what}"))
}

impl<'a> State<'a> {
    fn reg(&self, r: Reg) -> Result<&RegVal> {
        self.regs[r]
            .as_ref()
            .ok_or_else(|| invariant("register defined before use"))
    }

    /// Consumes a live register (a filter compacts it, the output script
    /// materializes it).
    fn take(&mut self, r: Reg) -> Result<RegVal> {
        self.regs[r]
            .take()
            .ok_or_else(|| invariant("live register"))
    }

    fn mask(&self, r: Reg) -> Result<&[bool]> {
        self.reg(r)?
            .dense_bools()
            .ok_or_else(|| invariant("masks are dense boolean"))
    }

    fn guard(&self, g: Option<Reg>) -> Result<Option<&[bool]>> {
        g.map(|r| self.mask(r)).transpose()
    }

    fn step(&mut self, idx: usize, instr: &Instr) -> Result<()> {
        let val = match instr {
            Instr::Load { name } => Some(match self.batch.column_arc(name) {
                None => RegVal::Const(Value::Null),
                Some(col) => match &self.sel {
                    None => RegVal::Col(col),
                    Some(s) => {
                        let idx: Vec<Option<usize>> = s.iter().map(|&i| Some(i as usize)).collect();
                        RegVal::Col(Arc::new(col.gather(&idx)))
                    }
                },
            }),
            Instr::Lit { value } => Some(RegVal::Const(value.clone())),
            Instr::Prim {
                op,
                left,
                right,
                guard,
            } => {
                let g = self.guard(*guard)?;
                Some(exec_prim(
                    *op,
                    self.reg(*left)?,
                    self.reg(*right)?,
                    g,
                    self.len,
                )?)
            }
            Instr::Cmp { op, left, right } => {
                Some(exec_cmp(*op, self.reg(*left)?, self.reg(*right)?, self.len))
            }
            Instr::IsTrue { cond, guard } => {
                let g = self.guard(*guard)?;
                Some(RegVal::Bools(exec_is_true(self.reg(*cond)?, g, self.len)?))
            }
            Instr::NotMask { cond, guard } => {
                let g = self.guard(*guard)?;
                let c = self.reg(*cond)?;
                Some(RegVal::Bools(match c.dense_bools() {
                    Some(b) => (0..self.len).map(|i| guard_true(g, i) && !b[i]).collect(),
                    None => (0..self.len)
                        .map(|i| guard_true(g, i) && !matches!(c.value_at(i), Value::Bool(true)))
                        .collect(),
                }))
            }
            Instr::NullMask { cond, guard } => {
                let g = self.guard(*guard)?;
                let c = self.reg(*cond)?;
                Some(RegVal::Bools(
                    (0..self.len)
                        .map(|i| guard_true(g, i) && c.is_null_at(i))
                        .collect(),
                ))
            }
            Instr::AndMerge { taken, b } => {
                let t = self.mask(*taken)?;
                let bv = self.reg(*b)?;
                let mut out = Vec::with_capacity(self.len);
                if let Some(d) = bv.dense_bools() {
                    for (i, taken) in t.iter().enumerate().take(self.len) {
                        out.push(*taken && d[i]);
                    }
                } else {
                    for (i, taken) in t.iter().enumerate().take(self.len) {
                        out.push(if *taken {
                            bv.value_at(i).as_bool()?
                        } else {
                            false
                        });
                    }
                }
                Some(RegVal::Bools(out))
            }
            Instr::OrMerge { a_true, taken, b } => {
                let at = self.mask(*a_true)?;
                let t = self.mask(*taken)?;
                let bv = self.reg(*b)?;
                let mut out = Vec::with_capacity(self.len);
                if let Some(d) = bv.dense_bools() {
                    for i in 0..self.len {
                        out.push(at[i] || (t[i] && d[i]));
                    }
                } else {
                    for i in 0..self.len {
                        out.push(at[i] || (t[i] && bv.value_at(i).as_bool()?));
                    }
                }
                Some(RegVal::Bools(out))
            }
            Instr::CoalesceMerge { a, taken, b } => {
                let t = self.mask(*taken)?;
                let (av, bv) = (self.reg(*a)?, self.reg(*b)?);
                if !t.iter().any(|&x| x) {
                    // No lane needed the fallback: the result is the first
                    // operand.
                    Some(av.clone())
                } else if let Some(col) = coalesce_unboxed(av, bv, t) {
                    Some(RegVal::Col(Arc::new(col)))
                } else {
                    Some(RegVal::Values(
                        (0..self.len)
                            .map(|i| if t[i] { bv.value_at(i) } else { av.value_at(i) })
                            .collect(),
                    ))
                }
            }
            Instr::Not { input, guard } => {
                let g = self.guard(*guard)?;
                let c = self.reg(*input)?;
                let mut out = Vec::with_capacity(self.len);
                if let Some(b) = c.dense_bools() {
                    for (i, v) in b.iter().enumerate().take(self.len) {
                        out.push(guard_true(g, i) && !*v);
                    }
                } else {
                    for i in 0..self.len {
                        out.push(if guard_true(g, i) {
                            !c.value_at(i).as_bool()?
                        } else {
                            false
                        });
                    }
                }
                Some(RegVal::Bools(out))
            }
            Instr::NewLabel { site, captures } => {
                let cols = captures
                    .iter()
                    .map(|r| self.reg(*r))
                    .collect::<Result<Vec<_>>>()?;
                Some(RegVal::Values(
                    (0..self.len)
                        .map(|i| {
                            Value::Label(Label::new(
                                *site,
                                cols.iter().map(|c| c.value_at(i)).collect(),
                            ))
                        })
                        .collect(),
                ))
            }
            Instr::Filter {
                pred,
                live,
                live_sets,
            } => {
                self.exec_filter(*pred, live, live_sets)?;
                None
            }
        };
        self.regs[idx] = val;
        Ok(())
    }

    /// Narrows the selection vector to the predicate's true lanes and
    /// compacts the live registers.
    fn exec_filter(&mut self, pred: Reg, live: &[Reg], live_sets: &[Reg]) -> Result<()> {
        let mask: Vec<bool> = {
            let p = self.reg(pred)?;
            match p.dense_bools() {
                Some(b) => b.to_vec(),
                None => {
                    let mut m = Vec::with_capacity(self.len);
                    for i in 0..self.len {
                        m.push(p.value_at(i).as_bool()?);
                    }
                    m
                }
            }
        };
        let keep: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter_map(|(i, &t)| t.then_some(i))
            .collect();
        self.sel = Some(match &self.sel {
            None => keep.iter().map(|&i| i as u32).collect(),
            Some(s) => keep.iter().map(|&i| s[i]).collect(),
        });
        self.len = keep.len();
        for &r in live {
            let compacted = compact_positional(self.take(r)?, &keep);
            self.regs[r] = Some(compacted);
        }
        for &r in live_sets {
            let compacted = compact_as_column(self.take(r)?, &keep, mask.len());
            self.regs[r] = Some(compacted);
        }
        Ok(())
    }
}

/// The one coalesce that needs no boxed lane: `coalesce(bag column, {})`,
/// which [`trance_algebra::Plan::renest`] puts above every outer join that
/// re-attaches a nesting level and is the only coalesce any plan holds. It
/// is [`Column::coalesce_empty_bag`]: validity bits cleared over the shared
/// offsets and elements, no bag rebuilt. `None` for everything else; the
/// caller boxes.
fn coalesce_unboxed(a: &RegVal, b: &RegVal, taken: &[bool]) -> Option<Column> {
    match (a, b) {
        (RegVal::Col(col), RegVal::Const(Value::Bag(bag))) if bag.is_empty() => {
            col.coalesce_empty_bag(taken)
        }
        _ => None,
    }
}

/// Positional compaction of a scratch register (values only ever read
/// lane-wise afterwards).
fn compact_positional(rv: RegVal, keep: &[usize]) -> RegVal {
    match rv {
        RegVal::Const(v) => RegVal::Const(v),
        RegVal::Col(c) => {
            let idx: Vec<Option<usize>> = keep.iter().map(|&i| Some(i)).collect();
            RegVal::Col(Arc::new(c.gather(&idx)))
        }
        RegVal::Ints(x) => RegVal::Ints(keep.iter().map(|&i| x[i]).collect()),
        RegVal::Reals(x) => RegVal::Reals(keep.iter().map(|&i| x[i]).collect()),
        RegVal::Bools(x) => RegVal::Bools(keep.iter().map(|&i| x[i]).collect()),
        RegVal::Values(x) => {
            let mut x = x;
            let mut out = Vec::with_capacity(keep.len());
            for &i in keep {
                out.push(std::mem::replace(&mut x[i], Value::Null));
            }
            RegVal::Values(out)
        }
    }
}

/// Compaction of an output-set register. `Values` registers are built into
/// a column **before** gathering — as an extend followed by a select in
/// another pipeline would build it — because `Column::from_values` infers
/// the column kind from *all* values: building from the surviving subset
/// could infer a different (narrower) kind, and the physical bytes a later
/// shuffle ships would then depend on where a pipeline was cut.
fn compact_as_column(rv: RegVal, keep: &[usize], _pre_len: usize) -> RegVal {
    match rv {
        RegVal::Values(x) => {
            let col = Column::from_values(x);
            let idx: Vec<Option<usize>> = keep.iter().map(|&i| Some(i)).collect();
            RegVal::Col(Arc::new(col.gather(&idx)))
        }
        other => compact_positional(other, keep),
    }
}

fn exec_prim(
    op: PrimOp,
    l: &RegVal,
    r: &RegVal,
    guard: Option<&[bool]>,
    n: usize,
) -> Result<RegVal> {
    // Dense integer kernel (Div always widens to real, as in `prim_op`). A
    // result that leaves `i64` raises on the lanes the guard lets through;
    // elsewhere the wrapped value is one no one reads.
    if op != PrimOp::Div {
        if let (Some(a), Some(b)) = (int_view(l), int_view(r)) {
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let (x, y) = (a.get(i), b.get(i));
                let (v, overflow) = match op {
                    PrimOp::Add => x.overflowing_add(y),
                    PrimOp::Sub => x.overflowing_sub(y),
                    PrimOp::Mul => x.overflowing_mul(y),
                    PrimOp::Div => unreachable!(),
                };
                if overflow && guard_true(guard, i) {
                    return Err(NrcError::IntegerOverflow(op.symbol()).into());
                }
                out.push(v);
            }
            return Ok(RegVal::Ints(out));
        }
    }
    // Dense real kernel; division by zero errors only on guarded lanes.
    if let (Some(a), Some(b)) = (num_view(l), num_view(r)) {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let (x, y) = (a.get(i), b.get(i));
            out.push(match op {
                PrimOp::Add => x + y,
                PrimOp::Sub => x - y,
                PrimOp::Mul => x * y,
                PrimOp::Div => {
                    if y == 0.0 {
                        if guard_true(guard, i) {
                            return Err(NrcError::DivisionByZero.into());
                        }
                        0.0
                    } else {
                        x / y
                    }
                }
            });
        }
        return Ok(RegVal::Reals(out));
    }
    // Row-wise fallback: exact `ScalarExpr::eval` semantics; errors only on
    // guarded lanes, NULL elsewhere.
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(if guard_true(guard, i) {
            prim_op(op, &l.value_at(i), &r.value_at(i))?
        } else {
            Value::Null
        });
    }
    Ok(RegVal::Values(out))
}

fn exec_cmp(op: CmpOp, l: &RegVal, r: &RegVal, n: usize) -> RegVal {
    // Dense integer comparison (constants splatted).
    if let (Some(a), Some(b)) = (int_view(l), int_view(r)) {
        return RegVal::Bools((0..n).map(|i| op.eval(a.get(i).cmp(&b.get(i)))).collect());
    }
    // Dictionary-aware string predicate: one `Value::cmp` per *distinct*
    // string, then a u32 code scan — NULL/absent lanes compare false, as in
    // `ScalarExpr::eval`.
    let dict_path = |c: &Column, v: &Value, const_left: bool| -> Option<RegVal> {
        if matches!(v, Value::Null) {
            return None;
        }
        if let Column::Str {
            dict,
            codes,
            nulls,
            absent,
        } = c
        {
            let table: Vec<bool> = (0..dict.len())
                .map(|ci| {
                    let entry = Value::str(dict.get(ci));
                    if const_left {
                        op.eval(v.cmp(&entry))
                    } else {
                        op.eval(entry.cmp(v))
                    }
                })
                .collect();
            return Some(RegVal::Bools(
                (0..n)
                    .map(|i| {
                        if nulls.get(i) || absent.get(i) {
                            false
                        } else {
                            table[codes[i] as usize]
                        }
                    })
                    .collect(),
            ));
        }
        None
    };
    if let (RegVal::Col(c), RegVal::Const(v)) = (l, r) {
        if let Some(out) = dict_path(c, v, false) {
            return out;
        }
    }
    if let (RegVal::Const(v), RegVal::Col(c)) = (l, r) {
        if let Some(out) = dict_path(c, v, true) {
            return out;
        }
    }
    // Row-wise comparison, NULL rule included.
    RegVal::Bools(
        (0..n)
            .map(|i| cmp_op(op, &l.value_at(i), &r.value_at(i)))
            .collect(),
    )
}

fn exec_is_true(cond: &RegVal, guard: Option<&[bool]>, n: usize) -> Result<Vec<bool>> {
    if let Some(b) = cond.dense_bools() {
        return Ok((0..n).map(|i| guard_true(guard, i) && b[i]).collect());
    }
    if let RegVal::Const(v) = cond {
        return match v.as_bool() {
            Ok(x) => Ok((0..n).map(|i| guard_true(guard, i) && x).collect()),
            Err(e) => {
                // A non-bool constant errors — but only if a guarded lane
                // exists (`ScalarExpr::eval` evaluates it on no row
                // otherwise).
                if (0..n).any(|i| guard_true(guard, i)) {
                    Err(e.into())
                } else {
                    Ok(vec![false; n])
                }
            }
        };
    }
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(if guard_true(guard, i) {
            cond.value_at(i).as_bool()?
        } else {
            false
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Program API
// ---------------------------------------------------------------------------

impl KernelProgram {
    /// Number of SSA instructions.
    pub fn instr_count(&self) -> usize {
        self.instrs.len()
    }

    /// Executes the program over one batch, producing the output batch:
    /// row for row, what `ScalarExpr::eval` computes for the compiled
    /// operators on the batch's rows.
    pub fn run(&self, batch: &Batch) -> Result<Batch> {
        let mut st = State {
            batch,
            regs: vec![None; self.instrs.len()],
            sel: None,
            len: batch.rows(),
        };
        for (idx, instr) in self.instrs.iter().enumerate() {
            st.step(idx, instr)?;
        }
        let out = if self.from_input {
            match &st.sel {
                None => batch.clone(),
                Some(s) => {
                    let idx: Vec<usize> = s.iter().map(|&i| i as usize).collect();
                    batch.take(&idx)
                }
            }
        } else {
            Batch::unit(st.len)
        };
        // Replay the `with_column` sets in operator order (replace-in-place
        // or append), memoizing per register so a register set under two
        // names shares one column.
        let mut cache: HashMap<Reg, Arc<Column>> = HashMap::new();
        let mut sets = Vec::with_capacity(self.sets.len());
        for (name, r) in &self.sets {
            let col = match cache.get(r) {
                Some(col) => col.clone(),
                None => {
                    let col = materialize(st.take(*r)?, st.len);
                    cache.insert(*r, col.clone());
                    col
                }
            };
            sets.push((name.as_str(), col));
        }
        Ok(out.with_columns(sets))
    }

    /// Renders the instruction listing (shown by `--explain` and recorded in
    /// the engine stats).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let g = |guard: &Option<Reg>| match guard {
            Some(r) => format!(" ?r{r}"),
            None => String::new(),
        };
        for (i, instr) in self.instrs.iter().enumerate() {
            let line = match instr {
                Instr::Load { name } => format!("r{i} = load {name}"),
                Instr::Lit { value } => format!("r{i} = lit {value}"),
                Instr::Prim {
                    op,
                    left,
                    right,
                    guard,
                } => format!("r{i} = {op:?} r{left} r{right}{}", g(guard)),
                Instr::Cmp { op, left, right } => format!("r{i} = {op:?} r{left} r{right}"),
                Instr::IsTrue { cond, guard } => format!("r{i} = is_true r{cond}{}", g(guard)),
                Instr::NotMask { cond, guard } => format!("r{i} = not_mask r{cond}{}", g(guard)),
                Instr::NullMask { cond, guard } => {
                    format!("r{i} = null_mask r{cond}{}", g(guard))
                }
                Instr::AndMerge { taken, b } => format!("r{i} = and_merge r{taken} r{b}"),
                Instr::OrMerge { a_true, taken, b } => {
                    format!("r{i} = or_merge r{a_true} r{taken} r{b}")
                }
                Instr::CoalesceMerge { a, taken, b } => {
                    format!("r{i} = coalesce r{a} r{taken} r{b}")
                }
                Instr::Not { input, guard } => format!("r{i} = not r{input}{}", g(guard)),
                Instr::NewLabel { site, captures } => format!(
                    "r{i} = new_label #{site} [{}]",
                    captures
                        .iter()
                        .map(|r| format!("r{r}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                ),
                Instr::Filter {
                    pred,
                    live,
                    live_sets,
                } => {
                    let all: Vec<String> = live
                        .iter()
                        .chain(live_sets.iter())
                        .map(|r| format!("r{r}"))
                        .collect();
                    format!("filter r{pred} compact=[{}]", all.join(" "))
                }
            };
            let _ = writeln!(out, "{line}");
        }
        let base = if self.from_input { "input" } else { "unit" };
        let sets: Vec<String> = self
            .sets
            .iter()
            .map(|(n, r)| format!("{n}:=r{r}"))
            .collect();
        let _ = writeln!(out, "out: {base} [{}]", sets.join(", "));
        out
    }
}

/// Materializes a register as an output column — a *set* attribute: every
/// row carries it, so absence collapses to an explicit NULL (a `Tuple::set`
/// of a NULL).
fn materialize(rv: RegVal, len: usize) -> Arc<Column> {
    match rv {
        RegVal::Col(c) if c.has_absent() => Arc::new(c.absent_as_null()),
        RegVal::Col(c) => c,
        RegVal::Const(v) => Arc::new(Column::from_const(&v, len)),
        RegVal::Ints(data) => {
            let n = data.len();
            Arc::new(Column::Int {
                data,
                nulls: Bitmap::zeros(n),
                absent: Bitmap::zeros(n),
            })
        }
        RegVal::Reals(data) => {
            let n = data.len();
            Arc::new(Column::Real {
                data,
                nulls: Bitmap::zeros(n),
                absent: Bitmap::zeros(n),
            })
        }
        RegVal::Bools(data) => Arc::new(Column::from_bools(data)),
        RegVal::Values(values) => Arc::new(Column::from_values(values)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trance_algebra::ScalarExpr as E;
    use trance_nrc::{Bag, Tuple};

    fn prim(op: PrimOp, l: E, r: E) -> E {
        E::Prim {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    fn cmp(op: CmpOp, l: E, r: E) -> E {
        E::Cmp {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    /// A batch exercising every evaluation corner: dense ints, nulls,
    /// absent attributes, mixed numeric kinds, dictionary strings, labels,
    /// a bag column with a NULL and an absent lane.
    fn mixed_batch() -> Batch {
        Batch::from_rows(&[
            Value::tuple([
                ("a", Value::Int(3)),
                ("b", Value::Int(10)),
                ("r", Value::Real(1.5)),
                ("s", Value::str("red")),
                ("lb", Value::Label(Label::new(7, vec![Value::Int(1)]))),
                ("x", Value::Real(0.25)),
                ("d", Value::Date(100)),
                ("f", Value::Bool(true)),
                ("k", Value::Int(11)),
                ("w", Value::Real(0.5)),
                (
                    "g",
                    Value::Bag(Bag::new(vec![
                        Value::tuple([("p", Value::Int(1))]),
                        Value::tuple([("p", Value::Int(2))]),
                    ])),
                ),
            ]),
            Value::tuple([
                ("a", Value::Int(-2)),
                ("b", Value::Null),
                ("r", Value::Real(0.0)),
                ("s", Value::str("blue")),
                ("lb", Value::Label(Label::new(7, vec![Value::Int(2)]))),
                ("x", Value::Null),
                ("d", Value::Null),
                ("f", Value::Null),
                ("k", Value::Int(12)),
                ("w", Value::Real(1.5)),
                ("g", Value::Null),
            ]),
            // `b`, `s`, `lb`, `d`, `f` and `g` absent; `r` holds an int
            // (mixed-kind column); `k` and `w` are dense.
            Value::tuple([
                ("a", Value::Int(5)),
                ("r", Value::Int(4)),
                ("x", Value::Real(8.0)),
                ("k", Value::Int(13)),
                ("w", Value::Real(2.5)),
            ]),
            Value::tuple([
                ("a", Value::Null),
                ("b", Value::Int(0)),
                ("r", Value::Real(-2.5)),
                ("s", Value::str("red")),
                ("lb", Value::Null),
                ("x", Value::Real(-1.0)),
                ("d", Value::Date(7)),
                ("f", Value::Bool(false)),
                ("k", Value::Int(14)),
                ("w", Value::Real(3.5)),
                ("g", Value::empty_bag()),
            ]),
        ])
    }

    /// What the run of operators is defined to compute — the oracle every
    /// kernel is held to: `ScalarExpr::eval` applied row by row to the
    /// batch's rows. A `Select` keeps the rows its predicate holds on, a
    /// `Project` builds each row from the input row, an `Extend` sets its
    /// columns in order, each seeing the ones set before it.
    fn by_definition(b: &Batch, ops: &[KernelOp]) -> Result<Vec<Value>> {
        let mut rows = Vec::with_capacity(b.rows());
        for row in b.to_rows() {
            rows.push(row.as_tuple()?.clone());
        }
        for op in ops {
            let mut out = Vec::with_capacity(rows.len());
            for mut row in rows {
                match op {
                    KernelOp::Select(pred) => {
                        if pred.eval(&row)?.as_bool()? {
                            out.push(row);
                        }
                    }
                    KernelOp::Project(cols) => {
                        let mut projected = Tuple::empty();
                        for (name, e) in cols {
                            projected.set(name.clone(), e.eval(&row)?);
                        }
                        out.push(projected);
                    }
                    KernelOp::Extend(cols) => {
                        for (name, e) in cols {
                            let v = e.eval(&row)?;
                            row.set(name.clone(), v);
                        }
                        out.push(row);
                    }
                }
            }
            rows = out;
        }
        Ok(rows.into_iter().map(Value::Tuple).collect())
    }

    /// Asserts that `got` holds, row for row and value for value (an `Int`
    /// is no `Real`), what `ops` are defined to compute on `b`; returns
    /// those rows.
    fn assert_defined(got: &Batch, b: &Batch, ops: &[KernelOp], context: &str) -> Vec<Value> {
        let want = by_definition(b, ops)
            .unwrap_or_else(|err| panic!("{context}: the definition raised {err}"));
        assert_eq!(
            format!("{:?}", got.to_rows()),
            format!("{want:?}"),
            "mismatch: {context}"
        );
        want
    }

    fn expr_corpus() -> Vec<E> {
        vec![
            E::col("a"),
            E::col("missing"),
            E::constant(Value::Int(42)),
            prim(PrimOp::Add, E::col("a"), E::col("b")),
            prim(PrimOp::Mul, E::col("a"), E::constant(Value::Int(3))),
            prim(PrimOp::Sub, E::col("r"), E::constant(Value::Real(0.5))),
            prim(PrimOp::Add, E::col("a"), E::col("r")),
            cmp(CmpOp::Lt, E::col("a"), E::col("b")),
            cmp(CmpOp::Ge, E::col("a"), E::constant(Value::Int(0))),
            cmp(CmpOp::Eq, E::col("s"), E::constant(Value::str("red"))),
            cmp(CmpOp::Ne, E::constant(Value::str("blue")), E::col("s")),
            E::And(
                Box::new(cmp(CmpOp::Gt, E::col("a"), E::constant(Value::Int(0)))),
                Box::new(cmp(CmpOp::Lt, E::col("b"), E::constant(Value::Int(20)))),
            ),
            E::Or(
                Box::new(cmp(CmpOp::Lt, E::col("a"), E::constant(Value::Int(0)))),
                Box::new(cmp(CmpOp::Eq, E::col("s"), E::constant(Value::str("red")))),
            ),
            E::Not(Box::new(cmp(
                CmpOp::Eq,
                E::col("a"),
                E::constant(Value::Int(5)),
            ))),
            E::Coalesce(Box::new(E::col("b")), Box::new(E::col("a"))),
            E::Coalesce(
                Box::new(E::col("missing")),
                Box::new(E::constant(Value::Int(-1))),
            ),
            // Coalesce over scalars (boxed lanes): one kind on both sides,
            // from a column, a literal or a computed buffer — NULL where both
            // are NULL.
            E::Coalesce(Box::new(E::col("b")), Box::new(E::constant(Value::Int(7)))),
            E::Coalesce(Box::new(E::col("b")), Box::new(E::constant(Value::Null))),
            E::Coalesce(
                Box::new(E::col("b")),
                Box::new(prim(PrimOp::Add, E::col("k"), E::constant(Value::Int(1)))),
            ),
            E::Coalesce(
                Box::new(E::col("x")),
                Box::new(prim(
                    PrimOp::Mul,
                    E::col("w"),
                    E::constant(Value::Real(2.0)),
                )),
            ),
            E::Coalesce(Box::new(E::col("d")), Box::new(E::constant(Value::Date(1)))),
            E::Coalesce(
                Box::new(E::col("f")),
                Box::new(cmp(CmpOp::Gt, E::col("a"), E::constant(Value::Int(0)))),
            ),
            // Kinds that do not agree, or no lane holding a value.
            E::Coalesce(Box::new(E::col("b")), Box::new(E::col("x"))),
            E::Coalesce(
                Box::new(E::col("missing")),
                Box::new(E::constant(Value::Null)),
            ),
            E::Coalesce(
                Box::new(E::col("s")),
                Box::new(E::constant(Value::str("none"))),
            ),
            // The lowering's `coalesce(bag, {})`, and the same over no column.
            E::col("g"),
            E::Coalesce(
                Box::new(E::col("g")),
                Box::new(E::constant(Value::empty_bag())),
            ),
            E::Coalesce(
                Box::new(E::col("missing")),
                Box::new(E::constant(Value::empty_bag())),
            ),
            E::NewLabel {
                site: 9,
                captures: vec![
                    ("x".into(), E::col("a")),
                    ("y".into(), prim(PrimOp::Add, E::col("a"), E::col("b"))),
                ],
            },
            // Guarded division: the zero `r` lane is short-circuited away.
            E::And(
                Box::new(cmp(CmpOp::Gt, E::col("r"), E::constant(Value::Real(0.5)))),
                Box::new(cmp(
                    CmpOp::Gt,
                    prim(PrimOp::Div, E::col("b"), E::col("r")),
                    E::constant(Value::Real(1.0)),
                )),
            ),
        ]
    }

    #[test]
    fn extend_agrees_with_interpreter_per_expression() {
        let b = mixed_batch();
        for (i, e) in expr_corpus().into_iter().enumerate() {
            let ops = [KernelOp::Extend(vec![("out".into(), e.clone())])];
            let got = compile_ops(&ops)
                .run(&b)
                .unwrap_or_else(|err| panic!("expr #{i} {e:?} failed under kernels: {err}"));
            assert_defined(&got, &b, &ops, &format!("expr #{i} {e:?}"));
        }
        // A bare column reference shares the input column where nothing is
        // absent.
        let ops = [KernelOp::Extend(vec![("out".into(), E::col("k"))])];
        let shared = compile_ops(&ops).run(&b).expect("kernel");
        assert!(Arc::ptr_eq(
            &shared.column_arc("out").unwrap(),
            &b.column_arc("k").unwrap()
        ));
    }

    /// The one unboxed coalesce, `coalesce(bag column, {})`, flips validity
    /// over the shared elements and comes out as exactly the column
    /// `Column::from_values` would build from the boxed lanes; every other
    /// operand pair boxes.
    #[test]
    fn typed_coalesce_builds_the_column_from_values_would() {
        use Value::{Int, Null};
        let g = || Value::bag(vec![Value::tuple([("p", Int(1))])]);
        let bags = RegVal::Col(Arc::new(Column::from_values(vec![g(), Null, g(), Null])));
        let empty = RegVal::Const(Value::empty_bag());
        let got = coalesce_unboxed(&bags, &empty, &[false, true, false, true])
            .expect("a bag column coalesced with {} stays a column");
        let want = Column::from_values(vec![g(), Value::empty_bag(), g(), Value::empty_bag()]);
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        // A guard can leave a NULL lane untaken: it stays NULL.
        let got = coalesce_unboxed(&bags, &empty, &[false, true, false, false]).expect("bag");
        let want = Column::from_values(vec![g(), Value::empty_bag(), g(), Null]);
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        // Anything else boxes: a scalar column, a fallback that is not `{}`.
        let ints = RegVal::Col(Arc::new(Column::from_values(vec![
            Int(1),
            Null,
            Int(3),
            Null,
        ])));
        let taken = [false, true, false, true];
        assert!(coalesce_unboxed(&ints, &RegVal::Const(Int(7)), &taken).is_none());
        assert!(coalesce_unboxed(&bags, &RegVal::Const(Value::bag(vec![g()])), &taken).is_none());
    }

    #[test]
    fn project_agrees_with_interpreter() {
        let b = mixed_batch();
        let ops = [KernelOp::Project(vec![
            ("x".into(), prim(PrimOp::Add, E::col("a"), E::col("b"))),
            ("y".into(), E::col("s")),
            ("z".into(), E::constant(Value::str("k"))),
        ])];
        let got = compile_ops(&ops).run(&b).expect("kernel project");
        assert_defined(&got, &b, &ops, "project");
    }

    #[test]
    fn fused_select_extend_select_agrees_with_sequential_interpretation() {
        let b = mixed_batch();
        let pred1 = cmp(CmpOp::Ge, E::col("a"), E::constant(Value::Int(0)));
        let ext = vec![
            ("sum".into(), prim(PrimOp::Add, E::col("a"), E::col("b"))),
            (
                "isred".into(),
                cmp(CmpOp::Eq, E::col("s"), E::constant(Value::str("red"))),
            ),
        ];
        let pred2 = E::Or(
            Box::new(E::col("isred")),
            Box::new(cmp(CmpOp::Gt, E::col("sum"), E::constant(Value::Int(5)))),
        );
        let ops = [
            KernelOp::Select(pred1),
            KernelOp::Extend(ext),
            KernelOp::Select(pred2),
        ];
        let got = compile_ops(&ops).run(&b).expect("fused kernel");
        assert_defined(&got, &b, &ops, "select+extend+select");
    }

    #[test]
    fn filter_after_project_compacts_output_registers() {
        let b = mixed_batch();
        let ops = [
            KernelOp::Project(vec![
                ("x".into(), E::col("a")),
                (
                    "m".into(),
                    prim(PrimOp::Mul, E::col("a"), E::constant(Value::Int(2))),
                ),
            ]),
            KernelOp::Select(cmp(CmpOp::Gt, E::col("x"), E::constant(Value::Int(0)))),
        ];
        let got = compile_ops(&ops).run(&b).expect("kernel");
        assert_defined(&got, &b, &ops, "project+select");
    }

    #[test]
    fn select_keeps_the_rows_the_definition_keeps() {
        let b = mixed_batch();
        for (i, e) in expr_corpus().into_iter().enumerate() {
            let ops = [KernelOp::Select(e.clone())];
            let got = compile_ops(&ops).run(&b);
            match (got, by_definition(&b, &ops)) {
                (Ok(g), Ok(_)) => {
                    assert_defined(&g, &b, &ops, &format!("select on expr #{i} {e:?}"));
                }
                (Err(_), Err(_)) => {}
                (g, w) => panic!("select outcome mismatch on expr #{i} {e:?}: {g:?} vs {w:?}"),
            }
        }
    }

    /// `+`, `-`, `*` over two integers leave `i64` as one typed error — from
    /// the reference evaluator, from the plan layer's definition, from the
    /// dense integer kernel and from the row-wise lane a mixed-kind column
    /// takes — and raise nothing on a lane a short-circuit guard removes.
    #[test]
    fn integer_overflow_is_one_typed_error_on_every_lane() {
        use trance_nrc::builder as nrc;
        // `x`/`y` are dense integer columns; `mx`/`my` hold the same integers
        // on row 0 and a real on row 1, so they are mixed-kind columns.
        let batch = |x: i64, y: i64| {
            Batch::from_rows(&[
                Value::tuple([
                    ("x", Value::Int(x)),
                    ("y", Value::Int(y)),
                    ("mx", Value::Int(x)),
                    ("my", Value::Int(y)),
                ]),
                Value::tuple([
                    ("x", Value::Int(0)),
                    ("y", Value::Int(1)),
                    ("mx", Value::Real(0.5)),
                    ("my", Value::Real(1.5)),
                ]),
            ])
        };
        for (op, x, y) in [
            (PrimOp::Add, i64::MAX, 1),
            (PrimOp::Sub, i64::MIN, 1),
            (PrimOp::Mul, i64::MAX, 2),
        ] {
            let sym = op.symbol();
            let reference = match op {
                PrimOp::Add => nrc::add(nrc::int(x), nrc::int(y)),
                PrimOp::Sub => nrc::sub(nrc::int(x), nrc::int(y)),
                _ => nrc::mul(nrc::int(x), nrc::int(y)),
            };
            assert_eq!(
                trance_nrc::eval(&reference, &trance_nrc::Env::new()),
                Err(NrcError::IntegerOverflow(sym))
            );
            let b = batch(x, y);
            assert!(b.column("x").unwrap().dense_ints().is_some());
            assert!(matches!(b.column("mx").unwrap(), Column::Other { .. }));
            for (lane, l, r) in [("dense", "x", "y"), ("mixed-kind", "mx", "my")] {
                let e = prim(op, E::col(l), E::col(r));
                assert_eq!(
                    e.eval(b.to_rows()[0].as_tuple().unwrap()),
                    Err(NrcError::IntegerOverflow(sym)),
                    "{op:?} {lane}: ScalarExpr::eval"
                );
                let ops = [KernelOp::Extend(vec![("out".into(), e.clone())])];
                for (route, got) in [
                    ("kernel", compile_ops(&ops).run(&b).map(|_| ())),
                    ("definition", by_definition(&b, &ops).map(|_| ())),
                ] {
                    assert_eq!(
                        got.map_err(|e| e.to_string()),
                        Err(NrcError::IntegerOverflow(sym).to_string()),
                        "{op:?} {lane}: {route}"
                    );
                }
                // Guarded: the overflowing lane is the one the guard removes
                // — behind `Or` and `And`, behind a `coalesce` whose first
                // operand is not NULL, behind an earlier `Select`.
                let safe = cmp(CmpOp::Eq, E::col("x"), E::constant(Value::Int(0)));
                let is_zero = cmp(CmpOp::Eq, e.clone(), E::constant(Value::Int(0)));
                let guarded = [
                    vec![KernelOp::Select(E::Or(
                        Box::new(E::Not(Box::new(safe.clone()))),
                        Box::new(is_zero.clone()),
                    ))],
                    vec![KernelOp::Select(E::And(
                        Box::new(safe.clone()),
                        Box::new(is_zero.clone()),
                    ))],
                    vec![KernelOp::Extend(vec![(
                        "out".into(),
                        E::Coalesce(Box::new(E::col("x")), Box::new(e.clone())),
                    )])],
                    vec![
                        KernelOp::Select(safe.clone()),
                        KernelOp::Extend(vec![("out".into(), e.clone())]),
                    ],
                ];
                for (g, ops) in guarded.iter().enumerate() {
                    let got = compile_ops(ops)
                        .run(&b)
                        .unwrap_or_else(|err| panic!("{op:?} {lane}: guard #{g} raised {err}"));
                    assert_defined(&got, &b, ops, &format!("guard #{g}"));
                }
            }
        }
    }

    /// A query that panicked while the cache's lock was held leaves the map
    /// whole (inserts and `clear` are its only writes): the cache keeps
    /// answering instead of panicking every later query of the engine.
    #[test]
    fn a_poisoned_kernel_cache_keeps_answering() {
        let cache = KernelCache::new();
        let ops = [KernelOp::Select(E::col("f"))];
        assert!(cache.get_or_compile(&ops).1.is_some());
        std::thread::scope(|scope| {
            let poisoner =
                scope.spawn(|| cache.under_lock(|| panic!("poisoning the kernel cache")));
            assert!(poisoner.join().is_err());
        });
        assert!(cache.programs.is_poisoned());
        assert!(cache.get_or_compile(&ops).1.is_none(), "still a hit");
        assert_eq!((cache.len(), cache.hits(), cache.misses()), (1, 1, 1));
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn common_subexpressions_are_interned() {
        let shared = prim(PrimOp::Add, E::col("a"), E::col("b"));
        let prog = compile_ops(&[KernelOp::Extend(vec![
            ("x".into(), shared.clone()),
            (
                "y".into(),
                prim(PrimOp::Mul, shared.clone(), E::constant(Value::Int(2))),
            ),
            ("z".into(), shared.clone()),
        ])]);
        // load a, load b, add, lit 2, mul — the shared sum compiles once and
        // `z` introduces no instruction at all.
        assert_eq!(prog.instr_count(), 5, "{}", prog.render());
    }

    #[test]
    fn short_circuit_guards_division_errors() {
        let b = Batch::from_rows(&[
            Value::tuple([("d", Value::Int(0)), ("n", Value::Int(1))]),
            Value::tuple([("d", Value::Int(2)), ("n", Value::Int(8))]),
        ]);
        let div = prim(PrimOp::Div, E::col("n"), E::col("d"));
        // Top level: the zero divisor on row 0 must error...
        let top = compile_ops(&[KernelOp::Extend(vec![("q".into(), div.clone())])]);
        assert!(
            top.run(&b).is_err(),
            "unguarded division by zero must error"
        );
        // ...but guarded behind `d != 0` it is short-circuited away.
        let guarded = E::And(
            Box::new(cmp(CmpOp::Ne, E::col("d"), E::constant(Value::Int(0)))),
            Box::new(cmp(CmpOp::Gt, div, E::constant(Value::Real(1.0)))),
        );
        let ops = [KernelOp::Select(guarded)];
        let got = compile_ops(&ops)
            .run(&b)
            .expect("guarded division must not error");
        assert_defined(&got, &b, &ops, "guarded division filter");
    }

    #[test]
    fn dictionary_predicate_matches_row_comparison() {
        let rows: Vec<Value> = (0..64)
            .map(|i| {
                if i % 7 == 0 {
                    Value::tuple([("k", Value::Int(i))])
                } else {
                    Value::tuple([
                        ("s", Value::str(["red", "green", "blue"][i as usize % 3])),
                        ("k", Value::Int(i)),
                    ])
                }
            })
            .collect();
        let b = Batch::from_rows(&rows);
        let green = E::constant(Value::str("green"));
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge] {
            for (side, e) in [
                ("s op const", cmp(op, E::col("s"), green.clone())),
                ("const op s", cmp(op, green.clone(), E::col("s"))),
            ] {
                let ops = [KernelOp::Select(e)];
                let got = compile_ops(&ops).run(&b).expect("kernel select");
                let kept =
                    assert_defined(&got, &b, &ops, &format!("dict predicate {op:?}, {side}"));
                assert!(!kept.is_empty() && kept.len() < b.rows());
            }
        }
    }

    #[test]
    fn lazy_registers_stay_constant_sized() {
        // A constant column over a big batch must not materialize per lane
        // until output time; the run still produces the splatted column.
        let rows: Vec<Value> = (0..1000)
            .map(|i| Value::tuple([("a", Value::Int(i))]))
            .collect();
        let b = Batch::from_rows(&rows);
        let ops = [KernelOp::Extend(vec![(
            "t".into(),
            E::constant(Value::str("tag")),
        )])];
        let got = compile_ops(&ops).run(&b).expect("kernel");
        assert_defined(&got, &b, &ops, "lazy const");
    }

    #[test]
    fn render_lists_every_instruction() {
        let prog = compile_ops(&[
            KernelOp::Select(cmp(CmpOp::Gt, E::col("a"), E::constant(Value::Int(0)))),
            KernelOp::Extend(vec![(
                "x".into(),
                prim(PrimOp::Add, E::col("a"), E::col("b")),
            )]),
        ]);
        let text = prog.render();
        assert!(text.contains("load a"), "{text}");
        assert!(text.contains("filter"), "{text}");
        assert!(text.lines().count() >= prog.instr_count(), "{text}");
    }
}
