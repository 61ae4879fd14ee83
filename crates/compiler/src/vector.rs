//! Vectorized evaluation of plan scalar expressions over columnar batches.
//!
//! [`eval_scalar_batch`] turns a `trance_algebra::ScalarExpr` into one output
//! [`Column`] per batch: arithmetic and comparisons run column-at-a-time over
//! dense `i64`/`f64`/`bool` buffers when the operands allow it, and fall back
//! to row-at-a-time value semantics (identical to `ScalarExpr::eval` over
//! tuples) whenever nulls, absent attributes or mixed kinds are involved —
//! so a batch can never disagree with `ScalarExpr::eval` on a single
//! expression.

use std::sync::Arc;

use trance_algebra::ScalarExpr;
use trance_dist::{Batch, Bitmap, Column, Result};
use trance_nrc::{CmpOp, Label, NrcError, PrimOp, Value};

/// Evaluates `expr` against every row of `batch`, producing a column of
/// `batch.rows()` values (`Arc`-shared, so a plain column reference is a
/// pointer copy). A column absent from the batch evaluates to NULL — the
/// same outer-join convention as the row evaluator.
pub fn eval_scalar_batch(expr: &ScalarExpr, batch: &Batch) -> Result<Arc<Column>> {
    let n = batch.rows();
    Ok(match expr {
        ScalarExpr::Col(name) => match batch.column_arc(name) {
            Some(col) => col,
            None => Arc::new(Column::null_column(n)),
        },
        ScalarExpr::Const(v) => Arc::new(Column::from_const(v, n)),
        ScalarExpr::Prim { op, left, right } => {
            let l = eval_scalar_batch(left, batch)?;
            let r = eval_scalar_batch(right, batch)?;
            Arc::new(eval_prim(*op, &l, &r, n)?)
        }
        ScalarExpr::Cmp { op, left, right } => {
            let l = eval_scalar_batch(left, batch)?;
            let r = eval_scalar_batch(right, batch)?;
            Arc::new(eval_cmp(*op, &l, &r, n))
        }
        // And/Or/Coalesce preserve the row evaluator's short-circuit: the
        // right operand is evaluated only over the rows that need it (as a
        // gathered sub-batch, so it stays vectorized). Evaluating it over
        // every row would surface errors — a guarded division, a
        // type-guarded operand — that `ScalarExpr::eval` never hits.
        ScalarExpr::And(a, b) => {
            let a = eval_scalar_batch(a, batch)?;
            let mut out = if let Some(x) = a.dense_bools() {
                x.to_vec()
            } else {
                let mut v = Vec::with_capacity(n);
                for i in 0..n {
                    v.push(bool_at_arc(&a, i)?);
                }
                v
            };
            let need: Vec<usize> = out
                .iter()
                .enumerate()
                .filter_map(|(i, t)| t.then_some(i))
                .collect();
            scatter_bools(b, batch, &need, &mut out)?;
            Arc::new(Column::from_bools(out))
        }
        ScalarExpr::Or(a, b) => {
            let a = eval_scalar_batch(a, batch)?;
            let mut out = if let Some(x) = a.dense_bools() {
                x.to_vec()
            } else {
                let mut v = Vec::with_capacity(n);
                for i in 0..n {
                    v.push(bool_at_arc(&a, i)?);
                }
                v
            };
            let need: Vec<usize> = out
                .iter()
                .enumerate()
                .filter_map(|(i, t)| (!t).then_some(i))
                .collect();
            scatter_bools(b, batch, &need, &mut out)?;
            Arc::new(Column::from_bools(out))
        }
        ScalarExpr::Not(e) => {
            let c = eval_scalar_batch(e, batch)?;
            if let Some(x) = c.dense_bools() {
                Arc::new(Column::from_bools(x.iter().map(|b| !b).collect()))
            } else {
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    out.push(!bool_at_arc(&c, i)?);
                }
                Arc::new(Column::from_bools(out))
            }
        }
        ScalarExpr::IsNull(e) => {
            let c = eval_scalar_batch(e, batch)?;
            Arc::new(Column::from_bools(
                (0..n)
                    .map(|i| matches!(value_at_arc(&c, i), Value::Null))
                    .collect(),
            ))
        }
        ScalarExpr::Coalesce(a, b) => {
            let a = eval_scalar_batch(a, batch)?;
            let taken = a.null_lanes();
            if !taken.contains(&true) {
                return Ok(a);
            }
            // `coalesce(bag, {})` clears validity bits; no bag is boxed.
            if is_empty_bag(b) {
                if let Some(col) = a.coalesce_empty_bag(&taken) {
                    return Ok(Arc::new(col));
                }
            }
            let need: Vec<usize> = (0..n).filter(|i| taken[*i]).collect();
            let sub = eval_scalar_batch(b, &gather_for(b, batch, &need))?;
            let mut values: Vec<Value> = (0..n).map(|i| value_at_arc(&a, i)).collect();
            for (k, i) in need.iter().enumerate() {
                values[*i] = value_at_arc(&sub, k);
            }
            Arc::new(Column::from_values(values))
        }
        ScalarExpr::NewLabel { site, captures } => {
            let cols = captures
                .iter()
                .map(|(_, e)| eval_scalar_batch(e, batch))
                .collect::<Result<Vec<Arc<Column>>>>()?;
            let values: Vec<Value> = (0..n)
                .map(|i| {
                    Value::Label(Label::new(
                        *site,
                        cols.iter().map(|c| value_at_arc(c, i)).collect(),
                    ))
                })
                .collect();
            Arc::new(Column::from_values(values))
        }
        ScalarExpr::LabelCapture { label, index } => {
            let c = eval_scalar_batch(label, batch)?;
            let mut values = Vec::with_capacity(n);
            for i in 0..n {
                values.push(match value_at_arc(&c, i) {
                    Value::Null => Value::Null,
                    Value::Label(l) => l.values.get(*index).cloned().unwrap_or(Value::Null),
                    other => {
                        return Err(NrcError::TypeMismatch {
                            expected: "label".into(),
                            found: other.kind().into(),
                            context: "LabelCapture".into(),
                        }
                        .into())
                    }
                });
            }
            Arc::new(Column::from_values(values))
        }
    })
}

/// Evaluates a predicate expression into a per-row selection mask (NULL never
/// satisfies a predicate; a non-bool result is a type error, as in the row
/// engine).
pub fn eval_mask(expr: &ScalarExpr, batch: &Batch) -> Result<Vec<bool>> {
    let col = eval_scalar_batch(expr, batch)?;
    if let Some(b) = col.dense_bools() {
        return Ok(b.to_vec());
    }
    (0..batch.rows()).map(|i| bool_at_arc(&col, i)).collect()
}

/// True for the literal `{}` — the fallback of the lowering's
/// `coalesce(bag, {})`, which the interpreter and the compiled kernels both
/// answer with [`Column::coalesce_empty_bag`] (one primitive, so the two
/// routes keep producing byte-identical columns).
fn is_empty_bag(expr: &ScalarExpr) -> bool {
    matches!(expr, ScalarExpr::Const(Value::Bag(bag)) if bag.is_empty())
}

/// The value of row `i` with absence collapsed to NULL (expression
/// semantics).
fn value_at(col: &Column, i: usize) -> Value {
    col.value_at(i).unwrap_or(Value::Null)
}

fn bool_at(col: &Column, i: usize) -> Result<bool> {
    Ok(value_at(col, i).as_bool()?)
}

/// Row-value access through the shared handle.
fn value_at_arc(col: &Arc<Column>, i: usize) -> Value {
    value_at(col.as_ref(), i)
}

fn bool_at_arc(col: &Arc<Column>, i: usize) -> Result<bool> {
    bool_at(col.as_ref(), i)
}

/// Short-circuit helper: evaluates `expr` over only the `need` rows of
/// `batch` (as a gathered sub-batch) and scatters the boolean results into
/// `out`.
fn scatter_bools(expr: &ScalarExpr, batch: &Batch, need: &[usize], out: &mut [bool]) -> Result<()> {
    if need.is_empty() {
        return Ok(());
    }
    let sub = eval_scalar_batch(expr, &gather_for(expr, batch, need))?;
    for (k, i) in need.iter().enumerate() {
        out[*i] = bool_at_arc(&sub, k)?;
    }
    Ok(())
}

/// Gathers only the columns `expr` references (a missing referenced column
/// evaluates to NULL either way), so short-circuit sub-evaluation never pays
/// for the batch's unrelated columns.
fn gather_for(expr: &ScalarExpr, batch: &Batch, need: &[usize]) -> Batch {
    let cols: Vec<String> = expr.referenced_columns().into_iter().collect();
    batch.project_fields(&cols).take(need)
}

/// A dense (no-null, no-absent) integer column.
fn dense_int_col(data: Vec<i64>) -> Column {
    let n = data.len();
    Column::Int {
        data,
        nulls: Bitmap::zeros(n),
        absent: Bitmap::zeros(n),
    }
}

/// A dense real column.
fn dense_real_col(data: Vec<f64>) -> Column {
    let n = data.len();
    Column::Real {
        data,
        nulls: Bitmap::zeros(n),
        absent: Bitmap::zeros(n),
    }
}

fn eval_prim(op: PrimOp, l: &Column, r: &Column, n: usize) -> Result<Column> {
    // Dense integer fast path, writing the typed buffer directly — no boxing
    // through `Value` (Div always widens to real, like the row path).
    if let (Some(a), Some(b)) = (l.dense_ints(), r.dense_ints()) {
        match op {
            PrimOp::Add => return Ok(dense_int_col(a.iter().zip(b).map(|(x, y)| x + y).collect())),
            PrimOp::Sub => return Ok(dense_int_col(a.iter().zip(b).map(|(x, y)| x - y).collect())),
            PrimOp::Mul => return Ok(dense_int_col(a.iter().zip(b).map(|(x, y)| x * y).collect())),
            PrimOp::Div => {}
        }
    }
    // Dense real fast path (either side may be a dense int, widened at the
    // read — the operand buffers are borrowed, never copied).
    enum NumView<'a> {
        I(&'a [i64]),
        R(&'a [f64]),
    }
    impl NumView<'_> {
        fn get(&self, i: usize) -> f64 {
            match self {
                NumView::I(x) => x[i] as f64,
                NumView::R(x) => x[i],
            }
        }
    }
    fn view(c: &Column) -> Option<NumView<'_>> {
        c.dense_reals()
            .map(NumView::R)
            .or_else(|| c.dense_ints().map(NumView::I))
    }
    if let (Some(a), Some(b)) = (view(l), view(r)) {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let (x, y) = (a.get(i), b.get(i));
            out.push(match op {
                PrimOp::Add => x + y,
                PrimOp::Sub => x - y,
                PrimOp::Mul => x * y,
                PrimOp::Div => {
                    if y == 0.0 {
                        return Err(NrcError::DivisionByZero.into());
                    }
                    x / y
                }
            });
        }
        return Ok(dense_real_col(out));
    }
    // Row-wise fallback: exact `ScalarExpr::eval` semantics.
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let lv = value_at(l, i);
        let rv = value_at(r, i);
        out.push(if matches!(lv, Value::Null) || matches!(rv, Value::Null) {
            Value::Null
        } else {
            match op {
                PrimOp::Add if matches!((&lv, &rv), (Value::Int(_), Value::Int(_))) => {
                    Value::Int(lv.as_int()? + rv.as_int()?)
                }
                PrimOp::Sub if matches!((&lv, &rv), (Value::Int(_), Value::Int(_))) => {
                    Value::Int(lv.as_int()? - rv.as_int()?)
                }
                PrimOp::Mul if matches!((&lv, &rv), (Value::Int(_), Value::Int(_))) => {
                    Value::Int(lv.as_int()? * rv.as_int()?)
                }
                PrimOp::Add => Value::Real(lv.as_real()? + rv.as_real()?),
                PrimOp::Sub => Value::Real(lv.as_real()? - rv.as_real()?),
                PrimOp::Mul => Value::Real(lv.as_real()? * rv.as_real()?),
                PrimOp::Div => {
                    let d = rv.as_real()?;
                    if d == 0.0 {
                        return Err(NrcError::DivisionByZero.into());
                    }
                    Value::Real(lv.as_real()? / d)
                }
            }
        });
    }
    Ok(Column::from_values(out))
}

fn eval_cmp(op: CmpOp, l: &Column, r: &Column, n: usize) -> Column {
    if let (Some(a), Some(b)) = (l.dense_ints(), r.dense_ints()) {
        return Column::from_bools(a.iter().zip(b).map(|(x, y)| op.eval(x.cmp(y))).collect());
    }
    // Row-wise comparison through `Value::cmp` (which already normalizes
    // int/real mixes and NaN); NULL on either side compares false.
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let lv = value_at(l, i);
        let rv = value_at(r, i);
        out.push(if matches!(lv, Value::Null) || matches!(rv, Value::Null) {
            false
        } else {
            op.eval(lv.cmp(&rv))
        });
    }
    Column::from_bools(out)
}
