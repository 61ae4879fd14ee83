//! `compare A.json B.json`: applies the benchmark's bounds to every pairing
//! of end-to-end metric and workload of two results files.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B is worse than A by more than the metric's bound.
    Regressed,
    /// A's or B's own spread is wider than the bound, so a difference of
    /// that size is not a signal; never reported as "unchanged".
    Unresolved,
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// How much worse B is than A, as a share of A (negative: better).
    pub worse_by: f64,
    pub bound: f64,
    pub spread: f64,
    pub verdict: Verdict,
}

/// A metric's value and the spread of its estimate: the samples' quartile
/// distance ÷ value, shrunk by √n as an estimate from n samples is.
fn value_and_spread(metric: &Json) -> Option<(f64, f64)> {
    let value = metric.get("value")?.as_f64()?;
    let spread = match (metric.get("n"), metric.get("q1"), metric.get("q3")) {
        (Some(n), Some(q1), Some(q3)) if value != 0.0 => {
            (q3.as_f64()? - q1.as_f64()?).abs() / value.abs() / n.as_f64()?.max(1.0).sqrt()
        }
        _ => 0.0,
    };
    Some((value, spread))
}

pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let workloads = |doc: &Json| -> Result<Vec<(String, Json)>, String> {
        Ok(doc
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or("not a results file: no `workloads`")?
            .to_vec())
    };
    let b_workloads = workloads(b)?;
    let mut rows = Vec::new();
    for (name, a_entry) in workloads(a)? {
        let b_entry = b_workloads
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, e)| e)
            .ok_or_else(|| format!("workload {name} is missing from the second file"))?;
        for m in &END_TO_END {
            let metric_of = |entry: &Json| {
                entry
                    .get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(value_and_spread)
                    .ok_or_else(|| format!("{name}: no {}", m.name))
            };
            let (a_value, a_spread) = metric_of(&a_entry)?;
            let (b_value, b_spread) = metric_of(b_entry)?;
            let worse_by = match m.better {
                Better::Lower => (b_value - a_value) / a_value,
                Better::Higher => (a_value - b_value) / a_value,
            };
            let spread = a_spread.max(b_spread);
            let verdict = if spread > m.bound {
                Verdict::Unresolved
            } else if worse_by > m.bound {
                Verdict::Regressed
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: name.clone(),
                metric: m.name,
                a: a_value,
                b: b_value,
                worse_by,
                bound: m.bound,
                spread,
                verdict,
            });
        }
        let failed = b_entry.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        if failed > 0.0 {
            // The bound on `failed_share` is 0.
            rows.push(Row {
                workload: name.clone(),
                metric: "failed_share",
                a: a_entry
                    .get("failed_share")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
                b: b_entry
                    .get("failed_share")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
                worse_by: f64::INFINITY,
                bound: 0.0,
                spread: 0.0,
                verdict: Verdict::Regressed,
            });
        }
    }
    Ok(rows)
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<18} {:<18} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict\n",
        "workload", "metric", "A", "B", "worse by", "bound", "spread"
    );
    for r in rows {
        let verdict = match r.verdict {
            Verdict::Ok => "ok",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        };
        out.push_str(&format!(
            "{:<18} {:<18} {:>14.4} {:>14.4} {:>8.1}% {:>6.1}% {:>6.1}%  {verdict}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.spread * 100.0,
        ));
    }
    out
}
