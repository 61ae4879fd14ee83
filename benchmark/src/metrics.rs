//! The metric tables: names, units, directions and the regression bounds.
//! `BENCHMARK.json` repeats them for the driver; a test keeps the two equal.

use crate::json::Json;
use crate::stats::{fast_decile, summarize, Summary};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse before
    /// a change counts as a regression: three times `spread` or more, up to
    /// the 0.25 the driver allows (which is what every timing gets: the
    /// shared box's noise leaves no room for the 10 % one would like).
    pub bound: f64,
    /// Widest quartile distance ÷ median over ten runs with ten seeds, over
    /// the six workloads and three such sets, measured on the 2-core box when
    /// the bounds were set.
    pub spread: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    spread: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        spread,
    }
}

/// What a user of the system sees. `failed_share` is not here because the
/// driver wants metrics that are never 0: every run reports `attempted` and
/// `failed` beside its metrics instead, and `failed` must be 0.
pub const END_TO_END: [EndToEnd; 11] = [
    e2e("setup_s", "s", Better::Lower, 0.25, 0.168),
    e2e("sparksql_ms", "ms", Better::Lower, 0.25, 0.101),
    e2e("standard_ms", "ms", Better::Lower, 0.25, 0.100),
    e2e("shred_ms", "ms", Better::Lower, 0.25, 0.058),
    e2e("unshred_ms", "ms", Better::Lower, 0.25, 0.092),
    e2e("standard_skew_ms", "ms", Better::Lower, 0.25, 0.097),
    e2e("shred_skew_ms", "ms", Better::Lower, 0.25, 0.085),
    e2e("unshred_skew_ms", "ms", Better::Lower, 0.25, 0.084),
    e2e("queries_per_s", "1/s", Better::Higher, 0.25, 0.078),
    e2e("shuffle_mib", "MiB", Better::Lower, 0.05, 0.007),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.10, 0.027),
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// False for a time that is 0 on the workloads whose route never enters
    /// the layer. The driver wants every listed metric from every workload
    /// and rejects a time that reads the same on every run, so these stay
    /// out of `BENCHMARK.json` and of the driver's result line; the table,
    /// the `detail` line and the results file carry them.
    pub driver: bool,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        driver: true,
    }
}

const fn route_time(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Lower,
        driver: false,
    }
}

use Better::{Higher, Lower};

/// One layer = one crate. A layer a workload does not enter reports 0
/// (`net.*` off the TCP workload, `server.*` off the Engine workloads,
/// spilling off the capped workload).
pub const PER_LAYER: [PerLayer; 61] = [
    layer("tpch.generate_ms", "ms", Lower),
    layer("nrc.typecheck_us", "us", Lower),
    layer("nrc.eval_ref_ms", "ms", Lower),
    layer("frontend.parse_us", "us", Lower),
    layer("shred.query_us", "us", Lower),
    layer("shred.value_ms", "ms", Lower),
    layer("algebra.lower_us", "us", Lower),
    layer("algebra.optimize_us", "us", Lower),
    layer("algebra.plan_nodes", "count", Lower),
    layer("algebra.fingerprint_us", "us", Lower),
    layer("compiler.ingest_ms", "ms", Lower),
    layer("compiler.execute_ms", "ms", Lower),
    layer("compiler.to_rows_ms", "ms", Lower),
    layer("compiler.collect_ms", "ms", Lower),
    layer("compiler.unshred_ms", "ms", Lower),
    layer("compiler.kernel_compile_us", "us", Lower),
    layer("compiler.kernel_instrs", "count", Lower),
    layer("compiler.pipeline_ms", "ms", Lower),
    layer("compiler.unattributed_standard_ms", "ms", Lower),
    layer("compiler.unattributed_shred_ms", "ms", Lower),
    layer("dist.join_ms", "ms", Lower),
    layer("dist.join_rows_per_s", "1/s", Higher),
    layer("dist.nest_bag_ms", "ms", Lower),
    layer("dist.nest_sum_ms", "ms", Lower),
    layer("dist.skew_join_ms", "ms", Lower),
    layer("dist.nest_sum_skew_ms", "ms", Lower),
    layer("dist.op_join_ms", "ms", Lower),
    layer("dist.op_nest_ms", "ms", Lower),
    layer("dist.op_skew_join_ms", "ms", Lower),
    layer("dist.op_map_ms", "ms", Lower),
    layer("dist.shuffle_tuples", "count", Lower),
    layer("dist.shuffle_bytes", "bytes", Lower),
    layer("dist.shuffle_bytes_phys", "bytes", Lower),
    layer("dist.broadcast_bytes", "bytes", Lower),
    layer("dist.shuffle_joins", "count", Lower),
    layer("dist.broadcast_joins", "count", Higher),
    layer("dist.skew_broadcast_joins", "count", Higher),
    layer("dist.skew_fallback_joins", "count", Lower),
    layer("dist.steal_count", "count", Lower),
    layer("dist.retries", "count", Lower),
    layer("dist.dispatch_us", "us", Lower),
    route_time("dist.spill_ms", "ms"),
    layer("store.spill_bytes", "bytes", Lower),
    layer("store.spill_files", "count", Lower),
    layer("store.write_amp", "ratio", Lower),
    layer("store.encode_mib_per_s", "MiB/s", Higher),
    layer("store.decode_mib_per_s", "MiB/s", Higher),
    layer("store.file_roundtrip_ms", "ms", Lower),
    route_time("net.mesh_ms", "ms"),
    route_time("net.load_ms", "ms"),
    layer("net.tcp_over_thread", "ratio", Lower),
    layer("net.attempts_per_job", "ratio", Lower),
    layer("net.msg_codec_mib_per_s", "MiB/s", Higher),
    route_time("server.text_request_us", "us"),
    route_time("server.queue_wait_us", "us"),
    route_time("server.compile_ms", "ms"),
    layer("server.plans_compiled", "count", Lower),
    layer("server.cache_hit_rate", "ratio", Higher),
    route_time("server.p95_ms", "ms"),
    layer("bench.trace_overhead", "ratio", Lower),
    layer("bench.traced_passes", "count", Higher),
];

/// One reported metric: its value (a median where samples exist) and the
/// samples' count and quartiles.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub summary: Option<Summary>,
}

/// The metrics of one run, in table order.
#[derive(Debug, Clone, Default)]
pub struct MetricSet {
    pub metrics: Vec<Metric>,
}

impl MetricSet {
    /// Every per-layer metric at 0, to be overwritten where measured.
    pub fn per_layer_zeroed() -> MetricSet {
        MetricSet {
            metrics: PER_LAYER
                .iter()
                .map(|m| Metric {
                    name: m.name,
                    unit: m.unit,
                    value: 0.0,
                    summary: None,
                })
                .collect(),
        }
    }

    fn slot(&mut self, name: &str) -> &mut Metric {
        let found = self.metrics.iter().position(|m| m.name == name);
        let i = found.unwrap_or_else(|| {
            let (name, unit) = END_TO_END
                .iter()
                .map(|m| (m.name, m.unit))
                .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("metric `{name}` is in neither table"));
            self.metrics.push(Metric {
                name,
                unit,
                value: 0.0,
                summary: None,
            });
            self.metrics.len() - 1
        });
        &mut self.metrics[i]
    }

    /// Sets a metric measured once.
    pub fn set(&mut self, name: &str, value: f64) {
        let m = self.slot(name);
        m.value = value;
        m.summary = None;
    }

    /// Sets a metric to the median of its samples (0 without samples).
    pub fn set_samples(&mut self, name: &str, samples: &[f64]) {
        let summary = summarize(samples);
        let m = self.slot(name);
        m.value = summary.map_or(0.0, |s| s.median);
        m.summary = summary;
    }

    /// Sets a timing to the fast decile of its samples (see
    /// [`fast_decile`]); median and quartiles stay in the summary.
    pub fn set_fast(&mut self, name: &str, samples: &[f64]) {
        let m = self.slot(name);
        m.value = fast_decile(samples);
        m.summary = summarize(samples);
    }

    /// `{"name": {"value": v, "unit": u}, …}` — the driver's shape, with the
    /// metrics `BENCHMARK.json` lists.
    pub fn to_json(&self) -> Json {
        let listed = |name: &str| PER_LAYER.iter().all(|m| m.name != name || m.driver);
        Json::Obj(
            self.metrics
                .iter()
                .filter(|m| listed(m.name))
                .map(|m| {
                    (
                        m.name.to_string(),
                        Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                    )
                })
                .collect(),
        )
    }

    /// The same with sample count and quartiles, for the results file.
    pub fn to_detailed_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    let mut fields = vec![
                        ("value".to_string(), Json::Num(m.value)),
                        ("unit".to_string(), Json::str(m.unit)),
                    ];
                    if let Some(s) = m.summary {
                        fields.push(("n".to_string(), Json::Num(s.n as f64)));
                        fields.push(("median".to_string(), Json::Num(s.median)));
                        fields.push(("q1".to_string(), Json::Num(s.q1)));
                        fields.push(("q3".to_string(), Json::Num(s.q3)));
                    }
                    (m.name.to_string(), Json::Obj(fields))
                })
                .collect(),
        )
    }

    /// A table for people: name, value, unit, n and quartiles.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let tail = m.summary.map_or(String::new(), |s| {
                format!(
                    "  n={} q1={:.4} median={:.4} q3={:.4}",
                    s.n, s.q1, s.median, s.q3
                )
            });
            out.push_str(&format!(
                "{:<36} {:>16.4} {}{}\n",
                m.name, m.value, m.unit, tail
            ));
        }
        out
    }
}
