//! The traced run: each op's route replayed step by step through the
//! engine's public functions with a span around every step, plus direct
//! probes of single layers. It yields the per-layer metrics and
//! `out/trace-<workload>.json`; no span or counter is added inside `crates/`.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use trance_algebra::{lower, optimize, OptimizerConfig};
use trance_compiler::{
    execute_via_plans_col, infer_catalog_col, ingest_env, plan_cache_key, strategy_options,
    unshred_distributed_col, Strategy,
};
use trance_dist::{ColCollection, JoinSpec, StatsSnapshot};
use trance_frontend::parse_program;
use trance_net::{Ctrl, LoadKind};
use trance_nrc::{eval, infer, Type, TypeEnv, Value};
use trance_shred::{output_dict_name, shred_query, shred_value, TOP_BAG};
use trance_store::{ByteReader, ByteWriter, SpillManager, Spillable};
use trance_tpch::{generate, TpchConfig};

use crate::metrics::MetricSet;
use crate::run::{sweep, RunConfig, WarmUp};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workload::{
    family_queries, flat_env, tables, Bench, Checks, Query, Route, BROADCAST_LIMIT, PARTITIONS,
    STRATEGIES,
};

/// Traced passes per run (fewer when the run's seconds are used up).
const PASSES: usize = 5;
/// Repetitions of each direct layer probe.
const PROBE_REPS: usize = 5;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn to_ms(walls: &[Duration]) -> Vec<f64> {
    walls.iter().copied().map(ms).collect()
}

fn to_us(walls: &[Duration]) -> Vec<f64> {
    walls.iter().copied().map(us).collect()
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Runs `f` `reps` times and returns each wall.
fn repeat<E: ToString>(
    reps: usize,
    mut f: impl FnMut() -> Result<Duration, E>,
) -> Result<Vec<Duration>, String> {
    (0..reps).map(|_| f().map_err(|e| e.to_string())).collect()
}

fn op_ms(stats: &StatsSnapshot, label: &str) -> f64 {
    stats
        .op_timings
        .get(label)
        .map_or(0.0, |t| t.micros as f64 / 1e3)
}

/// One op replayed in process, step by step.
#[derive(Debug, Default)]
struct Replay {
    wall: Duration,
    ingest: Duration,
    execute: Duration,
    unshred: Duration,
    to_rows: Duration,
    collect: Duration,
    /// Wall that no span and no `op_timings` bucket explains.
    unattributed: Duration,
    /// Row-equivalent bytes of the ingested inputs.
    input_bytes: usize,
    stats: StatsSnapshot,
}

/// Replays one query under `strategy` the way `run_query` routes it —
/// ingest, (shred,) lower + optimize + execute per assignment, (unshred,)
/// back to rows — with a span per step under one root span.
fn replay_query(
    bench: &Bench,
    query: &Query,
    strategy: Strategy,
    tracer: &mut Tracer,
) -> Result<Replay, String> {
    let err = |e: trance_dist::ExecError| e.to_string();
    let ctx = bench.inputs.context();
    let options = strategy_options(strategy, false);
    ctx.stats().reset();
    ctx.set_spill_session(options.spill);
    let mut r = Replay::default();
    let mut spans = Duration::ZERO;
    let root = tracer.begin(&format!("op {}", query.spec.name));
    let rows = if strategy.is_shredded() {
        let (shredded, d) = tracer.span("shred.shred_query", || {
            shred_query(&query.spec.query, &query.spec.nested_inputs)
        });
        let shredded = shredded.map_err(|e| e.to_string())?;
        spans += d;
        let (env, d) = tracer.span("compiler.ingest_env", || {
            ingest_env(bench.inputs.shredded_inputs())
        });
        let mut env = env.map_err(err)?;
        r.ingest = d;
        r.input_bytes = env.values().map(ColCollection::logical_bytes).sum();
        for assignment in &shredded.program.assignments {
            let (out, d) = tracer.span("compiler.execute_via_plans_col", || {
                execute_via_plans_col(
                    &assignment.expr,
                    &env,
                    ctx,
                    &options,
                    &assignment.name,
                    None,
                )
            });
            r.execute += d;
            env.insert(assignment.name.clone(), out.map_err(err)?);
        }
        let top = env.get(TOP_BAG).ok_or("no TopBag")?.clone();
        let mut dicts = BTreeMap::new();
        for path in shredded.structure.paths() {
            let name = shredded
                .dict_names
                .get(&path)
                .cloned()
                .unwrap_or_else(|| output_dict_name(&path));
            if let Some(d) = env.get(&name) {
                dicts.insert(path, d.clone());
            }
        }
        if strategy.unshreds() {
            let (nested, d) = tracer.span("compiler.unshred_distributed_col", || {
                unshred_distributed_col(&top, &dicts, &shredded.structure, &options)
            });
            r.unshred = d;
            let nested = nested.map_err(err)?;
            let (rows, d) = tracer.span("dist.to_rows", || nested.to_rows());
            r.to_rows = d;
            Some(rows.map_err(err)?)
        } else {
            let (done, d) = tracer.span("dist.to_rows", || {
                top.to_rows()?;
                dicts.values().try_for_each(|d| d.to_rows().map(drop))
            });
            done.map_err(err)?;
            r.to_rows = d;
            None
        }
    } else {
        let (env, d) = tracer.span("compiler.ingest_env", || {
            ingest_env(bench.inputs.nested_inputs())
        });
        let env = env.map_err(err)?;
        r.ingest = d;
        r.input_bytes = env.values().map(ColCollection::logical_bytes).sum();
        let (out, d) = tracer.span("compiler.execute_via_plans_col", || {
            execute_via_plans_col(&query.spec.query, &env, ctx, &options, "result", None)
        });
        r.execute = d;
        let out = out.map_err(err)?;
        let (rows, d) = tracer.span("dist.to_rows", || out.to_rows());
        r.to_rows = d;
        Some(rows.map_err(err)?)
    };
    r.wall = tracer.end(root);
    r.stats = ctx.stats().snapshot();
    // The engine's own op buckets are durations inside the execute and
    // unshred spans; with the spans outside them they account for the wall,
    // and what is left is in no bucket at all.
    let ops_us: u64 = r.stats.op_timings.values().map(|t| t.micros).sum();
    let attributed = spans + r.ingest + r.to_rows + Duration::from_micros(ops_us);
    r.unattributed = r.wall.saturating_sub(attributed);
    for (label, t) in &r.stats.op_timings {
        tracer.arg(root, &format!("op_ms.{label}"), t.micros as f64 / 1e3);
    }
    tracer.arg(root, "unattributed_ms", ms(r.unattributed));
    if let Some(rows) = rows {
        // Not part of the op: `run_query` hands back the distributed rows.
        let (_, d) = tracer.span("dist.collect_bag", || rows.collect_bag());
        r.collect = d;
    }
    Ok(r)
}

/// [`replay_query`] for every query of the op, durations and counters summed.
fn replay_op(bench: &Bench, strategy: Strategy, tracer: &mut Tracer) -> Result<Replay, String> {
    let mut total = Replay::default();
    for query in &bench.queries {
        let r = replay_query(bench, query, strategy, tracer)?;
        total.wall += r.wall;
        total.ingest += r.ingest;
        total.execute += r.execute;
        total.unshred += r.unshred;
        total.to_rows += r.to_rows;
        total.collect += r.collect;
        total.unattributed += r.unattributed;
        total.input_bytes += r.input_bytes;
        add_stats(&mut total.stats, &r.stats);
    }
    Ok(total)
}

/// Adds the counters and op buckets the per-layer metrics read.
fn add_stats(acc: &mut StatsSnapshot, s: &StatsSnapshot) {
    acc.shuffled_tuples += s.shuffled_tuples;
    acc.shuffled_bytes += s.shuffled_bytes;
    acc.shuffled_bytes_phys += s.shuffled_bytes_phys;
    acc.broadcast_bytes += s.broadcast_bytes;
    acc.shuffle_joins += s.shuffle_joins;
    acc.broadcast_joins += s.broadcast_joins;
    acc.skew_broadcast_joins += s.skew_broadcast_joins;
    acc.skew_fallback_joins += s.skew_fallback_joins;
    acc.steal_count += s.steal_count;
    acc.retries += s.retries;
    acc.spilled_bytes += s.spilled_bytes;
    acc.spill_files += s.spill_files;
    acc.spill_micros += s.spill_micros;
    acc.expr_compile_micros += s.expr_compile_micros;
    acc.expr_kernel_instrs += s.expr_kernel_instrs;
    for (label, t) in &s.op_timings {
        let slot = acc.op_timings.entry(label.clone()).or_default();
        slot.calls += t.calls;
        slot.micros += t.micros;
    }
    for (label, t) in &s.pipeline_timings {
        let slot = acc.pipeline_timings.entry(label.clone()).or_default();
        slot.calls += t.calls;
        slot.morsels += t.morsels;
        slot.micros += t.micros;
    }
}

/// Off the `Threads` route the replay is not the op's own route, so the op
/// also runs through that route with a span around each public call (this
/// is what `bench.trace_overhead` compares with the untraced op there).
/// Returns the op's wall and, on the Engine route, the `text_request` part.
fn traced_route_op(
    bench: &mut Bench,
    strategy: Strategy,
    tracer: &mut Tracer,
) -> Result<(Duration, Duration), String> {
    if let Some(engine) = bench.engine() {
        bench.clear_caches_if_cold();
        let root = tracer.begin("op submit_text");
        let mut text_request = Duration::ZERO;
        for q in &bench.queries {
            let (req, d) = tracer.span("server.text_request", || {
                engine.text_request("bench", &q.text, strategy)
            });
            text_request += d;
            let req = req.map_err(|e| e.to_string())?;
            let (resp, _) = tracer.span("server.submit", || engine.submit(&req));
            resp.map_err(|e| e.to_string())?;
        }
        return Ok((tracer.end(root), text_request));
    }
    let (op, _) = tracer.span("net.Coordinator::run", || bench.run_op(strategy));
    Ok((op?.wall, Duration::ZERO))
}

/// What the untraced sweeps of the traced run measured.
#[derive(Default)]
struct Untraced {
    walls_ms: Vec<Vec<f64>>,
    attempts: u64,
    tcp_jobs: u64,
    twin_standard_ms: Vec<f64>,
    queue_wait_us: Vec<f64>,
    compile_ms: Vec<f64>,
    plans_compiled: Vec<f64>,
    cache_hits: u64,
    queries: u64,
}

fn untraced_sweeps(
    cfg: &RunConfig,
    bench: &mut Bench,
    warm: &WarmUp,
    checks: &mut Checks,
) -> Result<Untraced, String> {
    let mut u = Untraced {
        walls_ms: vec![Vec::new(); STRATEGIES.len()],
        ..Untraced::default()
    };
    // The Engine workloads' ops take milliseconds, so a fifth of the run
    // gives `server.p95_ms` hundreds of samples; elsewhere three sweeps are
    // enough for the medians the traced ops are compared with.
    let engine = bench.engine().is_some();
    let started = Instant::now();
    let mut sweeps = 0;
    while sweeps < 3
        || (engine && !cfg.quick && started.elapsed().as_secs_f64() < cfg.seconds / 5.0)
    {
        for (i, op) in sweep(bench, warm, sweeps % STRATEGIES.len(), checks) {
            u.walls_ms[i].push(ms(op.wall));
            if op.attempts > 0 {
                u.attempts += u64::from(op.attempts);
                u.tcp_jobs += 1;
            }
            if !op.served.is_empty() {
                u.queue_wait_us
                    .push(op.served.iter().map(|s| us(s.queue_wait)).sum());
                u.compile_ms
                    .push(op.served.iter().map(|s| s.compile_ms).sum());
                u.plans_compiled
                    .push(op.served.iter().map(|s| s.plans_compiled as f64).sum());
                u.cache_hits += op.served.iter().filter(|s| s.cache_hit).count() as u64;
                u.queries += op.served.len() as u64;
            }
        }
        if bench.workload.route == Route::Tcp {
            // The thread-backed twin of the TCP op: `run_query` plus the
            // collection that `Coordinator::run` includes.
            let (op, d) = timed(|| {
                let op = bench.run_in_process(Strategy::Standard)?;
                op.outputs[0].bag().map(drop)
            });
            op?;
            u.twin_standard_ms.push(ms(d));
        }
        sweeps += 1;
    }
    Ok(u)
}

/// Direct probes of the compile-path layers on the three family queries.
fn probe_compile_path(
    cfg: &RunConfig,
    bench: &Bench,
    cols: &HashMap<String, ColCollection>,
    m: &mut MetricSet,
) -> Result<(), String> {
    let reps = if cfg.quick { 2 } else { PROBE_REPS };
    let queries = family_queries(bench.workload.variant);

    let mut types = TypeEnv::new();
    for (name, bag) in tables(&bench.data) {
        let row = bag.items().first().map_or(Type::Unknown, Value::infer_type);
        types.bind(name, Type::bag(row));
    }
    let nested_type = infer(&queries[0].spec.query, &types).map_err(|e| e.to_string())?;
    types.bind("Nested", nested_type);

    let walls = repeat(reps, || {
        let t0 = Instant::now();
        for q in &queries {
            infer(&q.spec.query, &types)?;
        }
        Ok::<_, trance_nrc::NrcError>(t0.elapsed())
    })?;
    m.set_samples("nrc.typecheck_us", &to_us(&walls));

    let walls = repeat(reps, || {
        let t0 = Instant::now();
        for q in &queries {
            parse_program(&q.text)?;
        }
        Ok::<_, trance_frontend::CompileError>(t0.elapsed())
    })?;
    m.set_samples("frontend.parse_us", &to_us(&walls));

    let walls = repeat(reps, || {
        let t0 = Instant::now();
        for q in &queries {
            shred_query(&q.spec.query, &q.spec.nested_inputs)?;
        }
        Ok::<_, trance_nrc::NrcError>(t0.elapsed())
    })?;
    m.set_samples("shred.query_us", &to_us(&walls));

    let walls = repeat(reps, || {
        let t0 = Instant::now();
        for q in &queries {
            std::hint::black_box(plan_cache_key(&q.spec, Strategy::Standard, 0));
        }
        Ok::<_, String>(t0.elapsed())
    })?;
    m.set_samples("algebra.fingerprint_us", &to_us(&walls));

    // Lowering and the optimizer, against the catalog of the real inputs.
    let catalog = infer_catalog_col(cols).map_err(|e| e.to_string())?;
    let opt = OptimizerConfig {
        broadcast_limit: Some(BROADCAST_LIMIT),
        ..OptimizerConfig::default()
    };
    let (mut lower_us, mut optimize_us, mut nodes) = (Vec::new(), Vec::new(), 0);
    for rep in 0..reps {
        let (mut lowering, mut optimizing) = (Duration::ZERO, Duration::ZERO);
        for q in &queries {
            let (program, d) = timed(|| lower(&q.spec.query, &catalog));
            let program = program.map_err(|e| e.to_string())?;
            lowering += d;
            let (_, d) = timed(|| {
                for a in &program.assignments {
                    std::hint::black_box(optimize(&a.plan, &catalog, &opt));
                }
                std::hint::black_box(optimize(&program.root, &catalog, &opt));
            });
            optimizing += d;
            if rep == 0 {
                nodes += program.size();
            }
        }
        lower_us.push(us(lowering));
        optimize_us.push(us(optimizing));
    }
    m.set_samples("algebra.lower_us", &lower_us);
    m.set_samples("algebra.optimize_us", &optimize_us);
    m.set("algebra.plan_nodes", nodes as f64);
    Ok(())
}

/// Direct probes of the data-path layers on the workload's own tables.
fn probe_data_path(
    cfg: &RunConfig,
    bench: &Bench,
    cols: &HashMap<String, ColCollection>,
    m: &mut MetricSet,
) -> Result<(), String> {
    let reps = if cfg.quick { 2 } else { PROBE_REPS };
    let err = |e: trance_dist::ExecError| e.to_string();

    let walls = repeat(reps, || {
        Ok::<_, String>(timed(|| generate(&bench.config)).1)
    })?;
    m.set_samples("tpch.generate_ms", &to_ms(&walls));

    // The reference evaluator on the op's queries at the oracle's scale.
    let small = generate(&TpchConfig {
        scale: bench.workload.oracle_scale(),
        ..bench.config.clone()
    });
    let mut env = flat_env(&small);
    let f2n = &family_queries(bench.workload.variant)[0];
    let nested = eval(&f2n.spec.query, &env).map_err(|e| e.to_string())?;
    env.bind("Nested", nested);
    let walls = repeat(reps, || {
        let t0 = Instant::now();
        for q in &bench.queries {
            eval(&q.spec.query, &env)?;
        }
        Ok::<_, trance_nrc::NrcError>(t0.elapsed())
    })?;
    m.set_samples("nrc.eval_ref_ms", &to_ms(&walls));

    let walls = repeat(reps, || {
        let (out, d) = timed(|| shred_value(&bench.nested));
        out.map(|_| d)
    })?;
    m.set_samples("shred.value_ms", &to_ms(&walls));

    // The breakers, called directly on the ingested Lineitem and Part.
    let lineitem = cols.get("Lineitem").ok_or("no Lineitem")?;
    let part = cols.get("Part").ok_or("no Part")?;
    let spec = JoinSpec::inner(&["l_partkey"], &["p_partkey"]);
    let key = |k: &str| vec![k.to_string()];
    let values = vec!["l_partkey".to_string(), "l_quantity".to_string()];

    let walls = to_ms(&repeat(reps, || {
        let (out, d) = timed(|| lineitem.join(part, &spec));
        out.map(|_| d)
    })?);
    m.set_samples("dist.join_ms", &walls);
    m.set(
        "dist.join_rows_per_s",
        lineitem.len() as f64 / (median(&walls) / 1e3),
    );
    let walls = repeat(reps, || {
        let (out, d) = timed(|| lineitem.nest_bag(&key("l_orderkey"), &values, "grp"));
        out.map(|_| d)
    })?;
    m.set_samples("dist.nest_bag_ms", &to_ms(&walls));
    let walls = repeat(reps, || {
        let (out, d) = timed(|| lineitem.nest_sum(&key("l_partkey"), &key("l_quantity")));
        out.map(|_| d)
    })?;
    m.set_samples("dist.nest_sum_ms", &to_ms(&walls));
    let walls = repeat(reps, || {
        let (out, d) = timed(|| lineitem.skew_join(part, &spec));
        out.map(|_| d)
    })?;
    m.set_samples("dist.skew_join_ms", &to_ms(&walls));
    let walls = repeat(reps, || {
        let (out, d) = timed(|| lineitem.nest_sum_skew(&key("l_partkey"), &key("l_quantity")));
        out.map(|_| d)
    })?;
    m.set_samples("dist.nest_sum_skew_ms", &to_ms(&walls));

    // What one partition-wise operator costs before it touches a row.
    let empty = ColCollection::empty(bench.inputs.context());
    const CALLS: u32 = 50;
    let walls = repeat(reps * 4, || {
        let (out, d) = timed(|| {
            (0..CALLS).try_for_each(|_| empty.map_batches("noop", |b| Ok(b.clone())).map(drop))
        });
        out.map(|()| d / CALLS)
    })?;
    m.set_samples("dist.dispatch_us", &to_us(&walls));

    // The spill codec and a spill file, on the Lineitem batches.
    let batches = lineitem.batches().map_err(err)?;
    let (mut encode, mut decode, mut roundtrip) = (Vec::new(), Vec::new(), Vec::new());
    let manager = SpillManager::new(Some(&cfg.spill_dir())).map_err(|e| e.to_string())?;
    for _ in 0..reps {
        let (frames, d) = timed(|| {
            batches
                .iter()
                .map(|b| {
                    let mut w = ByteWriter::new();
                    b.encode(&mut w).map(|()| w.into_bytes())
                })
                .collect::<std::io::Result<Vec<Vec<u8>>>>()
        });
        let frames = frames.map_err(|e| e.to_string())?;
        let bytes: usize = frames.iter().map(Vec::len).sum();
        encode.push(mib(bytes) / d.as_secs_f64());
        let (decoded, d) = timed(|| {
            frames
                .iter()
                .try_for_each(|f| trance_dist::Batch::decode(&mut ByteReader::new(f)).map(drop))
        });
        decoded.map_err(|e| e.to_string())?;
        decode.push(mib(bytes) / d.as_secs_f64());
        let (done, d) = timed(|| -> std::io::Result<()> {
            let mut file = manager.create()?;
            for f in &frames {
                file.append(f)?;
            }
            let mut reader = file.finish()?.open()?;
            while reader.next_frame()?.is_some() {}
            Ok(())
        });
        done.map_err(|e| e.to_string())?;
        roundtrip.push(ms(d));
    }
    m.set_samples("store.encode_mib_per_s", &encode);
    m.set_samples("store.decode_mib_per_s", &decode);
    m.set_samples("store.file_roundtrip_ms", &roundtrip);

    // The control-plane codec, on the message that loads Lineitem.
    let rows = bench.data.lineitem.items();
    let mut parts = vec![Vec::new(); PARTITIONS];
    for (i, row) in rows.iter().enumerate() {
        parts[i % PARTITIONS].push(row.clone());
    }
    let load = Ctrl::Load {
        kind: LoadKind::Flat,
        name: "Lineitem".into(),
        parts,
    };
    let mut codec = Vec::new();
    for _ in 0..reps {
        let (bytes, d) = timed(|| -> std::io::Result<usize> {
            let bytes = load.encode()?;
            Ctrl::decode(&bytes)?;
            Ok(bytes.len())
        });
        codec.push(2.0 * mib(bytes.map_err(|e| e.to_string())?) / d.as_secs_f64());
    }
    m.set_samples("net.msg_codec_mib_per_s", &codec);
    Ok(())
}

/// The traced run of one workload: a few untraced sweeps for the baselines,
/// the traced passes, then the direct layer probes.
pub fn traced_run(
    cfg: &RunConfig,
    bench: &mut Bench,
    warm: &WarmUp,
    checks: &mut Checks,
) -> Result<MetricSet, String> {
    let started = Instant::now();
    let mut m = MetricSet::per_layer_zeroed();
    let untraced = untraced_sweeps(cfg, bench, warm, checks)?;

    let index_of = |s: Strategy| {
        STRATEGIES
            .iter()
            .position(|(x, _)| *x == s)
            .expect("listed")
    };
    let (standard, shred, unshred, standard_skew) = (
        index_of(Strategy::Standard),
        index_of(Strategy::Shred),
        index_of(Strategy::ShredUnshred),
        index_of(Strategy::StandardSkew),
    );

    let mut tracer = Tracer::new(bench.workload.name);
    let mut replays: Vec<Vec<Replay>> = (0..STRATEGIES.len()).map(|_| Vec::new()).collect();
    let mut sweep_stats: Vec<StatsSnapshot> = Vec::new();
    let (mut traced_standard_ms, mut text_request_us) = (Vec::new(), Vec::new());
    let passes = if cfg.quick { 2 } else { PASSES };
    for pass in 0..passes {
        if pass > 0 && started.elapsed().as_secs_f64() > cfg.seconds {
            break;
        }
        let mut stats = StatsSnapshot::default();
        for (i, (strategy, _)) in STRATEGIES.iter().enumerate() {
            tracer.set_strategy(strategy.label());
            let on_threads = matches!(bench.workload.route, Route::Threads(_));
            let mut route_wall = None;
            if bench.engine().is_some() || bench.over_tcp(*strategy) {
                let (wall, text_request) = traced_route_op(bench, *strategy, &mut tracer)?;
                route_wall = Some(wall);
                if bench.engine().is_some() {
                    text_request_us.push(us(text_request));
                }
            }
            let replay = replay_op(bench, *strategy, &mut tracer)?;
            if i == standard {
                let traced = if on_threads {
                    Some(replay.wall)
                } else {
                    route_wall
                };
                traced_standard_ms.extend(traced.map(ms));
            }
            add_stats(&mut stats, &replay.stats);
            replays[i].push(replay);
        }
        sweep_stats.push(stats);
    }
    let trace_path = cfg
        .out_dir
        .join(format!("trace-{}.json", bench.workload.name));
    tracer
        .write_chrome(&trace_path)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;

    let of = |i: usize, f: &dyn Fn(&Replay) -> f64| replays[i].iter().map(f).collect::<Vec<f64>>();
    m.set_samples("compiler.ingest_ms", &of(standard, &|r| ms(r.ingest)));
    m.set_samples("compiler.execute_ms", &of(standard, &|r| ms(r.execute)));
    m.set_samples("compiler.to_rows_ms", &of(standard, &|r| ms(r.to_rows)));
    m.set_samples("compiler.collect_ms", &of(standard, &|r| ms(r.collect)));
    m.set_samples("compiler.unshred_ms", &of(unshred, &|r| ms(r.unshred)));
    m.set_samples(
        "compiler.pipeline_ms",
        &of(standard, &|r| r.stats.pipeline_ms()),
    );
    m.set_samples(
        "compiler.unattributed_standard_ms",
        &of(standard, &|r| ms(r.unattributed)),
    );
    m.set_samples(
        "compiler.unattributed_shred_ms",
        &of(shred, &|r| ms(r.unattributed)),
    );
    m.set_samples(
        "dist.op_join_ms",
        &of(standard, &|r| op_ms(&r.stats, "join")),
    );
    // Both Γ buckets together: flat-to-nested has no Γ+ at all.
    m.set_samples(
        "dist.op_nest_ms",
        &of(standard, &|r| {
            op_ms(&r.stats, "nest_bag") + op_ms(&r.stats, "nest_sum")
        }),
    );
    m.set_samples("dist.op_map_ms", &of(unshred, &|r| op_ms(&r.stats, "map")));
    // Skew strategies time `skew_join` and the `join` inside it both, so the
    // in-query view of the skew path reads the outer label.
    m.set_samples(
        "dist.op_skew_join_ms",
        &of(standard_skew, &|r| op_ms(&r.stats, "skew_join")),
    );
    m.set_samples(
        "store.write_amp",
        &of(standard, &|r| {
            r.stats.spilled_bytes as f64 / (r.input_bytes as f64).max(1.0)
        }),
    );

    // Counters of one sweep of the seven strategies.
    type Counter = fn(&StatsSnapshot) -> f64;
    let per_sweep = |f: Counter| sweep_stats.iter().map(f).collect::<Vec<_>>();
    let counters: [(&str, Counter); 14] = [
        ("dist.shuffle_tuples", |s| s.shuffled_tuples as f64),
        ("dist.shuffle_bytes", |s| s.shuffled_bytes as f64),
        ("dist.shuffle_bytes_phys", |s| s.shuffled_bytes_phys as f64),
        ("dist.broadcast_bytes", |s| s.broadcast_bytes as f64),
        ("dist.shuffle_joins", |s| s.shuffle_joins as f64),
        ("dist.broadcast_joins", |s| s.broadcast_joins as f64),
        ("dist.skew_broadcast_joins", |s| {
            s.skew_broadcast_joins as f64
        }),
        ("dist.skew_fallback_joins", |s| s.skew_fallback_joins as f64),
        ("dist.steal_count", |s| s.steal_count as f64),
        ("dist.retries", |s| s.retries as f64),
        ("dist.spill_ms", |s| s.spill_ms()),
        ("compiler.kernel_instrs", |s| s.expr_kernel_instrs as f64),
        ("store.spill_bytes", |s| s.spilled_bytes as f64),
        ("store.spill_files", |s| s.spill_files as f64),
    ];
    for (name, f) in counters {
        m.set_samples(name, &per_sweep(f));
    }
    // The engine books compile time in whole microseconds; the mean over
    // the passes keeps the digits a median of small integers would lose.
    let compile_us = per_sweep(|s| s.expr_compile_micros as f64);
    m.set(
        "compiler.kernel_compile_us",
        compile_us.iter().sum::<f64>() / (compile_us.len() as f64).max(1.0),
    );
    m.set("bench.traced_passes", sweep_stats.len() as f64);

    let untraced_standard = median(&untraced.walls_ms[standard]);
    m.set(
        "bench.trace_overhead",
        median(&traced_standard_ms) / untraced_standard,
    );
    if bench.workload.route == Route::Tcp {
        m.set("net.mesh_ms", ms(bench.times.mesh));
        m.set("net.load_ms", ms(bench.times.net_load));
        m.set(
            "net.tcp_over_thread",
            untraced_standard / median(&untraced.twin_standard_ms),
        );
        m.set(
            "net.attempts_per_job",
            untraced.attempts as f64 / (untraced.tcp_jobs as f64).max(1.0),
        );
    }
    if bench.engine().is_some() {
        m.set_samples("server.text_request_us", &text_request_us);
        m.set_samples("server.queue_wait_us", &untraced.queue_wait_us);
        m.set_samples("server.compile_ms", &untraced.compile_ms);
        m.set_samples("server.plans_compiled", &untraced.plans_compiled);
        m.set(
            "server.cache_hit_rate",
            untraced.cache_hits as f64 / (untraced.queries as f64).max(1.0),
        );
        let all: Vec<f64> = untraced.walls_ms.iter().flatten().copied().collect();
        m.set("server.p95_ms", percentile(&all, 95.0));
    }

    let cols = ingest_env(bench.inputs.nested_inputs()).map_err(|e| e.to_string())?;
    probe_compile_path(cfg, bench, &cols, &mut m)?;
    probe_data_path(cfg, bench, &cols, &mut m)?;
    Ok(m)
}
