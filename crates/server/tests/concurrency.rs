//! **Concurrency differential**: N queries submitted concurrently from
//! client threads must produce bag-identical results — and identical
//! logical shuffle bytes, the skew-aware strategies included (their heavy-key
//! sample is every `stride`-th row in global order) — to the same queries
//! submitted serially. Runs at workers {1, 2, 7}.
//!
//! The serial pass doubles as the oracle pass: every result is also checked
//! against the sequential NRC reference evaluator. The serial pass warms
//! the plan cache, so the concurrent pass additionally proves that cached
//! plans replayed concurrently from many session contexts agree with their
//! cold compilations byte-for-byte on the shuffle meter.
//!
//! Also here: the queue-full case — an engine with a zero-capacity wait
//! queue must answer the typed [`ServeError::Busy`] immediately, never
//! hang — and per-query deadline cancellation.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use trance_compiler::{QuerySpec, Strategy};
use trance_dist::ClusterConfig;
use trance_nrc::{eval, Bag, Env, Value};
use trance_server::{Engine, EngineConfig, QueryRequest, ServeError};
use trance_shred::{NestingStructure, ShreddedInputDecl};

#[path = "../../compiler/tests/common/mod.rs"]
mod common;
use common::{assert_bags_approx_eq, random_flat, random_nested, random_query, Watchdog};

const PROGRAMS: u64 = 24;

fn n_structure() -> NestingStructure {
    NestingStructure::flat().with_child("items", NestingStructure::flat())
}

/// A deterministic flat `R ⋈ S` query (touches only the flat inputs, for
/// the tests that register no nested table). `salt` keeps two uses
/// structurally distinct so they never share a plan-cache entry.
fn flat_join_query(salt: i64) -> trance_nrc::Expr {
    use trance_nrc::builder::{cmp_eq, cmp_lt, forin, ifthen, int, proj, singleton, tuple, var};
    forin(
        "x",
        var("R"),
        forin(
            "y",
            var("S"),
            ifthen(
                cmp_eq(proj(var("x"), "a"), proj(var("y"), "a")),
                ifthen(
                    cmp_lt(int(salt), int(salt + 1)),
                    singleton(tuple([
                        ("u", proj(var("x"), "b")),
                        ("w", proj(var("y"), "c")),
                    ])),
                ),
            ),
        ),
    )
}

struct Case {
    req: QueryRequest,
    expected: Bag,
}

/// The 24-program corpus (same generator as the compiler's differential
/// suites), each paired with its sequential-evaluator oracle and assigned
/// to one of seven strategies and one of four clients round-robin.
fn build_cases(r: &Value, s: &Value, n: &Value) -> Vec<Case> {
    let env = Env::from_bindings([("R", r.clone()), ("S", s.clone()), ("N", n.clone())]);
    (0..PROGRAMS)
        .map(|seed| {
            let mut rng = StdRng::seed_from_u64(0x5EED + seed);
            let query = random_query(&mut rng);
            let expected = eval(&query, &env).unwrap().into_bag().unwrap();
            let strategy = Strategy::all()[(seed % 7) as usize];
            let spec = QuerySpec::new(
                format!("conc-{seed}"),
                query,
                vec![ShreddedInputDecl::new("N", n_structure())],
            );
            Case {
                req: QueryRequest::new(format!("client-{}", seed % 4), spec, strategy),
                expected,
            }
        })
        .collect()
}

#[test]
fn concurrent_submissions_match_serial() {
    let _wd = Watchdog::arm("server_concurrency", Duration::from_secs(900));
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let r = random_flat(&mut rng, 60, 8);
    let s = random_flat(&mut rng, 50, 8);
    let n = random_nested(&mut rng, 40, 8);

    for workers in [1usize, 2, 7] {
        let mut config = EngineConfig::with_cluster(ClusterConfig::new(workers, workers * 2));
        config.max_in_flight = 4;
        config.queue_capacity = 64;
        let engine = Engine::new(config);
        engine
            .register_flat("R", r.clone().into_bag().unwrap())
            .unwrap();
        engine
            .register_flat("S", s.clone().into_bag().unwrap())
            .unwrap();
        engine
            .register_nested("N", n.clone().into_bag().unwrap())
            .unwrap();

        let cases = build_cases(&r, &s, &n);

        // Serial pass: one at a time, checked against the oracle. This
        // also warms the plan cache for the concurrent pass.
        let mut serial: BTreeMap<usize, (Vec<Value>, u64)> = BTreeMap::new();
        for (i, case) in cases.iter().enumerate() {
            let resp = engine.submit(&case.req).unwrap_or_else(|e| {
                panic!("workers={workers} query {i} serial submit failed: {e}")
            });
            assert_bags_approx_eq(
                &case.expected,
                &resp.rows,
                &format!("workers={workers} query {i} serial vs reference"),
            );
            serial.insert(
                i,
                (common::canonical(&resp.rows), resp.stats.shuffled_bytes),
            );
        }

        // Concurrent pass: every query from its own thread, all in flight
        // against the admission queue at once.
        let engine_ref = &engine;
        let concurrent: BTreeMap<usize, (Vec<Value>, u64, bool)> = std::thread::scope(|scope| {
            let handles: Vec<_> = cases
                .iter()
                .enumerate()
                .map(|(i, case)| {
                    scope.spawn(move || {
                        let resp = engine_ref.submit(&case.req).unwrap_or_else(|e| {
                            panic!("workers={workers} query {i} concurrent submit failed: {e}")
                        });
                        (
                            i,
                            (
                                common::canonical(&resp.rows),
                                resp.stats.shuffled_bytes,
                                resp.cache_hit,
                            ),
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        for (i, case) in cases.iter().enumerate() {
            let (serial_rows, serial_bytes) = &serial[&i];
            let (conc_rows, conc_bytes, cache_hit) = &concurrent[&i];
            assert_eq!(
                serial_rows, conc_rows,
                "workers={workers} query {i}: concurrent result differs from serial"
            );
            assert!(
                cache_hit,
                "workers={workers} query {i}: concurrent pass must hit the warm plan cache"
            );
            assert_eq!(
                serial_bytes,
                conc_bytes,
                "workers={workers} query {i} ({}): logical shuffle bytes drifted \
                 between serial and concurrent execution",
                case.req.strategy.label()
            );
        }
    }
}

#[test]
fn queue_full_answers_typed_busy_not_a_hang() {
    let _wd = Watchdog::arm("server_busy", Duration::from_secs(300));
    let mut rng = StdRng::seed_from_u64(0xB5);
    // Enough rows that a join keeps the single slot occupied for a while.
    let r = random_flat(&mut rng, 4000, 64);
    let s = random_flat(&mut rng, 4000, 64);

    let mut config = EngineConfig::with_cluster(ClusterConfig::new(2, 4));
    config.max_in_flight = 1;
    config.queue_capacity = 0;
    let engine = Engine::new(config);
    engine.register_flat("R", r.into_bag().unwrap()).unwrap();
    engine.register_flat("S", s.into_bag().unwrap()).unwrap();

    // A flat R⋈S query (no N — only R and S are registered here).
    let query = flat_join_query(3);
    let spec = QuerySpec::new("busy", query, vec![]);
    let stop = Arc::new(AtomicBool::new(false));

    let engine_ref = &engine;
    let spec_ref = &spec;
    std::thread::scope(|scope| {
        // A background client keeps the single execution slot occupied
        // (retrying through its own Busy rejections).
        let flag = stop.clone();
        scope.spawn(move || {
            let req = QueryRequest::new("hog", spec_ref.clone(), Strategy::Standard);
            while !flag.load(Ordering::Relaxed) {
                match engine_ref.submit(&req) {
                    Ok(_) => {}
                    Err(ServeError::Busy { .. }) => std::thread::yield_now(),
                    Err(e) => panic!("unexpected serve error: {e}"),
                }
            }
        });

        // The foreground client must eventually observe the typed Busy —
        // bounded by the watchdog, never a hang.
        let req = QueryRequest::new("probe", spec_ref.clone(), Strategy::Standard);
        loop {
            match engine_ref.submit(&req) {
                Err(ServeError::Busy { in_flight, queued }) => {
                    assert_eq!(in_flight, 1, "one query holds the only slot");
                    assert_eq!(queued, 0, "a zero-capacity queue never buffers");
                    break;
                }
                Ok(_) => continue,
                Err(e) => panic!("unexpected serve error: {e}"),
            }
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert!(
        engine.stats().rejected > 0,
        "rejections must be counted in the engine stats"
    );
}

#[test]
fn deadline_cancels_with_typed_error() {
    let _wd = Watchdog::arm("server_deadline", Duration::from_secs(300));
    let mut rng = StdRng::seed_from_u64(0xDEAD);
    let r = random_flat(&mut rng, 5000, 64);
    let s = random_flat(&mut rng, 5000, 64);

    let engine = Engine::new(EngineConfig::with_cluster(ClusterConfig::new(2, 4)));
    engine.register_flat("R", r.into_bag().unwrap()).unwrap();
    engine.register_flat("S", s.into_bag().unwrap()).unwrap();

    let query = flat_join_query(11);
    let mut req = QueryRequest::new(
        "impatient",
        QuerySpec::new("deadline", query, vec![]),
        Strategy::Standard,
    );
    req.deadline = Some(Duration::from_nanos(1));
    let err = engine
        .submit(&req)
        .expect_err("a 1ns deadline must cancel the run");
    assert!(
        err.is_cancelled(),
        "deadline expiry surfaces as a typed cancellation, got: {err}"
    );

    // The engine keeps serving after a cancellation: the same query with
    // no deadline completes.
    req.deadline = None;
    engine.submit(&req).unwrap();
    assert_eq!(engine.stats().failed, 1);
    assert_eq!(engine.stats().completed, 1);
}
