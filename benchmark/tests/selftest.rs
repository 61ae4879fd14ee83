//! The benchmark's self-test: every workload at `--quick` size through the
//! real binary (so the TCP workload can spawn its worker copies), the
//! corrupted-reference check, `all` + `compare`, and `BENCHMARK.json`.

use std::path::PathBuf;
use std::process::Command;

use trance_benchmark::cli::manifest;
use trance_benchmark::json::Json;
use trance_benchmark::metrics::{END_TO_END, PER_LAYER};
use trance_benchmark::workload::WORKLOADS;

/// A scratch directory of this test's own, under the target directory.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// Runs the benchmark binary; returns whether it succeeded and its stdout.
fn bench(out: &PathBuf, args: &[&str]) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_trance-benchmark"))
        .args(args)
        .env("TRANCE_BENCH_OUT", out)
        .env_remove("TRANCE_NET_WORKER")
        .output()
        .expect("the benchmark binary runs");
    if !output.status.success() {
        eprintln!("{}", String::from_utf8_lossy(&output.stderr));
    }
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

fn result_line(stdout: &str) -> Json {
    Json::parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

fn quick_run(workload: &str, trace: &str) -> Json {
    let out = scratch(&format!("{workload}-{trace}"));
    let (ok, stdout) = bench(
        &out,
        &[
            "run",
            "--workload",
            workload,
            "--quick",
            "--trace",
            trace,
            "--seed",
            "7",
        ],
    );
    assert!(ok, "{workload} --trace {trace} exits 0");
    let result = result_line(&stdout);
    let keys: Vec<&str> = result
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{workload}"
    );
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    if trace == "1" {
        let trace_file = out.join(format!("trace-{workload}.json"));
        let doc = Json::parse(&std::fs::read_to_string(trace_file).expect("a trace file"))
            .expect("the trace is JSON");
        assert!(!doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap()
            .is_empty());
    }
    result
}

fn metric_names(result: &Json) -> Vec<String> {
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics");
    for (name, m) in metrics {
        let value = m.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{name} is a finite number"
        );
        assert!(
            m.get("unit").and_then(Json::as_str).is_some(),
            "{name} has a unit"
        );
    }
    metrics.iter().map(|(k, _)| k.clone()).collect()
}

#[test]
fn every_workload_emits_every_end_to_end_metric_and_none_is_zero() {
    for w in &WORKLOADS {
        let result = quick_run(w.name, "0");
        let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(metric_names(&result), expected, "{}", w.name);
        for (name, m) in result.get("metrics").and_then(Json::as_obj).unwrap() {
            assert!(
                m.get("value").and_then(Json::as_f64).unwrap() > 0.0,
                "{}: {name}",
                w.name
            );
        }
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric_and_a_trace() {
    for w in &WORKLOADS {
        let result = quick_run(w.name, "1");
        let expected: Vec<&str> = PER_LAYER
            .iter()
            .filter(|m| m.driver)
            .map(|m| m.name)
            .collect();
        assert_eq!(metric_names(&result), expected, "{}", w.name);
    }
}

#[test]
fn a_corrupted_reference_is_caught() {
    let out = scratch("corrupt");
    let (ok, stdout) = bench(
        &out,
        &[
            "run",
            "--workload",
            "n2n_wide",
            "--quick",
            "--corrupt-reference",
        ],
    );
    assert!(ok);
    let result = result_line(&stdout);
    assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
    assert!(result.get("failed").and_then(Json::as_f64).unwrap() > 0.0);
}

/// Multiplies one metric of one workload in a results file.
fn scaled(doc: &Json, workload: &str, metric: &str, factor: f64) -> Json {
    fn walk(v: &Json, path: &[&str], factor: f64) -> Json {
        match (v, path.split_first()) {
            (Json::Num(n), None) => Json::Num(n * factor),
            (Json::Obj(fields), Some((head, rest))) => Json::Obj(
                fields
                    .iter()
                    .map(|(k, v)| {
                        let v = if k == head {
                            walk(v, rest, factor)
                        } else {
                            v.clone()
                        };
                        (k.clone(), v)
                    })
                    .collect(),
            ),
            _ => v.clone(),
        }
    }
    walk(
        doc,
        &["workloads", workload, "end_to_end", metric, "value"],
        factor,
    )
}

#[test]
fn compare_passes_a_file_against_itself_and_fails_a_regression() {
    let out = scratch("all");
    let results = out.join("a.json");
    let (ok, _) = bench(
        &out,
        &["all", "--quick", "--out", results.to_str().unwrap()],
    );
    assert!(ok, "`all --quick` exits 0");
    let doc = Json::parse(&std::fs::read_to_string(&results).unwrap()).unwrap();
    for stamp in ["commit", "seed", "nproc", "rustc"] {
        assert!(doc.get(stamp).is_some(), "results are stamped with {stamp}");
    }
    let a = results.to_str().unwrap();
    let (same, table) = bench(&out, &["compare", a, a]);
    assert!(same, "a file compared with itself passes:\n{table}");

    // `shuffle_mib` repeats exactly and has the tightest bound, so 15 % more
    // is a regression whatever the timings' spread in a quick run was.
    let worse = out.join("b.json");
    std::fs::write(
        &worse,
        scaled(&doc, "n2n_wide", "shuffle_mib", 1.15).render_pretty(),
    )
    .unwrap();
    let (ok, table) = bench(&out, &["compare", a, worse.to_str().unwrap()]);
    assert!(!ok, "15 % more shuffle must fail:\n{table}");
    assert!(table.contains("REGRESSED"));
    // The other way round it is an improvement.
    let (ok, _) = bench(&out, &["compare", worse.to_str().unwrap(), a]);
    assert!(ok);
}

#[test]
fn benchmark_json_is_the_rendered_tables_and_within_the_contract() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let on_disk = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    assert_eq!(
        on_disk,
        manifest(),
        "regenerate with `trance-benchmark manifest`"
    );

    assert!((2..=8).contains(&WORKLOADS.len()));
    for w in &WORKLOADS {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
        .chain(WORKLOADS.iter().map(|w| w.name))
        .collect();
    for name in &names {
        let ok = name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
        assert!(ok, "{name}");
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "every name is used once");
}
