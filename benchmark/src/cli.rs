//! Command line: `run` (one workload, the driver's entry), `all` (every
//! workload untraced then traced, into one results file) and `compare`.

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use crate::compare;
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::{run, RunConfig, RunReport};
use crate::workload::{find_workload, WORKLOADS};

const USAGE: &str = "usage:
  trance-benchmark run --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
  trance-benchmark all [--seed N] [--seconds S] [--quick] [--out FILE]
  trance-benchmark compare A.json B.json
  trance-benchmark manifest        (prints BENCHMARK.json from the metric tables)
workloads: n2n_wide skew_n2n_narrow spill_f2n_wide net_n2n_wide small_cold small_warm";

/// Seconds of the timed phase when `--seconds` is absent (`BENCHMARK.json`'s
/// `run_seconds`).
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    corrupt_reference: bool,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        corrupt_reference: false,
        out: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                parsed.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--quick" => parsed.quick = true,
            "--corrupt-reference" => parsed.corrupt_reference = true,
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other}\n{USAGE}"))
            }
            other => parsed.positional.push(other.to_string()),
        }
    }
    Ok(parsed)
}

/// Where traces, spill files and results go: `run.sh` names the benchmark's
/// own `out/`; a bare binary falls back to the same place under the checkout.
fn out_dir() -> PathBuf {
    std::env::var_os("TRANCE_BENCH_OUT")
        .map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from)
}

fn report_json(report: &RunReport) -> Json {
    Json::obj([
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", report.metrics.to_json()),
    ])
}

fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let name = args.workload.as_deref().ok_or(USAGE)?;
    let workload =
        find_workload(name).ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?;
    let cfg = RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick,
        corrupt_reference: args.corrupt_reference,
        out_dir: out_dir(),
    };
    let report = run(&cfg)?;
    // People read the table; `all` reads the detail line; the driver reads
    // the last line.
    print!("{}", report.metrics.render_table());
    println!("detail {}", report.metrics.to_detailed_json().render());
    println!("{}", report_json(&report).render());
    Ok(ExitCode::SUCCESS)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs every workload in its own process, tracing off and then on, and
/// writes every metric with unit, sample count and quartiles to one file
/// stamped with commit, seed, `nproc`, `rustc -V` and per-workload wall.
fn cmd_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut workloads = Vec::new();
    let mut failed_total = 0.0;
    for w in &WORKLOADS {
        let started = Instant::now();
        let mut fields = Vec::new();
        let (mut attempted, mut failed) = (0.0, 0.0);
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let mut cmd = Command::new(&exe);
            cmd.args(["run", "--workload", w.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if args.quick {
                cmd.arg("--quick");
            }
            eprintln!("== {} --trace {trace}", w.name);
            let output = cmd.output().map_err(|e| e.to_string())?;
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            if !output.status.success() {
                return Err(format!(
                    "{} --trace {trace} exited with {}",
                    w.name, output.status
                ));
            }
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut lines = stdout.lines().rev();
            let result = Json::parse(lines.next().ok_or("no result line")?)?;
            let detail = lines
                .find_map(|l| l.strip_prefix("detail "))
                .ok_or("no detail line")?;
            attempted += result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            fields.push((section.to_string(), Json::parse(detail)?));
        }
        failed_total += failed;
        let mut entry = vec![
            (
                "wall_s".to_string(),
                Json::Num(started.elapsed().as_secs_f64()),
            ),
            ("attempted".to_string(), Json::Num(attempted)),
            ("failed".to_string(), Json::Num(failed)),
            (
                "failed_share".to_string(),
                Json::Num(failed / attempted.max(1.0)),
            ),
        ];
        entry.extend(fields);
        workloads.push((w.name.to_string(), Json::Obj(entry)));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let doc = Json::obj([
        (
            "commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("quick", Json::Bool(args.quick)),
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("results-seed{}.json", args.seed)));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&path, doc.render_pretty()).map_err(|e| e.to_string())?;
    println!("{}", doc.render_pretty());
    eprintln!("results written to {}", path.display());
    Ok(if failed_total == 0.0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_compare(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err(USAGE.into());
    };
    let read = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare::compare(&read(a)?, &read(b)?)?;
    print!("{}", compare::render(&rows));
    let regressed = rows
        .iter()
        .any(|r| r.verdict == compare::Verdict::Regressed);
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// `BENCHMARK.json`, rendered from the workload and metric tables so that
/// the file the driver reads cannot drift from what the runs report.
pub fn manifest() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        ("command", strs(&["bash", "benchmark/run.sh"])),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(DEFAULT_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .filter(|m| m.driver)
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let (command, rest) = args.split_first().ok_or(USAGE)?;
    let parsed = parse(rest)?;
    match command.as_str() {
        "run" => cmd_run(&parsed),
        "all" => cmd_all(&parsed),
        "compare" => cmd_compare(&parsed),
        "manifest" => {
            print!("{}", manifest().render_pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.into()),
    }
}
