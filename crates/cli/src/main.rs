//! `trance-cli` — run a surface-NRC query file against a catalog.
//!
//! ```text
//! trance-cli [OPTIONS] QUERY.nrc
//! ```
//!
//! The query file is parsed with `trance-frontend`, type checked against the
//! selected catalog, lowered through the chosen compilation strategy and
//! executed on the in-process simulated cluster. Multi-assignment programs
//! (`A <= e1  Result <= e2`) are desugared into a `let` chain whose body is
//! the final assignment.
//!
//! Exit codes are typed so scripts can distinguish failure classes:
//!
//! | code | meaning                                   |
//! |------|-------------------------------------------|
//! | 0    | success                                   |
//! | 2    | usage error (bad flags, unknown strategy) |
//! | 3    | I/O error (query file, CSV catalog)       |
//! | 4    | parse error (spanned diagnostic printed)  |
//! | 5    | type error                                |
//! | 6    | execution failure (memory cap, faults)    |

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::process::ExitCode;

use trance_compiler::{
    collect_unshredded, explain_query, run_query, InputSet, QuerySpec, RunResult, Strategy,
};
use trance_dist::{ClusterConfig, DistContext, FaultPlan};
use trance_nrc::{Bag, ScalarType, Type, TypeEnv, Value};
use trance_shred::{nesting_structure, NestingStructure, ShreddedInputDecl};

const USAGE: &str = "\
trance-cli — run a surface-NRC query file against a catalog

USAGE:
    trance-cli [OPTIONS] QUERY.nrc

OPTIONS:
    --catalog SPEC      tpch[:SCALE[:SKEW]] (default tpch:0.05:0), biomed,
                        or csv:DIR (every *.csv in DIR becomes a table; the
                        header names columns as `name:type` with types
                        int, real, string, bool, date)
    --strategy NAME     standard | baseline | shred (default) | shred-unshred |
                        standard-skew | shred-skew | shred-unshred-skew
                        (case-insensitive; paper labels like SHRED+UNSHRED
                        are accepted too)
    --explain           print the optimized plan(s) instead of executing
    --workers N         simulated worker count (default 4)
    --memory BYTES      per-worker memory cap; runs exceeding it FAIL
    --faults SPEC       fault-injection plan, e.g. `42` or
                        `seed=42,morsel=0.02,once=spill_read@3`
    --limit N           print at most N result rows (default 20, 0 = all)
    --help              this text

EXIT CODES:
    0 ok, 2 usage, 3 I/O, 4 parse error, 5 type error, 6 execution failure";

/// A terminal error: a message for stderr plus the process exit code.
#[derive(Debug)]
struct CliError {
    code: u8,
    message: String,
}

impl CliError {
    fn usage(message: impl Into<String>) -> CliError {
        CliError {
            code: 2,
            message: message.into(),
        }
    }
    fn io(message: impl Into<String>) -> CliError {
        CliError {
            code: 3,
            message: message.into(),
        }
    }
    fn parse(message: impl Into<String>) -> CliError {
        CliError {
            code: 4,
            message: message.into(),
        }
    }
    fn types(message: impl Into<String>) -> CliError {
        CliError {
            code: 5,
            message: message.into(),
        }
    }
    fn exec(message: impl Into<String>) -> CliError {
        CliError {
            code: 6,
            message: message.into(),
        }
    }
}

/// Parsed command line.
#[derive(Debug)]
struct Options {
    query_file: String,
    catalog: String,
    strategy: Strategy,
    explain: bool,
    workers: Option<usize>,
    memory: Option<usize>,
    faults: Option<String>,
    limit: usize,
}

fn parse_strategy(name: &str) -> Option<Strategy> {
    // Accept both the CLI spellings and the paper labels the benchmark
    // figures use (SHRED+UNSHRED, SPARKSQL-LIKE, ...), case-insensitively.
    let norm: String = name
        .trim()
        .to_ascii_lowercase()
        .chars()
        .map(|c| {
            if c == '_' || c == '+' || c == ' ' {
                '-'
            } else {
                c
            }
        })
        .collect();
    match norm.as_str() {
        "standard" => Some(Strategy::Standard),
        "baseline" | "sparksql" | "sparksql-like" => Some(Strategy::Baseline),
        "shred" => Some(Strategy::Shred),
        "shred-unshred" | "unshred" => Some(Strategy::ShredUnshred),
        "standard-skew" => Some(Strategy::StandardSkew),
        "shred-skew" => Some(Strategy::ShredSkew),
        "shred-unshred-skew" => Some(Strategy::ShredUnshredSkew),
        _ => None,
    }
}

fn parse_args(args: &[String]) -> Result<Options, CliError> {
    let mut opts = Options {
        query_file: String::new(),
        catalog: "tpch:0.05:0".to_string(),
        strategy: Strategy::Shred,
        explain: false,
        workers: None,
        memory: None,
        faults: None,
        limit: 20,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| CliError::usage(format!("{flag} requires a value\n\n{USAGE}")))
        };
        match arg.as_str() {
            "--help" | "-h" => {
                return Err(CliError {
                    code: 0,
                    message: USAGE.to_string(),
                })
            }
            "--catalog" => opts.catalog = value("--catalog")?,
            "--strategy" => {
                let name = value("--strategy")?;
                opts.strategy = parse_strategy(&name).ok_or_else(|| {
                    CliError::usage(format!("unknown strategy `{name}`\n\n{USAGE}"))
                })?;
            }
            "--explain" => opts.explain = true,
            "--workers" => {
                let v = value("--workers")?;
                opts.workers = Some(v.trim().parse().map_err(|_| {
                    CliError::usage(format!("--workers expects a positive integer, got `{v}`"))
                })?);
            }
            "--memory" => {
                let v = value("--memory")?;
                opts.memory = Some(v.trim().parse().map_err(|_| {
                    CliError::usage(format!("--memory expects a byte count, got `{v}`"))
                })?);
            }
            "--faults" => opts.faults = Some(value("--faults")?),
            "--limit" => {
                let v = value("--limit")?;
                opts.limit = v.trim().parse().map_err(|_| {
                    CliError::usage(format!("--limit expects a non-negative integer, got `{v}`"))
                })?;
            }
            other if other.starts_with('-') => {
                return Err(CliError::usage(format!(
                    "unknown flag `{other}`\n\n{USAGE}"
                )));
            }
            file => {
                if !opts.query_file.is_empty() {
                    return Err(CliError::usage(format!(
                        "unexpected extra argument `{file}` (query file already given: `{}`)",
                        opts.query_file
                    )));
                }
                opts.query_file = file.to_string();
            }
        }
    }
    if opts.query_file.is_empty() {
        return Err(CliError::usage(format!("no query file given\n\n{USAGE}")));
    }
    Ok(opts)
}

/// One catalog table: its name and rows.
struct TableDef {
    name: String,
    rows: Bag,
}

fn load_catalog(spec: &str) -> Result<Vec<TableDef>, CliError> {
    let spec = spec.trim();
    if spec == "biomed" {
        let data = trance_biomed::generate(&trance_biomed::BiomedConfig::small());
        return Ok(vec![
            table("occurrences", data.occurrences),
            table("network", data.network),
            table("gene_info", data.gene_info),
            table("impact_weights", data.impact_weights),
            table("conseq_weights", data.conseq_weights),
        ]);
    }
    if let Some(rest) = spec.strip_prefix("csv:") {
        return load_csv_catalog(rest);
    }
    if spec == "tpch" || spec.starts_with("tpch:") {
        let mut scale = 0.05f64;
        let mut skew = 0u32;
        let mut parts = spec.splitn(3, ':');
        parts.next(); // "tpch"
        if let Some(s) = parts.next() {
            scale = s.parse().map_err(|_| {
                CliError::usage(format!("bad TPC-H scale `{s}` (expected a number)"))
            })?;
        }
        if let Some(s) = parts.next() {
            skew = s
                .parse()
                .map_err(|_| CliError::usage(format!("bad TPC-H skew `{s}` (expected 0-4)")))?;
        }
        let data = trance_tpch::generate(&trance_tpch::TpchConfig::new(scale, skew));
        return Ok(vec![
            table("lineitem", data.lineitem),
            table("orders", data.orders),
            table("customer", data.customer),
            table("nation", data.nation),
            table("region", data.region),
            table("part", data.part),
        ]);
    }
    Err(CliError::usage(format!(
        "unknown catalog `{spec}` (expected tpch[:SCALE[:SKEW]], biomed or csv:DIR)"
    )))
}

fn table(name: &str, rows: Bag) -> TableDef {
    TableDef {
        name: name.to_string(),
        rows,
    }
}

fn load_csv_catalog(dir: &str) -> Result<Vec<TableDef>, CliError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| CliError::io(format!("cannot read catalog directory `{dir}`: {e}")))?;
    let mut tables = Vec::new();
    for entry in entries {
        let path = entry
            .map_err(|e| CliError::io(format!("cannot list `{dir}`: {e}")))?
            .path();
        if path.extension().and_then(|e| e.to_str()) != Some("csv") {
            continue;
        }
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("table")
            .to_string();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| CliError::io(format!("cannot read `{}`: {e}", path.display())))?;
        tables.push(TableDef {
            rows: parse_csv(&name, &text)?,
            name,
        });
    }
    if tables.is_empty() {
        return Err(CliError::io(format!("no *.csv files found in `{dir}`")));
    }
    tables.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(tables)
}

/// Parses a simple CSV table (no embedded commas or newlines). The header
/// declares `name:type` columns; types are int, real, string, bool, date.
/// Empty fields become NULL.
fn parse_csv(table: &str, text: &str) -> Result<Bag, CliError> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines
        .next()
        .ok_or_else(|| CliError::io(format!("table `{table}`: empty CSV file")))?;
    let mut cols = Vec::new();
    for col in header.split(',') {
        let (name, ty) = col.trim().split_once(':').ok_or_else(|| {
            CliError::io(format!(
                "table `{table}`: header column `{col}` is not `name:type`"
            ))
        })?;
        let ty = match ty.trim() {
            "int" => Type::int(),
            "real" => Type::real(),
            "string" => Type::string(),
            "bool" => Type::boolean(),
            "date" => Type::date(),
            other => {
                return Err(CliError::io(format!(
                    "table `{table}`: column `{name}` has unknown type `{other}` \
                     (expected int, real, string, bool or date)"
                )))
            }
        };
        cols.push((name.trim().to_string(), ty));
    }
    let mut rows = Vec::new();
    for (lineno, line) in lines.enumerate() {
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != cols.len() {
            return Err(CliError::io(format!(
                "table `{table}` row {}: {} fields, header declares {}",
                lineno + 2,
                fields.len(),
                cols.len()
            )));
        }
        let mut tuple = Vec::new();
        for ((name, ty), raw) in cols.iter().zip(fields) {
            tuple.push((name.clone(), parse_csv_field(table, name, ty, raw)?));
        }
        rows.push(Value::tuple(tuple));
    }
    Ok(Bag::new(rows))
}

fn parse_csv_field(table: &str, col: &str, ty: &Type, raw: &str) -> Result<Value, CliError> {
    let raw = raw.trim();
    if raw.is_empty() {
        return Ok(Value::Null);
    }
    let raw = raw
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .unwrap_or(raw);
    let bad = |what: &str| {
        CliError::io(format!(
            "table `{table}` column `{col}`: `{raw}` is not a valid {what}"
        ))
    };
    match ty {
        Type::Scalar(ScalarType::Int) => raw.parse().map(Value::Int).map_err(|_| bad("int")),
        Type::Scalar(ScalarType::Real) => raw.parse().map(Value::Real).map_err(|_| bad("real")),
        Type::Scalar(ScalarType::Bool) => raw.parse().map(Value::Bool).map_err(|_| bad("bool")),
        Type::Scalar(ScalarType::Date) => raw.parse().map(Value::Date).map_err(|_| bad("date")),
        _ => Ok(Value::str(raw)),
    }
}

fn cluster_config(opts: &Options) -> Result<ClusterConfig, CliError> {
    let mut config = ClusterConfig::new(4, 16)
        .with_env_workers()
        .with_env_faults();
    if let Some(w) = opts.workers {
        config = config.with_workers(w);
    }
    if let Some(bytes) = opts.memory {
        config = config.with_worker_memory(bytes);
    }
    if let Some(spec) = &opts.faults {
        let plan = FaultPlan::parse(spec)
            .map_err(|e| CliError::usage(format!("bad --faults spec: {e}")))?;
        config = config.with_faults(plan);
    }
    Ok(config)
}

fn run(opts: &Options) -> Result<(), CliError> {
    let source = std::fs::read_to_string(&opts.query_file)
        .map_err(|e| CliError::io(format!("cannot read `{}`: {e}", opts.query_file)))?;
    let program = trance_frontend::parse_program(&source)
        .map_err(|e| CliError::parse(format!("{}: {e}", opts.query_file)))?;

    let tables = load_catalog(&opts.catalog)?;

    // Type check against the catalog schema (inferred from the data), then
    // derive the shredded-input declarations for every nested table.
    let mut env = TypeEnv::new();
    let mut structures: Vec<(String, NestingStructure)> = Vec::new();
    for t in &tables {
        let ty = Value::Bag(t.rows.clone()).infer_type();
        let structure =
            nesting_structure(&ty).map_err(|e| CliError::io(format!("table `{}`: {e}", t.name)))?;
        structures.push((t.name.clone(), structure));
        env.bind(t.name.clone(), ty);
    }
    let types = program
        .typecheck(&env)
        .map_err(|e| CliError::types(format!("{}: type error: {e}", opts.query_file)))?;
    if let Some((name, ty)) = types.last() {
        eprintln!("{name} : {ty}");
    }

    let query = program
        .to_let_chain()
        .ok_or_else(|| CliError::parse(format!("{}: empty program", opts.query_file)))?;
    let used = query.free_vars();
    let decls: Vec<ShreddedInputDecl> = structures
        .iter()
        .filter(|(name, s)| !s.children.is_empty() && used.contains(name))
        .map(|(name, s)| ShreddedInputDecl::new(name, s.clone()))
        .collect();

    let ctx = DistContext::new(cluster_config(opts)?);
    let mut inputs = InputSet::new(ctx);
    for (t, (_, structure)) in tables.iter().zip(&structures) {
        if !used.contains(&t.name) {
            continue;
        }
        let loaded = if structure.children.is_empty() {
            inputs.add_flat(&t.name, t.rows.clone())
        } else {
            inputs.add_nested(&t.name, t.rows.clone())
        };
        loaded.map_err(|e| CliError::exec(format!("loading table `{}`: {e}", t.name)))?;
    }

    let spec_name = std::path::Path::new(&opts.query_file)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("query")
        .to_string();
    let spec = QuerySpec::new(spec_name, query, decls);

    if opts.explain {
        let text = explain_query(&spec, &inputs, opts.strategy)
            .map_err(|e| CliError::exec(format!("explain failed: {e}")))?;
        println!("{text}");
        return Ok(());
    }

    let outcome = run_query(&spec, &inputs, opts.strategy);
    let bag = match outcome.result {
        RunResult::Failed(e) => {
            return Err(CliError::exec(format!(
                "execution failed under {}: {e}",
                opts.strategy.label()
            )))
        }
        RunResult::Nested(d) => d.collect_bag(),
        RunResult::Shredded(out) => collect_unshredded(&out)
            .map_err(|e| CliError::exec(format!("unshredding failed: {e}")))?,
    };

    eprintln!(
        "{}: {} rows in {:.1} ms (shuffled {} bytes, broadcast {} bytes)",
        outcome.strategy.label(),
        bag.len(),
        outcome.elapsed.as_secs_f64() * 1e3,
        outcome.stats.shuffled_bytes,
        outcome.stats.broadcast_bytes,
    );
    let limit = if opts.limit == 0 {
        bag.len()
    } else {
        opts.limit
    };
    for row in bag.iter().take(limit) {
        println!("{row}");
    }
    if bag.len() > limit {
        println!("... ({} more rows)", bag.len() - limit);
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            if e.code == 0 {
                println!("{}", e.message);
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {}", e.message);
            return ExitCode::from(e.code);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message);
            ExitCode::from(e.code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_names_accept_cli_and_paper_spellings() {
        assert_eq!(parse_strategy("shred"), Some(Strategy::Shred));
        assert_eq!(
            parse_strategy("SHRED+UNSHRED"),
            Some(Strategy::ShredUnshred)
        );
        assert_eq!(parse_strategy("SparkSQL-like"), Some(Strategy::Baseline));
        assert_eq!(
            parse_strategy(" shred_unshred_skew "),
            Some(Strategy::ShredUnshredSkew)
        );
        assert_eq!(parse_strategy("mapreduce"), None);
    }

    #[test]
    fn args_parse_flags_and_positional_query_file() {
        let args: Vec<String> = ["--strategy", "standard", "--limit", "5", "q.nrc"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = parse_args(&args).unwrap();
        assert_eq!(opts.query_file, "q.nrc");
        assert_eq!(opts.strategy, Strategy::Standard);
        assert_eq!(opts.limit, 5);
        assert!(!opts.explain);

        let bad: Vec<String> = vec!["--strategy".into(), "mapreduce".into(), "q.nrc".into()];
        assert_eq!(parse_args(&bad).unwrap_err().code, 2);
        assert_eq!(parse_args(&[]).unwrap_err().code, 2);
    }

    #[test]
    fn csv_tables_parse_typed_headers_and_null_fields() {
        let bag = parse_csv(
            "t",
            "id:int,name:string,score:real,ok:bool,day:date\n\
             1,alice,2.5,true,100\n\
             2,\"bob\",,false,101\n",
        )
        .unwrap();
        assert_eq!(bag.len(), 2);
        let first = bag.items()[0].as_tuple().unwrap();
        assert_eq!(first.get("id"), Some(&Value::Int(1)));
        assert_eq!(first.get("score"), Some(&Value::Real(2.5)));
        assert_eq!(first.get("day"), Some(&Value::Date(100)));
        let second = bag.items()[1].as_tuple().unwrap();
        assert_eq!(second.get("name"), Some(&Value::str("bob")));
        assert_eq!(second.get("score"), Some(&Value::Null));

        assert_eq!(parse_csv("t", "id:int\nx\n").unwrap_err().code, 3);
        assert_eq!(parse_csv("t", "id\n1\n").unwrap_err().code, 3);
    }
}
