//! `BENCH_history.json` — the committed trajectory of the repo benchmark:
//! one record per change, each holding, per workload, every end-to-end
//! metric `BENCHMARK.json` declares as median / q1 / q3 of that change's
//! runs. `shuffle_mib` is an exact count, so it may only differ from the
//! same workload's previous record when the workload says why in a
//! `"moved"` note.

use std::collections::BTreeMap;

/// The JSON subset both files are written in.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.pos == p.text.len() {
            Ok(v)
        } else {
            Err(format!("trailing text at byte {}", p.pos))
        }
    }

    fn ws(&mut self) {
        while self.text.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        self.ws();
        let hit = self.text.get(self.pos) == Some(&c);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.pos))
        }
    }

    /// The items of a `[…]` or `{…}` after its opening bracket.
    fn seq<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut items = Vec::new();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            if !self.eat(b',') {
                self.expect(close)?;
                return Ok(items);
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        let mut chars = std::str::from_utf8(&self.text[self.pos..])
            .map_err(|e| e.to_string())?
            .char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.pos += i + 1;
                    return Ok(out);
                }
                '\\' => match chars.next() {
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, e @ ('"' | '\\' | '/'))) => out.push(e),
                    other => return Err(format!("unsupported escape {other:?}")),
                },
                c => out.push(c),
            }
        }
        Err("unterminated string".into())
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        let rest = &self.text[self.pos..];
        for (word, v) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
        ] {
            if rest.starts_with(word.as_bytes()) {
                self.pos += word.len();
                return Ok(v);
            }
        }
        match rest.first() {
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                self.seq(b']', Self::value).map(Json::Arr)
            }
            Some(b'{') => {
                self.pos += 1;
                self.seq(b'}', |p| {
                    let key = p.string()?;
                    p.expect(b':')?;
                    Ok((key, p.value()?))
                })
                .map(Json::Obj)
            }
            _ => {
                let len = rest
                    .iter()
                    .take_while(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                    .count();
                let text = std::str::from_utf8(&rest[..len]).map_err(|e| e.to_string())?;
                self.pos += len;
                text.parse()
                    .map(Json::Num)
                    .map_err(|_| format!("bad number {text:?} at byte {}", self.pos))
            }
        }
    }
}

fn read(name: &str) -> Json {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Parser::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The end-to-end metric names `BENCHMARK.json` declares.
fn end_to_end_metrics() -> Vec<String> {
    let Some(Json::Arr(metrics)) = read("BENCHMARK.json").get("end_to_end").cloned() else {
        panic!("BENCHMARK.json has no `end_to_end` list");
    };
    metrics
        .iter()
        .map(|m| match m.get("name") {
            Some(Json::Str(name)) => name.clone(),
            other => panic!("end-to-end metric without a name: {other:?}"),
        })
        .collect()
}

/// Every way `history` breaks the file's rules, as one line each.
fn violations(history: &Json, metrics: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let Some(Json::Arr(records)) = history.get("records") else {
        return vec!["no `records` list".into()];
    };
    // Workload → (PR, shuffle_mib in thousandths) of its latest record.
    let mut last: BTreeMap<String, (f64, i64)> = BTreeMap::new();
    let mut last_pr = f64::NEG_INFINITY;
    for record in records {
        let pr = record.get("pr").and_then(Json::num).unwrap_or(f64::NAN);
        if pr.is_nan() || pr <= last_pr {
            out.push(format!("record PR {pr}: PR numbers must rise"));
        }
        last_pr = pr;
        for key in ["commit", "box", "seed", "seconds", "source"] {
            if record.get(key).is_none() {
                out.push(format!("PR {pr}: no `{key}`"));
            }
        }
        let Some(Json::Obj(workloads)) = record.get("workloads") else {
            out.push(format!("PR {pr}: no `workloads`"));
            continue;
        };
        for (workload, entry) in workloads {
            for metric in metrics {
                let q = |k: &str| entry.get(metric).and_then(|m| m.get(k)).and_then(Json::num);
                match (q("q1"), q("median"), q("q3")) {
                    (Some(q1), Some(median), Some(q3)) if q1 <= median && median <= q3 => {}
                    got => out.push(format!(
                        "PR {pr} {workload}: `{metric}` needs q1 <= median <= q3, got {got:?}"
                    )),
                }
            }
            let Some(mib) = entry
                .get("shuffle_mib")
                .and_then(|m| m.get("median"))
                .and_then(Json::num)
            else {
                continue;
            };
            let mib = (mib * 1000.0).round() as i64;
            if let Some((prev_pr, prev)) = last.insert(workload.clone(), (pr, mib)) {
                if prev != mib && entry.get("moved").is_none() {
                    out.push(format!(
                        "PR {pr} {workload}: shuffle_mib {:.3} differs from PR {prev_pr}'s {:.3} \
                         without a `moved` note",
                        mib as f64 / 1000.0,
                        prev as f64 / 1000.0
                    ));
                }
            }
        }
    }
    out
}

#[test]
fn bench_history_holds_every_end_to_end_metric_and_exact_shuffle_volumes() {
    let history = read("BENCH_history.json");
    let metrics = end_to_end_metrics();
    assert!(metrics.iter().any(|m| m == "shuffle_mib"));
    let errors = violations(&history, &metrics);
    assert!(
        errors.is_empty(),
        "BENCH_history.json:\n  {}",
        errors.join("\n  ")
    );
}

#[test]
fn a_shuffle_volume_that_moves_without_a_note_is_refused() {
    let metrics = vec!["shuffle_mib".to_string()];
    let record = |pr: f64, mib: f64, moved: bool| {
        let mut entry = vec![(
            "shuffle_mib".to_string(),
            Json::Obj(
                ["median", "q1", "q3"]
                    .map(|k| (k.to_string(), Json::Num(mib)))
                    .to_vec(),
            ),
        )];
        if moved {
            entry.push(("moved".into(), Json::Str("a join now runs in place".into())));
        }
        Json::Obj(vec![
            ("pr".into(), Json::Num(pr)),
            ("commit".into(), Json::Null),
            ("box".into(), Json::Str("test".into())),
            ("seed".into(), Json::Num(1.0)),
            ("seconds".into(), Json::Num(15.0)),
            ("source".into(), Json::Str("test".into())),
            (
                "workloads".into(),
                Json::Obj(vec![("w".into(), Json::Obj(entry))]),
            ),
        ])
    };
    let history = |records: Vec<Json>| Json::Obj(vec![("records".into(), Json::Arr(records))]);

    let same = history(vec![
        record(1.0, 51.717, false),
        record(2.0, 51.7172, false),
    ]);
    assert_eq!(violations(&same, &metrics), Vec::<String>::new());
    let moved = history(vec![record(1.0, 51.717, false), record(2.0, 50.1, false)]);
    let errors = violations(&moved, &metrics);
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(errors[0].contains("without a `moved` note"), "{errors:?}");
    let noted = history(vec![record(1.0, 51.717, false), record(2.0, 50.1, true)]);
    assert_eq!(violations(&noted, &metrics), Vec::<String>::new());
    // The next record is held to the moved volume, not the old one.
    let after = history(vec![
        record(1.0, 51.717, false),
        record(2.0, 50.1, true),
        record(3.0, 51.717, false),
    ]);
    assert_eq!(violations(&after, &metrics).len(), 1);
}
