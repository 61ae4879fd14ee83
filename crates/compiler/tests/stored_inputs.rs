//! The load path: a registered table is its batches, and a nested input's
//! shredded form is derived from its nested batches, partition by partition.
//!
//! * Each partition's shredded pieces equal the value shredder
//!   (`shred_value`) of that partition's rows under strict variant
//!   equality, up to one label bijection per site — on NULL and absent
//!   attributes, empty and NULL bags, a bag of scalars, a bag held in a
//!   `Column::Other` lane, depth 3 and empty partitions.
//! * The rows read back from a batch-backed input equal the registered rows.
//! * Ingesting a batch-backed input equals ingesting its rows, and is a
//!   pointer copy of the stored batches.

use std::collections::{BTreeMap, HashMap};

use trance_compiler::{ingest_env, InputSet};
use trance_dist::{Batch, ClusterConfig, ColCollection, DistCollection, DistContext};
use trance_nrc::{Bag, Label, Value};
use trance_shred::{flat_input_name, input_dict_name, shred_value};

const PARTITIONS: usize = 5;

fn ctx() -> DistContext {
    DistContext::new(ClusterConfig::new(2, PARTITIONS))
}

fn t(fields: Vec<(&str, Value)>) -> Value {
    Value::tuple(fields)
}

fn bag(items: Vec<Value>) -> Value {
    Value::bag(items)
}

/// One customer → orders → parts → suppliers row (depth 3), with every edge
/// the shredder must keep: NULL and absent attributes, empty and NULL bags,
/// a bag of scalars, and an attribute that holds a bag on some rows and an
/// integer on others (a `Column::Other` lane).
fn customer(c: i64) -> Value {
    let orders: Vec<Value> = (0..c % 4)
        .map(|o| {
            let parts: Vec<Value> = (0..(o + c) % 3)
                .map(|p| {
                    let suppliers = (0..(p + o) % 3)
                        .map(|s| t(vec![("sid", Value::Int(s)), ("sname", Value::str("x"))]))
                        .collect();
                    let mut fields = vec![("pid", Value::Int(p)), ("suppliers", bag(suppliers))];
                    if p % 2 == 0 {
                        fields.push(("qty", Value::Real(p as f64 + 0.5)));
                    }
                    t(fields)
                })
                .collect();
            let parts = match (o + c) % 5 {
                4 => Value::Null,
                _ => bag(parts),
            };
            t(vec![("oid", Value::Int(o)), ("parts", parts)])
        })
        .collect();
    let tags = bag((0..c % 3).map(|i| Value::Int(c * 10 + i)).collect());
    let mixed = match c % 3 {
        0 => Value::Int(c),
        _ => bag(vec![t(vec![("m", Value::Int(c))])]),
    };
    let mut fields = vec![("cid", Value::Int(c))];
    if c % 4 != 1 {
        fields.push(("cname", Value::str(format!("c{c}"))));
    }
    fields.push(("orders", bag(orders)));
    fields.push(("tags", tags));
    fields.push(("mixed", mixed));
    if c % 5 == 2 {
        fields.push(("note", Value::Null));
    }
    t(fields)
}

/// Partitions as a coordinator ships them: some empty.
fn partitions() -> Vec<Vec<Value>> {
    let mut parts = vec![Vec::new(); PARTITIONS];
    for c in 0..23 {
        let p = match c % 4 {
            3 => 4,
            r => r as usize,
        };
        if p != 2 {
            parts[p].push(customer(c));
        }
    }
    parts
}

/// Strict structural equality up to a label bijection: variants, field
/// names and order, and bag order must match, and every label of `got`
/// must map to one label of `want` (and back), per site.
#[derive(Default)]
struct Bijection {
    labels: HashMap<Value, Value>,
    back: HashMap<Value, Value>,
    sites: BTreeMap<u32, u32>,
    sites_back: BTreeMap<u32, u32>,
}

impl Bijection {
    fn eq(&mut self, got: &Value, want: &Value) -> bool {
        match (got, want) {
            (Value::Label(g), Value::Label(w)) => self.pair(g, w),
            (Value::Real(g), Value::Real(w)) => g.to_bits() == w.to_bits(),
            (Value::Tuple(g), Value::Tuple(w)) => {
                g.len() == w.len()
                    && g.iter()
                        .zip(w.iter())
                        .all(|((gn, gv), (wn, wv))| gn == wn && self.eq(gv, wv))
            }
            (Value::Bag(g), Value::Bag(w)) => {
                g.len() == w.len() && g.iter().zip(w.iter()).all(|(gv, wv)| self.eq(gv, wv))
            }
            (Value::Int(_), Value::Int(_))
            | (Value::Bool(_), Value::Bool(_))
            | (Value::Str(_), Value::Str(_))
            | (Value::Date(_), Value::Date(_))
            | (Value::Null, Value::Null) => got == want,
            _ => false,
        }
    }

    fn pair(&mut self, got: &Label, want: &Label) -> bool {
        let (g, w) = (Value::Label(got.clone()), Value::Label(want.clone()));
        let site = *self.sites.entry(got.site).or_insert(want.site) == want.site
            && *self.sites_back.entry(want.site).or_insert(got.site) == got.site;
        site && *self.labels.entry(g.clone()).or_insert_with(|| w.clone()) == w
            && *self.back.entry(w).or_insert(g) == Value::Label(got.clone())
    }

    fn rows(&mut self, what: &str, got: &[Value], want: &[Value]) {
        assert_eq!(got.len(), want.len(), "{what}: row count");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(self.eq(g, w), "{what}: row {i}\n  got  {g:?}\n  want {w:?}");
        }
    }
}

#[test]
fn each_partition_shreds_as_the_value_shredder_shreds_its_rows() {
    let parts = partitions();
    let mut inputs = InputSet::new(ctx());
    inputs
        .add_nested_partitioned("C", parts.clone())
        .expect("register");
    let shredded = inputs.shredded_inputs();
    let dict_paths: Vec<&str> = shredded
        .keys()
        .filter_map(|name| name.strip_prefix("C__D_"))
        .collect();
    for path in [
        "orders",
        "orders_parts",
        "orders_parts_suppliers",
        "tags",
        "mixed",
    ] {
        assert!(dict_paths.contains(&path), "no dictionary at {path}");
    }
    for (p, rows) in parts.iter().enumerate() {
        // The value shredder numbers its sites per call, so each partition
        // has its own bijection.
        let mut bijection = Bijection::default();
        let want = shred_value(&Bag::new(rows.clone())).expect("shred_value");
        bijection.rows(
            &format!("partition {p} top"),
            &shredded[&flat_input_name("C")].partitions()[p],
            want.top.items(),
        );
        for path in &dict_paths {
            let got = &shredded[&input_dict_name("C", path)].partitions()[p];
            let want = want.dicts.get(*path).map_or(&[][..], Bag::items);
            bijection.rows(&format!("partition {p} dictionary {path}"), got, want);
        }
        for path in want.dicts.keys() {
            assert!(dict_paths.contains(&path.as_str()), "missing {path}");
        }
    }
    // Across partitions too, every bag owns its own label: no label
    // attribute (the `label` column of a dictionary repeats its bag's)
    // holds one label twice.
    let mut seen = std::collections::HashSet::new();
    for coll in shredded.values() {
        for row in coll.collect() {
            for (name, value) in row.as_tuple().expect("tuple rows").iter() {
                if matches!(value, Value::Label(_)) && name != "label" {
                    assert!(seen.insert(value.clone()), "{value:?} labels two bags");
                }
            }
        }
    }
    // Depth 3 and the other edges were really exercised.
    let rows = |name: String| shredded[&name].len();
    assert!(rows(input_dict_name("C", "orders_parts_suppliers")) > 0);
    assert!(rows(input_dict_name("C", "mixed")) > 0);
    assert!(parts[2].is_empty(), "an empty partition is covered");
}

#[test]
fn a_batch_backed_input_reads_back_the_registered_rows() {
    let parts = partitions();
    let mut inputs = InputSet::new(ctx());
    inputs
        .add_nested_partitioned("C", parts.clone())
        .expect("register nested");
    inputs
        .add_flat_partitioned("F", parts.clone())
        .expect("register flat");
    let mut same = Bijection::default();
    for (form, name) in [
        (inputs.nested_inputs(), "C"),
        (inputs.nested_inputs(), "F"),
        (inputs.shredded_inputs(), "F"),
    ] {
        let coll = &form[name];
        assert_eq!(coll.len(), parts.iter().map(Vec::len).sum::<usize>());
        let flat: Vec<Value> = parts.iter().flatten().cloned().collect();
        same.rows(&format!("{name}: collect"), &coll.collect(), &flat);
        for (p, rows) in parts.iter().enumerate() {
            same.rows(
                &format!("{name}: partition {p}"),
                &coll.partitions()[p],
                rows,
            );
        }
    }
    assert!(same.labels.is_empty(), "the registered rows hold no labels");
}

#[test]
fn ingesting_a_batch_backed_input_equals_ingesting_its_rows_and_copies_pointers() {
    let parts = partitions();
    let ctx = ctx();
    let mut inputs = InputSet::new(ctx.clone());
    inputs
        .add_nested_partitioned("C", parts.clone())
        .expect("register");
    let stored = ingest_env(inputs.nested_inputs()).expect("ingest stored");
    let from_rows = ingest_env(&HashMap::from([(
        "C".to_string(),
        DistCollection::from_partitioned_rows(ctx.clone(), parts),
    )]))
    .expect("ingest rows");
    let batches = |coll: &ColCollection| -> Vec<Batch> {
        let parts = coll.batches().expect("resident");
        parts.into_iter().map(|b| b.into_owned()).collect()
    };
    let (stored, from_rows) = (batches(&stored["C"]), batches(&from_rows["C"]));
    let mut same = Bijection::default();
    for (p, (s, r)) in stored.iter().zip(&from_rows).enumerate() {
        assert_eq!(s.schema(), r.schema(), "partition {p}: schema");
        same.rows(&format!("partition {p}"), &s.to_rows(), &r.to_rows());
    }
    // The stored batches themselves, not a conversion of their rows.
    let resident = inputs.resident(false).expect("resident").batches(&ctx);
    for (p, (s, held)) in stored.iter().zip(batches(&resident["C"])).enumerate() {
        assert!(
            s.columns()
                .iter()
                .zip(held.columns())
                .all(|(a, b)| std::sync::Arc::ptr_eq(a, b)),
            "partition {p}: ingest re-converted the stored batches"
        );
    }
}
