//! The shredded data representation (Section 4).
//!
//! A nested bag is encoded as a flat **top-level bag** in which every
//! bag-valued attribute is replaced by a [`Label`], plus one **dictionary**
//! per nesting level associating labels with the flat contents of the inner
//! bags at that level.
//!
//! Dictionaries use the *relational* representation the paper's implementation
//! settles on: a dictionary is itself a flat bag of tuples carrying a `label`
//! attribute next to the inner attributes (rather than `⟨label, value-bag⟩`
//! pairs), so that every dictionary-level operation is an ordinary flat
//! relational computation that the distributed engine can partition by
//! `label`.
//!
//! Dictionaries are identified by **paths**: the dictionary for attribute
//! `corders` of the top level has path `"corders"`, the dictionary for the
//! `oparts` attribute of its tuples has path `"corders_oparts"`, and so on.

use std::collections::BTreeMap;

use trance_nrc::{Bag, Label, NrcError, Result, Tuple, Type, Value};

/// The shredded encoding of one nested bag: a flat top-level bag plus one flat
/// dictionary per nesting path.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShreddedValue {
    /// The flat top-level bag (bag attributes replaced by labels).
    pub top: Bag,
    /// Flat dictionaries, keyed by path (`"corders"`, `"corders_oparts"`, …).
    /// Every row carries a `label` attribute identifying the inner bag it
    /// belongs to.
    pub dicts: BTreeMap<String, Bag>,
}

impl ShreddedValue {
    /// Names of all dictionary paths.
    pub fn dict_paths(&self) -> Vec<&str> {
        self.dicts.keys().map(|s| s.as_str()).collect()
    }

    /// The dictionary at `path`, or an empty bag when absent.
    pub fn dict(&self, path: &str) -> Bag {
        self.dicts.get(path).cloned().unwrap_or_else(Bag::empty)
    }
}

/// Allocates label construction sites for value shredding: one site per
/// dictionary path, so labels from different levels never collide.
#[derive(Debug, Default)]
pub struct SiteAllocator {
    next: u32,
    by_path: BTreeMap<String, u32>,
}

impl SiteAllocator {
    /// Creates an allocator starting at site 1.
    pub fn new() -> Self {
        SiteAllocator {
            next: 1,
            by_path: BTreeMap::new(),
        }
    }

    /// Returns the site for `path`, allocating one if needed.
    pub fn site_for(&mut self, path: &str) -> u32 {
        if let Some(s) = self.by_path.get(path) {
            return *s;
        }
        let s = self.next;
        self.next += 1;
        self.by_path.insert(path.to_string(), s);
        s
    }

    /// Returns a fresh, never-reused site.
    pub fn fresh(&mut self) -> u32 {
        let s = self.next;
        self.next += 1;
        s
    }
}

/// The value shredding function: converts a nested bag of tuples into its
/// shredded representation. Labels are generated per inner bag instance,
/// capturing a unique identifier.
pub fn shred_value(nested: &Bag) -> Result<ShreddedValue> {
    let mut out = ShreddedValue::default();
    let mut sites = SiteAllocator::new();
    let mut counter: u64 = 0;
    let top = shred_bag(nested, "", &mut out.dicts, &mut sites, &mut counter)?;
    out.top = top;
    Ok(out)
}

fn shred_bag(
    bag: &Bag,
    path: &str,
    dicts: &mut BTreeMap<String, Bag>,
    sites: &mut SiteAllocator,
    counter: &mut u64,
) -> Result<Bag> {
    let mut out = Bag::empty();
    for item in bag.iter() {
        match item {
            Value::Tuple(t) => {
                let mut flat = Tuple::empty();
                for (name, v) in t.iter() {
                    match v {
                        Value::Bag(inner) => {
                            let child_path = if path.is_empty() {
                                name.to_string()
                            } else {
                                format!("{path}_{name}")
                            };
                            let site = sites.site_for(&child_path);
                            *counter += 1;
                            let label = Label::new(site, vec![Value::Int(*counter as i64)]);
                            // Recursively shred the inner bag's contents and
                            // register one dictionary row per inner tuple.
                            let inner_flat = shred_bag(inner, &child_path, dicts, sites, counter)?;
                            let dict = dicts.entry(child_path).or_insert_with(Bag::empty);
                            for row in inner_flat.iter() {
                                let mut dict_row = Tuple::new([(
                                    "label".to_string(),
                                    Value::Label(label.clone()),
                                )]);
                                match row {
                                    Value::Tuple(rt) => {
                                        for (n, v) in rt.iter() {
                                            dict_row.set(n.to_string(), v.clone());
                                        }
                                    }
                                    other => dict_row.set("value", other.clone()),
                                }
                                dict.push(Value::Tuple(dict_row));
                            }
                            flat.set(name.to_string(), Value::Label(label));
                        }
                        other => flat.set(name.to_string(), other.clone()),
                    }
                }
                out.push(Value::Tuple(flat));
            }
            scalar => out.push(scalar.clone()),
        }
    }
    Ok(out)
}

/// The value unshredding function: re-nests a shredded representation.
///
/// `structure` describes which top-level attributes are labels into which
/// dictionary paths; it is normally obtained from [`nesting_structure`] of the
/// original nested type, or from the shredded query's output structure.
pub fn unshred_value(shredded: &ShreddedValue, structure: &NestingStructure) -> Result<Bag> {
    // Pre-index every dictionary by label for linear-time reconstruction.
    let mut index: BTreeMap<&str, BTreeMap<Value, Vec<&Value>>> = BTreeMap::new();
    for (path, bag) in &shredded.dicts {
        let mut by_label: BTreeMap<Value, Vec<&Value>> = BTreeMap::new();
        for row in bag.iter() {
            let label = row.as_tuple()?.get_or_err("label", "unshred")?.clone();
            by_label.entry(label).or_default().push(row);
        }
        index.insert(path.as_str(), by_label);
    }
    unshred_bag(&shredded.top, structure, "", &index)
}

fn unshred_bag(
    flat: &Bag,
    structure: &NestingStructure,
    path: &str,
    index: &BTreeMap<&str, BTreeMap<Value, Vec<&Value>>>,
) -> Result<Bag> {
    let mut out = Bag::empty();
    for row in flat.iter() {
        let t = match row {
            Value::Tuple(t) => t,
            other => {
                out.push(other.clone());
                continue;
            }
        };
        let mut rebuilt = Tuple::empty();
        for (name, v) in t.iter() {
            if name == "label" && !path.is_empty() {
                continue; // internal bookkeeping attribute
            }
            match structure.children.get(name) {
                Some(child) if matches!(v, Value::Label(_) | Value::Null) => {
                    let child_path = if path.is_empty() {
                        name.to_string()
                    } else {
                        format!("{path}_{name}")
                    };
                    let rows: Vec<Value> = match v {
                        Value::Label(_) => index
                            .get(child_path.as_str())
                            .and_then(|m| m.get(v))
                            .map(|rows| rows.iter().map(|r| (*r).clone()).collect())
                            .unwrap_or_default(),
                        _ => Vec::new(),
                    };
                    let inner = unshred_bag(&Bag::new(rows), child, &child_path, index)?;
                    rebuilt.set(name.to_string(), Value::Bag(inner));
                }
                _ => rebuilt.set(name.to_string(), v.clone()),
            }
        }
        out.push(Value::Tuple(rebuilt));
    }
    Ok(out)
}

/// Describes which attributes of a (shredded) bag are labels referring to
/// child dictionaries, recursively.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NestingStructure {
    /// Child structures keyed by the bag-valued attribute name.
    pub children: BTreeMap<String, NestingStructure>,
}

impl NestingStructure {
    /// A flat structure (no nested attributes).
    pub fn flat() -> Self {
        NestingStructure::default()
    }

    /// Adds a nested attribute.
    pub fn with_child(mut self, attr: impl Into<String>, child: NestingStructure) -> Self {
        self.children.insert(attr.into(), child);
        self
    }

    /// All dictionary paths implied by this structure, in depth-first order.
    pub fn paths(&self) -> Vec<String> {
        fn go(s: &NestingStructure, prefix: &str, out: &mut Vec<String>) {
            for (attr, child) in &s.children {
                let p = if prefix.is_empty() {
                    attr.clone()
                } else {
                    format!("{prefix}_{attr}")
                };
                out.push(p.clone());
                go(child, &p, out);
            }
        }
        let mut out = Vec::new();
        go(self, "", &mut out);
        out
    }
}

/// Derives the nesting structure of a nested bag *type*.
pub fn nesting_structure(ty: &Type) -> Result<NestingStructure> {
    let elem = match ty {
        Type::Bag(inner) => inner.as_ref(),
        _ => {
            return Err(NrcError::TypeMismatch {
                expected: "bag type".into(),
                found: ty.to_string(),
                context: "nesting_structure".into(),
            })
        }
    };
    let mut out = NestingStructure::flat();
    if let Type::Tuple(tt) = elem {
        for (name, ft) in &tt.fields {
            if ft.is_bag() {
                out.children.insert(name.clone(), nesting_structure(ft)?);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cop_value() -> Bag {
        Bag::new(vec![
            Value::tuple([
                ("cname", Value::str("alice")),
                (
                    "corders",
                    Value::bag(vec![
                        Value::tuple([
                            ("odate", Value::Date(10)),
                            (
                                "oparts",
                                Value::bag(vec![
                                    Value::tuple([
                                        ("pid", Value::Int(1)),
                                        ("qty", Value::Real(3.0)),
                                    ]),
                                    Value::tuple([
                                        ("pid", Value::Int(2)),
                                        ("qty", Value::Real(1.0)),
                                    ]),
                                ]),
                            ),
                        ]),
                        Value::tuple([("odate", Value::Date(11)), ("oparts", Value::empty_bag())]),
                    ]),
                ),
            ]),
            Value::tuple([
                ("cname", Value::str("bob")),
                ("corders", Value::empty_bag()),
            ]),
        ])
    }

    fn cop_type() -> Type {
        Type::bag_of([
            ("cname", Type::string()),
            (
                "corders",
                Type::bag_of([
                    ("odate", Type::date()),
                    (
                        "oparts",
                        Type::bag_of([("pid", Type::int()), ("qty", Type::real())]),
                    ),
                ]),
            ),
        ])
    }

    #[test]
    fn shredding_produces_flat_top_and_per_level_dictionaries() {
        let shredded = shred_value(&cop_value()).unwrap();
        assert_eq!(shredded.top.len(), 2);
        assert_eq!(shredded.dict_paths(), vec!["corders", "corders_oparts"]);
        assert_eq!(shredded.dict("corders").len(), 2);
        assert_eq!(shredded.dict("corders_oparts").len(), 2);
        // Top-level rows are flat: corders is a label.
        for row in shredded.top.iter() {
            assert!(matches!(
                row.as_tuple().unwrap().get("corders"),
                Some(Value::Label(_))
            ));
        }
        // Dictionary rows carry a label column plus the inner attributes.
        for row in shredded.dict("corders").iter() {
            let t = row.as_tuple().unwrap();
            assert!(t.get("label").is_some());
            assert!(t.get("odate").is_some());
            assert!(matches!(t.get("oparts"), Some(Value::Label(_))));
        }
    }

    #[test]
    fn unshredding_round_trips_the_value() {
        let original = cop_value();
        let shredded = shred_value(&original).unwrap();
        let structure = nesting_structure(&cop_type()).unwrap();
        let rebuilt = unshred_value(&shredded, &structure).unwrap();
        assert!(
            rebuilt.multiset_eq(&original),
            "round trip must preserve the nested value"
        );
    }

    #[test]
    fn empty_inner_bags_survive_the_round_trip() {
        let original = cop_value();
        let shredded = shred_value(&original).unwrap();
        let structure = nesting_structure(&cop_type()).unwrap();
        let rebuilt = unshred_value(&shredded, &structure).unwrap();
        // bob has an empty corders bag; it must still be an empty bag (not missing).
        let bob = rebuilt
            .iter()
            .find(|r| r.as_tuple().unwrap().get("cname") == Some(&Value::str("bob")))
            .unwrap();
        assert_eq!(
            bob.as_tuple().unwrap().get("corders"),
            Some(&Value::empty_bag())
        );
    }

    #[test]
    fn nesting_structure_paths_follow_the_type() {
        let s = nesting_structure(&cop_type()).unwrap();
        assert_eq!(
            s.paths(),
            vec!["corders".to_string(), "corders_oparts".to_string()]
        );
    }

    #[test]
    fn labels_use_distinct_sites_per_path() {
        let shredded = shred_value(&cop_value()).unwrap();
        let top_label_site =
            shredded
                .top
                .iter()
                .find_map(|r| match r.as_tuple().unwrap().get("corders") {
                    Some(Value::Label(l)) => Some(l.site),
                    _ => None,
                });
        let inner_label_site = shredded.dict("corders").iter().find_map(|r| {
            match r.as_tuple().unwrap().get("oparts") {
                Some(Value::Label(l)) => Some(l.site),
                _ => None,
            }
        });
        assert_ne!(top_label_site, inner_label_site);
    }
}
