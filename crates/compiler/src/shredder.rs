//! The **batch shredder**: a nested input's shredded form, derived from its
//! nested batches partition by partition, where they live.
//!
//! Bag lanes become label lanes, and each dictionary is a bag column's child
//! batch — its columns shared, not copied — behind a `label` lane expanded
//! from the offsets, shredded in turn. The output is what the value shredder
//! (`trance_shred`'s) makes of the same rows, up to label values: a NULL or
//! absent bag stays so and owns no dictionary rows, an empty bag owns a
//! label and no rows, and non-tuple elements become `value` attributes.
//! Bags no typed column holds (in a `Column::Other` lane, or of mixed
//! elements) are typed with `Batch::from_rows` and take the same path.
//!
//! **The mint.** Partition `p`'s `k`-th bag at a path gets the label
//! `⟨site, p + k·P⟩` over `P` partitions — what `Batch::with_unique_ids`
//! mints — so a rank that shreds its own partitions mints what one process
//! mints for them. Each path has one site, allocated in schema order (depth
//! first) as the partitions are shredded in order.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use trance_dist::batch::BagElems;
use trance_dist::{Batch, Bitmap, Column};
use trance_nrc::{Label, Value};

/// The top bag's batch and each dictionary's, by path, per partition.
pub(crate) type Shredded = (Vec<Batch>, BTreeMap<String, Vec<Batch>>);

/// Shreds `parts`, the nested batches of partitions `0..parts.len()`.
pub(crate) fn shred_partitions(parts: &[Cow<'_, Batch>]) -> Shredded {
    let (mut top, mut dicts) = (Vec::new(), BTreeMap::<String, Vec<Batch>>::new());
    let mut sites = BTreeMap::new();
    for (p, batch) in parts.iter().enumerate() {
        let mut mint = Mint {
            sites: &mut sites,
            partition: p as i64,
            stride: parts.len() as i64,
            minted: HashMap::new(),
            dicts: BTreeMap::new(),
        };
        top.push(mint.flat(batch, ""));
        for (path, batches) in mint.dicts {
            let dict = dicts.entry(path).or_default();
            dict.resize(p, Batch::empty());
            dict.push(Batch::concat(&batches));
        }
    }
    for dict in dicts.values_mut() {
        dict.resize(parts.len(), Batch::empty());
    }
    (top, dicts)
}

/// One partition's shredding state: the sites of every path (shared by all
/// partitions), the bags labelled so far and the dictionary batches, by
/// path.
struct Mint<'a> {
    sites: &'a mut BTreeMap<String, u32>,
    partition: i64,
    stride: i64,
    minted: HashMap<String, i64>,
    dicts: BTreeMap<String, Vec<Batch>>,
}

impl Mint<'_> {
    /// The labels of this partition's next `count` bags at `path`; the
    /// path's site is allocated on first sight.
    fn labels(&mut self, path: &str, count: usize) -> Vec<Value> {
        let next = self.sites.len() as u32 + 1;
        let site = *self.sites.entry(path.to_string()).or_insert(next);
        let k = self.minted.entry(path.to_string()).or_insert(0);
        let first = *k;
        *k += count as i64;
        (first..*k)
            .map(|k| Label::new(site, vec![Value::Int(self.partition + k * self.stride)]))
            .map(Value::Label)
            .collect()
    }

    /// `batch`, the rows at `path`, with every bag lane replaced by a label
    /// lane; the bags' elements go to the dictionaries below `path`.
    fn flat(&mut self, batch: &Batch, path: &str) -> Batch {
        if batch.schema().is_opaque() {
            // Not all tuples: each tuple is shredded on its own, the other
            // rows stay as they are.
            let rows: Vec<Value> = batch
                .to_rows()
                .into_iter()
                .map(|row| match row {
                    Value::Tuple(_) => self.flat(&Batch::from_rows(&[row]), path).row_value(0),
                    other => other,
                })
                .collect();
            return Batch::from_rows(&rows);
        }
        let mut lanes: Vec<(&str, Arc<Column>)> = Vec::new();
        for (name, col) in batch.schema().fields().iter().zip(batch.columns()) {
            let path = match path {
                "" => name.clone(),
                _ => format!("{path}_{name}"),
            };
            let lane = match col.as_ref() {
                Column::Bag {
                    offsets,
                    elems,
                    nulls,
                    absent,
                } => self.bag_lane(offsets, elems, nulls, absent, &path),
                Column::Other { values, absent } if values.iter().any(is_bag) => {
                    self.other_lane(values, absent, &path)
                }
                _ => continue,
            };
            lanes.push((name, Arc::new(lane)));
        }
        batch.with_columns(lanes)
    }

    /// A typed bag column's label lane; its elements become the dictionary
    /// rows at `path`. (A NULL or absent bag's offsets span no element.)
    fn bag_lane(
        &mut self,
        offsets: &[u32],
        elems: &BagElems,
        nulls: &Bitmap,
        absent: &Bitmap,
        path: &str,
    ) -> Column {
        let rows = offsets.len().saturating_sub(1);
        let present = (0..rows).filter(|i| !(nulls.get(*i) || absent.get(*i)));
        let mut labels = self.labels(path, present.count()).into_iter();
        let mut owners = Vec::with_capacity(offsets.last().map_or(0, |o| *o as usize));
        let lane = (0..rows)
            .map(|i| match nulls.get(i) || absent.get(i) {
                true => Value::Null,
                false => {
                    let label = labels.next().unwrap_or(Value::Null);
                    let len = (offsets[i + 1] - offsets[i]) as usize;
                    owners.resize(owners.len() + len, label.clone());
                    label
                }
            })
            .collect();
        let elems = match elems {
            BagElems::Rows(child) => Cow::Borrowed(child.as_ref()),
            BagElems::Values(values) => Cow::Owned(Batch::from_rows(values)),
        };
        self.dict(path, owners, &elems);
        Column::Other {
            values: lane,
            absent: absent.clone(),
        }
    }

    /// The label lane of a fallback column holding bags among other values.
    fn other_lane(&mut self, values: &[Value], absent: &Bitmap, path: &str) -> Column {
        let mut labels = self.labels(path, values.iter().filter(|v| is_bag(v)).count());
        labels.reverse();
        let (mut owners, mut elems) = (Vec::new(), Vec::new());
        let lane = values
            .iter()
            .map(|value| match value {
                Value::Bag(bag) => {
                    let label = labels.pop().unwrap_or(Value::Null);
                    owners.resize(owners.len() + bag.len(), label.clone());
                    elems.extend(bag.iter());
                    label
                }
                other => other.clone(),
            })
            .collect();
        self.dict(path, owners, &Batch::from_row_refs(&elems));
        Column::Other {
            values: lane,
            absent: absent.clone(),
        }
    }

    /// Shreds `elems`, the elements of the bags at `path`, and files them as
    /// that path's dictionary rows under their bags' labels `owners`.
    fn dict(&mut self, path: &str, owners: Vec<Value>, elems: &Batch) {
        debug_assert_eq!(owners.len(), elems.rows(), "every element has one bag");
        let mut flat = self.flat(elems, path);
        if flat.schema().is_opaque() {
            let rows: Vec<Value> = flat
                .to_rows()
                .into_iter()
                .map(|row| match row {
                    Value::Tuple(_) => row,
                    other => Value::tuple([("value", other)]),
                })
                .collect();
            flat = Batch::from_rows(&rows);
        }
        let n = owners.len();
        let label = Column::Other {
            values: owners,
            absent: Bitmap::zeros(n),
        };
        // Tuple `set` semantics: `label` leads, the element's attributes
        // follow, and one named `label` overwrites it.
        let dict = Batch::unit(n)
            .with_column("label", Arc::new(label))
            .merge_overwrite(&flat);
        self.dicts.entry(path.to_string()).or_default().push(dict);
    }
}

fn is_bag(v: &Value) -> bool {
    matches!(v, Value::Bag(_))
}
