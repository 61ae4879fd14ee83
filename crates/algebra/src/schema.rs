//! Attribute-level schemas for plans.
//!
//! The optimizer does not need full types, only which attributes exist at
//! each operator's output, which of them are bag-valued, and what the inner
//! attributes of those bags are. [`AttrSchema`] captures exactly that, and
//! [`output_schema`] propagates it through a plan given a [`Catalog`] of
//! input schemas.

use std::collections::BTreeMap;

use crate::plan::{NestOp, Plan, PlanJoinKind};
use crate::scalar::ScalarExpr;

/// The attribute structure of a (possibly nested) bag of tuples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AttrSchema {
    /// Top-level attribute names, in order.
    pub attrs: Vec<String>,
    /// For each bag-valued attribute, the schema of its inner tuples.
    pub nested: BTreeMap<String, AttrSchema>,
}

impl AttrSchema {
    /// A flat schema with the given attributes.
    pub fn flat<S: Into<String>>(attrs: impl IntoIterator<Item = S>) -> Self {
        AttrSchema {
            attrs: attrs.into_iter().map(Into::into).collect(),
            nested: BTreeMap::new(),
        }
    }

    /// Adds (or replaces) a bag-valued attribute with the given inner schema.
    pub fn with_nested(mut self, attr: impl Into<String>, inner: AttrSchema) -> Self {
        let attr = attr.into();
        if !self.attrs.contains(&attr) {
            self.attrs.push(attr.clone());
        }
        self.nested.insert(attr, inner);
        self
    }

    /// True when the schema contains `attr` at the top level.
    pub fn contains(&self, attr: &str) -> bool {
        self.attrs.iter().any(|a| a == attr)
    }

    /// True when every name in `attrs` is a top-level attribute.
    pub fn contains_all<'a>(&self, attrs: impl IntoIterator<Item = &'a String>) -> bool {
        attrs.into_iter().all(|a| self.contains(a))
    }

    /// The inner schema of a bag-valued attribute, when known.
    pub fn nested_schema(&self, attr: &str) -> Option<&AttrSchema> {
        self.nested.get(attr)
    }

    /// Keeps only the attributes in `keep` (with their nested schemas).
    pub fn restrict(&self, keep: &[String]) -> AttrSchema {
        AttrSchema {
            attrs: self
                .attrs
                .iter()
                .filter(|a| keep.contains(a))
                .cloned()
                .collect(),
            nested: self
                .nested
                .iter()
                .filter(|(a, _)| keep.contains(a))
                .map(|(a, s)| (a.clone(), s.clone()))
                .collect(),
        }
    }

    /// Merges another schema into this one (union of attributes).
    pub fn merge(&self, other: &AttrSchema) -> AttrSchema {
        let mut out = self.clone();
        for a in &other.attrs {
            if !out.contains(a) {
                out.attrs.push(a.clone());
            }
        }
        for (a, s) in &other.nested {
            out.nested.entry(a.clone()).or_insert_with(|| s.clone());
        }
        out
    }
}

/// The physical column type an attribute should take in the engine's
/// columnar batches — the schema→physical-type mapping the executor uses to
/// type batches *from plan schemas* instead of only from sampled values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhysType {
    /// Scalar attribute: the concrete vector type (int/real/bool/date/
    /// dictionary string) is refined from the values at ingest.
    Scalar,
    /// Bag-valued attribute: an offset-encoded nested-bag column whose child
    /// batch has the given fields.
    Bag(Vec<PhysField>),
}

/// One attribute of a physical batch schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysField {
    /// Attribute name.
    pub name: String,
    /// Physical column type.
    pub ty: PhysType,
}

/// Maps an attribute-level schema to physical batch fields: every attribute
/// in schema order, bag-valued ones carrying their inner fields recursively.
/// An attribute the schema marks as nested becomes a bag column even when
/// the data at hand holds only NULLs or empty bags — plan-schema typing,
/// which value sampling alone cannot provide.
pub fn physical_fields(schema: &AttrSchema) -> Vec<PhysField> {
    schema
        .attrs
        .iter()
        .map(|name| PhysField {
            name: name.clone(),
            ty: match schema.nested_schema(name) {
                Some(inner) => PhysType::Bag(physical_fields(inner)),
                None => PhysType::Scalar,
            },
        })
        .collect()
}

/// Maps input (scan) names to their schemas and, when known, their
/// materialized sizes (used for the optimizer's join strategy selection).
///
/// The catalog also carries a monotonically increasing **epoch**: every
/// mutation (schema registration, size update, removal) bumps it. Long-lived
/// holders — the serving layer's table registry — key their compiled-plan
/// caches on the epoch, so *any* catalog change conservatively invalidates
/// every plan optimized against the previous state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Catalog {
    inputs: BTreeMap<String, AttrSchema>,
    sizes: BTreeMap<String, usize>,
    epoch: u64,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers an input schema (bumps the epoch).
    pub fn register(&mut self, name: impl Into<String>, schema: AttrSchema) -> &mut Self {
        self.inputs.insert(name.into(), schema);
        self.epoch += 1;
        self
    }

    /// Records the materialized size in bytes of an input (bumps the epoch).
    pub fn set_size(&mut self, name: impl Into<String>, bytes: usize) -> &mut Self {
        self.sizes.insert(name.into(), bytes);
        self.epoch += 1;
        self
    }

    /// Registers every input and recorded size of `other`, replacing
    /// same-named entries (bumps the epoch once per entry, like registering
    /// them one by one).
    pub fn merge(&mut self, other: &Catalog) -> &mut Self {
        for (name, schema) in &other.inputs {
            self.register(name.clone(), schema.clone());
        }
        for (name, bytes) in &other.sizes {
            self.set_size(name.clone(), *bytes);
        }
        self
    }

    /// Removes an input and its recorded size (bumps the epoch when the
    /// input existed).
    pub fn remove(&mut self, name: &str) -> &mut Self {
        let had = self.inputs.remove(name).is_some() | self.sizes.remove(name).is_some();
        if had {
            self.epoch += 1;
        }
        self
    }

    /// The catalog's mutation epoch: strictly increases with every
    /// registration, size update or removal. Two equal epochs from the same
    /// catalog instance imply no mutation happened in between — the
    /// invariant compiled-plan caches key on.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The recorded size in bytes of an input, when known.
    pub fn size_of(&self, name: &str) -> Option<usize> {
        self.sizes.get(name).copied()
    }

    /// Looks up an input schema.
    pub fn get(&self, name: &str) -> Option<&AttrSchema> {
        self.inputs.get(name)
    }

    /// True when `name` is a registered input.
    pub fn contains(&self, name: &str) -> bool {
        self.inputs.contains_key(name)
    }

    /// Names of all registered inputs.
    pub fn input_names(&self) -> Vec<&str> {
        self.inputs.keys().map(|s| s.as_str()).collect()
    }
}

/// Renames every top-level attribute of `schema` to `alias.attr`, keeping the
/// nested schemas (whose inner names stay raw, matching the flattened-stream
/// convention where only the level just introduced is prefixed).
fn prefix_schema(schema: &AttrSchema, alias: &str) -> AttrSchema {
    AttrSchema {
        attrs: schema
            .attrs
            .iter()
            .map(|a| format!("{alias}.{a}"))
            .collect(),
        nested: schema
            .nested
            .iter()
            .map(|(a, s)| (format!("{alias}.{a}"), s.clone()))
            .collect(),
    }
}

/// Computes the output schema of a plan. Unknown inputs produce an empty
/// schema, which downstream rules treat as "don't know — don't touch".
pub fn output_schema(plan: &Plan, catalog: &Catalog) -> AttrSchema {
    let inputs = plan
        .children()
        .into_iter()
        .map(|c| output_schema(c, catalog))
        .collect();
    node_schema(plan, inputs, catalog)
}

/// The output schema of one node given its children's output schemas (in
/// [`Plan::children`] order) — one level of [`output_schema`], for passes
/// that already hold the children's schemas.
pub(crate) fn node_schema(plan: &Plan, inputs: Vec<AttrSchema>, catalog: &Catalog) -> AttrSchema {
    let mut inputs = inputs.into_iter();
    let mut next = || inputs.next().unwrap_or_default();
    match plan {
        Plan::Scan { name, alias } => {
            let base = catalog.get(name).cloned().unwrap_or_default();
            match alias {
                Some(a) if !base.attrs.is_empty() => prefix_schema(&base, a),
                _ => base,
            }
        }
        Plan::Unit | Plan::Empty => AttrSchema::default(),
        Plan::Select { .. } | Plan::Dedup { .. } => next(),
        Plan::Extend { columns, .. } => {
            let mut out = next();
            if out.attrs.is_empty() {
                // Unknown input schema: the extension alone is known.
                return AttrSchema::default();
            }
            for (name, expr) in columns {
                if !out.contains(name) {
                    out.attrs.push(name.clone());
                }
                // Pass-through columns keep their nested schema; other
                // expressions reset it.
                let source_col = match expr {
                    ScalarExpr::Col(c) => out.nested_schema(c).cloned(),
                    _ => None,
                };
                match source_col {
                    Some(inner) => {
                        out.nested.insert(name.clone(), inner);
                    }
                    None => {
                        out.nested.remove(name);
                    }
                }
            }
            out
        }
        Plan::AddIndex { id_attr, .. } => {
            let mut out = next();
            if out.attrs.is_empty() {
                return AttrSchema::default();
            }
            if !out.contains(id_attr) {
                out.attrs.push(id_attr.clone());
            }
            out
        }
        Plan::Project { columns, .. } => {
            let in_schema = next();
            let mut out = AttrSchema::default();
            for (name, expr) in columns {
                out.attrs.push(name.clone());
                // Pass-through columns keep their nested schema.
                if let ScalarExpr::Col(c) = expr {
                    if let Some(n) = in_schema.nested_schema(c) {
                        out.nested.insert(name.clone(), n.clone());
                    }
                }
            }
            out
        }
        Plan::Join {
            kind: PlanJoinKind::Inner,
            ..
        } => {
            let l = next();
            l.merge(&next())
        }
        // The left row with `attr` set to the group.
        Plan::Join {
            kind: PlanJoinKind::Renest { attr },
            ..
        } => {
            let (mut out, group) = (next(), next().nested_schema(attr).cloned());
            if out.attrs.is_empty() {
                return AttrSchema::default();
            }
            if !out.contains(attr) {
                out.attrs.push(attr.clone());
            }
            match group {
                Some(inner) => out.nested.insert(attr.clone(), inner),
                None => out.nested.remove(attr),
            };
            out
        }
        Plan::Unnest {
            bag_attr, alias, ..
        } => {
            let in_schema = next();
            let inner = in_schema
                .nested_schema(bag_attr)
                .cloned()
                .unwrap_or_default();
            let inner = match inner.attrs.is_empty() {
                true => inner,
                false => prefix_schema(&inner, alias),
            };
            let out = AttrSchema {
                attrs: in_schema
                    .attrs
                    .iter()
                    .filter(|a| *a != bag_attr)
                    .cloned()
                    .collect(),
                nested: in_schema
                    .nested
                    .iter()
                    .filter(|(a, _)| *a != bag_attr)
                    .map(|(a, s)| (a.clone(), s.clone()))
                    .collect(),
            };
            out.merge(&inner)
        }
        Plan::Nest {
            key, values, op, ..
        } => {
            let in_schema = next();
            let mut out = in_schema.restrict(key);
            match op {
                NestOp::Bag { group_attr } => {
                    out = out.with_nested(group_attr.clone(), in_schema.restrict(values));
                }
                NestOp::Sum => {
                    for v in values {
                        if !out.contains(v) {
                            out.attrs.push(v.clone());
                        }
                    }
                }
            }
            out
        }
        Plan::Union { .. } => next(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            "COP",
            AttrSchema::flat(["cname"]).with_nested(
                "corders",
                AttrSchema::flat(["odate"]).with_nested("oparts", AttrSchema::flat(["pid", "qty"])),
            ),
        );
        c.register("Part", AttrSchema::flat(["pid", "pname", "price"]));
        c
    }

    #[test]
    fn schema_propagates_through_unnest_and_join() {
        let c = catalog();
        let p = Plan::scan("COP")
            .add_index("copID")
            .unnest_as("corders", "co")
            .add_index("coID")
            .unnest_as("co.oparts", "op")
            .join(
                Plan::scan("Part"),
                &["op.pid"],
                &["pid"],
                PlanJoinKind::Inner,
            );
        let s = output_schema(&p, &c);
        for a in [
            "cname", "copID", "co.odate", "coID", "op.pid", "op.qty", "pid", "pname", "price",
        ] {
            assert!(s.contains(a), "missing attribute {a}");
        }
        assert!(
            !s.contains("corders"),
            "unnested attribute is projected away"
        );
    }

    #[test]
    fn nest_restores_nested_structure() {
        let c = catalog();
        let p = Plan::scan("COP")
            .add_index("copID")
            .unnest_as("corders", "co")
            .nest_bag(&["copID", "cname"], &["co.odate", "co.oparts"], "corders");
        let s = output_schema(&p, &c);
        assert!(s.contains("corders"));
        let inner = s.nested_schema("corders").unwrap();
        assert!(inner.contains("co.odate"));
        assert!(inner.contains("co.oparts"));
    }

    #[test]
    fn unknown_inputs_yield_empty_schema() {
        let c = Catalog::new();
        let s = output_schema(&Plan::scan("Mystery"), &c);
        assert!(s.attrs.is_empty());
    }

    #[test]
    fn restrict_and_merge_behave_setwise() {
        let s = AttrSchema::flat(["a", "b", "c"]).with_nested("g", AttrSchema::flat(["x"]));
        let r = s.restrict(&["a".into(), "g".into()]);
        assert_eq!(r.attrs, vec!["a".to_string(), "g".to_string()]);
        assert!(r.nested_schema("g").is_some());
        let m = r.merge(&AttrSchema::flat(["b", "a"]));
        assert_eq!(m.attrs.len(), 3);
    }
}
