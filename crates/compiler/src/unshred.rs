//! **Unshredding is a plan.** A shredded program leaves its output as a flat
//! top bag plus one dictionary per nested attribute; putting them back
//! together is one more unit of the program, built here as a single
//! [`Plan`] tree and run like every other unit — optimized (`place_by`,
//! pruning, join strategies), run skew-aware under the skew-aware
//! strategies, checked for agreement across ranks, captured for EXPLAIN and
//! the plan cache.
//!
//! The tree folds children into parents bottom-up: for every dictionary of
//! the output's [`NestingStructure`], one re-nesting join ([`Plan::renest`],
//! the node the lowering emits per nesting level, here keyed by `label`),
//! which replaces the labels under `attr` with their entries — `{}` where
//! the dictionary has none:
//!
//! ```text
//! RenestJoin on attr = label as attr
//!   <parent: the top bag, or a dictionary with its own children folded>
//!   NestBag key=[label] values=[…] as attr
//!     <child dictionary, its own children folded>
//! ```

use std::collections::{BTreeMap, HashMap};

use trance_algebra::{Catalog, Plan, PlanProgram};
use trance_dist::ColCollection;
use trance_shred::{output_dict_name, NestingStructure, TOP_BAG};

use crate::columnar::{execute_program, infer_catalog_col};
use crate::options::ExecOptions;

/// Name of the unshredding unit (and of its plan in EXPLAIN output).
pub(crate) const UNSHRED: &str = "unshred";

/// The attribute a dictionary's rows carry their label under.
const LABEL: &str = "label";

/// The one-plan program that reassembles a shredded output: `top` with every
/// dictionary of `structure` re-nested under the attribute that holds its
/// labels. `dicts` maps dictionary paths (as [`NestingStructure::paths`]
/// builds them) to the names the catalog — and the environment the plan runs
/// in — knows them by; attribute lists are the catalog's exact batch schemas.
/// A dictionary the catalog does not hold is skipped with everything below
/// it: its attribute stays the label it was.
pub(crate) fn unshred_program(
    structure: &NestingStructure,
    top: &str,
    dicts: &[(String, String)],
    catalog: &Catalog,
) -> PlanProgram {
    PlanProgram {
        assignments: Vec::new(),
        root: fold(top, None, structure, dicts, catalog).0,
    }
}

/// The rows of `name` (the collection at `path`; `None` for the top bag)
/// with every dictionary below them folded in, and their attributes. Paths
/// are rebuilt from the walk: splitting one at `_` would misread an
/// attribute whose own name contains one (`c_orders`).
fn fold(
    name: &str,
    path: Option<&str>,
    structure: &NestingStructure,
    dicts: &[(String, String)],
    catalog: &Catalog,
) -> (Plan, Vec<String>) {
    let mut plan = Plan::scan(name);
    let mut attrs = catalog.get(name).map_or(Vec::new(), |s| s.attrs.clone());
    for (attr, below) in &structure.children {
        let child_path = path.map_or(attr.clone(), |parent| format!("{parent}_{attr}"));
        let held = |(path, dict): &&(String, String)| *path == child_path && catalog.contains(dict);
        let Some((_, dict)) = dicts.iter().find(held) else {
            continue;
        };
        let (child, mut values) = fold(dict, Some(&child_path), below, dicts, catalog);
        values.retain(|a| a != LABEL);
        if !attrs.contains(attr) {
            attrs.push(attr.clone());
        }
        plan = plan.renest(child, attr, LABEL, values, attr);
    }
    (plan, attrs)
}

/// Distributed unshredding of collections the caller holds: names them as a
/// shredded program would (`TopBag`, `MatDict_<path>`), infers their catalog,
/// and runs `unshred_program` through the program executor — the same builder
/// and the same executor a `SHRED+UNSHRED` run's last unit goes through.
pub fn unshred_distributed_col(
    top: &ColCollection,
    dicts: &BTreeMap<String, ColCollection>,
    structure: &NestingStructure,
    options: &ExecOptions,
) -> trance_dist::Result<ColCollection> {
    let mut env = HashMap::from([(TOP_BAG.to_string(), top.clone())]);
    let mut names = Vec::with_capacity(dicts.len());
    for (path, dict) in dicts {
        let name = output_dict_name(path);
        env.insert(name.clone(), dict.clone());
        names.push((path.clone(), name));
    }
    let catalog = infer_catalog_col(&env)?;
    let program = unshred_program(structure, TOP_BAG, &names, &catalog);
    execute_program(
        &program,
        &env,
        catalog,
        top.context(),
        options,
        UNSHRED,
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use trance_algebra::{AttrSchema, NestOp, PlanJoinKind};

    /// A chain `TopBag.a1 → a1.a2 → …` of `depth` dictionaries: structure,
    /// `(path, name)` pairs and a catalog holding every collection.
    fn chain(depth: usize) -> (NestingStructure, Vec<(String, String)>, Catalog) {
        let attr = |level: usize| format!("a_{level}");
        let mut structure = NestingStructure::flat();
        for level in (1..=depth).rev() {
            structure = NestingStructure::flat().with_child(attr(level), structure);
        }
        let mut catalog = Catalog::new();
        let mut top = vec!["id".to_string()];
        top.extend((depth >= 1).then(|| attr(1)));
        catalog.register(TOP_BAG, AttrSchema::flat(top));
        let dicts: Vec<(String, String)> = structure
            .paths()
            .into_iter()
            .map(|path| (path.clone(), output_dict_name(&path)))
            .collect();
        for (level, (_, name)) in dicts.iter().enumerate() {
            let mut attrs = vec!["label".to_string(), format!("v{level}")];
            attrs.extend((level + 2 <= depth).then(|| attr(level + 2)));
            catalog.register(name.clone(), AttrSchema::flat(attrs));
        }
        (structure, dicts, catalog)
    }

    /// How deep below the root `name` is scanned.
    fn scan_depth(plan: &Plan, name: &str, depth: usize) -> Option<usize> {
        match plan {
            Plan::Scan { name: scanned, .. } => (scanned == name).then_some(depth),
            _ => plan
                .children()
                .into_iter()
                .find_map(|c| scan_depth(c, name, depth + 1)),
        }
    }

    #[test]
    fn one_renesting_triple_per_dictionary_children_below_parents() {
        for depth in 0..=3 {
            let (structure, dicts, catalog) = chain(depth);
            let plan = unshred_program(&structure, TOP_BAG, &dicts, &catalog).root;
            if depth == 0 {
                assert_eq!(plan, Plan::scan(TOP_BAG), "nothing to re-nest");
                continue;
            }
            let by_label = plan.count(|p| {
                matches!(p, Plan::Nest { key, op: NestOp::Bag { group_attr }, .. }
                    if key == &[LABEL.to_string()] && group_attr.starts_with("a_"))
            });
            let renests = plan.count(|p| {
                matches!(p, Plan::Join { kind: PlanJoinKind::Renest { attr }, left_key, right_key, .. }
                    if right_key == &[LABEL.to_string()] && left_key == std::slice::from_ref(attr))
            });
            assert_eq!((by_label, renests), (depth, depth));
            assert_eq!(plan.count(|p| matches!(p, Plan::Join { .. })), depth);
            // Nothing else: a scan per collection, a grouping and a join per
            // dictionary.
            assert_eq!(plan.size(), 1 + 3 * depth);
            // Every collection is scanned once, each dictionary below the
            // collection that holds its labels.
            let mut above = scan_depth(&plan, TOP_BAG, 0).expect("the top bag is scanned");
            for (_, name) in &dicts {
                let at = scan_depth(&plan, name, 0).expect("every dictionary is scanned");
                assert!(at > above, "{name} at depth {at}, its parent at {above}");
                above = at;
            }
            // The root re-nests the top bag's labels under their own name.
            let Plan::Join { kind, .. } = &plan else {
                panic!("depth {depth}: the root must be a join");
            };
            assert_eq!(kind, &PlanJoinKind::Renest { attr: "a_1".into() });
        }
    }

    #[test]
    fn a_dictionary_the_catalog_does_not_hold_is_skipped_with_its_subtree() {
        let (structure, dicts, mut catalog) = chain(3);
        catalog.remove(&dicts[1].1);
        let plan = unshred_program(&structure, TOP_BAG, &dicts, &catalog).root;
        assert_eq!(plan.count(|p| matches!(p, Plan::Join { .. })), 1);
        assert_eq!(scan_depth(&plan, &dicts[2].1, 0), None);
    }
}
