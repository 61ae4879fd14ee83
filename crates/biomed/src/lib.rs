//! # trance-biomed
//!
//! The biomedical benchmark of Section 6: synthetic data generators shaped
//! like the ICGC inputs used by the paper (a two-level nested occurrences
//! relation, a one-level nested gene network, and flat annotation tables) and
//! the five-step end-to-end pipeline `E2E` whose final output is flat.
//!
//! Substitution note (see DESIGN.md): the real inputs are controlled-access
//! cancer-genomics datasets (BN2 ≈ 280 GB of somatic mutation occurrences
//! annotated by the Ensembl VEP, BN1 the STRING protein network, BF1–BF3 gene
//! and consequence annotations). The generators below reproduce the schema
//! shapes, nesting depths and cardinality ratios of those inputs at a
//! configurable scale, which is what the pipeline's behaviour depends on.

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trance_nrc::builder::*;
use trance_nrc::{Bag, Expr, Value};
use trance_shred::NestingStructure;

/// Scale of the synthetic biomedical dataset.
#[derive(Debug, Clone)]
pub struct BiomedConfig {
    /// Number of samples in the occurrences relation (BN2).
    pub samples: usize,
    /// Mutations per sample (BN2 level 1).
    pub mutations_per_sample: usize,
    /// Consequences per mutation (BN2 level 2).
    pub consequences_per_mutation: usize,
    /// Number of genes (BN1 / BF1 domain).
    pub genes: usize,
    /// Network edges per gene (BN1 level 1).
    pub edges_per_gene: usize,
    /// RNG seed.
    pub seed: u64,
}

impl BiomedConfig {
    /// The "small dataset" configuration of Figure 9.
    pub fn small() -> Self {
        BiomedConfig {
            samples: 40,
            mutations_per_sample: 25,
            consequences_per_mutation: 4,
            genes: 120,
            edges_per_gene: 12,
            seed: 7,
        }
    }

    /// The "full dataset" configuration of Figure 9 (larger along every axis,
    /// keeping the same ratios as the paper's 280 GB / 4 GB inputs).
    pub fn full() -> Self {
        BiomedConfig {
            samples: 150,
            mutations_per_sample: 60,
            consequences_per_mutation: 6,
            genes: 400,
            edges_per_gene: 25,
            seed: 7,
        }
    }

    /// Scales every cardinality by `factor`.
    pub fn scaled(mut self, factor: f64) -> Self {
        self.samples = ((self.samples as f64) * factor).max(1.0) as usize;
        self.mutations_per_sample = ((self.mutations_per_sample as f64) * factor).max(1.0) as usize;
        self.genes = ((self.genes as f64) * factor).max(4.0) as usize;
        self
    }
}

/// The generated biomedical inputs.
#[derive(Debug, Clone)]
pub struct BiomedData {
    /// BN2: `⟨sample, mutations: Bag⟨mutid, gene, impact, consequences: Bag⟨conseq, score⟩⟩⟩`.
    pub occurrences: Bag,
    /// BN1: `⟨gene, edges: Bag⟨gene2, weight⟩⟩`.
    pub network: Bag,
    /// BF1: `⟨gene, gname, glen⟩`.
    pub gene_info: Bag,
    /// BF2: `⟨impact, iweight⟩`.
    pub impact_weights: Bag,
    /// BF3: `⟨conseq, cweight⟩` (tiny, like the Sequence Ontology table).
    pub conseq_weights: Bag,
}

const IMPACTS: [&str; 4] = ["HIGH", "MODERATE", "LOW", "MODIFIER"];
const CONSEQS: [&str; 6] = [
    "missense",
    "stop_gained",
    "synonymous",
    "frameshift",
    "splice",
    "intron",
];

/// Generates the synthetic biomedical inputs.
pub fn generate(config: &BiomedConfig) -> BiomedData {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let occurrences = Bag::new(
        (0..config.samples)
            .map(|s| {
                let mutations: Vec<Value> = (0..config.mutations_per_sample)
                    .map(|m| {
                        let consequences: Vec<Value> = (0..config.consequences_per_mutation)
                            .map(|c| {
                                Value::tuple([
                                    ("conseq", Value::str(CONSEQS[(m + c) % CONSEQS.len()])),
                                    ("score", Value::Real(rng.gen_range(0.0..1.0))),
                                ])
                            })
                            .collect();
                        Value::tuple([
                            ("mutid", Value::Int((s * 10_000 + m) as i64)),
                            ("gene", Value::Int(rng.gen_range(0..config.genes) as i64)),
                            ("impact", Value::str(IMPACTS[m % IMPACTS.len()])),
                            ("consequences", Value::bag(consequences)),
                        ])
                    })
                    .collect();
                Value::tuple([
                    ("sample", Value::str(format!("sample-{s}"))),
                    ("mutations", Value::bag(mutations)),
                ])
            })
            .collect(),
    );
    let network = Bag::new(
        (0..config.genes)
            .map(|g| {
                let edges: Vec<Value> = (0..config.edges_per_gene)
                    .map(|e| {
                        Value::tuple([
                            ("gene2", Value::Int(((g + e + 1) % config.genes) as i64)),
                            ("weight", Value::Real(rng.gen_range(0.1..1.0))),
                        ])
                    })
                    .collect();
                Value::tuple([("gene", Value::Int(g as i64)), ("edges", Value::bag(edges))])
            })
            .collect(),
    );
    let gene_info = Bag::new(
        (0..config.genes)
            .map(|g| {
                Value::tuple([
                    ("gene", Value::Int(g as i64)),
                    ("gname", Value::str(format!("GENE{g}"))),
                    ("glen", Value::Int(1000 + (g * 37 % 5000) as i64)),
                ])
            })
            .collect(),
    );
    let impact_weights = Bag::new(
        IMPACTS
            .iter()
            .enumerate()
            .map(|(i, name)| {
                Value::tuple([
                    ("impact", Value::str(*name)),
                    ("iweight", Value::Real(1.0 - i as f64 * 0.2)),
                ])
            })
            .collect(),
    );
    let conseq_weights = Bag::new(
        CONSEQS
            .iter()
            .enumerate()
            .map(|(i, name)| {
                Value::tuple([
                    ("conseq", Value::str(*name)),
                    ("cweight", Value::Real(1.0 - i as f64 * 0.1)),
                ])
            })
            .collect(),
    );
    BiomedData {
        occurrences,
        network,
        gene_info,
        impact_weights,
        conseq_weights,
    }
}

/// Nesting structure of the occurrences input (BN2).
pub fn occurrences_structure() -> NestingStructure {
    NestingStructure::flat().with_child(
        "mutations",
        NestingStructure::flat().with_child("consequences", NestingStructure::flat()),
    )
}

/// Nesting structure of the network input (BN1).
pub fn network_structure() -> NestingStructure {
    NestingStructure::flat().with_child("edges", NestingStructure::flat())
}

/// Nesting structure of Step 1's output (sample → gene scores).
pub fn step1_structure() -> NestingStructure {
    NestingStructure::flat().with_child("genescores", NestingStructure::flat())
}

/// Nesting structure of Step 2's output (sample → connectivity scores).
pub fn step2_structure() -> NestingStructure {
    NestingStructure::flat().with_child("connectivity", NestingStructure::flat())
}

/// Step 1 — hybrid scores: flatten the whole of BN2, joining BF2 at level 1
/// and BF3 at level 2, aggregating per gene and regrouping per sample.
pub fn step1() -> Expr {
    forin(
        "occ",
        var("Occurrences"),
        singleton(tuple([
            ("sample", proj(var("occ"), "sample")),
            (
                "genescores",
                sum_by(
                    forin(
                        "m",
                        proj(var("occ"), "mutations"),
                        forin(
                            "cq",
                            proj(var("m"), "consequences"),
                            forin(
                                "iw",
                                var("ImpactWeights"),
                                ifthen(
                                    cmp_eq(proj(var("iw"), "impact"), proj(var("m"), "impact")),
                                    forin(
                                        "cw",
                                        var("ConseqWeights"),
                                        ifthen(
                                            cmp_eq(
                                                proj(var("cw"), "conseq"),
                                                proj(var("cq"), "conseq"),
                                            ),
                                            singleton(tuple([
                                                ("gene", proj(var("m"), "gene")),
                                                (
                                                    "score",
                                                    mul(
                                                        proj(var("cq"), "score"),
                                                        mul(
                                                            proj(var("iw"), "iweight"),
                                                            proj(var("cw"), "cweight"),
                                                        ),
                                                    ),
                                                ),
                                            ])),
                                        ),
                                    ),
                                ),
                            ),
                        ),
                    ),
                    &["gene"],
                    &["score"],
                ),
            ),
        ])),
    )
}

/// Step 2 — network propagation: join BN1 with Step 1's output on gene at the
/// first level and aggregate connectivity per neighbouring gene.
pub fn step2() -> Expr {
    forin(
        "hs",
        var("HybridScores"),
        singleton(tuple([
            ("sample", proj(var("hs"), "sample")),
            (
                "connectivity",
                sum_by(
                    forin(
                        "g",
                        proj(var("hs"), "genescores"),
                        forin(
                            "n",
                            var("Network"),
                            ifthen(
                                cmp_eq(proj(var("n"), "gene"), proj(var("g"), "gene")),
                                forin(
                                    "e",
                                    proj(var("n"), "edges"),
                                    singleton(tuple([
                                        ("gene2", proj(var("e"), "gene2")),
                                        (
                                            "cscore",
                                            mul(proj(var("g"), "score"), proj(var("e"), "weight")),
                                        ),
                                    ])),
                                ),
                            ),
                        ),
                    ),
                    &["gene2"],
                    &["cscore"],
                ),
            ),
        ])),
    )
}

/// Step 3 — flatten to per-gene totals across all samples.
pub fn step3() -> Expr {
    sum_by(
        forin(
            "ns",
            var("NetworkScores"),
            forin(
                "c",
                proj(var("ns"), "connectivity"),
                singleton(tuple([
                    ("gene", proj(var("c"), "gene2")),
                    ("total", proj(var("c"), "cscore")),
                ])),
            ),
        ),
        &["gene"],
        &["total"],
    )
}

/// Step 4 — annotate per-gene totals with gene metadata (flat join).
pub fn step4() -> Expr {
    forin(
        "t",
        var("TopGenes"),
        forin(
            "gi",
            var("GeneInfo"),
            ifthen(
                cmp_eq(proj(var("gi"), "gene"), proj(var("t"), "gene")),
                singleton(tuple([
                    ("gname", proj(var("gi"), "gname")),
                    ("glen", proj(var("gi"), "glen")),
                    ("total", proj(var("t"), "total")),
                ])),
            ),
        ),
    )
}

/// Step 5 — final summary: normalized driver-gene score per gene name.
pub fn step5() -> Expr {
    sum_by(
        forin(
            "a",
            var("Annotated"),
            singleton(tuple([
                ("gname", proj(var("a"), "gname")),
                (
                    "driver_score",
                    div(proj(var("a"), "total"), proj(var("a"), "glen")),
                ),
            ])),
        ),
        &["gname"],
        &["driver_score"],
    )
}

/// The five pipeline steps: `(step name, name of the relation the step's
/// output is bound to, query)`.
pub fn pipeline_steps() -> Vec<(&'static str, &'static str, Expr)> {
    vec![
        ("Step1", "HybridScores", step1()),
        ("Step2", "NetworkScores", step2()),
        ("Step3", "TopGenes", step3()),
        ("Step4", "Annotated", step4()),
        ("Step5", "Summary", step5()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use trance_nrc::{eval, Env};

    #[test]
    fn generator_respects_cardinalities() {
        let cfg = BiomedConfig::small();
        let d = generate(&cfg);
        assert_eq!(d.occurrences.len(), cfg.samples);
        assert_eq!(d.network.len(), cfg.genes);
        let first = d.occurrences.items()[0].as_tuple().unwrap().clone();
        assert_eq!(
            first.get("mutations").unwrap().as_bag().unwrap().len(),
            cfg.mutations_per_sample
        );
    }

    #[test]
    fn e2e_pipeline_evaluates_locally_and_ends_flat() {
        let d = generate(&BiomedConfig::small().scaled(0.3));
        let mut env = Env::from_bindings([
            ("Occurrences", Value::Bag(d.occurrences)),
            ("Network", Value::Bag(d.network)),
            ("GeneInfo", Value::Bag(d.gene_info)),
            ("ImpactWeights", Value::Bag(d.impact_weights)),
            ("ConseqWeights", Value::Bag(d.conseq_weights)),
        ]);
        for (step, output, expr) in pipeline_steps() {
            let out = eval(&expr, &env).unwrap();
            assert!(
                !out.as_bag().unwrap().is_empty(),
                "{step} produced an empty result"
            );
            env.bind(output, out);
        }
        let summary = env.get("Summary").unwrap().as_bag().unwrap();
        let row = summary.items()[0].as_tuple().unwrap();
        assert!(row.get("gname").is_some() && row.get("driver_score").is_some());
    }

    #[test]
    fn structures_match_step_outputs() {
        assert_eq!(occurrences_structure().paths().len(), 2);
        assert_eq!(network_structure().paths(), vec!["edges".to_string()]);
        assert_eq!(step1_structure().paths(), vec!["genescores".to_string()]);
        assert_eq!(step2_structure().paths(), vec!["connectivity".to_string()]);
    }
}
