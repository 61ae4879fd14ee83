//! Seeded TPC-H-like data generator with controllable skew.
//!
//! The paper uses the skewed TPC-H generator of \[43\] at scale factor 100 with
//! Zipfian skew factors 0–4 (0 = uniform, 4 = a few keys at very high
//! frequency). This generator reproduces the same knobs at laptop scale: the
//! foreign keys of Orders and Lineitem are drawn from a Zipf-like distribution
//! whose exponent is the skew factor.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trance_nrc::{Bag, Value};

/// Skew factor 0–4, as in the paper's Figure 8.
pub type SkewFactor = u32;

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct TpchConfig {
    /// Scale knob: the number of rows of every table is proportional to it.
    /// Scale 1.0 produces 6 000 lineitems, 1 500 orders, 150 customers,
    /// 200 parts, 25 nations, 5 regions (the TPC-H ratios).
    pub scale: f64,
    /// Zipf-like skew factor (0 = uniform, 4 = extreme skew).
    pub skew: SkewFactor,
    /// RNG seed; identical configurations generate identical data.
    pub seed: u64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        TpchConfig {
            scale: 1.0,
            skew: 0,
            seed: 42,
        }
    }
}

impl TpchConfig {
    /// Creates a configuration with the given scale and skew.
    pub fn new(scale: f64, skew: SkewFactor) -> Self {
        TpchConfig {
            scale,
            skew,
            ..TpchConfig::default()
        }
    }

    /// Number of lineitem rows.
    pub fn lineitems(&self) -> usize {
        (6000.0 * self.scale).max(1.0) as usize
    }
    /// Number of order rows.
    pub fn orders(&self) -> usize {
        (1500.0 * self.scale).max(1.0) as usize
    }
    /// Number of customer rows.
    pub fn customers(&self) -> usize {
        (150.0 * self.scale).max(1.0) as usize
    }
    /// Number of part rows.
    pub fn parts(&self) -> usize {
        (200.0 * self.scale).max(1.0) as usize
    }
    /// Number of nations.
    pub fn nations(&self) -> usize {
        25
    }
    /// Number of regions.
    pub fn regions(&self) -> usize {
        5
    }
}

/// The generated tables, each a flat bag of tuples.
#[derive(Debug, Clone)]
pub struct TpchData {
    /// Lineitem: `l_orderkey, l_partkey, l_quantity, l_price, l_comment`.
    pub lineitem: Bag,
    /// Orders: `o_orderkey, o_custkey, o_orderdate, o_comment`.
    pub orders: Bag,
    /// Customer: `c_custkey, c_name, c_nationkey, c_comment`.
    pub customer: Bag,
    /// Nation: `n_nationkey, n_name, n_regionkey`.
    pub nation: Bag,
    /// Region: `r_regionkey, r_name`.
    pub region: Bag,
    /// Part: `p_partkey, p_name, p_retailprice, p_comment`.
    pub part: Bag,
}

/// Draws a key in `0..n` from a Zipf-like distribution with exponent `skew`
/// (0 = uniform). Uses inverse-power sampling, which is accurate enough for
/// benchmarking purposes and much cheaper than building a full CDF.
fn zipf_key(rng: &mut StdRng, n: usize, skew: SkewFactor) -> i64 {
    if n <= 1 {
        return 0;
    }
    if skew == 0 {
        return rng.gen_range(0..n) as i64;
    }
    // Like the skewed TPC-H generator, skew is produced by duplicating a small
    // set of heavy key values: the share of rows carrying a heavy key grows
    // with the skew factor, while the remaining rows stay uniform.
    let hot_share = match skew {
        1 => 0.30,
        2 => 0.50,
        3 => 0.70,
        _ => 0.85,
    };
    let heavy_keys = 5.min(n);
    if rng.gen_bool(hot_share) {
        rng.gen_range(0..heavy_keys) as i64
    } else {
        rng.gen_range(0..n) as i64
    }
}

/// Generates the tables for `config`.
pub fn generate(config: &TpchConfig) -> TpchData {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n_li = config.lineitems();
    let n_ord = config.orders();
    let n_cust = config.customers();
    let n_part = config.parts();
    let n_nat = config.nations();
    let n_reg = config.regions();

    let region = Bag::new(
        (0..n_reg)
            .map(|r| {
                Value::tuple([
                    ("r_regionkey", Value::Int(r as i64)),
                    ("r_name", Value::str(format!("region-{r}"))),
                ])
            })
            .collect(),
    );
    let nation = Bag::new(
        (0..n_nat)
            .map(|n| {
                Value::tuple([
                    ("n_nationkey", Value::Int(n as i64)),
                    ("n_name", Value::str(format!("nation-{n}"))),
                    ("n_regionkey", Value::Int((n % n_reg) as i64)),
                ])
            })
            .collect(),
    );
    let customer = Bag::new(
        (0..n_cust)
            .map(|c| {
                Value::tuple([
                    ("c_custkey", Value::Int(c as i64)),
                    ("c_name", Value::str(format!("customer-{c}"))),
                    ("c_nationkey", Value::Int((c % n_nat) as i64)),
                    (
                        "c_comment",
                        Value::str(format!("customer comment {c} lorem ipsum")),
                    ),
                ])
            })
            .collect(),
    );
    let part = Bag::new(
        (0..n_part)
            .map(|p| {
                Value::tuple([
                    ("p_partkey", Value::Int(p as i64)),
                    ("p_name", Value::str(format!("part-{p}"))),
                    ("p_retailprice", Value::Real(1.0 + (p % 100) as f64 / 10.0)),
                    ("p_comment", Value::str(format!("part comment {p}"))),
                ])
            })
            .collect(),
    );
    let orders = Bag::new(
        (0..n_ord)
            .map(|o| {
                Value::tuple([
                    ("o_orderkey", Value::Int(o as i64)),
                    (
                        "o_custkey",
                        Value::Int(zipf_key(&mut rng, n_cust, config.skew)),
                    ),
                    ("o_orderdate", Value::Date(10_000 + (o % 2500) as i64)),
                    (
                        "o_comment",
                        Value::str(format!("order comment {o} lorem ipsum dolor")),
                    ),
                ])
            })
            .collect(),
    );
    let lineitem = Bag::new(
        (0..n_li)
            .map(|l| {
                Value::tuple([
                    (
                        "l_orderkey",
                        Value::Int(zipf_key(&mut rng, n_ord, config.skew)),
                    ),
                    (
                        "l_partkey",
                        Value::Int(zipf_key(&mut rng, n_part, config.skew)),
                    ),
                    ("l_quantity", Value::Real(1.0 + (l % 50) as f64)),
                    ("l_price", Value::Real(0.9 + (l % 1000) as f64 / 100.0)),
                    (
                        "l_comment",
                        Value::str(format!("lineitem comment {l} lorem ipsum dolor sit")),
                    ),
                ])
            })
            .collect(),
    );
    TpchData {
        lineitem,
        orders,
        customer,
        nation,
        region,
        part,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_sized() {
        let cfg = TpchConfig::new(0.5, 0);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.lineitem.len(), cfg.lineitems());
        assert_eq!(a.orders.len(), cfg.orders());
        assert!(a.lineitem.multiset_eq(&b.lineitem));
    }

    #[test]
    fn skew_concentrates_foreign_keys() {
        let count_top_key = |skew: u32| {
            let data = generate(&TpchConfig::new(0.5, skew));
            let mut counts = std::collections::HashMap::new();
            for r in data.lineitem.iter() {
                let k = r.as_tuple().unwrap().get("l_orderkey").unwrap().clone();
                *counts.entry(k).or_insert(0usize) += 1;
            }
            *counts.values().max().unwrap()
        };
        let uniform = count_top_key(0);
        let skewed = count_top_key(4);
        assert!(
            skewed > uniform * 5,
            "skew factor 4 must concentrate keys (uniform max {uniform}, skewed max {skewed})"
        );
    }

    #[test]
    fn foreign_keys_reference_existing_rows() {
        let data = generate(&TpchConfig::new(0.2, 2));
        let n_ord = TpchConfig::new(0.2, 2).orders() as i64;
        for r in data.lineitem.iter() {
            let k = r
                .as_tuple()
                .unwrap()
                .get("l_orderkey")
                .unwrap()
                .as_int()
                .unwrap();
            assert!(k >= 0 && k < n_ord);
        }
    }
}
