//! Every TPC-H query the figures run must be expressible in the surface
//! syntax: its pretty-printed text re-parses to an equal `Expr`, and that
//! expression typechecks against the tables it reads — what a textual
//! submission of the same query (CLI, wire protocol, serving engine) relies
//! on.

use trance_frontend::parse_expr;
use trance_nrc::{infer, pretty::pretty, Type, TypeEnv, Value};
use trance_tpch::{
    flat_to_nested, generate, nested_to_flat, nested_to_nested, QueryVariant, TpchConfig,
};

/// The flat tables' types, inferred from a generated sample, plus the nested
/// input's: the flat-to-nested output type at `depth`.
fn tpch_type_env(depth: usize, variant: QueryVariant) -> TypeEnv {
    let data = generate(&TpchConfig::new(0.01, 0));
    let mut env = TypeEnv::new();
    for (name, bag) in [
        ("Lineitem", &data.lineitem),
        ("Orders", &data.orders),
        ("Customer", &data.customer),
        ("Nation", &data.nation),
        ("Region", &data.region),
        ("Part", &data.part),
    ] {
        let row = bag.iter().next().expect("a generated table has rows");
        env.bind(name, Type::bag(Value::infer_type(row)));
    }
    let nested = infer(&flat_to_nested(depth, variant), &env)
        .expect("flat-to-nested typechecks against the flat tables");
    env.bind("Nested", nested);
    env
}

#[test]
fn every_tpch_query_round_trips_through_the_front_end() {
    for variant in [QueryVariant::Narrow, QueryVariant::Wide] {
        for depth in [1usize, 2] {
            let env = tpch_type_env(depth, variant);
            for (family, query) in [
                ("flat-to-nested", flat_to_nested(depth, variant)),
                ("nested-to-nested", nested_to_nested(depth, variant)),
                ("nested-to-flat", nested_to_flat(depth, variant)),
            ] {
                let case = format!("{family} depth {depth} {variant:?}");
                let text = pretty(&query);
                let parsed =
                    parse_expr(&text).unwrap_or_else(|e| panic!("{case} must re-parse: {e}"));
                assert_eq!(parsed, query, "{case}: parse(pretty(e)) != e");
                infer(&parsed, &env).unwrap_or_else(|e| panic!("{case} must typecheck: {e}"));
            }
        }
    }
}
