//! Plan-layer tour: lower the running example's NRC query through the
//! unnesting algorithm (Figure 3), run the optimizer (column pruning,
//! selection pushdown, join strategy selection) and print the trees —
//! the same pipeline every strategy executes.
//!
//! Run with `cargo run --example plan_optimizer_tour`.

use trance::algebra::{lower, optimize, pretty_plan, AttrSchema, Catalog, OptimizerConfig};
use trance::nrc::builder::*;

fn main() {
    let mut catalog = Catalog::new();
    catalog.register(
        "COP",
        AttrSchema::flat(["cname", "ccomment"]).with_nested(
            "corders",
            AttrSchema::flat(["odate"]).with_nested("oparts", AttrSchema::flat(["pid", "qty"])),
        ),
    );
    catalog.register(
        "Part",
        AttrSchema::flat(["pid", "pname", "price", "comment", "brand"]),
    );
    // Catalog sizes drive join strategy selection: Part fits under the
    // broadcast limit, so the value join is annotated `[broadcast]`.
    catalog.set_size("COP", 4 * 1024 * 1024);
    catalog.set_size("Part", 2 * 1024);

    // The running example: for each customer, per order, the total spent per
    // part name (a two-level nested output with a join at the bottom).
    let query = forin(
        "cop",
        var("COP"),
        singleton(tuple([
            ("cname", proj(var("cop"), "cname")),
            (
                "corders",
                forin(
                    "co",
                    proj(var("cop"), "corders"),
                    singleton(tuple([
                        ("odate", proj(var("co"), "odate")),
                        (
                            "oparts",
                            sum_by(
                                forin(
                                    "op",
                                    proj(var("co"), "oparts"),
                                    forin(
                                        "p",
                                        var("Part"),
                                        ifthen(
                                            cmp_eq(proj(var("op"), "pid"), proj(var("p"), "pid")),
                                            singleton(tuple([
                                                ("pname", proj(var("p"), "pname")),
                                                (
                                                    "total",
                                                    mul(
                                                        proj(var("op"), "qty"),
                                                        proj(var("p"), "price"),
                                                    ),
                                                ),
                                            ])),
                                        ),
                                    ),
                                ),
                                &["pname"],
                                &["total"],
                            ),
                        ),
                    ])),
                ),
            ),
        ])),
    );

    let program = lower(&query, &catalog).expect("the running example lowers");
    println!("=== Lowered plan program (Figure 3 shape) ===\n");
    for assignment in &program.assignments {
        println!(
            "-- {} --\n{}",
            assignment.name,
            pretty_plan(&assignment.plan)
        );
    }
    println!("-- root --\n{}", pretty_plan(&program.root));

    let config = OptimizerConfig {
        broadcast_limit: Some(8 * 1024),
    };
    println!("=== After optimization ===\n");
    for assignment in &program.assignments {
        println!(
            "-- {} --\n{}",
            assignment.name,
            pretty_plan(&optimize(&assignment.plan, &catalog, &config))
        );
    }
    println!(
        "-- root --\n{}",
        pretty_plan(&optimize(&program.root, &catalog, &config))
    );
}
