//! Example 4.2 from the paper: a registrar database of course
//! combinations students may take. With no prerequisite structure every
//! combination occurs (dense w.r.t. sets of courses); with a tight
//! prerequisite structure only small sets occur (sparse). The density
//! analyzer detects which regime the data is in, and the regime dictates
//! what quantifying over course *sets* costs.
//!
//! ```text
//! cargo run --example university
//! ```

use nestdb::core::eval::{active_order, Evaluator};
use nestdb::core::parser::parse_query;
use nestdb::density::{analysis, classify, families, DensityClass, MeasureKind};
use nestdb::object::Governor;
use nestdb::object::Universe;

fn main() {
    println!("== Example 4.2: course-enrollment density ==\n");

    // measure both regimes across growing course catalogues
    let dense_points: Vec<analysis::Measurement> = (6..=12)
        .map(|n| {
            let g = families::free_enrollment_family(n);
            analysis::measure(&g.order, &g.instance, 1, 1)
        })
        .collect();
    let sparse_points: Vec<analysis::Measurement> = (6..=14)
        .step_by(2)
        .map(|n| {
            let g = families::bounded_enrollment_family(n, 2);
            analysis::measure(&g.order, &g.instance, 1, 1)
        })
        .collect();

    let dense_class = classify(&dense_points, MeasureKind::Cardinality);
    let sparse_class = classify(&sparse_points, MeasureKind::Cardinality);
    println!(
        "no prerequisites   → {:?} (expected Dense)",
        dense_class.class
    );
    println!(
        "max 2 courses      → {:?} (expected Sparse)\n",
        sparse_class.class
    );
    assert_eq!(dense_class.class, DensityClass::Dense);
    assert_eq!(sparse_class.class, DensityClass::Sparse);

    // the query: course sets that are "maximal" (no recorded superset).
    // Its variables range over sets of courses — exactly the kind of
    // quantification Remark 4.1 warns about on sparse data.
    let query_src = "{[X:{U}] | Takes(X) /\\ \
                     ~exists Y:{U} (Takes(Y) /\\ X sub Y /\\ ~(X = Y))}";

    println!(
        "{:>3} | {:>11} {:>13} {:>8} | {:>11} {:>13} {:>8}",
        "n", "dense |I|", "steps", "exp", "sparse |I|", "steps", "exp"
    );
    for n in [6usize, 8, 10] {
        let mut row = format!("{n:>3} |");
        for g in [
            families::free_enrollment_family(n),
            families::bounded_enrollment_family(n, 2),
        ] {
            let mut u = Universe::new();
            let q = parse_query(query_src, &mut u).expect("query parses");
            let order = active_order(&g.instance, &q);
            let mut ev = Evaluator::new(&g.instance, order, Governor::default());
            let _ans = ev.query(&q).expect("query evaluates");
            let card = g.instance.cardinality();
            let exponent = (ev.steps_used() as f64).ln() / (card as f64).ln();
            row.push_str(&format!(
                " {card:>11} {:>13} {exponent:>8.2}",
                ev.steps_used()
            ));
            row.push_str(" |");
        }
        println!("{row}");
    }

    println!();
    println!("Remark 4.1's advice, observed: as a function of the database size the");
    println!("set-quantifying query stays a fixed-degree polynomial on the dense");
    println!("registrar (stable exponent) but is super-polynomial on the sparse one");
    println!("(climbing exponent) — on sparse data, quantify over sets of courses");
    println!("only after range restriction (see the verso_nested example).");
}
