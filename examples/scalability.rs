//! EX-SCALE: the scalability and extensibility claims, quantified.
//!
//! "The approach is scalable because the complexity of creating and
//! administering the interoperation services do not increase exponentially
//! with the number of participating sources … It is extensible because
//! changes within any system can be effected by corresponding changes in
//! local elevation axioms or context theory and do not have adverse effects
//! on other parts of the larger system." (paper §1)
//!
//! This binary prints the administration-size table — COIN context axioms
//! (O(n)) versus a-priori pairwise integration rules (O(n²)) — and
//! demonstrates extensibility: adding source n+1 touches a constant number
//! of statements and leaves existing mediations byte-identical.
//!
//! Run with: `cargo run --example scalability`

use coin::core::fixtures::{add_synthetic_source, synthetic_system, Rng};
use coin_bench::pairwise::PairwiseIntegration;

fn main() {
    println!("=== Administration cost: COIN contexts vs pairwise integration ===\n");
    println!(
        "{:>8} {:>14} {:>16} {:>10}",
        "sources", "COIN axioms", "pairwise rules", "ratio"
    );
    for n in [2usize, 4, 8, 16, 32, 64] {
        let sys = synthetic_system(n, 1, 7);
        let coin_axioms = sys.axiom_count();
        let pairwise =
            PairwiseIntegration::derive(sys.domain(), sys.contexts(), "companyFinancials").unwrap();
        let pw = pairwise.statement_count();
        println!(
            "{:>8} {:>14} {:>16} {:>9.1}x",
            n,
            coin_axioms,
            pw,
            pw as f64 / coin_axioms as f64
        );
    }

    println!("\n=== Extensibility: adding source n+1 ===\n");
    let mut sys = synthetic_system(8, 4, 7);
    let q = "SELECT f.cname, f.amount FROM fin3 f WHERE f.amount > 1000";
    let before_axioms = sys.axiom_count();
    let before_sql = sys.mediate(q, "c_recv").unwrap().query.to_string();

    let mut rng = Rng::new(99);
    add_synthetic_source(&mut sys, 8, 4, &mut rng);
    let after_axioms = sys.axiom_count();
    let after_sql = sys.mediate(q, "c_recv").unwrap().query.to_string();

    println!("axioms before: {before_axioms}");
    println!(
        "axioms after : {after_axioms}  (+{} for the new source)",
        after_axioms - before_axioms
    );
    println!(
        "existing mediation unchanged: {}",
        if before_sql == after_sql {
            "yes (byte-identical)"
        } else {
            "NO — regression!"
        }
    );
    assert_eq!(before_sql, after_sql);

    // The new source is immediately queryable.
    let answer = sys
        .query("SELECT f.cname, f.amount FROM fin8 f", "c_recv")
        .unwrap();
    println!(
        "new source immediately queryable: {} rows through mediation",
        answer.table.rows.len()
    );

    println!("\nOK: scalability and extensibility demonstrated.");
}
