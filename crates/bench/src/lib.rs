//! # coin-bench — benchmarks and the baselines they measure against
//!
//! The criterion benches live in `benches/`, the baseline regression
//! comparator in `src/bin/bench_gate.rs`. This library holds the legacy
//! implementations that the product crates no longer ship but that the
//! benches and the equivalence suites (`tests/`) still compare against:
//!
//! * [`mod@reference`] — the pre-optimization relational operators
//!   (string-keyed hash join, BTreeMap aggregation, tree-walking filter
//!   and projection);
//! * [`pairwise`] — the tightly-coupled pairwise-integration baseline
//!   (\[SL90\]) and the hand-written Figure 2 rewrite;
//! * [`tree_json`] — the `Json`-tree result encoders.
//!
//! The crate is `publish = false` and no product crate depends on it
//! through a normal dependency edge (CI checks this).

pub mod pairwise;
pub mod reference;
pub mod tree_json;
