//! # coin-planner — the multi-database access engine
//!
//! "The multi-database access engine constitutes a front-end of dictionary
//! and query services to the multiple wrapped sources. Its main functions
//! are: serving schema information …; planning and optimizing the
//! multi-source queries taking into account the sources capabilities as
//! well as the execution and communication costs; controlling the execution
//! of the resulting query execution plan and executing the necessary local
//! operations (e.g. joins across sources)." (paper §2)
//!
//! * [`dictionary::Dictionary`] — the schema/dictionary service;
//! * [`optimize::Planner`] — decomposition + cost-based optimization with
//!   capability awareness (selection/projection pushdown, binding-pattern
//!   dependent access, fetch ordering), all individually switchable for
//!   ablation;
//! * [`plan::Plan`] — the explainable execution plan;
//! * [`Planner::execute_planned_stream`] — plan execution as a row stream
//!   ([`exec::PlanRows`]), with communication and spill accounting.

pub mod dictionary;
pub mod exec;
pub mod optimize;
pub mod plan;

pub use dictionary::{DictError, Dictionary};
pub use exec::{ExecStats, PlanRows};
pub use optimize::{Planner, PlannerConfig};
pub use plan::{FetchStep, ParamBinding, Plan, PlanError, QueryPlan};

use coin_rel::Table;
use coin_sql::Query;

impl Planner {
    /// Compile a full query into a clonable [`QueryPlan`] artifact: each
    /// UNION branch is planned independently. The result captures every
    /// optimizer decision and can be executed many times with
    /// [`Planner::execute_planned_stream`].
    pub fn plan_query(&self, q: &Query) -> Result<QueryPlan, PlanError> {
        let branches = q
            .branches()
            .iter()
            .map(|s| self.plan_select(s))
            .collect::<Result<Vec<_>, _>>()?;
        let all = match q {
            // A single SELECT has nothing to deduplicate across branches.
            Query::Select(_) => true,
            Query::Union { all, .. } => *all,
        };
        Ok(QueryPlan { branches, all })
    }

    /// Execute a compiled [`QueryPlan`] as a row stream (results combined
    /// with set semantics unless the plan came from UNION ALL or a single
    /// SELECT; [`PlanRows::collect`] materializes them): every branch's
    /// fetch steps run eagerly (communication statistics are final), but
    /// local joins, residuals, the UNION merge and set-semantics
    /// deduplication all stream — nothing materializes the combined
    /// result. All branches share the execution's one temp store.
    pub fn execute_planned_stream(
        &self,
        plan: &QueryPlan,
        cancel: Option<coin_rel::CancelToken>,
    ) -> Result<PlanRows, PlanError> {
        let store = coin_rel::TempStore::new();
        let mut stats = ExecStats::default();
        let mut branches = Vec::with_capacity(plan.branches.len());
        for branch in &plan.branches {
            let (schema, op, st) =
                exec::build_plan_pipeline(branch, &self.dictionary, cancel.clone(), &store)?;
            stats.remote_queries += st.remote_queries;
            stats.rows_shipped += st.rows_shipped;
            stats.comm_cost += st.comm_cost;
            branches.push((schema, op));
        }
        let (schema, op) = coin_rel::build_union_pipeline(branches, plan.all, &store)?;
        Ok(PlanRows::from_parts(schema, op, store, stats))
    }

    /// Parse, plan and execute SQL text.
    pub fn run_sql(&self, sql: &str) -> Result<(Table, ExecStats), PlanError> {
        self.run_sql_stream(sql, None)?.collect()
    }

    /// Parse, plan and execute SQL text as a row stream (the streaming
    /// form of [`Planner::run_sql`]).
    pub fn run_sql_stream(
        &self,
        sql: &str,
        cancel: Option<coin_rel::CancelToken>,
    ) -> Result<PlanRows, PlanError> {
        let q = coin_sql::parse_query(sql)?;
        self.execute_planned_stream(&self.plan_query(&q)?, cancel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coin_rel::{Catalog, ColumnType, Schema, Value};
    use coin_wrapper::{figure2_rates_source, CostParams, RelationalSource, SimWeb};

    /// The Figure 2 setting as three autonomous sources: two databases and
    /// the ancillary exchange-rate web service.
    fn figure2_dictionary() -> Dictionary {
        let r1 = Table::from_rows(
            "r1",
            Schema::of(&[
                ("cname", ColumnType::Str),
                ("revenue", ColumnType::Int),
                ("currency", ColumnType::Str),
            ]),
            vec![
                vec![
                    Value::str("IBM"),
                    Value::Int(100_000_000),
                    Value::str("USD"),
                ],
                vec![Value::str("NTT"), Value::Int(1_000_000), Value::str("JPY")],
            ],
        );
        let r2 = Table::from_rows(
            "r2",
            Schema::of(&[("cname", ColumnType::Str), ("expenses", ColumnType::Int)]),
            vec![
                vec![Value::str("IBM"), Value::Int(1_500_000_000)],
                vec![Value::str("NTT"), Value::Int(5_000_000)],
            ],
        );
        let mut dict = Dictionary::new();
        dict.register_source(RelationalSource::new(
            "worldscope",
            Catalog::new().with_table(r1),
        ))
        .unwrap();
        dict.register_source(
            RelationalSource::new("disclosure", Catalog::new().with_table(r2)).with_cost(
                CostParams {
                    latency: 20.0,
                    per_tuple: 0.2,
                },
            ),
        )
        .unwrap();
        let web = SimWeb::new();
        dict.register_source(figure2_rates_source(&web)).unwrap();
        dict
    }

    #[test]
    fn cross_source_join() {
        let p = Planner::new(figure2_dictionary());
        let (t, stats) = p
            .run_sql("SELECT r1.cname, r2.expenses FROM r1, r2 WHERE r1.cname = r2.cname")
            .unwrap();
        assert_eq!(t.rows.len(), 2);
        assert_eq!(stats.remote_queries, 2);
    }

    #[test]
    fn plan_explain_structure() {
        let p = Planner::new(figure2_dictionary());
        let q = coin_sql::parse_query(
            "SELECT r1.cname FROM r1, r2 WHERE r1.cname = r2.cname AND r1.currency = 'JPY'",
        )
        .unwrap();
        let plan = p.plan_select(q.branches()[0]).unwrap();
        let explain = plan.explain();
        assert!(explain.contains("worldscope"));
        assert!(explain.contains("disclosure"));
        assert!(explain.contains("currency = 'JPY'"), "{explain}");
    }

    #[test]
    fn dependent_fetch_on_web_source() {
        // r3 requires fromCur/toCur bound; fromCur comes from r1.currency.
        let p = Planner::new(figure2_dictionary());
        let (t, stats) = p
            .run_sql(
                "SELECT r1.cname, r3.rate FROM r1, r3 \
                 WHERE r3.fromCur = r1.currency AND r3.toCur = 'USD'",
            )
            .unwrap();
        // IBM: USD→USD has no rate page (not mounted) → only NTT row.
        assert_eq!(t.rows.len(), 1);
        assert_eq!(t.rows[0][0], Value::str("NTT"));
        assert_eq!(t.rows[0][1], Value::Float(0.0096));
        // 1 fetch for r1 + 2 dependent fetches (USD, JPY distinct values).
        assert_eq!(stats.remote_queries, 3);
    }

    #[test]
    fn unbound_web_parameter_is_planning_error() {
        let p = Planner::new(figure2_dictionary());
        let e = p.run_sql("SELECT r3.rate FROM r3").unwrap_err();
        assert!(matches!(e, PlanError::UnboundParameter { .. }));
    }

    #[test]
    fn literal_bound_web_lookup_is_independent() {
        let p = Planner::new(figure2_dictionary());
        let q = coin_sql::parse_query(
            "SELECT r3.rate FROM r3 WHERE r3.fromCur = 'JPY' AND r3.toCur = 'USD'",
        )
        .unwrap();
        let plan = p.plan_query(&q).unwrap();
        assert!(matches!(
            plan.branches[0].steps[0],
            FetchStep::Independent { .. }
        ));
        let (t, _) = p
            .execute_planned_stream(&plan, None)
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(t.rows, vec![vec![Value::Float(0.0096)]]);
    }

    #[test]
    fn mediated_union_executes_across_sources() {
        let p = Planner::new(figure2_dictionary());
        let (t, _) = p
            .run_sql(
                "SELECT r1.cname, r1.revenue FROM r1, r2 \
                 WHERE r1.currency = 'USD' AND r1.cname = r2.cname AND r1.revenue > r2.expenses \
                 UNION \
                 SELECT r1.cname, r1.revenue * 1000 * r3.rate FROM r1, r2, r3 \
                 WHERE r1.currency = 'JPY' AND r1.cname = r2.cname \
                 AND r3.fromCur = r1.currency AND r3.toCur = 'USD' \
                 AND r1.revenue * 1000 * r3.rate > r2.expenses",
            )
            .unwrap();
        assert_eq!(t.rows.len(), 1);
        assert_eq!(t.rows[0][0], Value::str("NTT"));
        assert_eq!(t.rows[0][1], Value::Float(9_600_000.0));
    }

    #[test]
    fn pushdown_reduces_shipped_rows() {
        let dict = figure2_dictionary();
        let sql = "SELECT r1.cname FROM r1 WHERE r1.currency = 'JPY'";
        let with = Planner::new(dict.clone());
        let (_, s1) = with.run_sql(sql).unwrap();
        let without = Planner::with_config(
            dict,
            PlannerConfig {
                pushdown_select: false,
                ..Default::default()
            },
        );
        let (_, s2) = without.run_sql(sql).unwrap();
        assert!(s1.rows_shipped < s2.rows_shipped, "{s1:?} vs {s2:?}");
    }

    #[test]
    fn reorder_puts_cheap_source_first() {
        let p = Planner::new(figure2_dictionary());
        let q =
            coin_sql::parse_query("SELECT r2.cname FROM r2, r1 WHERE r1.cname = r2.cname").unwrap();
        let plan = p.plan_select(q.branches()[0]).unwrap();
        // worldscope (latency 10) is cheaper than disclosure (latency 20):
        // the optimizer fetches r1 first even though the query lists r2.
        assert_eq!(plan.steps[0].source(), "worldscope");
        // And without reordering, query order is preserved.
        let p2 = Planner::with_config(
            figure2_dictionary(),
            PlannerConfig {
                reorder: false,
                ..Default::default()
            },
        );
        let plan2 = p2.plan_select(q.branches()[0]).unwrap();
        assert_eq!(plan2.steps[0].source(), "disclosure");
    }

    #[test]
    fn aggregation_over_multi_source_join() {
        let p = Planner::new(figure2_dictionary());
        let (t, _) = p
            .run_sql("SELECT COUNT(*), MAX(r2.expenses) FROM r1, r2 WHERE r1.cname = r2.cname")
            .unwrap();
        assert_eq!(t.rows, vec![vec![Value::Int(2), Value::Int(1_500_000_000)]]);
    }

    #[test]
    fn projection_pushdown_narrow_fetch() {
        let p = Planner::new(figure2_dictionary());
        let q = coin_sql::parse_query("SELECT r1.cname FROM r1").unwrap();
        let plan = p.plan_select(q.branches()[0]).unwrap();
        match &plan.steps[0] {
            FetchStep::Independent { remote, .. } => {
                assert_eq!(remote.to_string(), "SELECT cname FROM r1");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn source_qualified_tables() {
        let p = Planner::new(figure2_dictionary());
        let (t, _) = p
            .run_sql("SELECT x.cname FROM worldscope.r1 x WHERE x.currency = 'USD'")
            .unwrap();
        assert_eq!(t.rows, vec![vec![Value::str("IBM")]]);
    }
}
