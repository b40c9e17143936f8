//! Plan execution.
//!
//! Runs the fetch steps against their sources, stages the results in a
//! scratch [`Catalog`] (backed by the engine's local secondary storage for
//! large intermediates), and evaluates the local query — joins across
//! sources, residual predicates, aggregation, ordering — with `coin-rel`.

use std::collections::BTreeSet;

use coin_rel::{BoxOp, CancelToken, Catalog, Row, Schema, Table, TempStore, Value};
use coin_sql::{BinOp, ColumnRef, Expr, Select};

use crate::dictionary::Dictionary;
use crate::plan::{FetchStep, Plan, PlanError};

/// Execution statistics (communication accounting for EX-PLAN).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecStats {
    /// Remote sub-queries issued.
    pub remote_queries: usize,
    /// Total rows shipped from sources.
    pub rows_shipped: usize,
    /// Simulated communication cost actually incurred
    /// (Σ latency + per_tuple × rows per access).
    pub comm_cost: f64,
    /// Cumulative prepared-query cache hits on the serving system at the
    /// time this query completed (0 when executed outside a cache-aware
    /// pipeline).
    pub cache_hits: u64,
    /// Cumulative prepared-query cache misses (see [`ExecStats::cache_hits`]).
    pub cache_misses: u64,
    /// Model epoch the executed plan was compiled against.
    pub plan_epoch: u64,
    /// Temp-store run files written while executing this query (external
    /// sort / distinct spills on the "local secondary storage").
    pub spill_runs: u64,
    /// Bytes written to spill runs while executing this query.
    pub spill_bytes: u64,
    /// Size of this query's largest spill run, in bytes (exact; 0 when
    /// the query wrote no runs).
    pub spill_max_run_bytes: u64,
}

/// A streaming plan execution: the fetch steps have already run (their
/// communication stats are final), local rows are pulled on demand through
/// the `coin-rel` operator pipeline. Dropping it aborts the plan — staged
/// intermediates and spill files are freed.
///
/// The execution owns its [`TempStore`]: every spilling operator of the
/// pipeline writes to it, and the spill fields of [`PlanRows::stats`] are
/// read from its counters once the rows run out. The accounting is exact
/// and does not depend on which thread pulls the rows.
pub struct PlanRows {
    schema: Schema,
    op: BoxOp,
    store: TempStore,
    stats: ExecStats,
    done: bool,
}

impl PlanRows {
    /// Wrap a pipeline whose spilling operators were built over `store`;
    /// `stats` holds the execution's communication statistics.
    pub fn from_parts(schema: Schema, op: BoxOp, store: TempStore, stats: ExecStats) -> PlanRows {
        PlanRows {
            schema,
            op,
            store,
            stats,
            done: false,
        }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Execution statistics. Communication fields are final from the
    /// start; the spill fields settle once the stream has been drained
    /// ([`PlanRows::finished`]).
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Mutable statistics, for layers above that stamp their own fields
    /// (plan epoch, cache counters).
    pub fn stats_mut(&mut self) -> &mut ExecStats {
        &mut self.stats
    }

    /// The execution's temp store (its counters are the spill so far).
    pub fn temp_store(&self) -> &TempStore {
        &self.store
    }

    /// Has the stream been drained to the end?
    pub fn finished(&self) -> bool {
        self.done
    }

    /// The next result row; `None` (repeatedly) once exhausted.
    ///
    /// Deliberately not `Iterator`: the signature is fallible
    /// (`Result<Option<Row>, _>`), matching `Operator::next`.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Row>, PlanError> {
        if self.done {
            return Ok(None);
        }
        let row = self
            .op
            .next()
            .map_err(|e| PlanError::from(coin_rel::EngineError::from(e)))?;
        if row.is_none() {
            self.done = true;
            let spilled = self.store.spill_stats();
            self.stats.spill_runs = spilled.runs_written;
            self.stats.spill_bytes = spilled.bytes_spilled;
            self.stats.spill_max_run_bytes = spilled.max_run_bytes;
        }
        Ok(row)
    }

    /// Drain the remaining rows into a table. Every materialized entry
    /// point is its streaming form plus this.
    pub fn collect(mut self) -> Result<(Table, ExecStats), PlanError> {
        let mut rows = Vec::new();
        while let Some(r) = self.next()? {
            rows.push(r);
        }
        let table = Table {
            name: "result".into(),
            schema: self.schema,
            rows,
        };
        Ok((table, self.stats))
    }

    /// Feed these rows into a downstream pipeline that `build` makes over
    /// the same temp store; the result is the same execution with the new
    /// schema and operator.
    pub fn pipe_into<E>(
        self,
        build: impl FnOnce(Schema, BoxOp, &TempStore) -> Result<(Schema, BoxOp), E>,
    ) -> Result<PlanRows, E> {
        let (schema, op) = build(self.schema, self.op, &self.store)?;
        Ok(PlanRows { schema, op, ..self })
    }
}

/// Run a plan's fetch steps and build its local pipeline over `store`.
pub(crate) fn build_plan_pipeline(
    plan: &Plan,
    dict: &Dictionary,
    cancel: Option<CancelToken>,
    store: &TempStore,
) -> Result<(Schema, BoxOp, ExecStats), PlanError> {
    let (staging, stats) = stage_fetches(plan, dict)?;
    let (schema, op) = coin_rel::build_select_pipeline(
        &plan.local,
        &staging,
        coin_rel::Feeds::new(),
        cancel,
        Some(&plan.programs),
        store,
    )?;
    Ok((schema, op, stats))
}

/// Run every fetch step against its source and stage the shipped results.
fn stage_fetches(plan: &Plan, dict: &Dictionary) -> Result<(Catalog, ExecStats), PlanError> {
    let mut staging = Catalog::new();
    let mut stats = ExecStats::default();

    if plan.const_empty {
        // The WHERE clause folded to a non-TRUE constant at plan time: the
        // block yields no rows, so stage empty tables with the schemas the
        // fetches would have produced and issue zero remote queries.
        for step in &plan.steps {
            let (source, remote) = match step {
                FetchStep::Independent { source, remote, .. } => (source, remote),
                FetchStep::Dependent {
                    source,
                    remote_base,
                    ..
                } => (source, remote_base),
            };
            let schema = dict
                .schema_of(Some(source), &step_table(step))
                .unwrap_or_default();
            staging.add_table(Table::new(step.binding(), project_schema(&schema, remote)));
        }
        return Ok((staging, stats));
    }

    for step in &plan.steps {
        match step {
            FetchStep::Independent {
                source,
                binding,
                remote,
                ..
            } => {
                let src = dict.source(source)?;
                let mut t = src.execute_select(remote)?;
                stats.remote_queries += 1;
                stats.rows_shipped += t.rows.len();
                let cost = src.capabilities().cost;
                stats.comm_cost += cost.latency + cost.per_tuple * t.rows.len() as f64;
                t.name = binding.clone();
                staging.add_table(t);
            }
            FetchStep::Dependent {
                source,
                binding,
                remote_base,
                params,
                ..
            } => {
                let src = dict.source(source)?;
                // Distinct parameter combinations from the feeding staged
                // table(s). All params must feed from the same binding for a
                // single staged scan; mixed feeders use a cross of their
                // distinct values.
                let combos = parameter_combos(&staging, params)?;
                let mut merged: Option<Table> = None;
                let mut seen: BTreeSet<String> = BTreeSet::new();
                for combo in combos {
                    let key = format!("{combo:?}");
                    if !seen.insert(key) {
                        continue;
                    }
                    let mut remote = remote_base.clone();
                    let mut preds: Vec<Expr> = remote
                        .where_clause
                        .take()
                        .map(|w| w.conjuncts().into_iter().cloned().collect())
                        .unwrap_or_default();
                    for (p, v) in params.iter().zip(&combo) {
                        preds.push(Expr::Bin(
                            Box::new(Expr::Column(ColumnRef::bare(&p.column))),
                            BinOp::Eq,
                            Box::new(value_to_expr(v)),
                        ));
                    }
                    remote.where_clause = Expr::conjoin(preds);
                    let t = src.execute_select(&remote)?;
                    stats.remote_queries += 1;
                    stats.rows_shipped += t.rows.len();
                    let cost = src.capabilities().cost;
                    stats.comm_cost += cost.latency + cost.per_tuple * t.rows.len() as f64;
                    merged = Some(match merged {
                        None => t,
                        Some(mut acc) => {
                            acc.rows.extend(t.rows);
                            acc
                        }
                    });
                }
                let mut table = merged.unwrap_or_else(|| {
                    // No parameter values: empty staged relation with the
                    // base schema from the dictionary.
                    let schema = dict
                        .schema_of(Some(source), &step_table(step))
                        .unwrap_or_default();
                    Table::new(binding, project_schema(&schema, remote_base))
                });
                table.name = binding.clone();
                staging.add_table(table);
            }
        }
    }

    Ok((staging, stats))
}

fn step_table(step: &FetchStep) -> String {
    match step {
        FetchStep::Independent { table, .. } | FetchStep::Dependent { table, .. } => table.clone(),
    }
}

/// When a fetch never ran (const-empty plans, dependent fetches with no
/// parameter values), the staged table still needs the schema the remote
/// query would have produced. Also used by plan-time program warming in
/// [`crate::optimize`].
pub(crate) fn project_schema(base: &coin_rel::Schema, remote: &Select) -> coin_rel::Schema {
    use coin_sql::SelectItem;
    let mut cols = Vec::new();
    for item in &remote.items {
        match item {
            SelectItem::Wildcard => return base.clone(),
            SelectItem::QualifiedWildcard(_) => return base.clone(),
            SelectItem::Expr {
                expr: Expr::Column(c),
                ..
            } => {
                if let Some(i) = base.resolve(None, &c.column) {
                    cols.push(base.columns[i].clone());
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| expr.to_string());
                cols.push(coin_rel::Column::new(&name, coin_rel::ColumnType::Any));
            }
        }
    }
    coin_rel::Schema::new(cols)
}

/// Enumerate distinct value combinations for the parameter columns.
fn parameter_combos(
    staging: &Catalog,
    params: &[crate::plan::ParamBinding],
) -> Result<Vec<Vec<Value>>, PlanError> {
    // Group parameters by feeding binding: same-feeder params take value
    // tuples row-wise; distinct feeders cross-product their value sets.
    let mut per_feeder: Vec<(String, Vec<usize>)> = Vec::new();
    for (i, p) in params.iter().enumerate() {
        match per_feeder.iter_mut().find(|(b, _)| *b == p.from_binding) {
            Some((_, idxs)) => idxs.push(i),
            None => per_feeder.push((p.from_binding.clone(), vec![i])),
        }
    }
    let mut combos: Vec<Vec<(usize, Value)>> = vec![Vec::new()];
    for (feeder, idxs) in &per_feeder {
        let table = staging.get(feeder).ok_or_else(|| {
            PlanError::Unsupported(format!(
                "dependent fetch feeder {feeder} not staged before use"
            ))
        })?;
        // Row-wise tuples of this feeder's parameter columns.
        let col_positions: Vec<usize> = idxs
            .iter()
            .map(|&i| {
                table
                    .schema
                    .resolve(None, &params[i].from_column)
                    .ok_or_else(|| {
                        PlanError::Unsupported(format!(
                            "column {} missing from staged {feeder}",
                            params[i].from_column
                        ))
                    })
            })
            .collect::<Result<_, _>>()?;
        let mut values: Vec<Vec<Value>> = Vec::new();
        for row in &table.rows {
            let tuple: Vec<Value> = col_positions.iter().map(|&c| row[c].clone()).collect();
            if tuple.iter().any(Value::is_null) {
                continue; // NULL parameters can never produce matches
            }
            if !values.contains(&tuple) {
                values.push(tuple);
            }
        }
        let mut next = Vec::new();
        for base in &combos {
            for tuple in &values {
                let mut c = base.clone();
                for (&i, v) in idxs.iter().zip(tuple) {
                    c.push((i, v.clone()));
                }
                next.push(c);
            }
        }
        combos = next;
    }
    // Normalize each combo into parameter order.
    Ok(combos
        .into_iter()
        .map(|mut c| {
            c.sort_by_key(|(i, _)| *i);
            c.into_iter().map(|(_, v)| v).collect()
        })
        .collect())
}

fn value_to_expr(v: &Value) -> Expr {
    match v {
        Value::Null => Expr::Null,
        Value::Bool(b) => Expr::Bool(*b),
        Value::Int(i) => Expr::Int(*i),
        Value::Float(f) => Expr::Float(*f),
        Value::Str(s) => Expr::Str(s.as_ref().to_owned()),
    }
}
