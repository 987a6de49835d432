//! The simulated LLM: prompt in, VQL text out.
//!
//! Generation runs the mechanistic pipeline described in DESIGN.md:
//!
//! 1. **Read the prompt** ([`crate::prompt_parse`]): recover the schema from
//!    whatever serialization format the prompt used, with format-dependent
//!    fidelity, and collect the demonstrations.
//! 2. **Understand the question** ([`crate::understand`]): parse the intent
//!    and ground it against the recovered schema, using synonym knowledge
//!    gated by the model profile.
//! 3. **Learn from demonstrations**: count effective shots, detect whether
//!    the test schema was *seen* in a demonstration (the in-domain
//!    advantage), measure sketch support and demonstration diversity.
//! 4. **Inject errors**: a per-query corruption budget — shaped by the
//!    profile, the shot count, the grounding risk and the query hardness —
//!    is distributed over query components with weights mirroring the
//!    paper's failure taxonomy (Fig. 11).
//!
//! Every stochastic choice is a pure function of (prompt, model seed,
//! attempt), so experiments are exactly reproducible.

use crate::profile::ModelProfile;
use crate::prompt_parse::{parse_prompt, PromptView};
use crate::recover::RecoveredSchema;
use crate::understand::{ground, parse_question, Grounding};
use nl2vis_data::value::Date;
use nl2vis_data::Rng;
use nl2vis_query::ast::*;
use nl2vis_query::printer::{print, print_sketch};
use std::collections::HashSet;

/// Per-call generation options; defined in `nl2vis-service` (the layered
/// stack threads them through every middleware) and re-exported here for
/// the pre-refactor import path.
pub use nl2vis_service::GenOptions;

/// The simulated LLM.
#[derive(Debug, Clone)]
pub struct SimLlm {
    /// Capability profile.
    pub profile: ModelProfile,
    /// Model seed (fixes the "weights": synonym knowledge and sampling).
    pub seed: u64,
}

impl SimLlm {
    /// Creates a simulated model.
    pub fn new(profile: ModelProfile, seed: u64) -> SimLlm {
        SimLlm { profile, seed }
    }

    /// Completes a prompt (the `/v1/completions` surface).
    pub fn complete(&self, prompt: &str) -> String {
        self.complete_with(prompt, &GenOptions::default())
    }

    /// Completes a prompt with explicit generation options.
    pub fn complete_with(&self, prompt: &str, opts: &GenOptions) -> String {
        let Some(view) = parse_prompt(prompt) else {
            return "I could not find a question in the request.".to_string();
        };
        // Two sampling streams. *Decisions* (does this query get a slip, and
        // on which component) are a function of the question and the test
        // context only — a real model's failures are systematic: re-asking
        // the same thing mostly reproduces the same mistake. *Details* (which
        // wrong column, how a literal drifts) vary with the whole prompt and
        // the attempt, so retries and different demonstrations change the
        // specifics. The decision threshold is uniform, so lowering the
        // error budget (more shots, a repair strategy) deterministically
        // rescues the borderline queries first.
        // No model seed in the decision stream: which queries are hard is a
        // property of the query and of what the serialization exposed,
        // shared across models and prompt dressings — model capability moves
        // the *threshold* (the error budget), not the difficulty draw.
        // Failure sets therefore nest across models, which is why
        // re-prompting a failed case through another model rescues only the
        // borderline ones (the paper's modest CoT/role-play gains).
        let mut decision_rng =
            Rng::new(fnv1a(&view.question) ^ schema_digest(&view.test_schema) ^ 0x5EED_D1FF);
        let mut rng =
            Rng::new(fnv1a(prompt) ^ self.seed.rotate_left(17) ^ opts.attempt.wrapping_mul(0x9E37));

        // Grammar discipline: with no demonstrations the model sometimes
        // answers in the wrong formalism entirely.
        let discipline =
            1.0 - (1.0 - self.profile.grammar_discipline) / (1.0 + view.demos.len() as f64);
        if !rng.chance(discipline) {
            return format!(
                "SELECT * FROM {} -- here is a SQL query answering the question",
                view.test_schema
                    .tables
                    .first()
                    .map(|t| t.name.as_str())
                    .unwrap_or("data")
            );
        }

        // Demonstration echo: when a demonstration over the *same* schema
        // asks (nearly) the same question, completion-tuned models reuse its
        // answer outright. This is the dominant in-domain behaviour: the
        // similarity selector almost always surfaces a paraphrase sibling.
        if rng.chance(self.profile.demo_copy) {
            if let Some(text) = copyable_demo(&view) {
                return if view.chain_of_thought {
                    match nl2vis_query::parse(&text) {
                        Ok(q) => format!("Sketch: {}\nVQL: {}", print_sketch(&q), text),
                        Err(_) => text,
                    }
                } else {
                    text
                };
            }
        }

        let knows = self.knowledge_gate();
        let intent = parse_question(&view.question);
        let Some(mut grounding) = ground(&intent, &view.test_schema, &knows) else {
            return "VISUALIZE bar SELECT unknown , COUNT(unknown) FROM unknown".to_string();
        };

        let budget = self.error_budget(&view, &grounding, opts);
        corrupt_query_with(
            &mut grounding.query,
            &view.test_schema,
            budget,
            opts.structural_scale,
            &mut decision_rng,
            &mut rng,
        );

        if view.vega_output {
            // Direct Vega-Lite generation (the paper's §6.2 setting): emit
            // the hierarchical JSON form. Long nested output is harder to
            // produce flawlessly than a flat keyword sequence — brackets get
            // dropped near the end of long generations.
            let json = nl2vis_vega::spec::to_vega_lite_named(&grounding.query).to_compact();
            let malform = (1.0 - self.profile.grammar_discipline) * 2.2
                / (1.0 + view.demos.len() as f64 * 0.5);
            if rng.chance(malform) {
                let cut = json.len().saturating_sub(1 + rng.below_usize(8));
                return json[..cut].to_string();
            }
            return json;
        }
        if view.chain_of_thought {
            format!(
                "Sketch: {}\nVQL: {}",
                print_sketch(&grounding.query),
                print(&grounding.query)
            )
        } else {
            print(&grounding.query)
        }
    }

    /// The deterministic synonym-knowledge gate for this model.
    pub fn knowledge_gate(&self) -> impl Fn(&str) -> bool + '_ {
        let seed = self.seed;
        let wk = self.profile.world_knowledge;
        move |alias: &str| {
            let h = fnv1a(alias) ^ seed.rotate_left(31);
            (h % 10_000) as f64 / 10_000.0 < wk
        }
    }

    /// Computes the per-query corruption budget from the prompt context.
    fn error_budget(&self, view: &PromptView, grounding: &Grounding, opts: &GenOptions) -> f64 {
        let demos = view.demos.len() as f64;
        let mut err = self.profile.base_error * opts.error_scale;

        // In-context learning: demonstrations suppress the suppressible part
        // of the error with diminishing returns; the floor is what no amount
        // of demonstrations can teach (Fig. 7's asymptote).
        let h = self.profile.icl_halflife;
        let floor = self.profile.icl_floor;
        err *= floor + (1.0 - floor) * h / (h + demos);

        // The in-domain advantage: the test schema was visible inside a
        // demonstration, so linking and value formats were effectively seen.
        if schema_seen_in_demos(view) {
            err *= self.profile.schema_seen_factor;
        }

        // Demonstration diversity (Fig. 8): distinct databases expose more
        // query patterns than repeats from one database.
        let distinct_dbs = distinct_demo_schemas(view);
        if distinct_dbs > 1 {
            err *= 1.0 - 0.035 * ((distinct_dbs - 1).min(4) as f64);
        }

        // Sketch support: demonstrations whose VQL shape matches the one we
        // are about to emit teach the output grammar for this query class.
        let target_sketch = print_sketch(&grounding.query);
        let support = view
            .demos
            .iter()
            .filter(|d| {
                nl2vis_query::parse(&d.vql)
                    .map(|q| print_sketch(&q) == target_sketch)
                    .unwrap_or(false)
            })
            .count();
        if support > 0 {
            err *= 0.85;
        }

        // Harder queries accumulate more chances to slip.
        err *= 1.0 + 0.06 * grounding.query.hardness_score() as f64;

        // Grounding risk converts missing prompt structure into error mass.
        let risk = &grounding.risk;
        if risk.unattributed {
            err += 0.22;
        }
        if risk.join_guessed {
            err += 0.18;
        }
        if risk.types_unknown && grounding.query.y.is_aggregate() {
            err += 0.05;
        }
        err += 0.04 * risk.synonyms_used as f64;
        err += 0.10 * risk.filters_unlinked as f64;
        if risk.x_unlinked {
            err += 0.25;
        }
        if risk.y_unlinked {
            err += 0.12;
        }

        err.clamp(0.02, 0.96)
    }
}

/// Applies the failure-taxonomy-shaped corruption plan to a query. Public
/// because the fine-tuned baselines share the same decoder-slip model.
/// Weights mirror the paper's Fig. 11 failure distribution;
/// `structural_scale` dampens the structural slips (chart/group/bin) the
/// chain-of-thought pass suppresses.
pub fn corrupt_query(
    q: &mut VqlQuery,
    schema: &RecoveredSchema,
    budget: f64,
    structural_scale: f64,
    rng: &mut Rng,
) {
    let mut detail = rng.fork(0xDE7A);
    corrupt_query_with(q, schema, budget, structural_scale, rng, &mut detail);
}

/// [`corrupt_query`] with separate decision and detail streams (see
/// [`SimLlm::complete_with`] for the systematic-failure rationale).
pub fn corrupt_query_with(
    q: &mut VqlQuery,
    schema: &RecoveredSchema,
    budget: f64,
    structural_scale: f64,
    decision_rng: &mut Rng,
    detail_rng: &mut Rng,
) {
    /// (Fig. 11 weight, structural?, corruption operator).
    type PlanEntry = (
        f64,
        bool,
        fn(&mut VqlQuery, &RecoveredSchema, &mut Rng) -> bool,
    );
    let plan: [PlanEntry; 9] = [
        (0.38, false, corrupt_cond),
        (0.08, false, corrupt_y),
        (0.04, false, corrupt_x),
        (0.05, true, corrupt_chart),
        (0.15, true, corrupt_group),
        (0.11, true, corrupt_bin),
        (0.10, false, corrupt_join),
        (0.02, false, corrupt_table),
        (0.07, false, corrupt_nested),
    ];
    // The budget is the expected number of slips: each whole unit is one
    // guaranteed slip, the fractional remainder one more with that
    // probability. Slips pick a component by the Fig. 11 weights, with
    // structural components damped by `structural_scale`.
    let weights: Vec<f64> = plan
        .iter()
        .map(|(w, structural, _)| w * if *structural { structural_scale } else { 1.0 })
        .collect();
    let mut remaining = budget;
    while remaining > 0.0 {
        if decision_rng.chance(remaining.min(1.0)) {
            let idx = decision_rng.pick_weighted(&weights);
            // A slip always lands somewhere: when the targeted clause is
            // absent the mistake surfaces in the dominant buckets instead
            // (a wrong condition or a wrong measure).
            let changed = plan[idx].2(q, schema, detail_rng) || corrupt_cond(q, schema, detail_rng);
            if !changed {
                corrupt_y(q, schema, detail_rng);
            }
        }
        remaining -= 1.0;
    }
}

fn corrupt_chart(q: &mut VqlQuery, _schema: &RecoveredSchema, rng: &mut Rng) -> bool {
    q.chart = match q.chart {
        ChartType::Bar => {
            if rng.chance(0.5) {
                ChartType::Pie
            } else {
                ChartType::Line
            }
        }
        ChartType::Pie => ChartType::Bar,
        ChartType::Line => ChartType::Bar,
        ChartType::Scatter => ChartType::Line,
    };
    true
}

fn corrupt_x(q: &mut VqlQuery, schema: &RecoveredSchema, rng: &mut Rng) -> bool {
    if let Some(other) = other_column(schema, &q.from, &x_column_name(q), rng) {
        let had_qualifier = matches!(&q.x, SelectExpr::Column(c) if c.table.is_some());
        let new = if had_qualifier {
            ColumnRef::qualified(q.from.clone(), other)
        } else {
            ColumnRef::new(other)
        };
        q.x = SelectExpr::Column(new);
        true
    } else {
        false
    }
}

fn corrupt_y(q: &mut VqlQuery, schema: &RecoveredSchema, rng: &mut Rng) -> bool {
    match &mut q.y {
        SelectExpr::Agg { func, arg } => {
            if rng.chance(0.6) || arg.is_none() {
                // Wrong aggregate function.
                let alternatives: Vec<AggFunc> = [
                    AggFunc::Count,
                    AggFunc::Sum,
                    AggFunc::Avg,
                    AggFunc::Max,
                    AggFunc::Min,
                ]
                .into_iter()
                .filter(|f| f != func)
                .collect();
                *func = *rng.pick(&alternatives);
                true
            } else if let Some(a) = arg {
                match other_column(schema, &q.from, &a.column, rng) {
                    Some(other) => {
                        a.column = other;
                        true
                    }
                    None => false,
                }
            } else {
                false
            }
        }
        SelectExpr::Column(c) => match other_column(schema, &q.from, &c.column, rng) {
            Some(other) => {
                c.column = other;
                true
            }
            None => false,
        },
    }
}

fn corrupt_cond(q: &mut VqlQuery, schema: &RecoveredSchema, rng: &mut Rng) -> bool {
    if q.filter.is_some() && rng.chance(0.7) {
        match rng.below(3) {
            0 => {
                q.filter = None; // dropped condition
            }
            1 => {
                if let Some(f) = &mut q.filter {
                    perturb_literal(f, rng);
                }
            }
            _ => {
                if let Some(f) = &mut q.filter {
                    flip_op(f);
                }
            }
        }
    } else {
        // Ordering slips: wrong direction, dropped, or spurious.
        match (&mut q.order, rng.below(3)) {
            (Some(o), 0) => {
                o.dir = match o.dir {
                    SortDir::Asc => SortDir::Desc,
                    SortDir::Desc => SortDir::Asc,
                };
            }
            (Some(_), 1) => q.order = None,
            (None, _) => {
                // A spurious ordering: by the x column when one exists, else
                // by the y axis (x may be `COUNT(*)`).
                let target = match q.x.column() {
                    Some(xc) => OrderTarget::Column(xc.clone()),
                    None => OrderTarget::Y,
                };
                q.order = Some(OrderBy {
                    target,
                    dir: if rng.chance(0.5) {
                        SortDir::Asc
                    } else {
                        SortDir::Desc
                    },
                });
            }
            (Some(o), _) => {
                o.target = OrderTarget::Y;
            }
        }
    }
    let _ = schema;
    true
}

fn corrupt_group(q: &mut VqlQuery, schema: &RecoveredSchema, rng: &mut Rng) -> bool {
    if q.group_by.len() > 1 && rng.chance(0.6) {
        q.group_by.truncate(1); // dropped color series
        true
    } else if q.group_by.len() == 1 && rng.chance(0.4) {
        match other_column(schema, &q.from, &x_column_name(q), rng) {
            Some(other) => {
                q.group_by.push(ColumnRef::new(other)); // spurious series
                true
            }
            None => false,
        }
    } else if !q.group_by.is_empty() {
        q.group_by.clear(); // dropped grouping entirely
        true
    } else {
        false
    }
}

fn corrupt_bin(q: &mut VqlQuery, _schema: &RecoveredSchema, rng: &mut Rng) -> bool {
    if let Some(bin) = &mut q.bin {
        if rng.chance(0.6) {
            let alternatives: Vec<BinUnit> = BinUnit::all()
                .into_iter()
                .filter(|u| *u != bin.unit)
                .collect();
            bin.unit = *rng.pick(&alternatives);
        } else {
            q.bin = None;
        }
        true
    } else {
        false
    }
}

fn corrupt_join(q: &mut VqlQuery, schema: &RecoveredSchema, rng: &mut Rng) -> bool {
    if let Some(join) = &mut q.join {
        if rng.chance(0.5) {
            // Wrong join key.
            match other_column(schema, &join.table, &join.right.column, rng) {
                Some(other) => {
                    join.right.column = other;
                    true
                }
                None => false,
            }
        } else {
            q.join = None;
            true
        }
    } else {
        false
    }
}

fn corrupt_table(q: &mut VqlQuery, schema: &RecoveredSchema, rng: &mut Rng) -> bool {
    let others: Vec<&str> = schema
        .tables
        .iter()
        .map(|t| t.name.as_str())
        .filter(|n| !n.eq_ignore_ascii_case(&q.from))
        .collect();
    if !others.is_empty() {
        q.from = rng.pick(&others).to_string();
        true
    } else {
        false
    }
}

fn corrupt_nested(q: &mut VqlQuery, _schema: &RecoveredSchema, rng: &mut Rng) -> bool {
    match &mut q.filter {
        Some(f) if f.has_subquery() => {
            flip_nested(f, rng);
            true
        }
        _ => false,
    }
}

fn x_column_name(q: &VqlQuery) -> String {
    q.x.column().map(|c| c.column.clone()).unwrap_or_default()
}

/// Picks a different column of the named table (or any table when the named
/// one is unknown).
fn other_column(
    schema: &RecoveredSchema,
    table: &str,
    current: &str,
    rng: &mut Rng,
) -> Option<String> {
    let candidates: Vec<String> = match schema
        .tables
        .iter()
        .find(|t| t.name.eq_ignore_ascii_case(table))
    {
        Some(t) => t
            .columns
            .iter()
            .map(|(c, _)| c.clone())
            .filter(|c| !c.eq_ignore_ascii_case(current))
            .collect(),
        None => schema
            .all_columns()
            .into_iter()
            .filter(|c| !c.eq_ignore_ascii_case(current))
            .map(str::to_string)
            .collect(),
    };
    if candidates.is_empty() {
        None
    } else {
        Some(rng.pick(&candidates).clone())
    }
}

fn perturb_literal(p: &mut Predicate, rng: &mut Rng) {
    match p {
        Predicate::Cmp { value, .. } => match value {
            Literal::Int(i) => *i += rng.range_i64(1, 10) * if rng.chance(0.5) { 1 } else { -1 },
            Literal::Float(f) => *f *= if rng.chance(0.5) { 1.25 } else { 0.8 },
            Literal::Text(s) => s.push('s'),
            Literal::Bool(b) => *b = !*b,
            Literal::Date(d) => {
                let year = d.year + if rng.chance(0.5) { 1 } else { -1 };
                if let Some(nd) = Date::new(year, d.month, d.day.min(28)) {
                    *d = nd;
                }
            }
        },
        Predicate::And(a, _) | Predicate::Or(a, _) => perturb_literal(a, rng),
        Predicate::InSubquery { subquery, .. } => {
            if let Some(inner) = &mut subquery.filter {
                perturb_literal(inner, rng);
            }
        }
    }
}

fn flip_op(p: &mut Predicate) {
    match p {
        Predicate::Cmp { op, .. } => {
            *op = match op {
                CmpOp::Eq => CmpOp::Ne,
                CmpOp::Ne => CmpOp::Eq,
                CmpOp::Gt => CmpOp::Ge,
                CmpOp::Ge => CmpOp::Lt,
                CmpOp::Lt => CmpOp::Le,
                CmpOp::Le => CmpOp::Gt,
            };
        }
        Predicate::And(a, _) | Predicate::Or(a, _) => flip_op(a),
        Predicate::InSubquery { negated, .. } => *negated = !*negated,
    }
}

fn flip_nested(p: &mut Predicate, rng: &mut Rng) {
    match p {
        Predicate::InSubquery {
            negated, subquery, ..
        } => {
            if rng.chance(0.5) {
                *negated = !*negated;
            } else {
                subquery.filter = None;
            }
        }
        Predicate::And(a, b) | Predicate::Or(a, b) => {
            flip_nested(a, rng);
            flip_nested(b, rng);
        }
        Predicate::Cmp { .. } => {}
    }
}

/// The gold VQL of a near-duplicate demonstration over the same table set,
/// if one exists: the candidate a completion model echoes.
pub fn copyable_demo(view: &PromptView) -> Option<String> {
    let test_tables: HashSet<&str> = view
        .test_schema
        .tables
        .iter()
        .map(|t| t.name.as_str())
        .collect();
    if test_tables.is_empty() {
        return None;
    }
    let mut best: Option<(f64, &str)> = None;
    for d in &view.demos {
        let demo_tables: HashSet<&str> = d.schema.tables.iter().map(|t| t.name.as_str()).collect();
        if demo_tables != test_tables {
            continue;
        }
        let sim = nl2vis_data::text::jaccard(&view.question, &d.question);
        if sim >= 0.62 && best.as_ref().is_none_or(|(s, _)| sim > *s) {
            best = Some((sim, d.vql.as_str()));
        }
    }
    best.map(|(_, vql)| vql.to_string())
}

/// Did any demonstration show the same table set as the test schema?
pub fn schema_seen_in_demos(view: &PromptView) -> bool {
    let test_tables: HashSet<&str> = view
        .test_schema
        .tables
        .iter()
        .map(|t| t.name.as_str())
        .collect();
    if test_tables.is_empty() {
        return false;
    }
    view.demos.iter().any(|d| {
        let demo_tables: HashSet<&str> = d.schema.tables.iter().map(|t| t.name.as_str()).collect();
        demo_tables == test_tables
    })
}

/// Number of distinct demonstration schemas (by table-name sets).
pub fn distinct_demo_schemas(view: &PromptView) -> usize {
    let mut seen: HashSet<Vec<&str>> = HashSet::new();
    for d in &view.demos {
        let mut names: Vec<&str> = d.schema.tables.iter().map(|t| t.name.as_str()).collect();
        names.sort_unstable();
        seen.insert(names);
    }
    seen.len()
}

// Re-exported from the query crate (it moved next to the parser it feeds,
// so the serving-stack validation gate shares the same extraction rule).
pub use nl2vis_query::extract_vql;

/// A stable digest of a recovered schema (names, attribution, keys) — the
/// information content the difficulty draw conditions on.
pub fn schema_digest(schema: &RecoveredSchema) -> u64 {
    let mut h: u64 = 0x9E37_79B9;
    for t in &schema.tables {
        h ^= fnv1a(&t.name).rotate_left(7);
        for (c, ty) in &t.columns {
            h = h.wrapping_mul(31).wrapping_add(fnv1a(c));
            if let Some(ty) = ty {
                h ^= fnv1a(ty.name());
            }
        }
    }
    for c in &schema.unattributed_columns {
        h = h.wrapping_mul(37).wrapping_add(fnv1a(c));
    }
    for (a, b, c, d) in &schema.fks {
        h ^= fnv1a(a)
            ^ fnv1a(b).rotate_left(13)
            ^ fnv1a(c).rotate_left(27)
            ^ fnv1a(d).rotate_left(41);
    }
    h
}

/// FNV-1a hash for deterministic seeding from strings.
pub fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use nl2vis_corpus::{Corpus, CorpusConfig, Example};
    use nl2vis_prompt::{build_prompt, PromptOptions};

    fn fixture() -> Corpus {
        Corpus::build(&CorpusConfig::small(23))
    }

    fn prompt_for(c: &Corpus, id: usize, demos: &[&Example], cot: bool) -> String {
        let e = c.example(id).unwrap();
        let db = c.catalog.database(&e.db).unwrap();
        let o = PromptOptions {
            chain_of_thought: cot,
            token_budget: 60_000,
            ..Default::default()
        };
        build_prompt(&o, db, &e.nl, demos, |d| c.catalog.database(&d.db).unwrap()).text
    }

    #[test]
    fn completion_is_parseable_vql_with_demos() {
        let c = fixture();
        let demos: Vec<&Example> = c.examples.iter().skip(1).take(5).collect();
        let llm = SimLlm::new(ModelProfile::gpt_4(), 7);
        let out = llm.complete(&prompt_for(&c, 0, &demos, false));
        let vql = extract_vql(&out).unwrap_or_else(|| panic!("no VQL in: {out}"));
        nl2vis_query::parse(vql).unwrap_or_else(|e| panic!("unparseable `{vql}`: {e}"));
    }

    #[test]
    fn deterministic_completions() {
        let c = fixture();
        let demos: Vec<&Example> = c.examples.iter().skip(1).take(3).collect();
        let llm = SimLlm::new(ModelProfile::davinci_003(), 11);
        let p = prompt_for(&c, 0, &demos, false);
        assert_eq!(llm.complete(&p), llm.complete(&p));
    }

    #[test]
    fn attempts_resample() {
        let c = fixture();
        let llm = SimLlm::new(ModelProfile::davinci_002(), 3);
        let p = prompt_for(&c, 0, &[], false);
        let outs: HashSet<String> = (0..12)
            .map(|a| {
                llm.complete_with(
                    &p,
                    &GenOptions {
                        attempt: a,
                        ..Default::default()
                    },
                )
            })
            .collect();
        assert!(outs.len() > 1, "attempts should vary the output");
    }

    #[test]
    fn cot_produces_sketch_then_vql() {
        let c = fixture();
        let demos: Vec<&Example> = c.examples.iter().skip(1).take(2).collect();
        let llm = SimLlm::new(ModelProfile::gpt_4(), 5);
        let out = llm.complete(&prompt_for(&c, 0, &demos, true));
        assert!(out.starts_with("Sketch: VISUALIZE["), "{out}");
        assert!(out.contains("\nVQL: VISUALIZE "), "{out}");
        let vql = extract_vql(&out).unwrap();
        nl2vis_query::parse(vql).unwrap();
    }

    #[test]
    fn more_demos_means_fewer_errors_on_average() {
        let c = fixture();
        let llm = SimLlm::new(ModelProfile::davinci_003(), 13);
        let pool: Vec<&Example> = c.examples.iter().collect();
        let n = 60.min(c.examples.len());
        let mut correct = [0usize; 2];
        for (bucket, k) in [(0usize, 0usize), (1, 10)] {
            for e in c.examples.iter().take(n) {
                let demos: Vec<&Example> =
                    nl2vis_prompt::select::select_by_similarity(&pool, &e.nl, k + 1)
                        .into_iter()
                        .filter(|d| d.id != e.id)
                        .take(k)
                        .collect();
                let db = c.catalog.database(&e.db).unwrap();
                let o = PromptOptions {
                    token_budget: 60_000,
                    ..Default::default()
                };
                let p = build_prompt(&o, db, &e.nl, &demos, |d| {
                    c.catalog.database(&d.db).unwrap()
                });
                if let Some(vql) = extract_vql(&llm.complete(&p.text)) {
                    if let Ok(pred) = nl2vis_query::parse(vql) {
                        if nl2vis_query::canon::exact_match(&pred, &e.vql) {
                            correct[bucket] += 1;
                        }
                    }
                }
            }
        }
        assert!(
            correct[1] > correct[0],
            "10-shot ({}) should beat 0-shot ({})",
            correct[1],
            correct[0]
        );
    }

    #[test]
    fn vega_output_mode_emits_importable_json() {
        let c = fixture();
        let e = c.example(0).unwrap();
        let db = c.catalog.database(&e.db).unwrap();
        let demos: Vec<&Example> = c.examples.iter().skip(1).take(6).collect();
        let o = PromptOptions {
            answer: nl2vis_prompt::AnswerFormat::VegaLite,
            token_budget: 60_000,
            ..Default::default()
        };
        let p = build_prompt(&o, db, &e.nl, &demos, |d| {
            c.catalog.database(&d.db).unwrap()
        });
        let llm = SimLlm::new(ModelProfile::gpt_4(), 7);
        let out = llm.complete(&p.text);
        assert!(
            out.trim_start().starts_with('{'),
            "expected JSON, got: {out}"
        );
        // Well-formed outputs import back into VQL.
        if let Ok(q) = nl2vis_vega::import::from_vega_lite_text(&out) {
            assert!(!q.from.is_empty());
        }
    }

    #[test]
    fn extract_vql_variants() {
        assert_eq!(
            extract_vql("VQL: VISUALIZE bar SELECT a , b FROM t"),
            Some("VISUALIZE bar SELECT a , b FROM t")
        );
        assert_eq!(
            extract_vql("Sketch: ...\nVQL: VISUALIZE pie SELECT a , b FROM t"),
            Some("VISUALIZE pie SELECT a , b FROM t")
        );
        assert_eq!(
            extract_vql("  visualize bar SELECT a , b FROM t  "),
            Some("visualize bar SELECT a , b FROM t")
        );
        assert_eq!(extract_vql("no query here"), None);
    }

    #[test]
    fn garbage_prompt_yields_non_vql() {
        let llm = SimLlm::new(ModelProfile::gpt_4(), 1);
        let out = llm.complete("hello");
        assert!(extract_vql(&out).is_none());
    }

    #[test]
    fn knowledge_gate_is_deterministic_and_calibrated() {
        let strong = SimLlm::new(ModelProfile::gpt_4(), 42);
        let gate = strong.knowledge_gate();
        let aliases: Vec<&str> = nl2vis_corpus::pools::SYNONYMS
            .iter()
            .map(|(a, _)| *a)
            .collect();
        let known = aliases.iter().filter(|a| gate(a)).count();
        let rate = known as f64 / aliases.len() as f64;
        assert!(rate > 0.80, "gpt-4 should know most synonyms, got {rate}");
        // Deterministic.
        assert_eq!(gate("pay"), gate("pay"));
    }
}
