//! The user-study simulation (§5.2.2, Figs. 9-10 of the paper).
//!
//! The paper invited 3 experts and 3 non-experts to express NL queries for
//! 60 target visualizations over 5 databases at 4 difficulty levels, with up
//! to 3 revisions, through a command-line interface backed by
//! text-davinci-003 with 20-shot prompting. We simulate the users: an agent
//! "writes" a query by starting from an ideal phrasing and — depending on
//! skill and task difficulty — omitting or garbling clauses; each revision
//! repairs one defect. Timing follows a per-word composition model with
//! skill-dependent rates. The LLM side of the loop is the *real* pipeline
//! (prompt build → simulated model → execution → comparison).

use crate::metrics::score_completion;
use crate::runner::{demo_pool, pick_demos_pooled, LlmEvalConfig};
use nl2vis_corpus::{Corpus, Example, Hardness};
use nl2vis_data::text::words;
use nl2vis_data::Rng;
use nl2vis_llm::{ModelProfile, SimLlm};
use nl2vis_prompt::select::DemoPool;
use nl2vis_prompt::{build_prompt, PromptOptions};

/// User expertise group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UserKind {
    /// Graduate students with 6+ years of development experience.
    Expert,
    /// Undergraduates with ~2 years and basic Excel-level visualization.
    NonExpert,
}

impl UserKind {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            UserKind::Expert => "expert",
            UserKind::NonExpert => "non-expert",
        }
    }

    /// Probability of introducing one phrasing defect per clause, scaled by
    /// task difficulty.
    fn defect_rate(self, hardness: Hardness) -> f64 {
        let base = match self {
            UserKind::Expert => 0.04,
            UserKind::NonExpert => 0.21,
        };
        let difficulty = match hardness {
            Hardness::Easy => 0.6,
            Hardness::Medium => 1.0,
            Hardness::Hard => 1.5,
            Hardness::Extra => 1.8,
        };
        base * difficulty
    }

    /// Seconds per word while composing.
    fn seconds_per_word(self) -> f64 {
        match self {
            UserKind::Expert => 1.6,
            UserKind::NonExpert => 2.6,
        }
    }

    /// Fixed thinking time before composing (seconds).
    fn think_seconds(self) -> f64 {
        match self {
            UserKind::Expert => 8.0,
            UserKind::NonExpert => 16.0,
        }
    }

    /// Probability that a revision correctly diagnoses and repairs one
    /// phrasing defect (experts read the wrong chart and see what is
    /// missing; novices often just reword).
    fn diagnose_rate(self) -> f64 {
        match self {
            UserKind::Expert => 0.92,
            UserKind::NonExpert => 0.48,
        }
    }
}

/// One simulated query session for one target visualization.
#[derive(Debug, Clone)]
pub struct Session {
    /// User group.
    pub user: UserKind,
    /// Target difficulty.
    pub hardness: Hardness,
    /// Whether the target chart was produced within the revision budget.
    pub success: bool,
    /// Revisions used (0 = first attempt succeeded).
    pub revisions: usize,
    /// Seconds composing the initial query.
    pub compose_seconds: f64,
    /// Seconds spent revising.
    pub revise_seconds: f64,
    /// Seconds the system spent assembling prompts.
    pub prompt_seconds: f64,
    /// Seconds the system spent generating VQL.
    pub generate_seconds: f64,
}

/// Aggregated user-study results.
#[derive(Debug, Clone, Default)]
pub struct StudyReport {
    /// All sessions.
    pub sessions: Vec<Session>,
}

impl StudyReport {
    /// Success rate for a user group at a difficulty level.
    pub fn success_rate(&self, user: UserKind, hardness: Hardness) -> f64 {
        let relevant: Vec<&Session> = self
            .sessions
            .iter()
            .filter(|s| s.user == user && s.hardness == hardness)
            .collect();
        if relevant.is_empty() {
            return 0.0;
        }
        relevant.iter().filter(|s| s.success).count() as f64 / relevant.len() as f64
    }

    /// Mean of a per-session time component for a user group.
    pub fn mean_seconds<F: Fn(&Session) -> f64>(&self, user: UserKind, f: F) -> f64 {
        let relevant: Vec<&Session> = self.sessions.iter().filter(|s| s.user == user).collect();
        if relevant.is_empty() {
            return 0.0;
        }
        relevant.iter().map(|s| f(s)).sum::<f64>() / relevant.len() as f64
    }
}

/// Study parameters (defaults mirror the paper: 5 databases × 4 levels × 3
/// charts, 3 revisions).
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Databases to sample targets from.
    pub databases: usize,
    /// Targets per (database, difficulty) cell.
    pub per_cell: usize,
    /// Maximum revisions after a failed attempt.
    pub max_revisions: usize,
    /// Demonstration count for the backing LLM.
    pub shots: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for StudyConfig {
    fn default() -> StudyConfig {
        StudyConfig {
            databases: 5,
            per_cell: 3,
            max_revisions: 3,
            shots: 20,
            seed: 2023,
        }
    }
}

/// Runs the simulated study for both user groups over targets drawn from the
/// corpus.
pub fn run_study(corpus: &Corpus, train_ids: &[usize], config: &StudyConfig) -> StudyReport {
    let mut rng = Rng::new(config.seed);
    let llm = SimLlm::new(ModelProfile::davinci_003(), config.seed ^ 0xA5);
    let eval_config = LlmEvalConfig {
        shots: config.shots,
        ..Default::default()
    };

    // Pick target visualizations: `databases` random DBs, `per_cell` per
    // difficulty level from each.
    let mut db_names: Vec<&str> = corpus.catalog.names();
    rng.shuffle(&mut db_names);
    let mut targets: Vec<&Example> = Vec::new();
    for db in db_names.iter().take(config.databases) {
        for h in Hardness::all() {
            let candidates: Vec<&Example> = corpus
                .examples
                .iter()
                .filter(|e| e.db == *db && e.hardness == h)
                .collect();
            for idx in rng.sample_indices(candidates.len(), config.per_cell) {
                targets.push(candidates[idx]);
            }
        }
    }

    let pool = demo_pool(corpus, train_ids);
    let mut report = StudyReport::default();
    for user in [UserKind::Expert, UserKind::NonExpert] {
        for target in &targets {
            let session = run_session(
                corpus,
                &pool,
                &llm,
                &eval_config,
                target,
                user,
                config,
                &mut rng,
            );
            report.sessions.push(session);
        }
    }
    report
}

#[allow(clippy::too_many_arguments)] // internal driver mirroring the study's knobs
fn run_session(
    corpus: &Corpus,
    pool: &DemoPool,
    llm: &SimLlm,
    eval_config: &LlmEvalConfig,
    target: &Example,
    user: UserKind,
    config: &StudyConfig,
    rng: &mut Rng,
) -> Session {
    let db = corpus
        .catalog
        .database(&target.db)
        .expect("target database exists");
    let defect_rate = user.defect_rate(target.hardness);

    // The user composes a query: the ideal phrasing with skill-dependent
    // clause defects (dropped trailing clauses, garbled words).
    let ideal = &target.nl;
    let mut defects = introduce_defects(ideal, defect_rate, rng);

    let word_count = words(ideal).len() as f64;
    let compose_seconds =
        user.think_seconds() + word_count * user.seconds_per_word() + rng.gauss().abs() * 3.0;
    let mut revise_seconds = 0.0;
    let mut prompt_seconds = 0.0;
    let mut generate_seconds = 0.0;

    // The demonstrations depend only on the target, so every round reuses
    // them. The user asks for a *new* visualization: demonstrations that are
    // this very chart (paraphrase siblings in the training pool) are
    // excluded, otherwise the model would just echo the answer and no
    // phrasing effect could be measured.
    let mut demos = pick_demos_pooled(pool, target, eval_config);
    demos.retain(|d| d.db != target.db || !nl2vis_query::canon::exact_match(&d.vql, &target.vql));

    let mut success = false;
    let mut revisions = 0usize;
    for round in 0..=config.max_revisions {
        let question = apply_defects(ideal, &defects);
        let options = PromptOptions {
            format: eval_config.format,
            token_budget: eval_config.token_budget,
            ..Default::default()
        };
        let prompt = build_prompt(&options, db, &question, &demos, |d| {
            corpus
                .catalog
                .database(&d.db)
                .expect("demo database exists")
        });
        // The paper reports ~3 s prompt assembly and ~2 s generation.
        prompt_seconds += 3.0 + rng.gauss().abs() * 0.4;
        generate_seconds += 2.0 + rng.gauss().abs() * 0.3;

        // Each round is a fresh model sample (a real conversation retries).
        let gen = nl2vis_llm::GenOptions {
            attempt: round as u64,
            ..Default::default()
        };
        let completion = llm.complete_with(&prompt.text, &gen);
        let outcome = score_completion(&completion, &target.vql, db);
        if outcome.exec {
            success = true;
            revisions = round;
            break;
        }
        if round == config.max_revisions {
            revisions = round;
            break;
        }
        // Revise: the user inspects the wrong chart and — if they diagnose
        // the problem — repairs one defect; otherwise the revision merely
        // rewords and the defect stays.
        if rng.chance(user.diagnose_rate()) {
            defects.pop();
        }
        revise_seconds += match user {
            UserKind::Expert => 12.0 + rng.gauss().abs() * 4.0,
            UserKind::NonExpert => 27.0 + rng.gauss().abs() * 6.0,
        };
    }

    Session {
        user,
        hardness: target.hardness,
        success,
        revisions,
        compose_seconds,
        revise_seconds,
        prompt_seconds,
        generate_seconds,
    }
}

/// A phrasing defect a user introduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Defect {
    /// Under-specify the tail of the request (dropped filter/order/bin).
    DropTail,
    /// Ask for "a chart" without naming the chart type.
    VagueChart,
}

/// Draws the defects a user of the given skill introduces for this target.
fn introduce_defects(ideal: &str, rate: f64, rng: &mut Rng) -> Vec<Defect> {
    // Clause chunks that can each be under-specified.
    let chunk_count = ideal.matches(" where ").count()
        + ideal.matches(" sorted ").count()
        + ideal.matches(" ordered ").count()
        + ideal.matches(" binned ").count()
        + 2;
    let mut defects = Vec::new();
    for _ in 0..chunk_count {
        if rng.chance(rate) {
            defects.push(Defect::DropTail);
        }
    }
    // Naming the chart type is a separate skill; novices often just say
    // "a chart".
    if rng.chance(rate * 1.6) {
        defects.push(Defect::VagueChart);
    }
    defects
}

/// Applies defects to the ideal phrasing.
fn apply_defects(ideal: &str, defects: &[Defect]) -> String {
    let mut s = ideal.to_string();
    let drops = defects.iter().filter(|d| **d == Defect::DropTail).count();
    if drops > 0 {
        // Split at clause-marker words and drop that many tail segments.
        let markers = [
            " where ",
            " sorted by ",
            " ordered by ",
            " binned by ",
            " colored by ",
            " stacked by ",
            " split by ",
            " rank the ",
            " keeping only ",
        ];
        let mut cut = s.len();
        let mut boundaries: Vec<usize> = markers
            .iter()
            .flat_map(|m| s.match_indices(m).map(|(i, _)| i))
            .collect();
        boundaries.sort_unstable();
        for _ in 0..drops {
            if let Some(b) = boundaries.pop() {
                cut = b;
            }
        }
        s = s[..cut].trim_end().to_string();
        if !s.ends_with('.') {
            s.push('.');
        }
    }
    if defects.contains(&Defect::VagueChart) {
        for phrase in [
            "bar chart",
            "bar graph",
            "histogram",
            "pie chart",
            "donut-style breakdown",
            "line chart",
            "trend line",
            "time series",
            "scatter plot",
            "scatter chart",
            "point cloud",
            "bars",
            "pie",
        ] {
            if s.contains(phrase) {
                s = s.replacen(phrase, "chart", 1);
                break;
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use nl2vis_corpus::CorpusConfig;

    fn study() -> StudyReport {
        let c = Corpus::build(&CorpusConfig {
            seed: 71,
            instances_per_domain: 1,
            queries_per_db: 16,
            paraphrases: (2, 3),
        });
        let split = c.split_in_domain(1);
        let config = StudyConfig {
            databases: 5,
            per_cell: 3,
            shots: 8,
            ..Default::default()
        };
        run_study(&c, &split.train, &config)
    }

    #[test]
    fn experts_outperform_non_experts_overall() {
        let r = study();
        let rate = |user: UserKind| {
            let sessions: Vec<&Session> = r.sessions.iter().filter(|s| s.user == user).collect();
            sessions.iter().filter(|s| s.success).count() as f64 / sessions.len() as f64
        };
        let expert = rate(UserKind::Expert);
        let novice = rate(UserKind::NonExpert);
        assert!(
            expert >= novice,
            "experts ({expert:.2}) should match or beat non-experts ({novice:.2})"
        );
    }

    #[test]
    fn non_experts_take_longer() {
        let r = study();
        let e = r.mean_seconds(UserKind::Expert, |s| s.compose_seconds);
        let n = r.mean_seconds(UserKind::NonExpert, |s| s.compose_seconds);
        assert!(
            n > e,
            "non-experts ({n:.0}s) should compose slower than experts ({e:.0}s)"
        );
    }

    #[test]
    fn system_times_near_paper_values() {
        let r = study();
        for user in [UserKind::Expert, UserKind::NonExpert] {
            let p = r.mean_seconds(user, |s| s.prompt_seconds / (s.revisions as f64 + 1.0));
            let g = r.mean_seconds(user, |s| s.generate_seconds / (s.revisions as f64 + 1.0));
            assert!((2.0..6.0).contains(&p), "prompt time {p}");
            assert!((1.5..4.0).contains(&g), "generate time {g}");
        }
    }

    #[test]
    fn sessions_cover_both_groups_and_levels() {
        let r = study();
        assert!(r.sessions.iter().any(|s| s.user == UserKind::Expert));
        assert!(r.sessions.iter().any(|s| s.user == UserKind::NonExpert));
        let expert_n = r
            .sessions
            .iter()
            .filter(|s| s.user == UserKind::Expert)
            .count();
        let novice_n = r
            .sessions
            .iter()
            .filter(|s| s.user == UserKind::NonExpert)
            .count();
        assert_eq!(expert_n, novice_n, "both groups attempt the same targets");
    }

    #[test]
    fn defects_shorten_queries() {
        let ideal = "Show bars of the number of name per team where age is over 30 sorted by team in ascending order.";
        let degraded = apply_defects(ideal, &[Defect::DropTail]);
        assert!(degraded.len() < ideal.len());
        assert!(degraded.ends_with('.'));
        assert_eq!(apply_defects(ideal, &[]), ideal);
        let vague = apply_defects(ideal, &[Defect::VagueChart]);
        assert!(!vague.contains("bars"));
        assert!(vague.contains("chart"));
    }
}
