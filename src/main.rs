//! `nl2vis` — an interactive NL2VIS console, the command-line interface of
//! the paper's user study (§5.2.2): pick a database, type natural-language
//! requests, get charts; follow-ups revise the previous chart.
//!
//! ```text
//! cargo run --release
//! nl2vis> :dbs                       # list generated databases
//! nl2vis> :db baseball_club          # choose one
//! nl2vis> :schema                    # show its tables
//! nl2vis> Show a bar chart of the number of technicians for each team.
//! nl2vis> only the "BOS" team        # follow-up revision
//! nl2vis> :vql                       # show the current query
//! nl2vis> :vega                      # show the Vega-Lite spec
//! nl2vis> :model gpt-4               # switch models
//! nl2vis> :quit
//! ```

use nl2vis::corpus::{Corpus, CorpusConfig};
use nl2vis::prelude::*;
use std::io::Write as _;

fn main() {
    println!("nl2vis — natural language to visualization (simulated LLM backend)");
    println!("generating benchmark databases ...");
    let corpus = Corpus::build(&CorpusConfig::small(20240115));
    let names: Vec<String> = corpus
        .catalog
        .names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut db_name = names.first().cloned().expect("catalog non-empty");
    let mut model = "text-davinci-003".to_string();
    let mut pipeline = Pipeline::new(&model, 7);
    println!(
        "{} databases ready; current: `{db_name}` (`:dbs` to list, `:help` for commands)\n",
        names.len()
    );

    let mut input = std::io::stdin().lines();
    let mut conversation_vql: Vec<nl2vis::query::ast::VqlQuery> = Vec::new();
    loop {
        print!("nl2vis> ");
        std::io::stdout().flush().ok();
        let Some(Ok(line)) = input.next() else {
            break;
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(cmd) = line.strip_prefix(':') {
            let mut parts = cmd.split_whitespace();
            match parts.next().unwrap_or("") {
                "quit" | "q" | "exit" => break,
                "help" => {
                    println!(
                        ":dbs | :db <name> | :schema | :model <name> | :vql | :sql | :vega | :svg <path> | :metrics | :reset | :quit"
                    );
                }
                "metrics" => {
                    print!(
                        "{}",
                        nl2vis::obs::report::render_summary(nl2vis::obs::global())
                    );
                }
                "dbs" => {
                    for n in &names {
                        println!("  {n}{}", if *n == db_name { "  (current)" } else { "" });
                    }
                }
                "db" => match parts.next() {
                    Some(n) if names.iter().any(|x| x == n) => {
                        db_name = n.to_string();
                        conversation_vql.clear();
                        println!("switched to `{db_name}`");
                    }
                    Some(n) => println!("unknown database `{n}` (see :dbs)"),
                    None => println!("usage: :db <name>"),
                },
                "schema" => {
                    let db = corpus.catalog.database(&db_name).unwrap();
                    print!("{}", PromptFormat::TableColumn.serialize(db, ""));
                    println!();
                }
                "model" => match parts.next() {
                    Some(m) => {
                        model = m.to_string();
                        pipeline = Pipeline::new(&model, 7);
                        println!("model: {}", pipeline.model());
                    }
                    None => println!("current model: {}", pipeline.model()),
                },
                "vql" => match conversation_vql.last() {
                    Some(q) => println!("{}", nl2vis::query::printer::print(q)),
                    None => println!("no chart yet"),
                },
                "sql" => match conversation_vql.last() {
                    Some(q) => println!("{}", nl2vis::query::to_sql(q)),
                    None => println!("no chart yet"),
                },
                "vega" => match conversation_vql.last() {
                    Some(q) => {
                        let db = corpus.catalog.database(&db_name).unwrap();
                        match nl2vis::query::execute(q, db) {
                            Ok(r) => println!("{}", nl2vis::vega::to_vega_lite(q, &r).to_pretty()),
                            Err(e) => println!("execution error: {e}"),
                        }
                    }
                    None => println!("no chart yet"),
                },
                "svg" => match (conversation_vql.last(), parts.next()) {
                    (Some(q), Some(path)) => {
                        let db = corpus.catalog.database(&db_name).unwrap();
                        match nl2vis::query::execute(q, db) {
                            Ok(r) => {
                                let svg = nl2vis::vega::svg::render_svg(&r);
                                match std::fs::write(path, svg) {
                                    Ok(()) => println!("wrote {path}"),
                                    Err(e) => println!("write failed: {e}"),
                                }
                            }
                            Err(e) => println!("execution error: {e}"),
                        }
                    }
                    (None, _) => println!("no chart yet"),
                    (_, None) => println!("usage: :svg <path>"),
                },
                "reset" => {
                    conversation_vql.clear();
                    println!("conversation reset");
                }
                other => println!("unknown command `:{other}` (try :help)"),
            }
            continue;
        }

        // A natural-language turn: follow-up when possible, fresh otherwise.
        let db = corpus.catalog.database(&db_name).unwrap();
        let mut session = Conversation::new(&pipeline, db);
        // Rebuild session state from the stored queries (cheap; keeps the
        // borrow of `pipeline` scoped to this turn so `:model` can swap it).
        let result = if let Some(prev) = conversation_vql.last() {
            let schema = nl2vis::llm::recover::RecoveredSchema::from_database(db);
            let know_all = |_: &str| true;
            let edits = nl2vis::llm::followup::parse_follow_up(line, prev, &schema, &know_all);
            if edits.is_empty() {
                session.say(line).map(|t| t.visualization.clone())
            } else {
                let mut revised = prev.clone();
                for e in &edits {
                    revised = e.apply(&revised);
                }
                nl2vis::query::execute(&revised, db)
                    .map(|data| Visualization {
                        vql: revised,
                        data,
                        completion: format!("[follow-up: {} edit(s)]", edits.len()),
                    })
                    .map_err(PipelineError::from)
            }
        } else {
            session.say(line).map(|t| t.visualization.clone())
        };

        match result {
            Ok(vis) => {
                conversation_vql.push(vis.vql.clone());
                println!("VQL: {}", nl2vis::query::printer::print(&vis.vql));
                println!("{}", vis.ascii());
            }
            Err(e) => println!("could not visualize: {e}"),
        }
    }
    println!("bye");
}
