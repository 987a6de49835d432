//! The paper drives its models through the OpenAI HTTP API; this example
//! serves the simulated model on localhost, runs the pipeline over the
//! wire, and then scrapes the server's own telemetry: `GET /healthz` for
//! liveness and `GET /metrics` for the request counters and latency
//! percentiles the observability layer recorded.
//!
//! ```text
//! cargo run --example http_server
//! ```

use nl2vis::llm::http::{CompletionServer, HttpLlmClient};
use nl2vis::llm::wire;
use nl2vis::prelude::*;
use std::time::Duration;

/// A plain HTTP GET, returning the response body.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let (_, body) = wire::get(addr, path, Duration::from_secs(5)).expect("GET");
    body
}

fn main() {
    // Serve a simulated gpt-4 on an ephemeral local port.
    let server =
        CompletionServer::start(SimLlm::new(ModelProfile::gpt_4(), 99)).expect("server starts");
    println!("completion server listening on http://{}", server.address());
    println!("healthz: {}", http_get(server.address(), "/healthz"));

    // A database to visualize.
    let mut schema = DatabaseSchema::new("fleet", "logistics");
    schema.tables.push(TableDef::new(
        "shipment",
        vec![
            ColumnDef::new("destination", DataType::Text),
            ColumnDef::new("weight_kg", DataType::Float),
        ],
    ));
    let mut db = Database::new(schema);
    for (dest, w) in [
        ("Lisbon", 12.5),
        ("Oslo", 30.0),
        ("Lisbon", 7.25),
        ("Kyoto", 18.0),
    ] {
        db.insert("shipment", vec![dest.into(), Value::Float(w)])
            .unwrap();
    }

    // The pipeline talks HTTP — swap the address for a real endpoint and
    // nothing else changes.
    let client = HttpLlmClient::new(server.address(), "gpt-4");
    let pipeline = Pipeline::with_service(client);
    for question in [
        "Draw a pie chart of the total weight kg for each destination.",
        "Show a bar chart of the number of shipments for each destination.",
        "Draw a bar chart of the average weight kg for each destination.",
    ] {
        let vis = pipeline
            .run(&db, question)
            .expect("visualization over HTTP");
        println!("\nQ: {question}");
        println!("VQL: {}", nl2vis::query::printer::print(&vis.vql));
        println!("{}", vis.ascii());
    }

    // The server metered every request; `GET /metrics` exposes the
    // registry as plain text — llm.requests_total, per-status counters,
    // and the llm.request_latency_us percentiles.
    println!("GET /metrics after {} completions:\n", 3);
    println!("{}", http_get(server.address(), "/metrics"));
    println!("(server shuts down when this process exits)");
}
