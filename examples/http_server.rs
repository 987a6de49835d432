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
use nl2vis::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// A bare HTTP GET, returning the response body.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut content_length = 0usize;
    loop {
        line.clear();
        reader.read_line(&mut line).expect("read header");
        if line.trim_end().is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().unwrap_or(0);
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("read body");
    String::from_utf8_lossy(&body).to_string()
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
