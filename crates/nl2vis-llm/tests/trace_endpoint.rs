//! Pins the `/trace/<id>` error contract the fleet stitcher depends on:
//! unknown ids are a JSON 404 *body* (never an empty 200), malformed ids
//! are a JSON 400, and an uninstalled recorder is its own JSON 404.
//!
//! Runs in its own test binary because the flight recorder is process
//! global and these cases exercise both its installed and uninstalled
//! states.

use std::net::TcpStream;
use std::sync::Arc;

use nl2vis_data::Json;
use nl2vis_llm::http::CompletionServer;
use nl2vis_llm::profile::ModelProfile;
use nl2vis_llm::sim::SimLlm;
use nl2vis_llm::wire;
use nl2vis_obs::recorder::{self, FlightRecorder};

/// One `Connection: close` GET; returns the status, the content type and
/// the body.
fn fetch(addr: std::net::SocketAddr, path: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let request = wire::render_request("GET", path, addr, &[], "", false);
    let response = wire::exchange(&mut stream, &request).unwrap();
    let content_type = response
        .header("content-type")
        .unwrap_or_default()
        .to_string();
    (response.status, content_type, response.body_text())
}

#[test]
fn trace_endpoint_error_contract_is_json_all_the_way_down() {
    let server = CompletionServer::start(SimLlm::new(ModelProfile::gpt_4(), 9)).unwrap();

    // No recorder installed yet: still a JSON 404, not an empty body.
    let (status, content_type, body) = fetch(server.address(), "/trace/987654321");
    assert_eq!(status, 404, "{body}");
    assert!(content_type.contains("application/json"), "{content_type}");
    let json = Json::parse(&body).expect("404 body must be JSON");
    assert_eq!(
        json.get("error").and_then(Json::as_str),
        Some("flight recorder not installed")
    );

    // Recorder installed, id unknown: a JSON 404 naming the id, so the
    // router's fleet stitcher can tell "not retained here" apart from a
    // dead replica or a malformed reply.
    recorder::install(Arc::new(FlightRecorder::new(16)));
    let (status, content_type, body) = fetch(server.address(), "/trace/987654321");
    assert_eq!(status, 404, "{body}");
    assert!(content_type.contains("application/json"), "{content_type}");
    let json = Json::parse(&body).expect("404 body must be JSON");
    assert_eq!(
        json.get("error").and_then(Json::as_str),
        Some("trace 987654321 not retained")
    );

    // Malformed id: a JSON 400.
    let (status, _, body) = fetch(server.address(), "/trace/banana");
    assert_eq!(status, 400, "{body}");
    assert!(Json::parse(&body).is_ok(), "400 body must be JSON: {body}");
}
