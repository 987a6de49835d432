//! The wire format's parse rules at the byte level, through its public
//! API. `tests/wire_conformance.rs` in the root crate checks the same
//! rules end to end, against every server and client.

use nl2vis_llm::wire::{self, FrameError, Parsed, MAX_BODY_BYTES};
use std::time::Duration;

/// Parses one complete request: method, path, body length, keep-alive,
/// and the bytes it occupies.
fn request(bytes: &[u8]) -> Result<(String, String, usize, bool, usize), FrameError> {
    match wire::parse_request(bytes) {
        Parsed::NeedMore => panic!("incomplete: {:?}", String::from_utf8_lossy(bytes)),
        Parsed::Bad(e) => Err(e),
        Parsed::Ok(head, body) => Ok((
            head.method.to_string(),
            head.path.to_string(),
            body.len(),
            head.keep_alive,
            head.len + body.len(),
        )),
    }
}

#[test]
fn requests_parse_with_crlf_or_bare_lf_and_leave_what_follows() {
    let crlf = b"GET /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiNEXT";
    assert_eq!(
        request(crlf),
        Ok(("GET".into(), "/a".into(), 2, false, crlf.len() - 4))
    );
    let lf = b"POST /b HTTP/1.0\nconnection: Keep-Alive\ncontent-length: 0\n\n";
    assert_eq!(
        request(lf),
        Ok(("POST".into(), "/b".into(), 0, true, lf.len()))
    );
}

#[test]
fn incomplete_requests_need_more() {
    for partial in [
        &b""[..],
        b"GET / HTTP/1.1\r\nHost: x\r\n",
        b"GET / HTTP/1.1\r\nContent-Length: 4\r\n\r\nab",
    ] {
        assert!(matches!(wire::parse_request(partial), Parsed::NeedMore));
    }
}

#[test]
fn lengths_are_digits_only_and_an_empty_request_line_is_rejected() {
    assert_eq!(request(b"\r\n\r\n"), Err(FrameError::EmptyRequest));
    let signed = request(b"GET / HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello");
    assert_eq!(signed, Err(FrameError::MalformedLength("+5".into())));
    assert_eq!(FrameError::MalformedLength("+5".into()).status(), 400);
    assert_eq!(FrameError::BodyTooLarge(MAX_BODY_BYTES + 1).status(), 413);
}

#[test]
fn a_reader_never_hands_back_a_socket_with_over_read_bytes() {
    let exact = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nok";
    let response = wire::read_response(&mut &exact[..]).unwrap();
    assert_eq!((response.status, response.body()), (200, &b"ok"[..]));
    assert!(response.keep_alive);

    let mut glued = exact.to_vec();
    glued.extend_from_slice(b"HTTP/1.1 200 OK\r\n");
    let response = wire::read_response(&mut &glued[..]).unwrap();
    assert_eq!(response.body(), b"ok");
    assert!(!response.keep_alive, "over-read bytes forbid parking");
}

#[test]
fn failures_report_what_arrived() {
    let truncated = b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 0.05\r\nContent-Le";
    let e = wire::read_response(&mut &truncated[..]).unwrap_err();
    assert!(e.started() && !e.is_stale());
    assert_eq!(e.status(), Some(429));
    assert_eq!(e.header("retry-after"), Some("0.05"));
    assert_eq!(
        e.header("content-length"),
        None,
        "partial lines are ignored"
    );

    let e = wire::read_response(&mut &b""[..]).unwrap_err();
    assert!(e.is_stale() && e.status().is_none());
    assert_eq!(e.to_string(), "connection closed before a response");
}

#[test]
fn retry_after_accepts_fractions_and_ignores_garbage() {
    assert_eq!(
        wire::parse_retry_after("0.05"),
        Some(Duration::from_millis(50))
    );
    assert_eq!(wire::parse_retry_after("2"), Some(Duration::from_secs(2)));
    // The cap itself is honored; anything longer is no advice at all.
    assert_eq!(wire::parse_retry_after("60"), Some(wire::MAX_RETRY_AFTER));
    for bad in ["soon", "-1", "NaN", "1e300", "1e9", "60.001"] {
        assert_eq!(wire::parse_retry_after(bad), None, "{bad}");
    }
}
