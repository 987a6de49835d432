//! The HTTP/1.1 wire format: the one place that reads or writes a message
//! head.
//!
//! Every endpoint frames its traffic here: the event core's incremental
//! request parse ([`parse_request`]), the blocking readers of both clients
//! ([`exchange`]) and of the fleet observer's server ([`read_request`]),
//! the scrapes and health probes ([`get`]), and the renderers
//! ([`render_request`], [`render_response`]). So every consumer obeys the
//! same rules:
//!
//! - header names match case-insensitively, and values keep their bytes;
//! - identical duplicate `Content-Length` headers are accepted, while
//!   conflicting or malformed ones are rejected (either would let two
//!   readers disagree on where a message ends);
//! - a declared body over [`MAX_BODY_BYTES`] is rejected from the header
//!   alone, before anything is allocated for it;
//! - a head over [`MAX_HEADER_BYTES`] is rejected;
//! - `Connection` is a token list, and `close` wins over `keep-alive`;
//! - bare-LF line endings are accepted;
//! - a start line must carry `HTTP/1.x`, and a status line a 3-digit code.
//!
//! Bodies are `Content-Length` framed (no header means an empty body). A
//! message with a `Transfer-Encoding` header is rejected, and a server
//! answers it `501`: a reader that ignored the header would frame a
//! chunked body as the next message on the connection. A parsed [`Head`]
//! borrows from the bytes it was parsed from, so reading a message costs
//! one buffer.

use std::fmt::Write as _;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Header bytes a single message may occupy before parsing gives up; far
/// above any legitimate start line + headers, far below a memory threat.
pub const MAX_HEADER_BYTES: usize = 64 * 1024;

/// Largest body either side will buffer. Prompts run to tens of
/// kilobytes; anything past this is a protocol violation, not a bigger
/// prompt, and must not translate an untrusted `Content-Length` header
/// into an allocation.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Bytes a blocking reader asks the socket for at a time while it looks
/// for the end of a head.
const READ_CHUNK: usize = 8 * 1024;

/// How long an accept loop backs off after a failed `accept` (e.g. file
/// descriptor exhaustion) instead of spinning on it.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Which side of an exchange a head belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Request,
    Response,
}

/// A framing rule a message broke.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The request line is empty.
    EmptyRequest,
    /// The request line is not `METHOD TARGET HTTP/1.x`.
    RequestLine,
    /// The status line is not `HTTP/1.x NNN [reason]`.
    StatusLine,
    /// A `Content-Length` value that is not a decimal number.
    MalformedLength(String),
    /// Two `Content-Length` headers that disagree.
    ConflictingLength,
    /// A declared body over [`MAX_BODY_BYTES`].
    BodyTooLarge(usize),
    /// A head over [`MAX_HEADER_BYTES`].
    HeadTooLarge,
    /// A `Transfer-Encoding` header: only `Content-Length` framing is
    /// implemented.
    TransferEncoding,
}

impl FrameError {
    /// The status a server answers this violation with before closing.
    pub fn status(&self) -> u16 {
        match self {
            FrameError::BodyTooLarge(_) => 413,
            FrameError::TransferEncoding => 501,
            _ => 400,
        }
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::EmptyRequest => write!(f, "empty request"),
            FrameError::RequestLine => write!(f, "malformed request line"),
            FrameError::StatusLine => write!(f, "malformed status line"),
            FrameError::MalformedLength(v) => write!(f, "malformed content-length: `{v}`"),
            FrameError::ConflictingLength => {
                write!(f, "conflicting duplicate content-length headers")
            }
            FrameError::BodyTooLarge(n) => {
                write!(
                    f,
                    "body of {n} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
                )
            }
            FrameError::HeadTooLarge => {
                write!(f, "header block exceeds the {MAX_HEADER_BYTES}-byte limit")
            }
            FrameError::TransferEncoding => write!(f, "transfer-encoding is not supported"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A parsed head: views into the bytes it was parsed from.
#[derive(Debug, Clone, Copy)]
pub struct Head<'a> {
    /// Request method (empty for a response).
    pub method: &'a str,
    /// Request target (empty for a response).
    pub path: &'a str,
    /// Response status code (`0` for a request).
    pub status: u16,
    /// The declared body length; `0` without a `Content-Length` header.
    pub content_length: usize,
    /// Did the peer ask to keep the connection open? A server here is
    /// close-by-default despite HTTP/1.1's persistent default: only an
    /// explicit `keep-alive` token (and no `close`) keeps a connection,
    /// so raw-socket callers that read to EOF keep working.
    pub keep_alive: bool,
    /// Bytes the head occupies, blank line included: where the body starts.
    pub len: usize,
    /// The header lines between the start line and the blank line.
    fields: &'a [u8],
}

impl<'a> Head<'a> {
    /// The value of the first header named `name` (matched
    /// case-insensitively), trimmed but otherwise byte-for-byte; `None`
    /// when absent or not UTF-8.
    pub fn header(&self, name: &str) -> Option<&'a str> {
        field(self.fields, name)
    }
}

/// Parses the head at the front of `buf`; `Ok(None)` while the blank line
/// that ends it has not arrived.
fn parse_head(buf: &[u8], kind: Kind) -> Result<Option<Head<'_>>, FrameError> {
    let Some(len) = head_end(buf) else {
        return if buf.len() > MAX_HEADER_BYTES {
            Err(FrameError::HeadTooLarge)
        } else {
            Ok(None)
        };
    };
    if len > MAX_HEADER_BYTES {
        return Err(FrameError::HeadTooLarge);
    }
    let (start, fields) = split_line(&buf[..len]);
    let mut head = Head {
        method: "",
        path: "",
        status: 0,
        content_length: 0,
        keep_alive: false,
        len,
        fields,
    };
    match kind {
        Kind::Request if start.is_empty() => return Err(FrameError::EmptyRequest),
        Kind::Request => {
            (head.method, head.path) = request_line(start).ok_or(FrameError::RequestLine)?
        }
        Kind::Response => head.status = status_line(start).ok_or(FrameError::StatusLine)?,
    }
    let mut length: Option<usize> = None;
    let (mut keep, mut close) = (false, false);
    for (name, value) in fields_of(fields) {
        if name.eq_ignore_ascii_case(b"content-length") {
            // A length we cannot parse means we cannot know where the body
            // ends: reject, never silently assume an empty body.
            let n = decimal(value).ok_or_else(|| {
                FrameError::MalformedLength(String::from_utf8_lossy(value).into_owned())
            })?;
            if length.is_some_and(|prev| prev != n) {
                return Err(FrameError::ConflictingLength);
            }
            length = Some(n);
        } else if name.eq_ignore_ascii_case(b"connection") {
            let (k, c) = connection_tokens(value);
            keep |= k;
            close |= c;
        } else if name.eq_ignore_ascii_case(b"transfer-encoding") {
            return Err(FrameError::TransferEncoding);
        }
    }
    head.content_length = length.unwrap_or(0);
    if head.content_length > MAX_BODY_BYTES {
        return Err(FrameError::BodyTooLarge(head.content_length));
    }
    head.keep_alive = keep && !close;
    Ok(Some(head))
}

/// One past the blank line that ends the head at the front of `buf`.
fn head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while let Some(n) = buf[i..].iter().position(|&b| b == b'\n') {
        i += n + 1;
        match &buf[i..] {
            [b'\n', ..] => return Some(i + 1),
            [b'\r', b'\n', ..] => return Some(i + 2),
            _ => {}
        }
    }
    None
}

/// Splits off the first line, without its line ending, from the rest.
fn split_line(bytes: &[u8]) -> (&[u8], &[u8]) {
    match bytes.iter().position(|&b| b == b'\n') {
        Some(i) => (trim_cr(&bytes[..i]), &bytes[i + 1..]),
        None => (trim_cr(bytes), &[]),
    }
}

fn trim_cr(line: &[u8]) -> &[u8] {
    line.strip_suffix(b"\r").unwrap_or(line)
}

/// The trimmed `name: value` pairs of a header block; lines without a
/// colon (the blank line ending a head) are skipped.
fn fields_of(block: &[u8]) -> impl Iterator<Item = (&[u8], &[u8])> {
    block.split(|&b| b == b'\n').filter_map(|line| {
        let colon = line.iter().position(|&b| b == b':')?;
        Some((line[..colon].trim_ascii(), line[colon + 1..].trim_ascii()))
    })
}

fn field<'a>(block: &'a [u8], name: &str) -> Option<&'a str> {
    fields_of(block)
        .find(|(n, _)| n.eq_ignore_ascii_case(name.as_bytes()))
        .and_then(|(_, value)| std::str::from_utf8(value).ok())
}

/// Extracts a header value from one `Name: value` line when the *name*
/// matches `name` case-insensitively (RFC 9110 §5.1). The value comes back
/// trimmed but otherwise byte-for-byte: header values are not
/// case-insensitive, and folding them corrupts payloads like trace ids.
pub fn header_value<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    field(line.as_bytes(), name)
}

/// Does a `Connection:` header value ask for keep-alive? The value is a
/// comma-separated token list (`keep-alive, TE`) matched per token,
/// case-insensitively; a list naming both tokens closes, because `close`
/// is the stronger directive.
pub fn connection_keeps_alive(value: &str) -> bool {
    let (keep, close) = connection_tokens(value.as_bytes());
    keep && !close
}

/// Whether a `Connection` token list names `keep-alive` and `close`.
fn connection_tokens(value: &[u8]) -> (bool, bool) {
    let tokens = value.split(|&b| b == b',').map(<[u8]>::trim_ascii);
    let has = |token: &[u8]| tokens.clone().any(|t| t.eq_ignore_ascii_case(token));
    (has(b"keep-alive"), has(b"close"))
}

/// `1*DIGIT`, without a sign and without overflow.
fn decimal(value: &[u8]) -> Option<usize> {
    if value.is_empty() || !value.iter().all(u8::is_ascii_digit) {
        return None;
    }
    std::str::from_utf8(value).ok()?.parse().ok()
}

fn is_http1(version: &[u8]) -> bool {
    matches!(version, [b'H', b'T', b'T', b'P', b'/', b'1', b'.', minor] if minor.is_ascii_digit())
}

fn request_line(line: &[u8]) -> Option<(&str, &str)> {
    let mut parts = std::str::from_utf8(line).ok()?.split_ascii_whitespace();
    let (method, path, version) = (parts.next()?, parts.next()?, parts.next()?);
    (parts.next().is_none() && is_http1(version.as_bytes())).then_some((method, path))
}

fn status_line(line: &[u8]) -> Option<u16> {
    let mut parts = line
        .split(u8::is_ascii_whitespace)
        .filter(|part| !part.is_empty());
    let (version, code) = (parts.next()?, parts.next()?);
    let valid = is_http1(version) && code.len() == 3 && code.iter().all(u8::is_ascii_digit);
    valid.then(|| code.iter().fold(0, |n, &d| n * 10 + u16::from(d - b'0')))
}

/// One incremental request parse over a connection's read buffer.
pub enum Parsed<'a> {
    /// The buffer does not hold a complete request yet.
    NeedMore,
    /// The request broke a framing rule: answer
    /// [`FrameError::status`] and close.
    Bad(FrameError),
    /// A complete request: its head and body, `head.len + body.len()`
    /// bytes off the front of the buffer.
    Ok(Head<'a>, &'a [u8]),
}

/// Parses one request off the front of `buf` without consuming it, for a
/// nonblocking reader that appends bytes as they arrive.
pub fn parse_request(buf: &[u8]) -> Parsed<'_> {
    match parse_head(buf, Kind::Request) {
        Ok(None) => Parsed::NeedMore,
        Err(e) => Parsed::Bad(e),
        Ok(Some(head)) => match buf.get(head.len..head.len + head.content_length) {
            Some(body) => Parsed::Ok(head, body),
            None => Parsed::NeedMore,
        },
    }
}

/// One complete message read off a blocking socket: head and body in one
/// buffer.
#[derive(Debug)]
pub struct Message {
    buf: Vec<u8>,
    kind: Kind,
    body_start: usize,
    /// Response status code (`0` for a request).
    pub status: u16,
    /// The peer asked to keep the connection open *and* the reader took
    /// nothing past this message, so the socket may be reused.
    pub keep_alive: bool,
}

impl Message {
    /// The head, with the method and target of a request.
    pub fn head(&self) -> Head<'_> {
        parse_head(&self.buf, self.kind)
            .ok()
            .flatten()
            .expect("a read message keeps its valid head")
    }

    /// The value of the first header named `name`; see [`Head::header`].
    pub fn header(&self, name: &str) -> Option<&str> {
        field(split_line(&self.buf[..self.body_start]).1, name)
    }

    /// The body bytes.
    pub fn body(&self) -> &[u8] {
        &self.buf[self.body_start..]
    }

    /// The body as text, invalid UTF-8 replaced.
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(self.body()).into_owned()
    }
}

/// Why reading or writing a message failed.
#[derive(Debug)]
pub enum Cause {
    /// A socket error. A peer that closed early reads as
    /// [`ErrorKind::UnexpectedEof`]; an expired deadline as `WouldBlock` or
    /// `TimedOut`.
    Io(std::io::Error),
    /// The bytes broke a framing rule.
    Frame(FrameError),
}

/// A failed message exchange, with the bytes that had arrived by then.
#[derive(Debug)]
pub struct WireError {
    /// What failed.
    pub cause: Cause,
    /// The message bytes read before the failure (the head, at most).
    received: Vec<u8>,
}

impl WireError {
    fn io(e: std::io::Error, received: Vec<u8>) -> WireError {
        WireError {
            cause: Cause::Io(e),
            received,
        }
    }

    fn eof(kind: Kind, received: Vec<u8>) -> WireError {
        let when = match (kind, received.is_empty()) {
            (Kind::Request, true) => "before a request",
            (Kind::Request, false) => "mid-request",
            (Kind::Response, true) => "before a response",
            (Kind::Response, false) => "mid-response",
        };
        let e = std::io::Error::new(
            ErrorKind::UnexpectedEof,
            format!("connection closed {when}"),
        );
        WireError::io(e, received)
    }

    /// Did any byte of the message arrive before the failure?
    pub fn started(&self) -> bool {
        !self.received.is_empty()
    }

    /// Is this what a parked connection that died while idle looks like:
    /// closed or reset before a single response byte? Only such a failure
    /// may be retried, once, on a fresh connection. After the first byte
    /// the server demonstrably took the request, so a replay would send
    /// it twice.
    pub fn is_stale(&self) -> bool {
        !self.started()
            && matches!(&self.cause, Cause::Io(e) if matches!(
                e.kind(),
                ErrorKind::ConnectionReset
                    | ErrorKind::ConnectionAborted
                    | ErrorKind::BrokenPipe
                    | ErrorKind::UnexpectedEof
            ))
    }

    /// The status of a response whose status line arrived before the
    /// failure. Once read, the status is authoritative: a `429` is a shed
    /// whatever followed it.
    pub fn status(&self) -> Option<u16> {
        let end = self.received.iter().position(|&b| b == b'\n')?;
        status_line(trim_cr(&self.received[..end]))
    }

    /// A header from the complete lines of the head that arrived.
    pub fn header(&self, name: &str) -> Option<&str> {
        let head = match head_end(&self.received) {
            Some(len) => &self.received[..len],
            None => {
                let complete = self.received.iter().rposition(|&b| b == b'\n');
                &self.received[..complete.map_or(0, |i| i + 1)]
            }
        };
        field(split_line(head).1, name)
    }

    /// The status and message a server answers an unreadable request with.
    pub fn rejection(&self) -> (u16, String) {
        match &self.cause {
            Cause::Frame(e) => (e.status(), e.to_string()),
            Cause::Io(e) => (400, format!("request read failed: {e}")),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.cause {
            Cause::Io(e) => write!(f, "{e}"),
            Cause::Frame(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Reads one message straight off `stream`. The head is read in chunks;
/// the body is read to exactly its declared length. Bytes past the
/// message can only come from a peer that broke framing, and they make
/// the message not [`keep_alive`](Message::keep_alive), so a caller never
/// parks a socket with unread or over-read bytes.
fn read_message<R: Read>(stream: &mut R, kind: Kind) -> Result<Message, WireError> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; READ_CHUNK];
    let (status, keep_alive, body_start, content_length) = loop {
        match parse_head(&buf, kind) {
            Ok(Some(head)) => break (head.status, head.keep_alive, head.len, head.content_length),
            Ok(None) => {}
            Err(e) => {
                return Err(WireError {
                    cause: Cause::Frame(e),
                    received: buf,
                })
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(WireError::eof(kind, buf)),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::io(e, buf)),
        }
    };
    let end = body_start + content_length;
    let exact = buf.len() <= end;
    if buf.len() < end {
        let have = buf.len();
        buf.resize(end, 0);
        if let Err(e) = stream.read_exact(&mut buf[have..]) {
            buf.truncate(body_start);
            return Err(match e.kind() {
                ErrorKind::UnexpectedEof => WireError::eof(kind, buf),
                _ => WireError::io(e, buf),
            });
        }
    }
    buf.truncate(end);
    Ok(Message {
        buf,
        kind,
        body_start,
        status,
        keep_alive: keep_alive && exact,
    })
}

/// Reads one request off a blocking socket.
pub fn read_request<R: Read>(stream: &mut R) -> Result<Message, WireError> {
    read_message(stream, Kind::Request)
}

/// Reads one response off a blocking socket.
pub fn read_response<R: Read>(stream: &mut R) -> Result<Message, WireError> {
    read_message(stream, Kind::Response)
}

/// Writes `request` in one call and reads its response. A failed write is
/// a failure before any response byte, so a dead parked socket is
/// [stale](WireError::is_stale) whether it fails on the write or the read.
pub fn exchange<S: Read + Write>(stream: &mut S, request: &[u8]) -> Result<Message, WireError> {
    stream
        .write_all(request)
        .map_err(|e| WireError::io(e, Vec::new()))?;
    read_response(stream)
}

/// One `Connection: close` GET on a fresh connection, every socket
/// operation under `timeout`; returns the status and body.
pub fn get(addr: SocketAddr, path: &str, timeout: Duration) -> Result<(u16, String), WireError> {
    let io = |e| WireError::io(e, Vec::new());
    let mut stream = TcpStream::connect_timeout(&addr, timeout).map_err(io)?;
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .map_err(io)?;
    let response = exchange(
        &mut stream,
        &render_request("GET", path, addr, &[], "", false),
    )?;
    Ok((response.status, response.body_text()))
}

fn connection(keep_alive: bool) -> &'static str {
    if keep_alive {
        "keep-alive"
    } else {
        "close"
    }
}

/// Serializes one complete request, so it goes out in one write (a head
/// and body written separately would give Nagle a delayed-ACK stall).
pub fn render_request(
    method: &str,
    path: &str,
    host: SocketAddr,
    headers: &[(&str, &str)],
    body: &str,
    keep_alive: bool,
) -> Vec<u8> {
    let mut out = String::with_capacity(160 + body.len());
    let _ = write!(out, "{method} {path} HTTP/1.1\r\nHost: {host}\r\n");
    for (name, value) in headers {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    let _ = write!(
        out,
        "Content-Length: {}\r\nConnection: {}\r\n\r\n",
        body.len(),
        connection(keep_alive)
    );
    out.push_str(body);
    out.into_bytes()
}

/// Serializes one complete response, advertising `Connection: keep-alive`
/// or `close` to match what the server will do next.
pub fn render_response(
    status: u16,
    body: &str,
    content_type: &str,
    keep_alive: bool,
    retry_after: Option<Duration>,
) -> Vec<u8> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        422 => "Unprocessable Content",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        502 => "Bad Gateway",
        _ => "Error",
    };
    let mut out = String::with_capacity(160 + body.len());
    let _ = write!(
        out,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        body.len()
    );
    // Fractional seconds in Retry-After are a protocol extension over RFC
    // 9110 (which allows only whole seconds): local tests and benchmarks
    // shed with millisecond backoffs, and rounding them up to 1s would
    // serialize the whole recovery. `parse_retry_after` reads either form.
    if let Some(backoff) = retry_after {
        let _ = write!(out, "Retry-After: {}\r\n", backoff.as_secs_f64());
    }
    let _ = write!(out, "Connection: {}\r\n\r\n", connection(keep_alive));
    out.push_str(body);
    out.into_bytes()
}

/// The longest `Retry-After` honored. A retrying client sleeps for what a
/// `429` advertises and the router opens a penalty window as long, so an
/// unbounded value (`1e9` is about 31 years) would park a caller past
/// every deadline and retire a replica for good. Real completions APIs
/// advertise seconds, and the completion server here sheds with 50 ms
/// (`ServerConfig::retry_after`); a minute bounds both.
pub const MAX_RETRY_AFTER: Duration = Duration::from_secs(60);

/// Reads a `Retry-After` value in seconds, fractional allowed. An
/// unparseable value, or one above [`MAX_RETRY_AFTER`], means no
/// advertised backoff, never an error.
pub fn parse_retry_after(value: &str) -> Option<Duration> {
    Duration::try_from_secs_f64(value.parse().ok()?)
        .ok()
        .filter(|backoff| *backoff <= MAX_RETRY_AFTER)
}

/// A thread blocked in `accept` that hands every connection to a handler:
/// the accept loop of every server here. It costs no CPU while idle.
/// Dropping it wakes the thread by connecting to the listener itself, then
/// joins it.
pub struct AcceptLoop {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl AcceptLoop {
    /// Starts accepting on `listener`, calling `handle` for each
    /// connection on the accept thread.
    pub fn spawn<F>(listener: TcpListener, mut handle: F) -> std::io::Result<AcceptLoop>
    where
        F: FnMut(TcpStream) + Send + 'static,
    {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let thread = std::thread::spawn(move || loop {
            let accepted = listener.accept();
            if stopped.load(Ordering::Acquire) {
                break;
            }
            match accepted {
                Ok((stream, _)) => handle(stream),
                Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
            }
        });
        Ok(AcceptLoop {
            addr,
            stop,
            handle: Some(thread),
        })
    }

    /// The listener's address.
    pub fn address(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for AcceptLoop {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(thread) = self.handle.take() {
            let _ = thread.join();
        }
    }
}
