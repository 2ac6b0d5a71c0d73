//! A deliberately small HTTP/1.1 subset over `std::net`: parse one request
//! (request line, headers, `Content-Length` body), write one response, close
//! the connection. Every response carries `Connection: close`, so a client
//! issues one request per connection — which keeps the admission queue an
//! honest model of outstanding work. A connection that goes silent mid-read
//! can still pin a worker, which is why the server arms per-socket I/O
//! timeouts before parsing and answers a stalled read with `408`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Caps keeping a hostile peer from ballooning worker memory.
const MAX_HEADER_BYTES: usize = 16 * 1024;
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Path without query string.
    pub path: String,
    /// Raw query string (after `?`, before any `#`), empty when absent.
    pub query: String,
    /// Header names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Look a key up in the query string (`k=v` pairs joined by `&`; no
    /// percent-decoding — debug-endpoint values are plain tokens).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// Why a request could not be read. The variants map to the status code the
/// server answers before closing.
#[derive(Debug)]
pub enum ParseError {
    /// Malformed request line/headers/length → 400.
    Bad(String),
    /// Body or headers exceed the caps → 413.
    TooLarge,
    /// The socket's read timeout fired before a full request arrived → 408.
    TimedOut,
    /// The peer vanished mid-request; nothing to answer.
    Disconnected,
}

/// Classify an io error from a socket read. A timeout surfaces as
/// `WouldBlock` (unix) or `TimedOut` (windows); non-UTF-8 header bytes
/// surface as `InvalidData` and deserve a 400, not a silent drop.
fn classify_io(err: &std::io::Error) -> ParseError {
    use std::io::ErrorKind;
    match err.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => ParseError::TimedOut,
        ErrorKind::InvalidData => ParseError::Bad("request is not valid UTF-8".to_owned()),
        _ => ParseError::Disconnected,
    }
}

/// Read one request from the stream.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, ParseError> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut header_bytes = 0usize;

    read_line(&mut reader, &mut line, &mut header_bytes)?;
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(ParseError::Bad(format!("bad request line {line:?}")));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Bad(format!("unsupported version {version:?}")));
    }
    let method = method.to_owned();
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q.to_owned()),
        None => (target.to_owned(), String::new()),
    };

    let mut headers = Vec::new();
    loop {
        read_line(&mut reader, &mut line, &mut header_bytes)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::Bad(format!("bad header {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| ParseError::Bad(format!("bad content-length {v:?}")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(ParseError::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| {
        if matches!(classify_io(&e), ParseError::TimedOut) {
            ParseError::TimedOut
        } else {
            ParseError::Disconnected
        }
    })?;

    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

/// Read one CRLF- (or LF-) terminated line into `line`, charging the header
/// byte budget. The read itself is capped at one byte past what is left of
/// the budget, so a peer that never sends a newline is cut off there instead
/// of growing `line` for as long as it keeps sending.
fn read_line(
    reader: &mut BufReader<&mut TcpStream>,
    line: &mut String,
    budget_used: &mut usize,
) -> Result<(), ParseError> {
    line.clear();
    let left = (MAX_HEADER_BYTES - *budget_used) as u64;
    let n = reader
        .by_ref()
        .take(left + 1)
        .read_line(line)
        .map_err(|e| classify_io(&e))?;
    if n == 0 {
        return Err(ParseError::Disconnected);
    }
    *budget_used += n;
    if *budget_used > MAX_HEADER_BYTES {
        return Err(ParseError::TooLarge);
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(())
}

/// One response to be written.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
    /// Extra headers (e.g. `Retry-After`), already formatted as `Name: value`.
    pub extra_headers: Vec<String>,
}

impl Response {
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            extra_headers: Vec::new(),
        }
    }

    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
            extra_headers: Vec::new(),
        }
    }

    /// The structured error envelope every non-2xx response carries:
    /// `{"error": {"code": "...", "message": "..."}}`.
    pub fn error(status: u16, code: &str, message: &str) -> Self {
        Response::json(status, render_error(code, message, None, None))
    }

    /// An error envelope with a machine-readable back-off hint. The hint is
    /// carried twice: as `retry_after_ms` inside the envelope (milliseconds)
    /// and as a `Retry-After` header (whole seconds, rounded up, per RFC
    /// 9110).
    pub fn error_retry(status: u16, code: &str, message: &str, retry_after_ms: u64) -> Self {
        Response::json(
            status,
            render_error(code, message, Some(retry_after_ms), None),
        )
        .with_header(format!(
            "Retry-After: {}",
            retry_after_ms.div_ceil(1000).max(1)
        ))
    }

    /// An error envelope with a `details` object; `details_json` must be a
    /// pre-rendered JSON value.
    pub fn error_detailed(status: u16, code: &str, message: &str, details_json: &str) -> Self {
        Response::json(
            status,
            render_error(code, message, None, Some(details_json)),
        )
    }

    pub fn with_header(mut self, header: impl Into<String>) -> Self {
        self.extra_headers.push(header.into());
        self
    }
}

/// Render the shared error envelope. Kept as a free function so both the
/// `Response` constructors and tests agree on the exact byte layout.
fn render_error(
    code: &str,
    message: &str,
    retry_after_ms: Option<u64>,
    details_json: Option<&str>,
) -> String {
    let mut body = String::from("{\"error\": {\"code\": ");
    crate::json::write_str(&mut body, code);
    body.push_str(", \"message\": ");
    crate::json::write_str(&mut body, message);
    if let Some(ms) = retry_after_ms {
        body.push_str(", \"retry_after_ms\": ");
        body.push_str(&ms.to_string());
    }
    if let Some(details) = details_json {
        body.push_str(", \"details\": ");
        body.push_str(details);
    }
    body.push_str("}}\n");
    body
}

/// Splice the request's wire trace id into an already-rendered error
/// envelope so every error names the retained trace that explains it. The
/// id lands inside `details` — appended to an existing `details` object or
/// as a fresh one. Non-envelope bodies (2xx, plain text) pass through
/// untouched.
pub fn embed_trace_id(response: &mut Response, trace_hex: &str) {
    if response.content_type != "application/json" {
        return;
    }
    let Ok(body) = std::str::from_utf8(&response.body) else {
        return;
    };
    if !body.starts_with("{\"error\": {") {
        return;
    }
    let Some(prefix) = body.strip_suffix("}}\n") else {
        return;
    };
    let mut out = String::with_capacity(body.len() + 48);
    if let Some(details_prefix) = prefix.strip_suffix('}') {
        if prefix.contains(", \"details\": {") {
            // `..., "details": {...}` — drop its closing brace and extend it.
            out.push_str(details_prefix);
            if !details_prefix.ends_with('{') {
                out.push_str(", ");
            }
        } else {
            // details is a non-object (pre-rendered string/array): leave it
            // alone and nest the id in a sibling-free wrapper instead.
            out.push_str(prefix);
            out.push_str(", \"details\": {");
        }
    } else {
        out.push_str(prefix);
        out.push_str(", \"details\": {");
    }
    out.push_str("\"trace_id\": \"");
    out.push_str(trace_hex);
    out.push_str("\"}}}\n");
    response.body = out.into_bytes();
}

pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Write the response; errors are ignored by callers (the peer may already
/// be gone, which is its problem, not the server's).
pub fn write_response(stream: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        response.status,
        status_reason(response.status),
        response.content_type,
        response.body.len()
    );
    for h in &response.extra_headers {
        head.push_str(h);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(&response.body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Run the parser against raw bytes through a real socket pair.
    fn parse_raw(raw: &[u8]) -> Result<Request, ParseError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(raw).unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        read_request(&mut server_side)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            parse_raw(b"POST /query?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nbody")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/query");
        assert_eq!(req.query, "x=1");
        assert_eq!(req.query_param("x"), Some("1"));
        assert_eq!(req.query_param("y"), None);
        assert_eq!(req.header("host"), Some("h"));
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(matches!(parse_raw(b"\r\n\r\n"), Err(ParseError::Bad(_))));
        assert!(matches!(
            parse_raw(b"GET / SPDY/9\r\n\r\n"),
            Err(ParseError::Bad(_))
        ));
        assert!(matches!(
            parse_raw(b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n"),
            Err(ParseError::Bad(_))
        ));
        assert!(matches!(
            parse_raw(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(ParseError::Bad(_))
        ));
        assert!(matches!(parse_raw(b""), Err(ParseError::Disconnected)));
        // Non-UTF-8 header bytes are malformed input, not a disconnect.
        assert!(matches!(
            parse_raw(b"GET / HTTP/1.1\r\nX-Bad: \xff\xfe\r\n\r\n"),
            Err(ParseError::Bad(_))
        ));
        // Declared body never arrives.
        assert!(matches!(
            parse_raw(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nhi"),
            Err(ParseError::Disconnected)
        ));
    }

    #[test]
    fn oversized_declarations_are_refused_up_front() {
        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse_raw(huge.as_bytes()),
            Err(ParseError::TooLarge)
        ));
        let mut many_headers = String::from("GET / HTTP/1.1\r\n");
        for i in 0..2000 {
            many_headers.push_str(&format!("X-Pad-{i}: {}\r\n", "y".repeat(64)));
        }
        many_headers.push_str("\r\n");
        assert!(matches!(
            parse_raw(many_headers.as_bytes()),
            Err(ParseError::TooLarge)
        ));
    }

    #[test]
    fn a_line_that_never_ends_is_cut_at_the_header_budget() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        server_side
            .set_read_timeout(Some(std::time::Duration::from_millis(200)))
            .unwrap();
        // The peer streams bytes with no newline and leaves the socket open;
        // the handle comes back so it outlives the parse.
        let peer = std::thread::spawn(move || {
            let _ = client.write_all(&[b'A'; 64 * 1024]);
            client
        });
        let parsed = read_request(&mut server_side);
        assert!(
            matches!(parsed, Err(ParseError::TooLarge)),
            "buffered past the cap: {parsed:?}"
        );
        drop(server_side);
        drop(peer.join());
    }

    #[test]
    fn responses_carry_length_and_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        let resp = Response::error_retry(429, "overloaded", "server overloaded", 1500);
        write_response(&mut server_side, &resp).unwrap();
        drop(server_side);
        let mut text = String::new();
        let mut client = client;
        client.read_to_string(&mut text).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("Connection: close\r\n"));
        assert!(
            text.contains("Retry-After: 2\r\n"),
            "1500ms rounds up: {text}"
        );
        assert!(text.ends_with(
            "{\"error\": {\"code\": \"overloaded\", \"message\": \
             \"server overloaded\", \"retry_after_ms\": 1500}}\n"
        ));
    }

    #[test]
    fn error_envelopes_cover_plain_and_detailed_forms() {
        let plain = Response::error(404, "not_found", "no such path");
        assert_eq!(
            String::from_utf8(plain.body).unwrap(),
            "{\"error\": {\"code\": \"not_found\", \"message\": \"no such path\"}}\n"
        );
        let detailed = Response::error_detailed(400, "bad_request", "x", "{\"field\": \"q\"}");
        assert_eq!(
            String::from_utf8(detailed.body).unwrap(),
            "{\"error\": {\"code\": \"bad_request\", \"message\": \"x\", \
             \"details\": {\"field\": \"q\"}}}\n"
        );
    }

    #[test]
    fn trace_id_splices_into_every_envelope_shape() {
        let hex = "00000000000000000000000000000abc";

        let mut plain = Response::error(404, "not_found", "no such path");
        embed_trace_id(&mut plain, hex);
        assert_eq!(
            String::from_utf8(plain.body).unwrap(),
            format!(
                "{{\"error\": {{\"code\": \"not_found\", \"message\": \"no such path\", \
                 \"details\": {{\"trace_id\": \"{hex}\"}}}}}}\n"
            )
        );

        let mut retry = Response::error_retry(429, "overloaded", "busy", 1500);
        embed_trace_id(&mut retry, hex);
        assert_eq!(
            String::from_utf8(retry.body).unwrap(),
            format!(
                "{{\"error\": {{\"code\": \"overloaded\", \"message\": \"busy\", \
                 \"retry_after_ms\": 1500, \"details\": {{\"trace_id\": \"{hex}\"}}}}}}\n"
            )
        );

        let mut detailed = Response::error_detailed(400, "bad", "x", "{\"field\": \"q\"}");
        embed_trace_id(&mut detailed, hex);
        assert_eq!(
            String::from_utf8(detailed.body).unwrap(),
            format!(
                "{{\"error\": {{\"code\": \"bad\", \"message\": \"x\", \
                 \"details\": {{\"field\": \"q\", \"trace_id\": \"{hex}\"}}}}}}\n"
            )
        );

        // Non-envelope bodies pass through untouched.
        let mut ok = Response::json(200, "{\"answer\": 1}\n".to_owned());
        let before = ok.body.clone();
        embed_trace_id(&mut ok, hex);
        assert_eq!(ok.body, before);
        let mut text = Response::text(200, "ok\n");
        embed_trace_id(&mut text, hex);
        assert_eq!(text.body, b"ok\n");
    }
}
