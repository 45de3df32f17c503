//! Hand-rolled HTTP/1.1 request parser and response writer.
//!
//! Dependency-free in the spirit of the analysis crate's tokenizer: the
//! workspace is offline-vendored, so there is no tokio/hyper — just a
//! byte-slice state machine over whatever a `TcpStream` has delivered
//! so far. The parser is **incremental**: callers accumulate bytes in a
//! buffer and re-invoke [`parse_request`] until it returns something
//! other than [`Parsed::Partial`]. A read loop calls
//! [`parse_request_resuming`] instead, so the search for the end of the
//! head picks up where the last call left off and a head that arrives a
//! few bytes per read costs time linear in its length.
//!
//! This file is on the serving hot path and is policed by the
//! `no-panic-serving` and `no-locks-on-hot-path` lint rules: no
//! `unwrap`/`expect`, no panicking indexing (all slice access goes
//! through `get`), no locks. Malformed, oversized, or truncated input
//! must come back as [`Parsed::Invalid`] or [`Parsed::Partial`] —
//! never a panic (the proptest suite in `tests/http_parser.rs` drives
//! arbitrary bytes through here to enforce exactly that).

use std::fmt;

/// Request-line cap (method + target + version + CRLF).
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Maximum number of header lines accepted.
pub const MAX_HEADER_COUNT: usize = 64;
/// Cap on the whole head (request line + headers + terminator).
pub const MAX_HEAD_BYTES: usize = 24 * 1024;
/// Cap on a declared `Content-Length` body.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// Why a request was rejected as unparseable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// Head exceeded [`MAX_HEAD_BYTES`] without a `\r\n\r\n` terminator.
    HeadTooLarge,
    /// Request line exceeded [`MAX_REQUEST_LINE`].
    RequestLineTooLong,
    /// Head bytes were not valid UTF-8.
    HeadNotUtf8,
    /// Request line did not split into `METHOD TARGET VERSION`.
    BadRequestLine,
    /// Method token was empty or not ASCII-uppercase.
    BadMethod,
    /// Target did not start with `/`.
    BadTarget,
    /// Version was neither `HTTP/1.1` nor `HTTP/1.0`.
    BadVersion,
    /// More than [`MAX_HEADER_COUNT`] header lines.
    TooManyHeaders,
    /// A header line had no `:` separator or an empty/spaced name.
    BadHeader,
    /// `Content-Length` was not a base-10 integer.
    BadContentLength,
    /// Declared body larger than [`MAX_BODY_BYTES`].
    BodyTooLarge,
    /// `Transfer-Encoding` present — chunked bodies are unsupported.
    UnsupportedTransferEncoding,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            Self::HeadTooLarge => "request head too large",
            Self::RequestLineTooLong => "request line too long",
            Self::HeadNotUtf8 => "request head is not valid UTF-8",
            Self::BadRequestLine => "malformed request line",
            Self::BadMethod => "malformed method token",
            Self::BadTarget => "request target must start with '/'",
            Self::BadVersion => "unsupported HTTP version",
            Self::TooManyHeaders => "too many header lines",
            Self::BadHeader => "malformed header line",
            Self::BadContentLength => "malformed Content-Length",
            Self::BodyTooLarge => "declared body too large",
            Self::UnsupportedTransferEncoding => "transfer encodings are not supported",
        };
        f.write_str(text)
    }
}

/// A fully parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method token, as sent (`GET`, `POST`, …).
    pub method: String,
    /// Request target (path + optional query string), as sent.
    pub target: String,
    /// Header pairs; names lowercased, values whitespace-trimmed.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (`Content-Length`-delimited; empty when absent).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 default, overridable with a `Connection` header).
    pub keep_alive: bool,
}

impl Request {
    /// First header value with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Outcome of one incremental parse attempt.
#[derive(Debug)]
pub enum Parsed {
    /// A complete request plus the number of buffer bytes it consumed
    /// (pipelined followers start at that offset).
    Complete(Request, usize),
    /// Not enough bytes yet — read more and retry.
    Partial,
    /// The bytes can never become a valid request.
    Invalid(ParseError),
}

/// Parse the longest complete request at the start of `buf`.
pub fn parse_request(buf: &[u8]) -> Parsed {
    parse_request_resuming(buf, &mut 0)
}

/// [`parse_request`] for a buffer that only grew since the last call:
/// `scanned` holds how many bytes earlier calls searched for the end of
/// the head (0 for a fresh buffer), and the search resumes 3 bytes
/// before it, where a terminator split by a read could begin. The
/// caller resets it to 0 when it drains a complete request.
pub fn parse_request_resuming(buf: &[u8], scanned: &mut usize) -> Parsed {
    let head_end = match find_head_end(buf, scanned) {
        Some(pos) => pos,
        None => {
            if buf.len() > MAX_HEAD_BYTES && !terminator_may_start_by_cap(buf) {
                return Parsed::Invalid(ParseError::HeadTooLarge);
            }
            return Parsed::Partial;
        }
    };
    if head_end > MAX_HEAD_BYTES {
        return Parsed::Invalid(ParseError::HeadTooLarge);
    }
    let head_bytes = buf.get(..head_end).unwrap_or_default();
    let head = match std::str::from_utf8(head_bytes) {
        Ok(text) => text,
        Err(_) => return Parsed::Invalid(ParseError::HeadNotUtf8),
    };

    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    if request_line.len() > MAX_REQUEST_LINE {
        return Parsed::Invalid(ParseError::RequestLineTooLong);
    }
    let (method, target, http11) = match parse_request_line(request_line) {
        Ok(parts) => parts,
        Err(err) => return Parsed::Invalid(err),
    };

    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if headers.len() >= MAX_HEADER_COUNT {
            return Parsed::Invalid(ParseError::TooManyHeaders);
        }
        let (name, value) = match line.split_once(':') {
            Some(pair) => pair,
            None => return Parsed::Invalid(ParseError::BadHeader),
        };
        if name.is_empty() || name.contains(' ') || name.contains('\t') {
            return Parsed::Invalid(ParseError::BadHeader);
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    if header_value(&headers, "transfer-encoding").is_some() {
        return Parsed::Invalid(ParseError::UnsupportedTransferEncoding);
    }
    let content_length = match header_value(&headers, "content-length") {
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return Parsed::Invalid(ParseError::BadContentLength),
        },
        None => 0,
    };
    if content_length > MAX_BODY_BYTES {
        return Parsed::Invalid(ParseError::BodyTooLarge);
    }

    let body_start = head_end.saturating_add(4);
    let total = body_start.saturating_add(content_length);
    if buf.len() < total {
        return Parsed::Partial;
    }
    let body = buf.get(body_start..total).unwrap_or_default().to_vec();

    let keep_alive = match header_value(&headers, "connection") {
        Some(v) if v.eq_ignore_ascii_case("close") => false,
        Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
        _ => http11,
    };

    Parsed::Complete(
        Request {
            method: method.to_string(),
            target: target.to_string(),
            headers,
            body,
            keep_alive,
        },
        total,
    )
}

/// Byte offset of the `\r\n\r\n` head terminator, if present,
/// searching from 3 bytes before `*scanned` and recording in it how far
/// this search got.
fn find_head_end(buf: &[u8], scanned: &mut usize) -> Option<usize> {
    // Only scan up to the cap (+3 so a terminator straddling the cap
    // still resolves to HeadTooLarge rather than Partial forever).
    let end = buf.len().min(MAX_HEAD_BYTES + 4);
    let from = scanned.saturating_sub(3).min(end);
    let found = buf
        .get(from..end)
        .and_then(|scan| scan.windows(4).position(|w| w == b"\r\n\r\n"))
        .map(|at| from + at);
    *scanned = found.unwrap_or(end);
    found
}

/// Whether a terminator-less `buf` longer than the cap ends in the
/// first bytes of a `\r\n\r\n` that starts at or before the cap: a
/// read that split the terminator of an at-cap head.
fn terminator_may_start_by_cap(buf: &[u8]) -> bool {
    (buf.len().saturating_sub(3)..=MAX_HEAD_BYTES).any(|start| {
        buf.get(start..)
            .is_some_and(|tail| b"\r\n\r\n".starts_with(tail))
    })
}

/// Split `METHOD TARGET VERSION` and validate each token.
fn parse_request_line(line: &str) -> Result<(&str, &str, bool), ParseError> {
    let mut parts = line.split(' ');
    let method = parts.next().unwrap_or_default();
    let target = parts.next().unwrap_or_default();
    let version = parts.next().unwrap_or_default();
    if parts.next().is_some() || method.is_empty() || target.is_empty() || version.is_empty() {
        return Err(ParseError::BadRequestLine);
    }
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(ParseError::BadMethod);
    }
    if !target.starts_with('/') {
        return Err(ParseError::BadTarget);
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(ParseError::BadVersion),
    };
    Ok((method, target, http11))
}

fn header_value<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// An outgoing response: status + JSON body, serialized by
/// [`Response::to_bytes`] with explicit framing headers.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes (always `application/json` in this server).
    pub body: Vec<u8>,
    /// Optional `Retry-After` seconds (load-shed responses).
    pub retry_after: Option<u64>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            body: body.into_bytes(),
            retry_after: None,
        }
    }

    /// A `{"error": …}` JSON response (message is JSON-escaped).
    pub fn json_error(status: u16, message: &str) -> Self {
        let doc = serde::Value::Map(vec![(
            "error".to_string(),
            serde::Value::Str(message.to_string()),
        )]);
        Self::json(status, serde_json::to_string(&doc).unwrap_or_default())
    }

    /// Attach a `Retry-After` header (seconds).
    pub fn with_retry_after(mut self, seconds: u64) -> Self {
        self.retry_after = Some(seconds);
        self
    }

    /// Canonical reason phrase for the status codes this server emits.
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            422 => "Unprocessable Entity",
            429 => "Too Many Requests",
            503 => "Service Unavailable",
            _ => "Internal Server Error",
        }
    }

    /// Serialize status line + headers + body into wire bytes.
    pub fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let mut head = String::with_capacity(128);
        head.push_str("HTTP/1.1 ");
        head.push_str(&self.status.to_string());
        head.push(' ');
        head.push_str(Self::reason(self.status));
        head.push_str("\r\ncontent-type: application/json\r\ncontent-length: ");
        head.push_str(&self.body.len().to_string());
        if let Some(seconds) = self.retry_after {
            head.push_str("\r\nretry-after: ");
            head.push_str(&seconds.to_string());
        }
        head.push_str("\r\nconnection: ");
        head.push_str(if keep_alive { "keep-alive" } else { "close" });
        head.push_str("\r\n\r\n");
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(&self.body);
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(buf: &[u8]) -> (Request, usize) {
        match parse_request(buf) {
            Parsed::Complete(req, used) => (req, used),
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    #[test]
    fn parses_a_minimal_get() {
        let (req, used) = complete(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n");
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/healthz");
        assert!(req.keep_alive);
        assert!(req.body.is_empty());
        assert_eq!(used, b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n".len());
    }

    #[test]
    fn parses_a_post_with_body_and_reports_consumed_bytes() {
        let raw = b"POST /v1/search HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let (req, used) = complete(raw);
        assert_eq!(req.body, b"hello");
        assert_eq!(used, raw.len());
        // Header names come back lowercased.
        assert_eq!(req.header("content-length"), Some("5"));
    }

    #[test]
    fn keep_alive_follows_version_and_connection_header() {
        let (req, _) = complete(b"GET / HTTP/1.0\r\n\r\n");
        assert!(!req.keep_alive);
        let (req, _) = complete(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(req.keep_alive);
        let (req, _) = complete(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!req.keep_alive);
    }

    #[test]
    fn partial_until_body_arrives() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\nab";
        assert!(matches!(parse_request(raw), Parsed::Partial));
    }

    #[test]
    fn rejects_bad_inputs_cleanly() {
        let cases: &[(&[u8], ParseError)] = &[
            (b"GET\r\n\r\n", ParseError::BadRequestLine),
            (b"get / HTTP/1.1\r\n\r\n", ParseError::BadMethod),
            (b"GET x HTTP/1.1\r\n\r\n", ParseError::BadTarget),
            (b"GET / HTTP/2\r\n\r\n", ParseError::BadVersion),
            (b"GET / HTTP/1.1\r\nnocolon\r\n\r\n", ParseError::BadHeader),
            (
                b"GET / HTTP/1.1\r\ncontent-length: x\r\n\r\n",
                ParseError::BadContentLength,
            ),
            (
                b"GET / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
                ParseError::UnsupportedTransferEncoding,
            ),
        ];
        for (raw, want) in cases {
            match parse_request(raw) {
                Parsed::Invalid(err) => assert_eq!(err, *want, "input {raw:?}"),
                other => panic!("expected Invalid({want:?}), got {other:?}"),
            }
        }
    }

    #[test]
    fn declared_oversized_body_is_rejected() {
        let raw = format!(
            "POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse_request(raw.as_bytes()),
            Parsed::Invalid(ParseError::BodyTooLarge)
        ));
    }

    #[test]
    fn response_bytes_carry_framing_headers() {
        let resp = Response::json(200, "{}".to_string());
        let bytes = resp.to_bytes(true);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let shed = Response::json_error(429, "busy").with_retry_after(1);
        let text = String::from_utf8(shed.to_bytes(false)).unwrap();
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.contains("connection: close\r\n"));
    }
}
