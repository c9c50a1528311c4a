//! Minimal, dependency-free HTTP/1.1 framing for the diff server.
//!
//! Only the subset the server needs is implemented — request-line + header
//! parsing, `Content-Length` bodies, percent-decoding of paths and query
//! strings, and response rendering — with hard limits so a hostile or
//! broken client can never make the server allocate without bound:
//!
//! * the request line and headers together may not exceed
//!   [`MAX_HEAD_BYTES`] (16 KiB),
//! * bodies are capped by the server's configured maximum (see
//!   [`crate::serve::ServeConfig::max_body_bytes`]); larger `Content-Length`
//!   values are rejected with `413 Payload Too Large` before the body has
//!   arrived,
//! * `Transfer-Encoding: chunked` is not supported and is rejected with
//!   `501 Not Implemented`,
//! * a `Content-Length` that is not all digits, or that repeats with a
//!   different value, is a `400`: the body's end would be ambiguous.
//!
//! Parsing is **incremental**: [`parse_request`] looks at whatever bytes the
//! serving worker has buffered so far and either returns a complete request
//! (with the number of bytes it consumed, so pipelined bytes behind it stay
//! in the buffer), asks for more ([`ParseOutcome::Incomplete`]), or fails
//! with a status code.  Nothing in this module blocks or touches a socket,
//! which is what lets a worker park a partial request and serve other
//! connections meanwhile.
//!
//! Every parse failure maps to a status code and a message; nothing in this
//! module panics on malformed input.

/// Upper bound on the request line plus all header lines, in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), uppercase as sent.
    pub method: String,
    /// The undecoded path component of the request target (no query string).
    pub raw_path: String,
    /// Percent-decoded path segments (`/specs/my%20spec/runs` →
    /// `["specs", "my spec", "runs"]`).
    pub segments: Vec<String>,
    /// Percent-decoded query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: String,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl Request {
    /// The first value of a query parameter, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// A malformed request: respond with `status` and close the connection
/// (framing is unreliable after a parse failure).
#[derive(Debug)]
pub struct ParseError {
    /// HTTP status to answer with.
    pub status: u16,
    /// Human-readable description of the defect.
    pub message: String,
}

fn bad(status: u16, message: impl Into<String>) -> ParseError {
    ParseError { status, message: message.into() }
}

/// What [`parse_request`] found in the buffer.
#[derive(Debug)]
pub enum ParseOutcome {
    /// The buffer does not yet hold a complete request; read more bytes.
    Incomplete,
    /// One complete request, and how many buffer bytes it occupied (the
    /// caller drains exactly that many — pipelined bytes behind it remain).
    Complete {
        /// The parsed request.
        request: Request,
        /// Bytes of the buffer this request consumed (head + body).
        consumed: usize,
    },
}

/// Parses one request from the front of `buf` without consuming it.
///
/// The head limit is enforced on whatever has arrived: a newline-free flood
/// is rejected with `431` as soon as [`MAX_HEAD_BYTES`] are buffered, and an
/// oversized `Content-Length` with `413` as soon as the head completes —
/// neither waits for the client to finish sending.
pub fn parse_request(buf: &[u8], max_body_bytes: usize) -> Result<ParseOutcome, ParseError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(bad(431, format!("request head exceeds {MAX_HEAD_BYTES} bytes")));
        }
        return Ok(ParseOutcome::Incomplete);
    };
    if head_end > MAX_HEAD_BYTES {
        return Err(bad(431, format!("request head exceeds {MAX_HEAD_BYTES} bytes")));
    }
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| bad(400, "request head is not valid UTF-8"))?;
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));

    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().ok_or_else(|| bad(400, "request line has no target"))?;
    let version = parts.next().ok_or_else(|| bad(400, "request line has no HTTP version"))?;
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(bad(400, format!("malformed method {method:?}")));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(bad(505, format!("unsupported protocol version {version:?}")));
    }

    // Headers: only the few the server acts on are interpreted.
    let mut content_length: Option<usize> = None;
    let mut connection = String::new();
    let mut chunked = false;
    for line in lines {
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad(400, format!("malformed header line {line:?}")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                // `1*DIGIT` only (RFC 9110 §8.6); `usize` parsing alone takes `+5`.
                let n = value
                    .parse::<usize>()
                    .ok()
                    .filter(|_| value.bytes().all(|b| b.is_ascii_digit()))
                    .ok_or_else(|| bad(400, format!("unparsable Content-Length {value:?}")))?;
                // Differing values leave the body's end undecidable (RFC 9112 §6.3).
                if content_length.is_some_and(|prev| prev != n) {
                    return Err(bad(400, "conflicting Content-Length headers"));
                }
                content_length = Some(n);
            }
            "connection" => connection = value.to_ascii_lowercase(),
            "transfer-encoding" => chunked = true,
            _ => {}
        }
    }
    if chunked {
        return Err(bad(501, "Transfer-Encoding is not supported; send Content-Length"));
    }

    // Body, bounded before it has arrived.
    let body_len = content_length.unwrap_or(0);
    if body_len > max_body_bytes {
        return Err(bad(
            413,
            format!("body of {body_len} bytes exceeds the limit of {max_body_bytes} bytes"),
        ));
    }
    if buf.len() < head_end + body_len {
        return Ok(ParseOutcome::Incomplete);
    }
    let body = if body_len == 0 {
        String::new()
    } else {
        String::from_utf8(buf[head_end..head_end + body_len].to_vec())
            .map_err(|_| bad(400, "request body is not valid UTF-8"))?
    };

    // Split the target into path and query, decoding both.
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q),
        None => (target.to_string(), ""),
    };
    let segments = raw_path
        .split('/')
        .filter(|s| !s.is_empty())
        .map(|s| percent_decode(s, false))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| bad(400, format!("malformed path escape: {e}")))?;
    let query =
        parse_query(raw_query).map_err(|e| bad(400, format!("malformed query string: {e}")))?;

    let keep_alive = match version {
        "HTTP/1.0" => connection == "keep-alive",
        _ => connection != "close",
    };
    let request = Request { method, raw_path, segments, query, body, keep_alive };
    Ok(ParseOutcome::Complete { request, consumed: head_end + body_len })
}

/// The index one past the blank line that terminates the request head, if a
/// complete head is buffered.  Both CRLF and bare-LF line endings are
/// tolerated, matching the line-based parser.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut start = 0;
    while start < buf.len() {
        let pos = buf[start..].iter().position(|&b| b == b'\n')?;
        let line = &buf[start..start + pos];
        let line = if line.last() == Some(&b'\r') { &line[..line.len() - 1] } else { line };
        if line.is_empty() {
            return Some(start + pos + 1);
        }
        start += pos + 1;
    }
    None
}

/// Decodes `%XX` escapes (and, inside query strings, `+` as space).
fn percent_decode(s: &str, plus_is_space: bool) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .ok_or_else(|| format!("truncated %-escape in {s:?}"))?;
                let hex = std::str::from_utf8(hex).map_err(|_| "non-ASCII %-escape".to_string())?;
                let byte = u8::from_str_radix(hex, 16)
                    .map_err(|_| format!("invalid %-escape %{hex} in {s:?}"))?;
                out.push(byte);
                i += 3;
            }
            b'+' if plus_is_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| format!("%-escapes in {s:?} decode to invalid UTF-8"))
}

/// Parses `a=1&b=two%20words` into decoded key/value pairs.
fn parse_query(raw: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    for piece in raw.split('&') {
        if piece.is_empty() {
            continue;
        }
        let (k, v) = piece.split_once('=').unwrap_or((piece, ""));
        out.push((percent_decode(k, true)?, percent_decode(v, true)?));
    }
    Ok(out)
}

/// The standard reason phrase for the status codes the server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Renders a full response (status line, headers, body) as bytes for the
/// readiness loop to queue on a connection's write buffer.
pub fn render_response(status: u16, content_type: &str, body: &str, keep_alive: bool) -> Vec<u8> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\
         Connection: {}\r\n\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" }
    );
    let mut out = Vec::with_capacity(head.len() + body.len());
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(body.as_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(buf: &[u8]) -> (Request, usize) {
        match parse_request(buf, 1024).unwrap() {
            ParseOutcome::Complete { request, consumed } => (request, consumed),
            ParseOutcome::Incomplete => panic!("expected a complete request"),
        }
    }

    #[test]
    fn requests_parse_incrementally() {
        let full = b"GET /diff?spec=fig2&a=r1&b=r2 HTTP/1.1\r\nHost: x\r\n\r\n";
        // Every proper prefix is incomplete; the full buffer parses.
        for cut in 0..full.len() {
            assert!(
                matches!(parse_request(&full[..cut], 1024).unwrap(), ParseOutcome::Incomplete),
                "prefix of {cut} bytes should be incomplete"
            );
        }
        let (req, consumed) = complete(full);
        assert_eq!(consumed, full.len());
        assert_eq!(req.method, "GET");
        assert_eq!(req.segments, vec!["diff"]);
        assert_eq!(req.query_param("spec"), Some("fig2"));
        assert!(req.keep_alive);
    }

    #[test]
    fn pipelined_requests_consume_only_their_own_bytes() {
        let one = b"GET /healthz HTTP/1.1\r\n\r\n";
        let mut buf = Vec::new();
        buf.extend_from_slice(one);
        buf.extend_from_slice(b"GET /specs HTTP/1.1\r\n\r\n");
        let (req, consumed) = complete(&buf);
        assert_eq!(req.segments, vec!["healthz"]);
        assert_eq!(consumed, one.len());
        let (req2, _) = complete(&buf[consumed..]);
        assert_eq!(req2.segments, vec!["specs"]);
    }

    #[test]
    fn bodies_wait_for_content_length_and_are_bounded() {
        let head = b"POST /runs HTTP/1.1\r\nContent-Length: 5\r\n\r\n";
        let mut buf = head.to_vec();
        buf.extend_from_slice(b"he");
        assert!(matches!(parse_request(&buf, 1024).unwrap(), ParseOutcome::Incomplete));
        buf.extend_from_slice(b"llo");
        let (req, consumed) = complete(&buf);
        assert_eq!(req.body, "hello");
        assert_eq!(consumed, buf.len());
        // Oversized Content-Length fails before the body arrives.
        let huge = b"POST /runs HTTP/1.1\r\nContent-Length: 9999\r\n\r\n";
        let err = parse_request(huge, 1024).unwrap_err();
        assert_eq!(err.status, 413);
        // A repeated, equal Content-Length is unambiguous.
        let twice = b"POST /runs HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello";
        let (req, consumed) = complete(twice);
        assert_eq!((req.body.as_str(), consumed), ("hello", twice.len()));
    }

    #[test]
    fn malformed_requests_map_to_statuses() {
        assert_eq!(parse_request(b"BROKEN\r\n\r\n", 1024).unwrap_err().status, 400);
        assert_eq!(parse_request(b"GET / HTTP/0.9\r\n\r\n", 1024).unwrap_err().status, 505);
        assert_eq!(parse_request(b"get / HTTP/1.1\r\n\r\n", 1024).unwrap_err().status, 400);
        let chunked = b"POST /runs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        assert_eq!(parse_request(chunked, 1024).unwrap_err().status, 501);
        // Two differing lengths, or a signed one, leave the framing ambiguous.
        let conflict =
            b"POST /runs HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 0\r\n\r\nhello";
        assert_eq!(parse_request(conflict, 1024).unwrap_err().status, 400);
        let signed = b"POST /runs HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello";
        assert_eq!(parse_request(signed, 1024).unwrap_err().status, 400);
        let flood = vec![b'a'; MAX_HEAD_BYTES];
        assert_eq!(parse_request(&flood, 1024).unwrap_err().status, 431);
        let under = vec![b'a'; MAX_HEAD_BYTES - 1];
        assert!(matches!(parse_request(&under, 1024).unwrap(), ParseOutcome::Incomplete));
    }

    #[test]
    fn bare_lf_heads_and_http10_close_semantics() {
        let (req, _) = complete(b"GET /healthz HTTP/1.0\nConnection: keep-alive\n\n");
        assert_eq!(req.segments, vec!["healthz"]);
        assert!(req.keep_alive, "HTTP/1.0 keeps alive only when asked");
        let (req, _) = complete(b"GET /healthz HTTP/1.0\r\n\r\n");
        assert!(!req.keep_alive);
        let (req, _) = complete(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!req.keep_alive);
    }

    #[test]
    fn percent_decoding_covers_escapes_and_plus() {
        assert_eq!(percent_decode("my%20spec", false).unwrap(), "my spec");
        assert_eq!(percent_decode("a+b", true).unwrap(), "a b");
        assert_eq!(percent_decode("a+b", false).unwrap(), "a+b");
        assert_eq!(percent_decode("%E2%9C%93", false).unwrap(), "✓");
        assert!(percent_decode("%zz", false).is_err());
        assert!(percent_decode("%2", false).is_err());
        assert!(percent_decode("%ff", false).is_err(), "lone 0xff is not UTF-8");
    }

    #[test]
    fn query_strings_parse_in_order() {
        let q = parse_query("spec=fig2&a=r1&b=r%202&flag").unwrap();
        assert_eq!(
            q,
            vec![
                ("spec".to_string(), "fig2".to_string()),
                ("a".to_string(), "r1".to_string()),
                ("b".to_string(), "r 2".to_string()),
                ("flag".to_string(), String::new()),
            ]
        );
    }

    #[test]
    fn reason_phrases_cover_the_emitted_statuses() {
        for status in [200, 201, 400, 404, 405, 409, 413, 431, 500, 501, 503, 505] {
            assert_ne!(reason(status), "Unknown", "status {status}");
        }
    }

    #[test]
    fn responses_render_with_content_length_framing() {
        let bytes = render_response(200, "application/json", "{\"ok\":1}", true);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 8\r\n"), "{text}");
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"ok\":1}"), "{text}");
    }
}
