//! A from-scratch, bounded HTTP/1.1 request parser and response writer.
//!
//! The parser carries the same hardening contract PR 4 imposed on the
//! imaging decoders: **any byte sequence returns `Ok` or a typed `Err`,
//! never panics, and never reads past the declared body length.** Every
//! dimension of a request is bounded *before* memory is committed — the
//! request-line length, total header bytes, header count, and the declared
//! `Content-Length` are all checked against [`HttpLimits`], so a hostile
//! peer can neither balloon the buffer (oversize defense) nor trickle an
//! unbounded head (the read deadline upstream handles the slow half of
//! slowloris; the byte caps here handle the large half).
//!
//! The parser is pull-based over an accumulated buffer: callers read bytes
//! into a `Vec<u8>` and call [`parse_request`] until it yields a request
//! and the number of bytes consumed. Leftover bytes after `consumed` are
//! the start of the next pipelined request — bounded pipelining falls out
//! of the buffer cap.

/// Bounds enforced while parsing, before buffer growth is allowed.
#[derive(Clone, Copy, Debug)]
pub struct HttpLimits {
    /// Longest accepted request line (`METHOD SP PATH SP VERSION`), bytes.
    pub max_request_line: usize,
    /// Largest accepted head (request line + headers + terminator), bytes.
    pub max_head_bytes: usize,
    /// Most headers accepted on one request.
    pub max_headers: usize,
    /// Largest accepted `Content-Length`, bytes.
    pub max_body_bytes: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_request_line: 1024,
            max_head_bytes: 8192,
            max_headers: 64,
            max_body_bytes: 1 << 20,
        }
    }
}

impl HttpLimits {
    /// Wire limits derived from the serving layer's single source of truth
    /// ([`harvest_serving::ServingLimits`]): the HTTP body cap *is* the
    /// serving body cap, so the two cannot drift.
    pub fn from_serving(limits: &harvest_serving::ServingLimits) -> Self {
        HttpLimits {
            max_body_bytes: limits.max_body_bytes,
            ..HttpLimits::default()
        }
    }

    /// Largest buffer a connection may accumulate before the parser must
    /// have produced a request: one full head plus one full body.
    pub(crate) fn max_buffered(&self) -> usize {
        self.max_head_bytes + self.max_body_bytes
    }
}

/// Typed parse failure. Every variant maps to a response status so the
/// connection can answer before closing instead of dropping bytes on the
/// floor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// The request line is not `METHOD SP PATH SP HTTP/1.x`.
    BadRequestLine,
    /// The request line exceeds [`HttpLimits::max_request_line`].
    RequestLineTooLong,
    /// The method is none of the ones this server implements.
    UnsupportedMethod,
    /// The version is not HTTP/1.0 or HTTP/1.1.
    BadVersion,
    /// The head exceeds [`HttpLimits::max_head_bytes`] without terminating.
    HeadTooLarge,
    /// More than [`HttpLimits::max_headers`] header lines.
    TooManyHeaders,
    /// A header line is missing its colon or carries an empty name.
    BadHeader,
    /// `Content-Length` is not a decimal number (or appears twice with
    /// disagreeing values).
    BadContentLength,
    /// The declared body exceeds [`HttpLimits::max_body_bytes`].
    BodyTooLarge {
        /// What the request declared.
        declared: u64,
        /// The enforced cap.
        cap: usize,
    },
    /// `Transfer-Encoding` was present: chunked bodies are unsupported
    /// (supporting them would unbound the parser's body accounting).
    UnsupportedTransferEncoding,
}

impl ParseError {
    /// The status line this error answers with before the connection
    /// closes.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            ParseError::BadRequestLine
            | ParseError::BadVersion
            | ParseError::BadHeader
            | ParseError::BadContentLength => (400, "Bad Request"),
            ParseError::RequestLineTooLong => (414, "URI Too Long"),
            ParseError::UnsupportedMethod | ParseError::UnsupportedTransferEncoding => {
                (501, "Not Implemented")
            }
            ParseError::HeadTooLarge | ParseError::TooManyHeaders => {
                (431, "Request Header Fields Too Large")
            }
            ParseError::BodyTooLarge { .. } => (413, "Content Too Large"),
        }
    }
}

impl std::fmt::Display for ParseError {
    // Debug text is enough for log lines; status() is the machine surface.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for ParseError {}

/// The methods this server implements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Read-only endpoints (`/healthz`, `/stats`).
    Get,
    /// Classification submissions (`/classify`).
    Post,
}

/// One parsed request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Request target, as sent (no normalization beyond byte validation).
    pub path: String,
    /// Does the connection persist after this exchange? (HTTP/1.1 default
    /// yes, HTTP/1.0 default no, `Connection:` header overrides.)
    pub keep_alive: bool,
    /// The request body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

/// Outcome of a parse attempt over an accumulated buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum Parsed {
    /// The buffer holds a prefix of a valid request; read more bytes. The
    /// buffer has already been vetted against every byte cap that applies
    /// to what has arrived so far.
    NeedMore,
    /// A complete request, and how many buffer bytes it consumed. Bytes
    /// past `consumed` belong to the next pipelined request and were not
    /// inspected.
    Complete {
        /// The parsed request.
        request: Request,
        /// Bytes of `buf` this request occupied (head + body, exactly).
        consumed: usize,
    },
}

/// Parse one request from the front of `buf`.
///
/// Never panics, never indexes past `buf`, and never treats more than
/// `head + Content-Length` bytes as part of this request.
pub fn parse_request(buf: &[u8], limits: &HttpLimits) -> Result<Parsed, ParseError> {
    // Find the end of the head without scanning past the cap.
    let scan = buf.len().min(limits.max_head_bytes);
    let head_end = find_head_end(&buf[..scan]);
    let Some(head_end) = head_end else {
        // No terminator inside the cap: either wait for more bytes or
        // reject a head that can no longer fit.
        if buf.len() >= limits.max_head_bytes {
            // Oversized request *lines* get the more specific error.
            if !buf[..scan].contains(&b'\r') && scan > limits.max_request_line {
                return Err(ParseError::RequestLineTooLong);
            }
            return Err(ParseError::HeadTooLarge);
        }
        if first_line_len(buf) > limits.max_request_line {
            return Err(ParseError::RequestLineTooLong);
        }
        return Ok(Parsed::NeedMore);
    };
    let head = &buf[..head_end];

    // Request line.
    let line_end = head.iter().position(|&b| b == b'\r').unwrap_or(head.len());
    if line_end > limits.max_request_line {
        return Err(ParseError::RequestLineTooLong);
    }
    let line = &head[..line_end];
    let mut parts = line.split(|&b| b == b' ').filter(|p| !p.is_empty());
    let method = parts.next().ok_or(ParseError::BadRequestLine)?;
    let path = parts.next().ok_or(ParseError::BadRequestLine)?;
    let version = parts.next().ok_or(ParseError::BadRequestLine)?;
    if parts.next().is_some() {
        return Err(ParseError::BadRequestLine);
    }
    let method = match method {
        b"GET" => Method::Get,
        b"POST" => Method::Post,
        m if m.iter().all(|&b| b.is_ascii_uppercase()) && !m.is_empty() => {
            return Err(ParseError::UnsupportedMethod)
        }
        _ => return Err(ParseError::BadRequestLine),
    };
    let http11 = match version {
        b"HTTP/1.1" => true,
        b"HTTP/1.0" => false,
        _ => return Err(ParseError::BadVersion),
    };
    if path.is_empty() || !path.iter().all(|&b| (0x21..=0x7e).contains(&b)) {
        return Err(ParseError::BadRequestLine);
    }
    let path = String::from_utf8_lossy(path).into_owned();

    // Headers.
    let mut content_length: Option<u64> = None;
    let mut keep_alive = http11;
    let mut header_count = 0usize;
    let mut rest = &head[(line_end + 2).min(head.len())..];
    while !rest.is_empty() {
        let eol = rest
            .windows(2)
            .position(|w| w == b"\r\n")
            .unwrap_or(rest.len());
        let line = &rest[..eol];
        rest = &rest[(eol + 2).min(rest.len())..];
        if line.is_empty() {
            continue;
        }
        header_count += 1;
        if header_count > limits.max_headers {
            return Err(ParseError::TooManyHeaders);
        }
        let colon = line
            .iter()
            .position(|&b| b == b':')
            .ok_or(ParseError::BadHeader)?;
        if colon == 0 {
            return Err(ParseError::BadHeader);
        }
        let name = &line[..colon];
        if !name
            .iter()
            .all(|&b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
        {
            return Err(ParseError::BadHeader);
        }
        let value = trim_ascii(&line[colon + 1..]);
        if eq_ignore_case(name, b"content-length") {
            let parsed = parse_decimal(value).ok_or(ParseError::BadContentLength)?;
            match content_length {
                Some(prev) if prev != parsed => return Err(ParseError::BadContentLength),
                _ => content_length = Some(parsed),
            }
        } else if eq_ignore_case(name, b"transfer-encoding") {
            return Err(ParseError::UnsupportedTransferEncoding);
        } else if eq_ignore_case(name, b"connection") {
            if eq_ignore_case(value, b"close") {
                keep_alive = false;
            } else if eq_ignore_case(value, b"keep-alive") {
                keep_alive = true;
            }
        }
    }

    // Body: bounded before any more bytes are awaited.
    let declared = content_length.unwrap_or(0);
    if declared > limits.max_body_bytes as u64 {
        return Err(ParseError::BodyTooLarge {
            declared,
            cap: limits.max_body_bytes,
        });
    }
    let body_len = declared as usize;
    let total = head_end + 4 + body_len;
    if buf.len() < total {
        return Ok(Parsed::NeedMore);
    }
    let body = buf[head_end + 4..total].to_vec();
    Ok(Parsed::Complete {
        request: Request {
            method,
            path,
            keep_alive,
            body,
        },
        consumed: total,
    })
}

/// Offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Length of the first line (or of the whole unterminated buffer).
fn first_line_len(buf: &[u8]) -> usize {
    buf.iter().position(|&b| b == b'\r').unwrap_or(buf.len())
}

fn trim_ascii(bytes: &[u8]) -> &[u8] {
    let start = bytes
        .iter()
        .position(|&b| b != b' ' && b != b'\t')
        .unwrap_or(bytes.len());
    let end = bytes
        .iter()
        .rposition(|&b| b != b' ' && b != b'\t')
        .map_or(start, |p| p + 1);
    &bytes[start..end]
}

fn eq_ignore_case(a: &[u8], b: &[u8]) -> bool {
    a.eq_ignore_ascii_case(b)
}

/// Strict decimal parse with overflow detection; `None` on anything that
/// is not plain ASCII digits.
fn parse_decimal(bytes: &[u8]) -> Option<u64> {
    if bytes.is_empty() || bytes.len() > 19 || !bytes.iter().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let mut v = 0u64;
    for &b in bytes {
        v = v * 10 + (b - b'0') as u64;
    }
    Some(v)
}

/// Serialize a response into `out`: status line, standard headers, body.
/// The writer never produces a response without an explicit
/// `Content-Length`, so clients can always frame it.
pub fn write_response(
    out: &mut Vec<u8>,
    status: u16,
    reason: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) {
    out.extend_from_slice(format!("HTTP/1.1 {status} {reason}\r\n").as_bytes());
    out.extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
    // JSON is the default; an explicit Content-Type in the extras (the
    // `/metrics` text snapshot) takes its place.
    if !extra_headers
        .iter()
        .any(|(n, _)| n.eq_ignore_ascii_case("content-type"))
    {
        out.extend_from_slice(b"Content-Type: application/json\r\n");
    }
    for (name, value) in extra_headers {
        out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    out.extend_from_slice(if keep_alive {
        b"Connection: keep-alive\r\n"
    } else {
        b"Connection: close\r\n"
    });
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
}

/// Parse one response from the front of `buf` (the loadgen's client-side
/// framing): returns `(status, consumed)` when a complete response with
/// its `Content-Length`-framed body has arrived, `Ok(None)` when more
/// bytes are needed, `Err` on malformed bytes. Same never-panic contract
/// as [`parse_request`].
pub fn parse_response(buf: &[u8], limits: &HttpLimits) -> Result<Option<(u16, usize)>, ParseError> {
    let scan = buf.len().min(limits.max_head_bytes);
    let Some(head_end) = find_head_end(&buf[..scan]) else {
        if buf.len() >= limits.max_head_bytes {
            return Err(ParseError::HeadTooLarge);
        }
        return Ok(None);
    };
    let head = &buf[..head_end];
    let line_end = head.iter().position(|&b| b == b'\r').unwrap_or(head.len());
    let line = &head[..line_end];
    // "HTTP/1.1 NNN Reason"
    let mut parts = line.split(|&b| b == b' ');
    let version = parts.next().ok_or(ParseError::BadRequestLine)?;
    if version != b"HTTP/1.1" && version != b"HTTP/1.0" {
        return Err(ParseError::BadVersion);
    }
    let status = parts.next().ok_or(ParseError::BadRequestLine)?;
    if status.len() != 3 {
        return Err(ParseError::BadRequestLine);
    }
    let status = parse_decimal(status).ok_or(ParseError::BadRequestLine)? as u16;
    let mut content_length = 0u64;
    let mut rest = &head[(line_end + 2).min(head.len())..];
    while !rest.is_empty() {
        let eol = rest
            .windows(2)
            .position(|w| w == b"\r\n")
            .unwrap_or(rest.len());
        let line = &rest[..eol];
        rest = &rest[(eol + 2).min(rest.len())..];
        if let Some(colon) = line.iter().position(|&b| b == b':') {
            if eq_ignore_case(&line[..colon], b"content-length") {
                content_length = parse_decimal(trim_ascii(&line[colon + 1..]))
                    .ok_or(ParseError::BadContentLength)?;
            }
        }
    }
    if content_length > limits.max_body_bytes as u64 {
        return Err(ParseError::BodyTooLarge {
            declared: content_length,
            cap: limits.max_body_bytes,
        });
    }
    let total = head_end + 4 + content_length as usize;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((status, total)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits() -> HttpLimits {
        HttpLimits::default()
    }

    fn parse(bytes: &[u8]) -> Result<Parsed, ParseError> {
        parse_request(bytes, &limits())
    }

    #[test]
    fn parses_a_minimal_get() {
        let raw: &[u8] = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
        let out = parse(raw).expect("parse");
        let Parsed::Complete { request, consumed } = out else {
            panic!("expected a complete request, got {out:?}");
        };
        assert_eq!(request.method, Method::Get);
        assert_eq!(request.path, "/healthz");
        assert!(request.keep_alive, "1.1 defaults to keep-alive");
        assert!(request.body.is_empty());
        assert_eq!(consumed, raw.len());
    }

    #[test]
    fn parses_a_post_with_exact_body_and_leaves_the_pipeline_alone() {
        let mut bytes = b"POST /classify HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello".to_vec();
        let tail = b"GET /stats HTTP/1.1\r\n\r\n";
        bytes.extend_from_slice(tail);
        let Parsed::Complete { request, consumed } = parse(&bytes).expect("parse") else {
            panic!("expected complete");
        };
        assert_eq!(request.method, Method::Post);
        assert_eq!(request.body, b"hello");
        assert_eq!(consumed, bytes.len() - tail.len(), "never over-read");
    }

    #[test]
    fn connection_close_and_http10_default() {
        let Parsed::Complete { request, .. } =
            parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").expect("parse")
        else {
            panic!()
        };
        assert!(!request.keep_alive);
        let Parsed::Complete { request, .. } = parse(b"GET / HTTP/1.0\r\n\r\n").expect("parse")
        else {
            panic!()
        };
        assert!(!request.keep_alive, "1.0 defaults to close");
        let Parsed::Complete { request, .. } =
            parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").expect("parse")
        else {
            panic!()
        };
        assert!(request.keep_alive);
    }

    #[test]
    fn incomplete_prefixes_want_more() {
        let full = b"POST /classify HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        for cut in 0..full.len() {
            let out = parse(&full[..cut]).expect("prefix of valid request never errors");
            assert_eq!(out, Parsed::NeedMore, "cut at {cut}");
        }
        assert!(matches!(
            parse(full),
            Ok(Parsed::Complete { consumed, .. }) if consumed == full.len()
        ));
    }

    #[test]
    fn typed_errors_map_to_statuses() {
        let cases: Vec<(&[u8], ParseError, u16)> = vec![
            (b"GARBAGE\r\n\r\n", ParseError::BadRequestLine, 400),
            (
                b"DELETE / HTTP/1.1\r\n\r\n",
                ParseError::UnsupportedMethod,
                501,
            ),
            (b"GET / HTTP/2.0\r\n\r\n", ParseError::BadVersion, 400),
            (
                b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",
                ParseError::BadHeader,
                400,
            ),
            (
                b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
                ParseError::BadContentLength,
                400,
            ),
            (
                b"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\n",
                ParseError::BadContentLength,
                400,
            ),
            (
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                ParseError::UnsupportedTransferEncoding,
                501,
            ),
        ];
        for (bytes, err, status) in cases {
            let got = parse(bytes).expect_err("must reject");
            assert_eq!(got, err, "{:?}", String::from_utf8_lossy(bytes));
            assert_eq!(got.status().0, status);
        }
    }

    #[test]
    fn oversize_bodies_are_rejected_before_arrival() {
        // The declared length alone must trigger the rejection — no body
        // bytes are present yet.
        let head = format!(
            "POST /classify HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            limits().max_body_bytes + 1
        );
        assert_eq!(
            parse(head.as_bytes()),
            Err(ParseError::BodyTooLarge {
                declared: limits().max_body_bytes as u64 + 1,
                cap: limits().max_body_bytes,
            })
        );
        // Absurd lengths neither overflow nor wrap.
        let head = "POST / HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n";
        assert_eq!(parse(head.as_bytes()), Err(ParseError::BadContentLength));
        let head = "POST / HTTP/1.1\r\nContent-Length: 9223372036854775807\r\n\r\n";
        assert!(matches!(
            parse(head.as_bytes()),
            Err(ParseError::BodyTooLarge { .. })
        ));
    }

    #[test]
    fn unterminated_heads_hit_the_caps_not_the_allocator() {
        // A request line that never ends.
        let long_line = vec![b'A'; limits().max_request_line + 1];
        assert_eq!(parse(&long_line), Err(ParseError::RequestLineTooLong));
        // Endless headers.
        let mut head = b"GET / HTTP/1.1\r\n".to_vec();
        while head.len() < limits().max_head_bytes {
            head.extend_from_slice(b"X-Pad: aaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        assert_eq!(parse(&head), Err(ParseError::HeadTooLarge));
        // Too many tiny headers inside the byte cap.
        let mut head = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..=limits().max_headers {
            head.extend_from_slice(format!("H{i}: v\r\n").as_bytes());
        }
        head.extend_from_slice(b"\r\n");
        assert_eq!(parse(&head), Err(ParseError::TooManyHeaders));
    }

    #[test]
    fn response_round_trips_through_the_client_parser() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            200,
            "OK",
            &[("Retry-After", "1")],
            br#"{"ok":true}"#,
            true,
        );
        for cut in 0..out.len() {
            assert_eq!(
                parse_response(&out[..cut], &limits()).expect("prefix"),
                None,
                "cut at {cut}"
            );
        }
        let (status, consumed) = parse_response(&out, &limits())
            .expect("parse")
            .expect("complete");
        assert_eq!(status, 200);
        assert_eq!(consumed, out.len());
    }
}
