//! Minimal HTTP/1.1 framing: just enough of the wire protocol for the
//! daemon's GET-only API, hand-rolled over [`std::net::TcpStream`] so the
//! build stays registry-offline.
//!
//! Requests are read with a hard size cap and a socket read timeout, parsed
//! into a `Request` (method, path, split query pairs, keep-alive); a head
//! that cannot be served is a typed `HeadError`, never a panic. Since the
//! store tier arrived the daemon speaks **persistent connections**: a
//! client may send many requests on one socket (and may pipeline them —
//! `read_request_from` keeps the bytes it over-read past one head in a
//! carry buffer and starts the next head there), and responses are
//! `Content-Length`-framed with an explicit `Connection: keep-alive` or
//! `close` header, so either side can end the conversation cleanly. The
//! API is GET-only, so requests never carry bodies and the next head always
//! starts right after the previous one.
//!
//! Query strings are split on `&`/`=` without percent-decoding: every value
//! the API accepts (artifact names, seeds, scales) is plain ASCII, and
//! anything else fails validation with a 400 downstream.

use std::fmt;
use std::io::{Read, Write};
use std::net::TcpStream;

/// Longest request head (request line + headers, blank line included) the
/// server will read. Anything larger is malformed by this API's standards
/// and gets a 400.
pub(crate) const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Why a request head could not be read. `Display` gives the short reason
/// the server puts in its 400 body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum HeadError {
    /// The head is longer than [`MAX_HEAD_BYTES`].
    TooLarge,
    /// The head is not UTF-8.
    NotUtf8,
    /// The peer closed the connection part-way through a head.
    ClosedMidRequest,
    /// The read timed out part-way through a head.
    TimedOutMidRequest,
    /// The request line or a header line does not parse; the message
    /// quotes the offending text.
    Malformed(String),
    /// The socket read failed.
    Read(String),
}

impl fmt::Display for HeadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeadError::TooLarge => f.write_str("request head too large"),
            HeadError::NotUtf8 => f.write_str("request head is not UTF-8"),
            HeadError::ClosedMidRequest => f.write_str("peer closed mid-request"),
            HeadError::TimedOutMidRequest => f.write_str("timed out mid-request"),
            HeadError::Malformed(why) => f.write_str(why),
            HeadError::Read(e) => write!(f, "read failed: {e}"),
        }
    }
}

impl std::error::Error for HeadError {}

/// A parsed request: the parts of the head this API routes on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Request {
    /// The HTTP method verbatim (`GET`, `POST`, …).
    pub method: String,
    /// The path with the query string stripped (`/run/table2`).
    pub path: String,
    /// Query pairs in source order; a key without `=` keeps an empty value.
    pub query: Vec<(String, String)>,
    /// Whether the protocol defaults this request to a persistent
    /// connection (HTTP/1.1 without `Connection: close`; HTTP/1.0 only
    /// with an explicit `keep-alive`).
    pub keep_alive: bool,
}

impl Request {
    /// Looks up a query parameter by key (first occurrence wins).
    pub(crate) fn param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// What one attempt to read a request head produced.
#[derive(Debug)]
pub(crate) enum ReadOutcome {
    /// A complete head was parsed.
    Request(Request),
    /// The peer closed the connection cleanly between requests.
    Closed,
    /// The read timed out with no new bytes — an idle keep-alive
    /// connection, distinct from a peer that went quiet mid-request.
    Idle,
}

/// Reads one request head, starting from (and leaving leftovers in)
/// `carry` — the persistent-connection entry point. Pipelined bytes past
/// this head stay in `carry` for the next call.
///
/// The caller is expected to have set a read timeout on the stream; a
/// timeout mid-head, an oversized head, or a malformed request line all
/// come back as a [`HeadError`] (the server answers 400 and closes), while
/// a clean close or an idle timeout *between* requests are the non-error
/// [`ReadOutcome`]s.
pub(crate) fn read_request_from<R: Read>(
    stream: &mut R,
    carry: &mut Vec<u8>,
) -> Result<ReadOutcome, HeadError> {
    let mut buf = [0u8; 512];
    loop {
        if let Some(request) = take_head(carry)? {
            return Ok(ReadOutcome::Request(request));
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                return if carry.is_empty() {
                    Ok(ReadOutcome::Closed)
                } else {
                    Err(HeadError::ClosedMidRequest)
                };
            }
            Ok(n) => carry.extend_from_slice(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return if carry.is_empty() {
                    Ok(ReadOutcome::Idle)
                } else {
                    Err(HeadError::TimedOutMidRequest)
                };
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(HeadError::Read(e.to_string())),
        }
    }
}

/// Takes one complete head off the front of `carry` and parses it;
/// `Ok(None)` means the head is not complete yet. The size cap holds
/// however the bytes arrived: a head whose blank line lands past
/// [`MAX_HEAD_BYTES`] is refused even when one read delivered all of it.
fn take_head(carry: &mut Vec<u8>) -> Result<Option<Request>, HeadError> {
    // The head is capped at 8 KiB, so rescanning the carry per read is
    // cheap.
    match carry.windows(4).position(|w| w == b"\r\n\r\n") {
        Some(end) if end + 4 > MAX_HEAD_BYTES => Err(HeadError::TooLarge),
        Some(end) => {
            let head: Vec<u8> = carry.drain(..end + 4).collect();
            let head = String::from_utf8(head).map_err(|_| HeadError::NotUtf8)?;
            parse_head(&head).map(Some)
        }
        None if carry.len() > MAX_HEAD_BYTES => Err(HeadError::TooLarge),
        None => Ok(None),
    }
}

/// Parses a full head (request line + header lines) into a [`Request`].
/// Every header line must be `name: value`; only the first `Connection`
/// header is read.
fn parse_head(head: &str) -> Result<Request, HeadError> {
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or_default();
    let (method, target, http11) = parse_request_line(request_line)?;
    let mut connection = None;
    for line in lines {
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HeadError::Malformed(format!(
                "malformed header line {line:?}"
            )));
        };
        if connection.is_none() && name.trim().eq_ignore_ascii_case("connection") {
            connection = Some(value.trim().to_ascii_lowercase());
        }
    }
    let keep_alive = match connection.as_deref() {
        Some("close") => false,
        Some("keep-alive") => true,
        _ => http11,
    };
    let (path, query_str) = target.split_once('?').unwrap_or((target, ""));
    let query = query_str
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect();
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        query,
        keep_alive,
    })
}

/// Parses `METHOD SP target SP HTTP/1.x`, returning whether the version
/// defaults to keep-alive (1.1) or close (1.0).
fn parse_request_line(line: &str) -> Result<(&str, &str, bool), HeadError> {
    let mut parts = line.split(' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HeadError::Malformed(format!(
            "malformed request line {line:?}"
        )));
    };
    if method.is_empty() || target.is_empty() {
        return Err(HeadError::Malformed(format!(
            "malformed request line {line:?}"
        )));
    }
    if !version.starts_with("HTTP/1.") {
        return Err(HeadError::Malformed(format!(
            "unsupported protocol {version:?}"
        )));
    }
    if !target.starts_with('/') {
        return Err(HeadError::Malformed(format!(
            "unsupported request target {target:?}"
        )));
    }
    Ok((method, target, version != "HTTP/1.0"))
}

/// The reason phrase for every status this API emits.
pub(crate) fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes one complete `Content-Length`-framed response. `close` selects
/// the `Connection` header — the server's promise about what it does with
/// the socket next.
pub(crate) fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
    close: bool,
) -> std::io::Result<()> {
    let connection = if close { "close" } else { "keep-alive" };
    // One write for head + body: a split write would let Nagle hold the
    // body segment until the client ACKs the head — a delayed-ACK stall
    // of ~40ms per response under back-to-back keep-alive load.
    let mut response = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        reason(status),
        body.len()
    )
    .into_bytes();
    response.extend_from_slice(body.as_bytes());
    stream.write_all(&response)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn parse(head: &str) -> Result<Request, HeadError> {
        parse_head(head)
    }

    #[test]
    fn request_line_parses_path_and_query() {
        let req = parse("GET /run/table2?seed=7&scale=smoke HTTP/1.1\r\n\r\n").expect("ok");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/run/table2");
        assert_eq!(req.param("seed"), Some("7"));
        assert_eq!(req.param("scale"), Some("smoke"));
        assert_eq!(req.param("missing"), None);
    }

    #[test]
    fn request_line_rejects_garbage() {
        assert!(parse("\r\n\r\n").is_err());
        assert!(parse("BOGUS\r\n\r\n").is_err());
        assert!(parse("GET /healthz\r\n\r\n").is_err());
        assert!(parse("GET /a b HTTP/1.1 extra\r\n\r\n").is_err());
        assert!(parse("GET healthz HTTP/1.1\r\n\r\n").is_err());
        assert!(parse("GET /healthz SPDY/3\r\n\r\n").is_err());
        assert!(parse("GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n").is_err());
    }

    #[test]
    fn valueless_and_empty_query_pairs() {
        let req = parse("GET /x?flag&k=v HTTP/1.1\r\n\r\n").expect("ok");
        assert_eq!(req.query.len(), 2);
        assert_eq!(req.param("flag"), Some(""));
        assert_eq!(req.param("k"), Some("v"));
        let bare = parse("GET /x? HTTP/1.1\r\n\r\n").expect("ok");
        assert!(bare.query.is_empty());
    }

    #[test]
    fn connection_header_is_case_insensitive_trimmed_and_first_wins() {
        let head = "GET / HTTP/1.1\r\nHost: example\r\nCONNECTION:  Close \r\n\r\n";
        assert!(!parse(head).expect("ok").keep_alive);
        let head = "GET / HTTP/1.0\r\nconnection: Keep-Alive\r\nConnection: close\r\n\r\n";
        assert!(parse(head).expect("ok").keep_alive);
    }

    #[test]
    fn keep_alive_follows_version_and_connection_header() {
        assert!(parse("GET / HTTP/1.1\r\n\r\n").expect("ok").keep_alive);
        assert!(!parse("GET / HTTP/1.0\r\n\r\n").expect("ok").keep_alive);
        assert!(
            !parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
                .expect("ok")
                .keep_alive
        );
        assert!(
            parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
                .expect("ok")
                .keep_alive
        );
    }

    /// Lowercase alphanumeric tokens of 1..=max chars.
    fn token(max: usize) -> impl Strategy<Value = String> {
        proptest::collection::vec(0u8..36, 1..=max).prop_map(|chars| {
            chars
                .into_iter()
                .map(|c| {
                    if c < 26 {
                        (b'a' + c) as char
                    } else {
                        (b'0' + c - 26) as char
                    }
                })
                .collect()
        })
    }

    /// A well-formed GET head: method, path, query pairs, and the head text.
    fn head_strategy() -> impl Strategy<Value = (String, String, Vec<(String, String)>, String)> {
        (
            0usize..4,
            proptest::collection::vec(token(12), 0..4),
            proptest::collection::vec((token(8), token(8)), 0..4),
            proptest::collection::vec((token(10), token(16)), 0..4),
        )
            .prop_map(|(method, segments, query, headers)| {
                let method = ["GET", "POST", "HEAD", "DELETE"][method].to_string();
                let path = format!("/{}", segments.join("/"));
                let mut target = path.clone();
                for (i, (k, v)) in query.iter().enumerate() {
                    target.push(if i == 0 { '?' } else { '&' });
                    target.push_str(&format!("{k}={v}"));
                }
                let mut head = format!("{method} {target} HTTP/1.1\r\n");
                for (name, value) in &headers {
                    head.push_str(&format!("X-{name}: {value}\r\n"));
                }
                head.push_str("\r\n");
                (method, path, query, head)
            })
    }

    /// One head through the socket-level reader, from an in-memory stream.
    fn read(bytes: &[u8]) -> Result<ReadOutcome, HeadError> {
        let mut stream = bytes;
        read_request_from(&mut stream, &mut Vec::new())
    }

    proptest! {
        #[test]
        fn accepted_heads_round_trip_method_path_and_query(
            (method, path, query, head) in head_strategy(),
        ) {
            let req = parse(&head).expect("well-formed head parses");
            prop_assert_eq!(&req.method, &method);
            prop_assert_eq!(&req.path, &path);
            prop_assert_eq!(&req.query, &query);
            // The same head twice on one stream: both parse, nothing lost.
            let twice = format!("{head}{head}");
            let mut stream = twice.as_bytes();
            let mut carry = Vec::new();
            for _ in 0..2 {
                match read_request_from(&mut stream, &mut carry) {
                    Ok(ReadOutcome::Request(r)) => prop_assert_eq!(&r, &req),
                    other => panic!("pipelined head lost: {other:?}"),
                }
            }
            prop_assert!(matches!(
                read_request_from(&mut stream, &mut carry),
                Ok(ReadOutcome::Closed)
            ));
        }

        #[test]
        fn every_truncated_head_is_a_typed_error((_, _, _, head) in head_strategy()) {
            let bytes = head.as_bytes();
            prop_assert!(matches!(read(&bytes[..0]), Ok(ReadOutcome::Closed)));
            for cut in 1..bytes.len() {
                prop_assert_eq!(
                    read(&bytes[..cut]).err(),
                    Some(HeadError::ClosedMidRequest),
                    "cut at {}", cut
                );
            }
        }

        #[test]
        fn oversized_heads_are_refused_however_they_arrive(
            (_, _, _, head) in head_strategy(),
            excess in 1usize..2048,
        ) {
            // Pad with one header so the head is exactly MAX + excess bytes.
            let pad = MAX_HEAD_BYTES + excess - head.len() - "X-Pad: \r\n".len();
            let (line, rest) = head.split_once("\r\n").expect("request line");
            let big = format!("{line}\r\nX-Pad: {}\r\n{rest}", "a".repeat(pad));
            prop_assert_eq!(big.len(), MAX_HEAD_BYTES + excess);
            prop_assert_eq!(read(big.as_bytes()).err(), Some(HeadError::TooLarge));
            let mut carry = big.into_bytes();
            prop_assert_eq!(take_head(&mut carry).err(), Some(HeadError::TooLarge));
        }

        #[test]
        fn non_utf8_heads_are_refused(
            (_, _, _, head) in head_strategy(),
            at in any::<proptest::sample::Index>(),
            byte in 0x80u8..=0xFF,
        ) {
            // Any spot before the blank line that ends the head.
            let mut bytes = head.into_bytes();
            let at = at.index(bytes.len() - 3);
            bytes.insert(at, byte);
            prop_assert_eq!(read(&bytes).err(), Some(HeadError::NotUtf8));
        }

        #[test]
        fn random_bytes_never_panic(
            bytes in proptest::collection::vec(any::<u8>(), 0..3 * MAX_HEAD_BYTES / 2),
            terminate in any::<bool>(),
        ) {
            let mut bytes = bytes;
            if terminate {
                bytes.extend_from_slice(b"\r\n\r\n");
            }
            // Any outcome but a panic; a parsed request is a real GET-able
            // shape (its path starts with '/').
            if let Ok(ReadOutcome::Request(req)) = read(&bytes) {
                prop_assert!(req.path.starts_with('/'));
            }
            if let Ok(text) = std::str::from_utf8(&bytes) {
                let _ = parse(text);
            }
        }

        #[test]
        fn random_request_lines_never_panic(
            line in proptest::collection::vec(32u8..127, 0..64),
            header in proptest::collection::vec(32u8..127, 0..64),
        ) {
            let line = String::from_utf8(line).expect("ascii");
            let header = String::from_utf8(header).expect("ascii");
            let head = format!("{line}\r\n{header}\r\n\r\n");
            match parse(&head) {
                Ok(req) => prop_assert!(req.path.starts_with('/')),
                Err(HeadError::Malformed(_)) => {}
                Err(other) => panic!("parse_head only reports Malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_head_of_exactly_the_cap_is_accepted() {
        let head = "GET / HTTP/1.1\r\n\r\n";
        let pad = MAX_HEAD_BYTES - head.len() - "X-Pad: \r\n".len();
        let big = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(pad));
        assert_eq!(big.len(), MAX_HEAD_BYTES);
        assert!(matches!(read(big.as_bytes()), Ok(ReadOutcome::Request(_))));
    }
}
