//! A minimal blocking HTTP/1.1 client, for the CI smoke test, the serve
//! benchmark, and the integration tests — the same
//! no-dependency constraint as the server, so `repro --http-get` works
//! where `curl` is absent.
//!
//! [`get`] / [`get_url`] are one-shot `Connection: close` fetches that read
//! to EOF.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A fetched response: the status code and the body bytes as text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code from the response line.
    pub status: u16,
    /// Response body (everything after the first blank line).
    pub body: String,
}

/// Fetches `path` (e.g. `/healthz`) from `addr` (`host:port`), with
/// `timeout` applied to connect, read, and write independently.
pub fn get(addr: &str, path: &str, timeout: Duration) -> std::io::Result<HttpResponse> {
    let sock_addr = addr
        .parse::<std::net::SocketAddr>()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    let mut stream = TcpStream::connect_timeout(&sock_addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    parse_response(&raw)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response"))
}

/// Fetches an `http://host:port/path` URL. Only the `http` scheme with an
/// explicit host is supported.
pub fn get_url(url: &str, timeout: Duration) -> std::io::Result<HttpResponse> {
    let (addr, path) = split_url(url)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "unsupported URL"))?;
    get(addr, path, timeout)
}

/// Splits `http://host:port/path?query` into `(host:port, /path?query)`.
/// Returns `None` for anything that is not a plain `http` URL.
pub fn split_url(url: &str) -> Option<(&str, &str)> {
    let rest = url.strip_prefix("http://")?;
    let (addr, path) = match rest.find('/') {
        Some(i) => (&rest[..i], &rest[i..]),
        None => (rest, "/"),
    };
    if addr.is_empty() {
        return None;
    }
    Some((addr, path))
}

/// Splits raw response text into status and body.
fn parse_response(raw: &str) -> Option<HttpResponse> {
    let (head, body) = raw.split_once("\r\n\r\n")?;
    let status_line = head.lines().next()?;
    let status = status_line.split(' ').nth(1)?.parse::<u16>().ok()?;
    Some(HttpResponse {
        status,
        body: body.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_parsing_splits_head_and_body() {
        let raw = "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nok\n";
        let resp = parse_response(raw).expect("parses");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, "ok\n");
        assert!(parse_response("garbage").is_none());
        assert!(parse_response("HTTP/1.1 abc Huh\r\n\r\n").is_none());
    }

    #[test]
    fn url_splitting() {
        assert_eq!(
            split_url("http://127.0.0.1:8095/healthz"),
            Some(("127.0.0.1:8095", "/healthz"))
        );
        assert_eq!(
            split_url("http://127.0.0.1:8095"),
            Some(("127.0.0.1:8095", "/"))
        );
        assert_eq!(
            split_url("http://h:1/run/table2?seed=7"),
            Some(("h:1", "/run/table2?seed=7"))
        );
        assert!(split_url("https://secure").is_none());
        assert!(split_url("http://").is_none());
        assert!(split_url("127.0.0.1:8095/healthz").is_none());
    }
}
