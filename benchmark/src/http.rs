//! A keep-alive HTTP/1.1 GET client that times each phase of a request:
//! connect (when the connection had to be opened), time to the first
//! response byte, and the rest of the response.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Timestamps of one exchange.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// When the request started (before any connect).
    pub start: Instant,
    /// When the connection was ready, if this request had to open it.
    pub connected: Option<Instant>,
    /// When the first response byte arrived.
    pub first_byte: Instant,
    /// When the whole body had arrived.
    pub done: Instant,
}

/// One response: status, and the body in the caller's buffer.
#[derive(Debug, Clone, Copy)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Phase timestamps.
    pub phases: Phases,
}

/// One persistent connection to a daemon, reopened on demand.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    host: String,
    timeout: Duration,
    conn: Option<BufReader<TcpStream>>,
    head: String,
}

impl Client {
    /// A client for `addr`; connects lazily.
    pub fn new(addr: SocketAddr, timeout: Duration) -> Client {
        Client {
            addr,
            host: addr.to_string(),
            timeout,
            conn: None,
            head: String::new(),
        }
    }

    /// GETs `path`, leaving the body in `body`. A connection the server
    /// closed while idle is reopened and the request sent once more.
    pub fn get(&mut self, path: &str, body: &mut Vec<u8>) -> io::Result<Response> {
        let start = Instant::now();
        let reused = self.conn.is_some();
        match self.exchange(path, body, start) {
            Err(e) if reused && is_stale(&e) => {
                self.conn = None;
                self.exchange(path, body, start)
            }
            other => other,
        }
    }

    fn exchange(&mut self, path: &str, body: &mut Vec<u8>, start: Instant) -> io::Result<Response> {
        let connected = if self.conn.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            stream.set_nodelay(true)?;
            self.conn = Some(BufReader::with_capacity(64 * 1024, stream));
            Some(Instant::now())
        } else {
            None
        };
        let result = self.exchange_on_open(path, body);
        match result {
            Ok((status, first_byte, close)) => {
                if close {
                    self.conn = None;
                }
                Ok(Response {
                    status,
                    phases: Phases {
                        start,
                        connected,
                        first_byte,
                        done: Instant::now(),
                    },
                })
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }

    /// Sends the request on the open connection and reads the response:
    /// status, first-byte time, and whether the server will close.
    fn exchange_on_open(
        &mut self,
        path: &str,
        body: &mut Vec<u8>,
    ) -> io::Result<(u16, Instant, bool)> {
        let conn = self.conn.as_mut().expect("connection opened by caller");
        let request = format!("GET {path} HTTP/1.1\r\nHost: {}\r\n\r\n", self.host);
        conn.get_mut().write_all(request.as_bytes())?;
        if conn.fill_buf()?.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "closed before response",
            ));
        }
        let first_byte = Instant::now();
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let mut status = None;
        let mut length = None;
        let mut close = false;
        loop {
            self.head.clear();
            if conn.read_line(&mut self.head)? == 0 {
                return Err(bad("closed mid-response"));
            }
            let line = self.head.trim_end();
            if status.is_none() {
                status = line.split(' ').nth(1).and_then(|s| s.parse::<u16>().ok());
                if status.is_none() {
                    return Err(bad("malformed status line"));
                }
                continue;
            }
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let (name, value) = (name.trim(), value.trim());
                if name.eq_ignore_ascii_case("content-length") {
                    length = Some(
                        value
                            .parse::<usize>()
                            .map_err(|_| bad("bad content-length"))?,
                    );
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.eq_ignore_ascii_case("close");
                }
            }
        }
        let length = length.ok_or_else(|| bad("response without content-length"))?;
        body.clear();
        body.resize(length, 0);
        conn.read_exact(body)?;
        Ok((status.expect("checked above"), first_byte, close))
    }
}

/// Errors that mean the server had already closed an idle connection.
fn is_stale(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
    )
}
