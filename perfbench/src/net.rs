//! Loopback clients for both `privtree-serve` protocols.
//!
//! [`Conn`] owns its receive buffer instead of wrapping a `BufReader`,
//! so one thread can wait on several connections with `poll(2)` and
//! still know whether a complete reply is already buffered.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;

use privtree_engine::wire::{PREAMBLE, TAG_ANSWERS};
use privtree_store::frame::parse_header;

/// Which protocol a connection speaks, and so how a reply is delimited.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proto {
    /// `privtree-wire v1`: one frame per reply.
    Wire,
    /// The line protocol: `lines` reply lines, or a single `err` line.
    Text,
}

/// How a reply that is not the expected bytes went wrong.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Failure {
    /// A well-formed answer whose bits differ from the library's.
    Wrong,
    /// An `err` line or an `ERRF` frame.
    Err,
    /// A refused, reset or closed connection.
    Refused,
    /// No reply before the run ended.
    Timeout,
}

/// Failed operations by kind.
#[derive(Clone, Copy, Debug, Default)]
pub struct Failures {
    pub wrong: u64,
    pub err: u64,
    pub refused: u64,
    pub timeout: u64,
}

impl Failures {
    pub fn record(&mut self, f: Failure) {
        match f {
            Failure::Wrong => self.wrong += 1,
            Failure::Err => self.err += 1,
            Failure::Refused => self.refused += 1,
            Failure::Timeout => self.timeout += 1,
        }
    }

    pub fn add(&mut self, other: &Failures) {
        self.wrong += other.wrong;
        self.err += other.err;
        self.refused += other.refused;
        self.timeout += other.timeout;
    }

    pub fn total(&self) -> u64 {
        self.wrong + self.err + self.refused + self.timeout
    }
}

/// One prepared request: the bytes sent and every reply accepted as
/// correct (several on publish-churn, where either epoch may answer).
pub struct Request {
    pub bytes: Vec<u8>,
    pub accepted: Vec<Vec<u8>>,
    pub queries: usize,
    /// Reply lines of a text request (ignored for wire requests).
    pub lines: usize,
}

impl Request {
    /// Classify a complete reply against the accepted ones.
    pub fn check(&self, proto: Proto, reply: &[u8]) -> Result<(), Failure> {
        if self.accepted.iter().any(|a| a == reply) {
            return Ok(());
        }
        let is_err = match proto {
            Proto::Wire => reply.len() >= 4 && reply[..4] != TAG_ANSWERS,
            Proto::Text => reply.starts_with(b"err"),
        };
        Err(if is_err { Failure::Err } else { Failure::Wrong })
    }
}

pub struct Conn {
    stream: TcpStream,
    /// Received bytes live in `buf[start..end]`; the buffer is zeroed
    /// once and reused, so a read costs no per-call clearing.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    proto: Proto,
}

impl Conn {
    /// Connect; a wire connection sends the preamble and consumes the
    /// `HELO` frame.
    pub fn connect(addr: SocketAddr, proto: Proto) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut conn = Self {
            stream,
            buf: vec![0; 1 << 16],
            start: 0,
            end: 0,
            proto,
        };
        if proto == Proto::Wire {
            conn.send(&PREAMBLE)?;
            let hello = conn.recv(0)?;
            if !hello.starts_with(b"HELO") {
                return Err(io::Error::other(format!(
                    "no HELO: {}",
                    String::from_utf8_lossy(&hello)
                )));
            }
        }
        Ok(conn)
    }

    pub fn fd(&self) -> i32 {
        self.stream.as_raw_fd()
    }

    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// A complete reply already buffered, if any (`lines` counts text
    /// reply lines).
    pub fn take(&mut self, lines: usize) -> io::Result<Option<Vec<u8>>> {
        let avail = &self.buf[self.start..self.end];
        let end = match self.proto {
            Proto::Wire => match parse_header(avail, u32::MAX).map_err(io::Error::other)? {
                Some(h) if avail.len() >= h.total_len() => Some(h.total_len()),
                _ => None,
            },
            Proto::Text => {
                let want = if avail.starts_with(b"err") { 1 } else { lines };
                let mut seen = 0;
                let mut end = None;
                for (i, &b) in avail.iter().enumerate() {
                    if b == b'\n' {
                        seen += 1;
                        if seen == want {
                            end = Some(i + 1);
                            break;
                        }
                    }
                }
                end
            }
        };
        Ok(end.map(|n| {
            let reply = self.buf[self.start..self.start + n].to_vec();
            self.start += n;
            reply
        }))
    }

    /// Read whatever the socket has (blocking until at least a byte).
    pub fn fill(&mut self) -> io::Result<()> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        match self.stream.read(&mut self.buf[self.end..])? {
            0 => Err(io::ErrorKind::UnexpectedEof.into()),
            n => {
                self.end += n;
                Ok(())
            }
        }
    }

    /// Block for one complete reply.
    pub fn recv(&mut self, lines: usize) -> io::Result<Vec<u8>> {
        loop {
            if let Some(reply) = self.take(lines)? {
                return Ok(reply);
            }
            self.fill()?;
        }
    }

    /// Send a request and wait for its reply.
    pub fn call(&mut self, req: &[u8], lines: usize) -> io::Result<Vec<u8>> {
        self.send(req)?;
        self.recv(lines)
    }

    /// A second handle on the socket for a sending thread.
    pub fn writer(&self) -> io::Result<TcpStream> {
        self.stream.try_clone()
    }

    /// Shut the socket down both ways (wakes a blocked writer).
    pub fn shutdown(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// The server's `stats` line over a text connection.
pub fn scrape_stats(addr: SocketAddr) -> io::Result<String> {
    let mut conn = Conn::connect(addr, Proto::Text)?;
    let reply = conn.call(b"stats\n", 1)?;
    Ok(String::from_utf8_lossy(&reply).trim_end().to_string())
}
