//! A minimal blocking HTTP/1.1 keep-alive client over one `TcpStream`.
//!
//! The benchmark does not use the product's `HttpClient`: a change to the
//! product's client must not move the numbers that judge the server. This
//! client writes each request with one `write_all` and reads
//! `Content-Length` and `Transfer-Encoding: chunked` responses.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::workload::find;

/// Longest wait for any byte of a response before the request counts as
/// timed out.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// Cap on a response head; larger is a protocol error.
const MAX_HEAD: usize = 64 * 1024;

pub struct Client {
    addr: SocketAddr,
    stream: TcpStream,
    /// Bytes read from the socket but not yet consumed: `buf[pos..]`.
    buf: Vec<u8>,
    pos: usize,
    request: Vec<u8>,
}

fn protocol_error(msg: impl Into<String>) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, msg.into())
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Client {
            addr,
            stream,
            buf: Vec::with_capacity(64 * 1024),
            pos: 0,
            request: Vec::with_capacity(1024),
        })
    }

    /// Drop the socket (after an error) and open a fresh one.
    pub fn reconnect(&mut self) -> io::Result<()> {
        *self = Client::connect(self.addr)?;
        Ok(())
    }

    /// Send one request and read the whole response body into `body`
    /// (cleared first). Returns the status code.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        extra_header: Option<(&str, &str)>,
        payload: &[u8],
        body: &mut Vec<u8>,
    ) -> io::Result<u16> {
        self.request.clear();
        write!(
            self.request,
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
        )?;
        if let Some((k, v)) = extra_header {
            write!(self.request, "{k}: {v}\r\n")?;
        }
        write!(self.request, "Content-Length: {}\r\n\r\n", payload.len())?;
        self.request.extend_from_slice(payload);
        self.stream.write_all(&self.request)?;
        self.read_response(body)
    }

    fn read_response(&mut self, body: &mut Vec<u8>) -> io::Result<u16> {
        body.clear();
        let head_end = loop {
            if let Some(i) = find(&self.buf[self.pos..], b"\r\n\r\n") {
                break self.pos + i + 4;
            }
            if self.buf.len() - self.pos > MAX_HEAD {
                return Err(protocol_error("response head too large"));
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[self.pos..head_end])
            .map_err(|_| protocol_error("non-UTF-8 response head"))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| protocol_error(format!("bad status line {status_line:?}")))?;
        let mut length = None;
        let mut chunked = false;
        let mut close = false;
        for line in lines {
            let Some((k, v)) = line.split_once(':') else {
                continue;
            };
            let (k, v) = (k.trim(), v.trim());
            if k.eq_ignore_ascii_case("content-length") {
                length = Some(
                    v.parse::<usize>()
                        .map_err(|_| protocol_error("bad Content-Length"))?,
                );
            } else if k.eq_ignore_ascii_case("transfer-encoding") {
                chunked = v.to_ascii_lowercase().contains("chunked");
            } else if k.eq_ignore_ascii_case("connection") {
                close = v.eq_ignore_ascii_case("close");
            }
        }
        self.pos = head_end;
        if chunked {
            loop {
                let line = self.read_line()?;
                let size_text = line.split(';').next().unwrap_or_default().trim();
                let size = usize::from_str_radix(size_text, 16)
                    .map_err(|_| protocol_error(format!("bad chunk size {size_text:?}")))?;
                if size == 0 {
                    // Trailers (none expected) end with an empty line.
                    while !self.read_line()?.is_empty() {}
                    break;
                }
                self.take_into(size, body)?;
                if !self.read_line()?.is_empty() {
                    return Err(protocol_error("chunk not followed by CRLF"));
                }
            }
        } else {
            self.take_into(length.unwrap_or(0), body)?;
        }
        self.compact();
        if close {
            self.reconnect()?;
        }
        Ok(status)
    }

    /// Read more bytes from the socket onto the buffer.
    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// Discard consumed bytes so the buffer does not grow without bound.
    fn compact(&mut self) {
        self.buf.drain(..self.pos);
        self.pos = 0;
    }

    fn read_line(&mut self) -> io::Result<String> {
        loop {
            if let Some(i) = find(&self.buf[self.pos..], b"\r\n") {
                let line = String::from_utf8_lossy(&self.buf[self.pos..self.pos + i]).into_owned();
                self.pos += i + 2;
                return Ok(line);
            }
            if self.buf.len() - self.pos > MAX_HEAD {
                return Err(protocol_error("line too long"));
            }
            self.fill()?;
        }
    }

    /// Move exactly `n` body bytes onto `out`.
    fn take_into(&mut self, n: usize, out: &mut Vec<u8>) -> io::Result<()> {
        let buffered = (self.buf.len() - self.pos).min(n);
        out.extend_from_slice(&self.buf[self.pos..self.pos + buffered]);
        self.pos += buffered;
        let rest = n - buffered;
        if rest > 0 {
            let start = out.len();
            out.resize(start + rest, 0);
            self.stream.read_exact(&mut out[start..])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Serve `responses` in order on one accepted connection, reading one
    /// request head (no body) before each.
    fn scripted_server(responses: Vec<&'static [u8]>) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            for r in responses {
                let mut seen = Vec::new();
                let mut byte = [0u8; 1];
                while !seen.ends_with(b"\r\n\r\n") {
                    s.read_exact(&mut byte).unwrap();
                    seen.push(byte[0]);
                }
                // Split the write to exercise partial reads.
                let (a, b) = r.split_at(r.len() / 2);
                s.write_all(a).unwrap();
                s.flush().unwrap();
                s.write_all(b).unwrap();
            }
        });
        (addr, t)
    }

    #[test]
    fn reads_length_and_chunked_bodies_on_one_connection() {
        let (addr, t) = scripted_server(vec![
            b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n",
            b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n",
        ]);
        let mut c = Client::connect(addr).unwrap();
        let mut body = Vec::new();
        assert_eq!(c.send("GET", "/a", None, b"", &mut body).unwrap(), 200);
        assert_eq!(body, b"hello");
        assert_eq!(c.send("GET", "/b", None, b"", &mut body).unwrap(), 200);
        assert_eq!(body, b"abcde");
        assert_eq!(c.send("GET", "/c", None, b"", &mut body).unwrap(), 503);
        assert!(body.is_empty());
        t.join().unwrap();
    }
}
