//! The load generator's HTTP client: one request per connection (the server
//! answers `Connection: close`), with the phases of the round trip timed.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A client never waits longer than this on one socket operation; the
/// server's own deadline is 10 s, so hitting this is a failed request.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Instants of one round trip. `start` is taken just before `connect`.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    pub start: Instant,
    pub connected: Instant,
    pub sent: Instant,
    pub first_byte: Instant,
    pub last_byte: Instant,
}

/// A response: its status, and where in the connection's buffer the body is.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    pub status: u16,
    body_start: usize,
    pub phases: Phases,
}

/// A reusable client: the request and response buffers live across requests
/// so the generator's own allocation does not load the host.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    request: Vec<u8>,
    response: Vec<u8>,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            request: Vec::with_capacity(512),
            response: Vec::with_capacity(256 * 1024),
        }
    }

    pub fn post(&mut self, path: &str, body: &str) -> io::Result<Reply> {
        self.request.clear();
        write!(
            self.request,
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )?;
        self.exchange()
    }

    pub fn get(&mut self, path: &str) -> io::Result<Reply> {
        self.request.clear();
        write!(self.request, "GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n")?;
        self.exchange()
    }

    /// The body of the latest reply.
    pub fn body(&self, reply: &Reply) -> &[u8] {
        &self.response[reply.body_start..]
    }

    fn exchange(&mut self) -> io::Result<Reply> {
        let start = Instant::now();
        let mut stream = TcpStream::connect(self.addr)?;
        let connected = Instant::now();
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        stream.write_all(&self.request)?;
        let sent = Instant::now();

        self.response.clear();
        let mut first_byte = None;
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    first_byte.get_or_insert_with(Instant::now);
                    self.response.extend_from_slice(&chunk[..n]);
                }
                // A refusal written at admission closes without draining the
                // request, which can reset the connection after the response
                // bytes: what arrived still counts.
                Err(_) if !self.response.is_empty() => break,
                Err(e) => return Err(e),
            }
        }
        let last_byte = Instant::now();
        let (status, body_start) = parse_head(&self.response)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed response"))?;
        Ok(Reply {
            status,
            body_start,
            phases: Phases {
                start,
                connected,
                sent,
                first_byte: first_byte.unwrap_or(last_byte),
                last_byte,
            },
        })
    }
}

/// Status code and body offset of a response whose head is complete and
/// whose body is as long as `Content-Length` says.
fn parse_head(response: &[u8]) -> Option<(u16, usize)> {
    let head_end = response.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&response[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let declared: usize = lines
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .unwrap_or(0);
    let body_start = head_end + 4;
    (response.len() - body_start == declared).then_some((status, body_start))
}

/// Poll `GET /v1/healthz` until it answers `200`; the first success ends
/// set-up.
pub fn wait_healthy(addr: SocketAddr) -> io::Result<()> {
    let mut client = Client::new(addr);
    let give_up = Instant::now() + Duration::from_secs(30);
    loop {
        match client.get("/v1/healthz") {
            Ok(reply) if reply.status == 200 => return Ok(()),
            _ if Instant::now() > give_up => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "server did not become healthy",
                ))
            }
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// One scrape of `GET /v1/metrics`.
pub fn fetch_metrics(addr: SocketAddr) -> io::Result<String> {
    let mut client = Client::new(addr);
    let reply = client.get("/v1/metrics")?;
    if reply.status != 200 {
        return Err(io::Error::other(format!(
            "/v1/metrics answered {}",
            reply.status
        )));
    }
    Ok(String::from_utf8_lossy(client.body(&reply)).into_owned())
}

/// A 64-bit hash of a body, for comparing served bytes with expected ones
/// without keeping either. Not cryptographic: the server is not an
/// adversary, a wrong byte anywhere just has to change the value.
pub fn hash64(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = (bytes.len() as u64).wrapping_mul(K);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("chunk of 8"));
        h = (h ^ w).wrapping_mul(K).rotate_left(29);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(K).rotate_left(29);
    }
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_parsing_checks_the_declared_length() {
        let ok = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 3\r\n\r\nok\n";
        assert_eq!(parse_head(ok), Some((200, ok.len() - 3)));
        let short = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nok\n";
        assert_eq!(parse_head(short), None);
        let refused = b"HTTP/1.1 429 Too Many Requests\r\ncontent-length: 0\r\n\r\n";
        assert_eq!(parse_head(refused), Some((429, refused.len())));
        assert_eq!(parse_head(b"HTTP/1.1 200 OK\r\n"), None);
    }

    #[test]
    fn hash_sees_every_byte_and_the_length() {
        let base = b"{\"tokens\": [\"comedy\"], \"unmatched\": []}".to_vec();
        let h = hash64(&base);
        for i in 0..base.len() {
            let mut changed = base.clone();
            changed[i] ^= 1;
            assert_ne!(hash64(&changed), h, "byte {i}");
        }
        assert_ne!(hash64(&base[..base.len() - 1]), h);
        assert_ne!(hash64(b""), hash64(b"\0"));
    }
}
