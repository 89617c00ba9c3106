//! A persistent line-protocol client connection.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One client connection to a daemon or router.
pub struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            addr,
            stream,
            buf: Vec::new(),
        })
    }

    /// Sends `line` and waits up to `budget` for the full response line.
    /// On a timeout or transport error the connection is replaced, since
    /// a late response would otherwise answer the next request.
    pub fn call(&mut self, line: &str, budget: Duration) -> Option<String> {
        let out = self.exchange(line, budget);
        if out.is_none() {
            if let Ok(fresh) = Conn::connect(self.addr) {
                *self = fresh;
            }
        }
        out
    }

    fn exchange(&mut self, line: &str, budget: Duration) -> Option<String> {
        let deadline = Instant::now() + budget;
        let mut frame = String::with_capacity(line.len() + 1);
        frame.push_str(line);
        frame.push('\n');
        self.stream.write_all(frame.as_bytes()).ok()?;
        let mut chunk = [0u8; 8192];
        loop {
            if let Some(nl) = self.buf.iter().position(|&b| b == b'\n') {
                let reply: Vec<u8> = self.buf.drain(..=nl).collect();
                return Some(String::from_utf8_lossy(&reply[..nl]).into_owned());
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            self.stream.set_read_timeout(Some(left)).ok()?;
            match self.stream.read(&mut chunk) {
                Ok(0) => return None,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(_) => return None,
            }
        }
    }
}
