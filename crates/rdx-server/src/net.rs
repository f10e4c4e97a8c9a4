//! Transport abstraction: one server/client codebase over TCP sockets
//! and (on Unix) filesystem domain sockets.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::PathBuf;
use std::time::Duration;

/// Where a server listens (or a client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Listen {
    /// A TCP socket address, e.g. `127.0.0.1:7979` (port 0 picks one).
    Tcp(String),
    /// A Unix domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl Listen {
    /// Parses a listen spec: anything containing a path separator is a
    /// Unix socket path, everything else a TCP address.
    #[must_use]
    pub fn parse(spec: &str) -> Listen {
        #[cfg(unix)]
        if spec.contains('/') {
            return Listen::Unix(PathBuf::from(spec));
        }
        Listen::Tcp(spec.to_string())
    }
}

impl fmt::Display for Listen {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Listen::Tcp(addr) => write!(f, "{addr}"),
            #[cfg(unix)]
            Listen::Unix(path) => write!(f, "{}", path.display()),
        }
    }
}

/// A bound listener over either transport.
#[derive(Debug)]
pub(crate) enum AnyListener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl AnyListener {
    /// Binds, returning the listener and the resolved listen spec (TCP
    /// port 0 resolves to the actual port).
    pub(crate) fn bind(listen: &Listen) -> io::Result<(AnyListener, Listen)> {
        match listen {
            Listen::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                let resolved = Listen::Tcp(l.local_addr()?.to_string());
                Ok((AnyListener::Tcp(l), resolved))
            }
            #[cfg(unix)]
            Listen::Unix(path) => {
                // A stale socket file from a dead server would fail the
                // bind; remove it (a live server keeps the file busy in
                // a way bind reports anyway).
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                Ok((AnyListener::Unix(l), listen.clone()))
            }
        }
    }

    pub(crate) fn accept(&self) -> io::Result<AnyStream> {
        match self {
            AnyListener::Tcp(l) => l.accept().and_then(|(s, _)| AnyStream::tcp(s)),
            #[cfg(unix)]
            AnyListener::Unix(l) => l.accept().map(|(s, _)| AnyStream::Unix(s)),
        }
    }
}

/// A connected stream over either transport.
#[derive(Debug)]
pub(crate) enum AnyStream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl AnyStream {
    /// Frames are small requests each awaiting a reply (a chunk, then a
    /// snapshot of it), so Nagle's algorithm would hold every second
    /// write for the peer's delayed ACK: send segments at once.
    fn tcp(s: TcpStream) -> io::Result<AnyStream> {
        s.set_nodelay(true)?;
        Ok(AnyStream::Tcp(s))
    }

    pub(crate) fn connect(listen: &Listen) -> io::Result<AnyStream> {
        match listen {
            Listen::Tcp(addr) => TcpStream::connect(addr.as_str()).and_then(AnyStream::tcp),
            #[cfg(unix)]
            Listen::Unix(path) => UnixStream::connect(path).map(AnyStream::Unix),
        }
    }

    pub(crate) fn try_clone(&self) -> io::Result<AnyStream> {
        match self {
            AnyStream::Tcp(s) => s.try_clone().map(AnyStream::Tcp),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.try_clone().map(AnyStream::Unix),
        }
    }

    pub(crate) fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            AnyStream::Tcp(s) => s.set_read_timeout(dur),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.set_read_timeout(dur),
        }
    }
}

impl Read for AnyStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            AnyStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for AnyStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            AnyStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            AnyStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_distinguishes_transports() {
        assert_eq!(
            Listen::parse("127.0.0.1:0"),
            Listen::Tcp("127.0.0.1:0".to_string())
        );
        assert_eq!(
            Listen::parse("localhost:7979"),
            Listen::Tcp("localhost:7979".to_string())
        );
        #[cfg(unix)]
        assert_eq!(
            Listen::parse("/tmp/rdx.sock"),
            Listen::Unix(PathBuf::from("/tmp/rdx.sock"))
        );
        assert_eq!(Listen::parse("127.0.0.1:0").to_string(), "127.0.0.1:0");
    }
}
