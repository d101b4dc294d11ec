//! Byte-stream transports: TCP and Unix-domain sockets behind one
//! blocking `Read + Write` surface, plus the `tcp:ADDR` / `unix:PATH`
//! endpoint syntax shared by `intersect-serve --transport`, the client,
//! and `loadgen`.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::Duration;

/// A parsed transport endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EndpointAddr {
    /// `tcp:HOST:PORT` (port 0 binds a free port).
    Tcp(String),
    /// `unix:PATH` (the server unlinks the path on shutdown).
    Unix(String),
}

impl EndpointAddr {
    /// Parses `tcp:ADDR` or `unix:PATH`.
    ///
    /// # Errors
    ///
    /// Describes the expected syntax on anything else.
    pub fn parse(spec: &str) -> Result<EndpointAddr, String> {
        if let Some(addr) = spec.strip_prefix("tcp:") {
            if addr.is_empty() {
                return Err("tcp endpoint needs an address, e.g. tcp:127.0.0.1:4000".into());
            }
            return Ok(EndpointAddr::Tcp(addr.to_string()));
        }
        if let Some(path) = spec.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("unix endpoint needs a path, e.g. unix:/tmp/intersect.sock".into());
            }
            return Ok(EndpointAddr::Unix(path.to_string()));
        }
        Err(format!(
            "unrecognized transport {spec:?}: expected tcp:ADDR or unix:PATH"
        ))
    }
}

impl std::fmt::Display for EndpointAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EndpointAddr::Tcp(a) => write!(f, "tcp:{a}"),
            EndpointAddr::Unix(p) => write!(f, "unix:{p}"),
        }
    }
}

/// A connected byte stream over either transport.
#[derive(Debug)]
pub enum Stream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

/// Evaluates one socket call on whichever transport `$stream` is.
macro_rules! on_socket {
    ($stream:expr, $s:ident => $call:expr) => {
        match $stream {
            Stream::Tcp($s) => $call,
            #[cfg(unix)]
            Stream::Unix($s) => $call,
        }
    };
}

impl Stream {
    /// Connects to `addr`, with `TCP_NODELAY` set on TCP so one frame
    /// means one segment — the protocols here are round-trip bound.
    ///
    /// # Errors
    ///
    /// Propagates connect failures; on non-Unix platforms a `unix:`
    /// endpoint is unsupported.
    pub fn connect(addr: &EndpointAddr) -> io::Result<Stream> {
        match addr {
            EndpointAddr::Tcp(a) => {
                let s = TcpStream::connect(a)?;
                s.set_nodelay(true)?;
                Ok(Stream::Tcp(s))
            }
            #[cfg(unix)]
            EndpointAddr::Unix(p) => Ok(Stream::Unix(UnixStream::connect(p)?)),
            #[cfg(not(unix))]
            EndpointAddr::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets are not available on this platform",
            )),
        }
    }

    /// A second handle to the same connection.
    ///
    /// # Errors
    ///
    /// Propagates the OS duplication failure.
    pub fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Tcp(s) => Ok(Stream::Tcp(s.try_clone()?)),
            #[cfg(unix)]
            Stream::Unix(s) => Ok(Stream::Unix(s.try_clone()?)),
        }
    }

    /// Shuts down both directions, unblocking any reader.
    pub fn shutdown(&self) {
        let _ = on_socket!(self, s => s.shutdown(Shutdown::Both));
    }

    /// Bounds every blocking `read`, so a dead peer cannot wedge a reader
    /// forever.
    ///
    /// # Errors
    ///
    /// Propagates the setsockopt failure.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        on_socket!(self, s => s.set_read_timeout(dur))
    }

    /// Bounds every blocking `write`, so a stalled peer cannot either.
    ///
    /// # Errors
    ///
    /// Propagates the setsockopt failure.
    pub fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        on_socket!(self, s => s.set_write_timeout(dur))
    }

    /// Switches the socket (reads *and* writes) between blocking and
    /// non-blocking mode.
    ///
    /// # Errors
    ///
    /// Propagates the ioctl failure.
    pub fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        on_socket!(self, s => s.set_nonblocking(on))
    }
}

// Sockets read and write through a shared reference, so one handle
// serves the connection's reader and its writers at the same time.
impl Read for &Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        on_socket!(self, s => (&*s).read(buf))
    }
}

impl Write for &Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        on_socket!(self, s => (&*s).write(buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        (&*self).read(buf)
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        (&*self).write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A bound listener over either transport.
#[derive(Debug)]
pub enum Listener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain listener (remembers its path for unlink-on-drop).
    #[cfg(unix)]
    Unix(UnixListener, String),
}

impl Listener {
    /// Binds `addr`. An existing Unix socket path is unlinked first so a
    /// crashed predecessor does not block a restart.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: &EndpointAddr) -> io::Result<Listener> {
        match addr {
            EndpointAddr::Tcp(a) => Ok(Listener::Tcp(TcpListener::bind(a)?)),
            #[cfg(unix)]
            EndpointAddr::Unix(p) => {
                let _ = std::fs::remove_file(p);
                Ok(Listener::Unix(UnixListener::bind(p)?, p.clone()))
            }
            #[cfg(not(unix))]
            EndpointAddr::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets are not available on this platform",
            )),
        }
    }

    /// The endpoint this listener is actually bound to (with the real
    /// port when `tcp:…:0` was requested).
    pub fn local_addr(&self) -> EndpointAddr {
        match self {
            Listener::Tcp(l) => EndpointAddr::Tcp(
                l.local_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| "?".into()),
            ),
            #[cfg(unix)]
            Listener::Unix(_, p) => EndpointAddr::Unix(p.clone()),
        }
    }

    /// Accepts the next connection (`TCP_NODELAY` set on TCP).
    ///
    /// # Errors
    ///
    /// Propagates accept failures.
    pub fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(Stream::Tcp(s))
            }
            #[cfg(unix)]
            Listener::Unix(l, _) => {
                let (s, _) = l.accept()?;
                Ok(Stream::Unix(s))
            }
        }
    }

    /// Removes a Unix listener's socket file (no-op for TCP).
    pub fn cleanup(&self) {
        #[cfg(unix)]
        if let Listener::Unix(_, p) = self {
            let _ = std::fs::remove_file(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_syntax_parses_and_displays() {
        assert_eq!(
            EndpointAddr::parse("tcp:127.0.0.1:0"),
            Ok(EndpointAddr::Tcp("127.0.0.1:0".into()))
        );
        assert_eq!(
            EndpointAddr::parse("unix:/tmp/x.sock"),
            Ok(EndpointAddr::Unix("/tmp/x.sock".into()))
        );
        assert!(EndpointAddr::parse("http:foo").is_err());
        assert!(EndpointAddr::parse("tcp:").is_err());
        assert!(EndpointAddr::parse("unix:").is_err());
        assert_eq!(
            EndpointAddr::parse("tcp:127.0.0.1:0").unwrap().to_string(),
            "tcp:127.0.0.1:0"
        );
    }
}
