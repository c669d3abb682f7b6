//! Transport bootstrap: one address grammar over TCP and Unix-domain sockets.
//!
//! `sfo-net` endpoints name peers with plain strings: `host:port` binds or dials TCP,
//! `unix:/path/to.sock` a Unix-domain socket (absent on non-Unix builds, where the
//! prefix is a typed error). The daemon and the dispatcher both speak through
//! [`NetStream`], so every protocol path is transport-agnostic.
//!
//! Every TCP socket, dialed or accepted, runs with `TCP_NODELAY`. The protocol is
//! small request/reply frames, and with Nagle's algorithm a frame written while an
//! earlier one is unacknowledged waits for the peer's delayed ACK — tens of
//! milliseconds on a conversation that computes for microseconds. There is no switch:
//! what leaves in one segment is decided above the socket, by the
//! [`FrameWriter`] that owns the connection's outbox.

use crate::frame::{FrameReader, FrameWriter};
use crate::NetError;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};

/// Prefix selecting a Unix-domain socket address.
pub(crate) const UNIX_PREFIX: &str = "unix:";

/// One established connection, TCP or Unix.
#[derive(Debug)]
pub enum NetStream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl NetStream {
    /// Dials `addr` (`host:port`, or `unix:/path`).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the dial fails and [`NetError::Protocol`] for a
    /// `unix:` address on a platform without Unix sockets.
    pub fn connect(addr: &str) -> Result<Self, NetError> {
        if let Some(path) = addr.strip_prefix(UNIX_PREFIX) {
            #[cfg(unix)]
            {
                return UnixStream::connect(path)
                    .map(NetStream::Unix)
                    .map_err(|e| NetError::io(format!("connect {addr}"), &e));
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                return Err(NetError::protocol(
                    "unix-socket addresses are not supported on this platform",
                ));
            }
        }
        TcpStream::connect(addr)
            .and_then(no_delay)
            .map(NetStream::Tcp)
            .map_err(|e| NetError::io(format!("connect {addr}"), &e))
    }

    /// Splits the connection into its framed halves, each owning a handle of the
    /// socket, so one thread can read while another writes.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the operating system refuses to duplicate the
    /// handle.
    pub fn split(self) -> Result<(FrameReader<NetStream>, FrameWriter<NetStream>), NetError> {
        let write_half = self.try_clone()?;
        Ok((FrameReader::new(self), FrameWriter::new(write_half)))
    }

    /// Clones the underlying socket handle ([`NetStream::split`] is the framed form).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the operating system refuses to duplicate the
    /// handle.
    pub fn try_clone(&self) -> Result<NetStream, NetError> {
        match self {
            NetStream::Tcp(stream) => stream.try_clone().map(NetStream::Tcp),
            #[cfg(unix)]
            NetStream::Unix(stream) => stream.try_clone().map(NetStream::Unix),
        }
        .map_err(|e| NetError::io("clone stream", &e))
    }

    /// Shuts the connection down in both directions, for every handle of the socket:
    /// a read blocked on another handle returns end-of-stream, and the peer sees EOF.
    pub(crate) fn shutdown(&self) -> std::io::Result<()> {
        match self {
            NetStream::Tcp(stream) => stream.shutdown(std::net::Shutdown::Both),
            #[cfg(unix)]
            NetStream::Unix(stream) => stream.shutdown(std::net::Shutdown::Both),
        }
    }
}

impl Read for NetStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            NetStream::Tcp(stream) => stream.read(buf),
            #[cfg(unix)]
            NetStream::Unix(stream) => stream.read(buf),
        }
    }
}

impl Write for NetStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            NetStream::Tcp(stream) => stream.write(buf),
            #[cfg(unix)]
            NetStream::Unix(stream) => stream.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            NetStream::Tcp(stream) => stream.flush(),
            #[cfg(unix)]
            NetStream::Unix(stream) => stream.flush(),
        }
    }
}

fn no_delay(stream: TcpStream) -> std::io::Result<TcpStream> {
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// One bound listening socket, TCP or Unix.
#[derive(Debug)]
pub enum NetListener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain listener (the bound path is kept for display and cleanup).
    #[cfg(unix)]
    Unix(UnixListener, String),
}

impl NetListener {
    /// Binds `addr` (`host:port` — port 0 picks a free one — or `unix:/path`; a stale
    /// socket file at the path is removed first).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the bind fails and [`NetError::Protocol`] for a
    /// `unix:` address on a platform without Unix sockets.
    pub fn bind(addr: &str) -> Result<Self, NetError> {
        if let Some(path) = addr.strip_prefix(UNIX_PREFIX) {
            #[cfg(unix)]
            {
                // A previous daemon that died without cleanup leaves the socket file
                // behind; re-binding it is the expected operator workflow.
                if std::path::Path::new(path).exists() {
                    std::fs::remove_file(path)
                        .map_err(|e| NetError::io(format!("unlink stale socket {path}"), &e))?;
                }
                return UnixListener::bind(path)
                    .map(|l| NetListener::Unix(l, path.to_string()))
                    .map_err(|e| NetError::io(format!("bind {addr}"), &e));
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                return Err(NetError::protocol(
                    "unix-socket addresses are not supported on this platform",
                ));
            }
        }
        TcpListener::bind(addr)
            .map(NetListener::Tcp)
            .map_err(|e| NetError::io(format!("bind {addr}"), &e))
    }

    /// The bound address in the same grammar [`NetStream::connect`] accepts — for a
    /// TCP bind to port 0, this is how callers learn the real port.
    pub fn local_addr(&self) -> String {
        match self {
            NetListener::Tcp(listener) => listener
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "<unknown>".to_string()),
            #[cfg(unix)]
            NetListener::Unix(_, path) => format!("{UNIX_PREFIX}{path}"),
        }
    }

    /// Blocks until one connection arrives.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the accept fails.
    pub fn accept(&self) -> Result<NetStream, NetError> {
        self.accept_peer().map(|(stream, _)| stream)
    }

    /// Blocks until one connection arrives, returning the peer's address for logging
    /// and diagnostics. TCP peers report their real `ip:port`; Unix-domain peers are
    /// unnamed, so the listener's own `unix:/path` stands in.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the accept fails.
    pub fn accept_peer(&self) -> Result<(NetStream, String), NetError> {
        match self {
            NetListener::Tcp(listener) => listener
                .accept()
                .and_then(|(stream, peer)| {
                    Ok((NetStream::Tcp(no_delay(stream)?), peer.to_string()))
                })
                .map_err(|e| NetError::io("accept", &e)),
            #[cfg(unix)]
            NetListener::Unix(listener, path) => listener
                .accept()
                .map(|(stream, _)| (NetStream::Unix(stream), format!("{UNIX_PREFIX}{path}")))
                .map_err(|e| NetError::io("accept", &e)),
        }
    }
}

#[cfg(unix)]
impl Drop for NetListener {
    fn drop(&mut self) {
        if let NetListener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_bind_connect_round_trip() {
        let listener = NetListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        let client = std::thread::spawn(move || {
            let mut stream = NetStream::connect(&addr).unwrap();
            stream.write_all(b"ping").unwrap();
        });
        let mut server_side = listener.accept().unwrap();
        let mut buf = [0u8; 4];
        server_side.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        client.join().unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn unix_bind_connect_round_trip_and_cleanup() {
        let path = std::env::temp_dir().join(format!("sfo-net-test-{}.sock", std::process::id()));
        let addr = format!("unix:{}", path.display());
        let listener = NetListener::bind(&addr).unwrap();
        assert_eq!(listener.local_addr(), addr);
        // Rebinding over a stale file is the documented operator workflow.
        let client_addr = addr.clone();
        let client = std::thread::spawn(move || {
            let mut stream = NetStream::connect(&client_addr).unwrap();
            stream.write_all(b"unix").unwrap();
        });
        let mut server_side = listener.accept().unwrap();
        let mut buf = [0u8; 4];
        server_side.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"unix");
        client.join().unwrap();
        drop(server_side);
        drop(listener);
        assert!(!path.exists(), "socket file must be cleaned up on drop");
    }

    #[test]
    fn accept_peer_reports_the_tcp_peer_address() {
        let listener = NetListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        let client = std::thread::spawn(move || {
            let stream = NetStream::connect(&addr).unwrap();
            // Hold the connection open until the accept side has seen it.
            std::thread::sleep(std::time::Duration::from_millis(50));
            drop(stream);
        });
        let (_stream, peer) = listener.accept_peer().unwrap();
        assert!(
            peer.starts_with("127.0.0.1:"),
            "peer address should be the client's ip:port, got {peer}"
        );
        client.join().unwrap();
    }

    #[test]
    fn both_ends_of_a_tcp_connection_run_without_nagle() {
        let listener = NetListener::bind("127.0.0.1:0").unwrap();
        let dialed = NetStream::connect(&listener.local_addr()).unwrap();
        let accepted = listener.accept().unwrap();
        for end in [&dialed, &accepted] {
            let NetStream::Tcp(tcp) = end else {
                panic!("a host:port address is a TCP socket");
            };
            assert!(tcp.nodelay().unwrap());
        }
    }

    #[test]
    fn unreachable_addresses_are_io_errors() {
        assert!(matches!(
            NetStream::connect("127.0.0.1:1"),
            Err(NetError::Io { .. })
        ));
    }
}
