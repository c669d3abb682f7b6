//! The client half of a worker connection.

use crate::frame::{FrameReader, FrameWriter};
use crate::message::{BatchRequest, FrontierResult, Hello, Message, ShardPayload};
use crate::stream::NetStream;
use crate::NetError;
use sfo_engine::PlacedState;
use sfo_obs::MetricsSnapshot;
use sfo_search::SearchOutcome;

/// One connection to an `sfo serve` worker.
///
/// Connecting reads the worker's [`Hello`]; every subsequent call is a synchronous
/// request/reply. A worker's `Error` reply surfaces as [`NetError::Remote`] and leaves
/// the connection usable — the protocol never desynchronizes on a refused request.
#[derive(Debug)]
pub struct WorkerClient {
    reader: FrameReader<NetStream>,
    writer: FrameWriter<NetStream>,
    addr: String,
    hello: Hello,
}

impl WorkerClient {
    /// Dials `addr` (`host:port` or `unix:/path`) and reads the worker's `Hello`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the dial fails and [`NetError::Protocol`] when the
    /// peer's first message is not a `Hello` (it is not an `sfo serve` worker).
    pub fn connect(addr: &str) -> Result<Self, NetError> {
        let (mut reader, writer) = NetStream::connect(addr)?.split()?;
        let hello = match reader.recv()? {
            Message::Hello(hello) => hello,
            Message::Error { message } => return Err(NetError::Remote { message }),
            other => {
                return Err(NetError::protocol(format!(
                    "expected a Hello from {addr}, got {other:?}"
                )))
            }
        };
        Ok(WorkerClient {
            reader,
            writer,
            addr: addr.to_string(),
            hello,
        })
    }

    /// One synchronous exchange: `request` leaves at once, the reply is awaited.
    fn exchange(&mut self, request: &Message) -> Result<Message, NetError> {
        self.writer.send(request)?;
        self.reader.recv()
    }

    /// The worker's address, as dialed.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The worker's most recent announcement (updated by [`WorkerClient::load_snapshot`]).
    pub fn hello(&self) -> &Hello {
        &self.hello
    }

    /// Asks the worker to serve a different snapshot (a path on *its* filesystem) and
    /// returns the fresh announcement.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Remote`] when the worker cannot load the file.
    pub fn load_snapshot(&mut self, path: &str) -> Result<Hello, NetError> {
        match self.exchange(&Message::LoadSnapshot {
            path: path.to_string(),
        })? {
            Message::Hello(hello) => {
                self.hello = hello;
                Ok(hello)
            }
            Message::Error { message } => Err(NetError::Remote { message }),
            other => Err(NetError::protocol(format!(
                "expected a Hello after LoadSnapshot, got {other:?}"
            ))),
        }
    }

    /// Ships one placed shard to the worker and returns the fresh announcement — the
    /// worker now serves those rows (and only those) to `ForwardFrontier` requests.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Remote`] when the worker refuses the shard (it is pinned
    /// to different placement coordinates).
    pub fn load_shard(&mut self, payload: ShardPayload) -> Result<Hello, NetError> {
        match self.exchange(&Message::LoadShard(payload))? {
            Message::Hello(hello) => {
                self.hello = hello;
                Ok(hello)
            }
            Message::Error { message } => Err(NetError::Remote { message }),
            other => Err(NetError::protocol(format!(
                "expected a Hello after LoadShard, got {other:?}"
            ))),
        }
    }

    /// Forwards one suspended placed search to the worker and returns how far it got:
    /// the finished outcome, or the re-suspended state to route onward.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Remote`] when the worker refuses the frontier (wrong
    /// snapshot identity, out-of-range fields, or a cursor it does not own).
    pub fn forward_frontier(
        &mut self,
        identity: u64,
        state: PlacedState,
    ) -> Result<FrontierResult, NetError> {
        match self.exchange(&Message::ForwardFrontier { identity, state })? {
            Message::FrontierResult(result) => Ok(result),
            Message::Error { message } => Err(NetError::Remote { message }),
            other => Err(NetError::protocol(format!(
                "expected a FrontierResult, got {other:?}"
            ))),
        }
    }

    /// Submits one batch and returns its outcomes in job order.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Remote`] when the worker refuses the request and
    /// [`NetError::Overloaded`] when the worker sheds it (pending-batch queue full);
    /// both leave the connection usable.
    pub fn submit(&mut self, request: &BatchRequest) -> Result<Vec<SearchOutcome>, NetError> {
        match self.exchange(&Message::SubmitBatch(request.clone()))? {
            Message::BatchResult { outcomes } => Ok(outcomes),
            Message::Overloaded { queued, limit } => Err(NetError::Overloaded { queued, limit }),
            Message::Error { message } => Err(NetError::Remote { message }),
            other => Err(NetError::protocol(format!(
                "expected a BatchResult, got {other:?}"
            ))),
        }
    }

    /// Polls the worker's telemetry: counters, latency histograms, and phase timings
    /// accumulated since the daemon started — the wire behind `sfo stats <addr>`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Remote`] when the worker refuses the request (an older
    /// worker answers `Error` and the connection stays usable).
    pub fn stats(&mut self) -> Result<MetricsSnapshot, NetError> {
        match self.exchange(&Message::StatsRequest)? {
            Message::StatsReport(snapshot) => Ok(snapshot),
            Message::Error { message } => Err(NetError::Remote { message }),
            other => Err(NetError::protocol(format!(
                "expected a StatsReport, got {other:?}"
            ))),
        }
    }
}
