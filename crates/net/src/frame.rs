//! The `SFNF` frame layer: versioned, length-prefixed, checksummed message envelopes.
//!
//! Every message on an `sfo-net` connection travels inside one frame, hand-rolled in
//! the same little-endian style as the `SFOS` snapshot container (the full byte layout
//! is documented in `docs/FORMATS.md`):
//!
//! | offset      | size | field |
//! |------------:|-----:|-------|
//! | 0           | 4    | magic `"SFNF"` |
//! | 4           | 2    | protocol version (`u16`, = [`PROTOCOL_VERSION`]) |
//! | 6           | 2    | message type (`u16`, see [`crate::message::Message`]) |
//! | 8           | 4    | payload length (`u32`, at most [`MAX_PAYLOAD_LEN`]) |
//! | 12          | …    | payload |
//! | 12 + length | 8    | FNV-1a 64 checksum of every preceding frame byte |
//!
//! Readers are strict: wrong magic, unknown versions, truncation mid-frame, checksum
//! mismatches, and oversized declared lengths are typed [`NetError`]s, never panics —
//! and the length bound is enforced *before* the payload allocation, so a corrupt or
//! hostile header cannot request gigabytes. The checksum guards against stream
//! desynchronization and bit rot, which is what a trusted-cluster work protocol needs
//! (it is not an authentication mechanism; run the daemon inside the trust boundary).

use crate::NetError;
use std::io::{Read, Write};

/// The four magic bytes opening every frame.
pub(crate) const FRAME_MAGIC: [u8; 4] = *b"SFNF";

/// The protocol version this build speaks and the only one it accepts.
pub const PROTOCOL_VERSION: u16 = 1;

/// Upper bound on a frame's payload length (64 MiB).
///
/// Large enough for a `BatchResult` of ~4 million outcomes — far beyond a sensible
/// batch slice — while bounding what a corrupt length field can make a reader allocate.
pub const MAX_PAYLOAD_LEN: u32 = 64 << 20;

/// Fixed-size prefix of a frame before the payload.
pub const FRAME_HEADER_LEN: usize = 12;

/// Size of the trailing checksum.
pub(crate) const FRAME_TRAILER_LEN: usize = 8;

/// The frame trailer checksum is byte-for-byte the `SFOS` container's: the same
/// function, shared (not copied) from the snapshot codec so the two formats cannot
/// drift apart.
pub use sfo_graph::snapshot::{fnv1a64, fnv1a64_update};

/// How far a [`FrameReader`] reads ahead of the frame it is decoding, and how many
/// queued bytes a [`FrameWriter`]'s owner lets pile up before it writes regardless of
/// what it is waiting for. One constant because both answer the same question — how
/// much wire data one connection may hold in memory per direction while small frames
/// stream.
pub(crate) const IO_BUFFER_LEN: usize = 64 << 10;

/// Total wire size of a frame carrying `payload_len` payload bytes.
pub const fn frame_len(payload_len: usize) -> usize {
    FRAME_HEADER_LEN + payload_len + FRAME_TRAILER_LEN
}

/// Appends one frame — header, payload, trailer — to `out` and returns its wire size.
///
/// `write_payload` appends the payload straight behind a header whose length field is
/// patched afterwards, so a message is encoded once, in place, into whatever buffer
/// will be written to the socket: no payload `Vec`, no frame `Vec`, no copy.
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_PAYLOAD_LEN`]; writers build payloads, so an
/// oversized one is a programming error on this side of the wire, not bad input.
pub(crate) fn encode_frame_into(
    out: &mut Vec<u8>,
    message_type: u16,
    write_payload: impl FnOnce(&mut Vec<u8>),
) -> usize {
    let start = out.len();
    out.extend_from_slice(&FRAME_MAGIC);
    out.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    out.extend_from_slice(&message_type.to_le_bytes());
    out.extend_from_slice(&[0u8; 4]);
    write_payload(out);
    let payload_len = out.len() - start - FRAME_HEADER_LEN;
    assert!(
        payload_len <= MAX_PAYLOAD_LEN as usize,
        "frame payload of {payload_len} bytes exceeds the {MAX_PAYLOAD_LEN}-byte protocol limit"
    );
    out[start + 8..start + FRAME_HEADER_LEN].copy_from_slice(&(payload_len as u32).to_le_bytes());
    let checksum = fnv1a64(&out[start..]);
    out.extend_from_slice(&checksum.to_le_bytes());
    out.len() - start
}

/// Encodes one frame to its wire bytes — `encode_frame_into` for callers that want
/// the bytes of a single frame by themselves (tests, pre-encoding load generators).
///
/// # Panics
///
/// As `encode_frame_into`.
pub fn encode_frame(message_type: u16, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(frame_len(payload.len()));
    encode_frame_into(&mut out, message_type, |out| out.extend_from_slice(payload));
    out
}

/// The write half of one connection: frames are encoded into a reusable outbox and
/// leave in one `write` per [`flush`](FrameWriter::flush), however many they are.
///
/// Every socket in this crate runs with `TCP_NODELAY`, so nothing below this type
/// batches: *when* bytes leave is decided here and only here. A request/reply client
/// flushes after every frame (`send`); the serving executor queues replies while more
/// requests are waiting and flushes when its backlog is empty — batching comes from
/// the backlog, never from a timer.
#[derive(Debug)]
pub struct FrameWriter<W> {
    sink: W,
    outbox: Vec<u8>,
}

impl<W: Write> FrameWriter<W> {
    /// Wraps `sink`; the outbox is allocated by the first frame.
    pub fn new(sink: W) -> Self {
        FrameWriter {
            sink,
            outbox: Vec::new(),
        }
    }

    /// Encodes one frame into the outbox without writing it, and returns its wire
    /// size. Nothing leaves before [`flush`](FrameWriter::flush): an owner that
    /// queues is the one that bounds [`pending`](FrameWriter::pending).
    ///
    /// # Panics
    ///
    /// As `encode_frame_into`.
    pub fn queue_frame(
        &mut self,
        message_type: u16,
        write_payload: impl FnOnce(&mut Vec<u8>),
    ) -> usize {
        encode_frame_into(&mut self.outbox, message_type, write_payload)
    }

    /// Bytes queued and not yet written.
    pub fn pending(&self) -> usize {
        self.outbox.len()
    }

    /// Writes every queued frame. The outbox keeps its allocation for the next frames
    /// unless one oversized frame grew it past `IO_BUFFER_LEN`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the underlying write fails; the connection is
    /// then unusable (part of a frame may have left).
    pub fn flush(&mut self) -> Result<(), NetError> {
        if self.outbox.is_empty() {
            return Ok(());
        }
        let written = self
            .sink
            .write_all(&self.outbox)
            .and_then(|()| self.sink.flush());
        self.outbox.clear();
        self.outbox.shrink_to(IO_BUFFER_LEN);
        written.map_err(|e| NetError::io("write frame", &e))
    }
}

/// Where one complete, verified frame sits in a [`FrameReader`]'s buffer.
struct FrameSpan {
    message_type: u16,
    payload: std::ops::Range<usize>,
    end: usize,
}

/// The read half of one connection: one reusable buffer, at most one `read` per
/// frame, and every complete frame of a fill decoded before the next `read`.
///
/// The reader's contract is the strict one of the module docs, independent of how the
/// bytes arrive — whole, split at any byte, or several frames glued together: a
/// header is validated as soon as its twelve bytes are present and *before* the buffer
/// grows for its payload, so a declared length is bounded before any allocation; a
/// stream that ends mid-frame is `Truncated` with the section it ended in; and a clean
/// end between frames is `Truncated { section: "header" }`, which callers that treat
/// hang-up as a normal event (the serving daemon) check for.
#[derive(Debug)]
pub struct FrameReader<R> {
    source: R,
    /// Storage; `buf[start..end]` holds the bytes read and not yet consumed.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Whether a fill may read past the end of the frame being decoded. Only the
    /// one-shot [`read_frame`] turns it off: its caller keeps the stream, so bytes of
    /// a following frame must stay in the socket.
    read_ahead: bool,
}

impl<R: Read> FrameReader<R> {
    /// Wraps `source`, which this reader must be the only consumer of: it reads ahead
    /// up to `IO_BUFFER_LEN` bytes. The buffer is allocated by the first fill.
    pub fn new(source: R) -> Self {
        FrameReader::with_read_ahead(source, true)
    }

    fn with_read_ahead(source: R, read_ahead: bool) -> Self {
        FrameReader {
            source,
            buf: Vec::new(),
            start: 0,
            end: 0,
            read_ahead,
        }
    }

    /// Reads one complete frame, blocking as needed, and returns `(message type,
    /// payload)`; the payload borrows the reader's buffer until the next call.
    ///
    /// # Errors
    ///
    /// Every decoding failure is a typed [`NetError`]; see the type and module docs.
    /// After a framing error the stream is no longer frame-aligned and the reader
    /// keeps returning errors.
    pub fn next_frame(&mut self) -> Result<(u16, &[u8]), NetError> {
        let span = loop {
            if let Some(span) = self.parse()? {
                break span;
            }
            self.fill()?;
        };
        self.start = span.end;
        Ok((span.message_type, &self.buf[span.payload]))
    }

    /// The next frame if it is already complete in the buffer, without touching the
    /// stream — how a caller drains everything one fill delivered before it blocks
    /// again.
    pub fn buffered_frame(&mut self) -> Option<Result<(u16, &[u8]), NetError>> {
        match self.parse() {
            Ok(None) => None,
            Ok(Some(span)) => {
                self.start = span.end;
                Some(Ok((span.message_type, &self.buf[span.payload])))
            }
            Err(e) => Some(Err(e)),
        }
    }

    /// Validates whatever part of the next frame is buffered: `Ok(None)` while it is
    /// incomplete (and so far plausible), its span once it is whole and its checksum
    /// matches.
    fn parse(&self) -> Result<Option<FrameSpan>, NetError> {
        let Some(frame_len) = self.declared_frame_len()? else {
            return Ok(None);
        };
        if self.end - self.start < frame_len {
            return Ok(None);
        }
        let header = &self.buf[self.start..self.start + FRAME_HEADER_LEN];
        let message_type = u16::from_le_bytes(header[6..8].try_into().expect("2 bytes"));
        let trailer_at = self.start + frame_len - FRAME_TRAILER_LEN;
        let stored = u64::from_le_bytes(
            self.buf[trailer_at..trailer_at + FRAME_TRAILER_LEN]
                .try_into()
                .expect("8 bytes"),
        );
        let computed = fnv1a64(&self.buf[self.start..trailer_at]);
        if stored != computed {
            return Err(NetError::ChecksumMismatch { stored, computed });
        }
        Ok(Some(FrameSpan {
            message_type,
            payload: self.start + FRAME_HEADER_LEN..trailer_at,
            end: self.start + frame_len,
        }))
    }

    /// The wire size the next frame's header declares — checked against magic,
    /// version, and [`MAX_PAYLOAD_LEN`] — or `None` while the header is incomplete.
    fn declared_frame_len(&self) -> Result<Option<usize>, NetError> {
        if self.end - self.start < FRAME_HEADER_LEN {
            return Ok(None);
        }
        let header = &self.buf[self.start..self.start + FRAME_HEADER_LEN];
        let magic: [u8; 4] = header[..4].try_into().expect("4-byte slice");
        if magic != FRAME_MAGIC {
            return Err(NetError::BadMagic { found: magic });
        }
        let version = u16::from_le_bytes(header[4..6].try_into().expect("2 bytes"));
        if version != PROTOCOL_VERSION {
            return Err(NetError::UnsupportedVersion { found: version });
        }
        let declared = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        // The bound comes before the buffer grows: this is the whole point of
        // declaring the length in a fixed-size header.
        if declared > MAX_PAYLOAD_LEN {
            return Err(NetError::Oversized {
                declared: u64::from(declared),
                max: u64::from(MAX_PAYLOAD_LEN),
            });
        }
        Ok(Some(frame_len(declared as usize)))
    }

    /// Reads more of the stream behind the buffered bytes: one `read` of whatever has
    /// arrived (up to the end of the current frame without read-ahead).
    fn fill(&mut self) -> Result<(), NetError> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
            // One oversized frame must not pin its buffer for the connection's life.
            self.buf.truncate(IO_BUFFER_LEN);
            self.buf.shrink_to(IO_BUFFER_LEN);
        }
        let buffered = self.end - self.start;
        // `parse` has vetted the header if there is one, so `needed` is bounded.
        let needed = self.declared_frame_len()?.unwrap_or(FRAME_HEADER_LEN);
        if self.start + needed > self.buf.len() {
            // No room behind the cursor: the partial frame moves to the front, of a
            // larger buffer if this one could not hold the frame even then.
            let floor = if self.read_ahead { IO_BUFFER_LEN } else { 0 };
            if self.buf.len() < needed.max(floor) {
                // A fresh zeroed allocation, not `resize`: the allocator hands large
                // ones out already zeroed instead of filling them byte by byte.
                let mut grown = vec![0; needed.max(floor)];
                grown[..buffered].copy_from_slice(&self.buf[self.start..self.end]);
                self.buf = grown;
            } else {
                self.buf.copy_within(self.start..self.end, 0);
            }
            self.start = 0;
            self.end = buffered;
        }
        let stop = if self.read_ahead {
            self.buf.len()
        } else {
            self.start + needed
        };
        let section = if buffered < FRAME_HEADER_LEN {
            "header"
        } else if buffered < needed - FRAME_TRAILER_LEN {
            "payload"
        } else {
            "trailer"
        };
        loop {
            match self.source.read(&mut self.buf[self.end..stop]) {
                Ok(0) => return Err(NetError::Truncated { section }),
                Ok(n) => {
                    self.end += n;
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(NetError::io(format!("read frame {section}"), &e)),
            }
        }
    }
}

/// Reads exactly one frame from a stream the caller keeps — not a byte beyond it —
/// and returns `(message type, payload)`. Connections use a [`FrameReader`] of their
/// own; this is for callers holding a bare `Read` (tests, tools).
///
/// # Errors
///
/// As [`FrameReader::next_frame`].
pub fn read_frame(reader: &mut impl Read) -> Result<(u16, Vec<u8>), NetError> {
    let mut one = FrameReader::with_read_ahead(reader, false);
    let (message_type, payload) = one.next_frame()?;
    Ok((message_type, payload.to_vec()))
}

// ---------------------------------------------------------------------------------------
// Payload primitives: a strict little-endian reader/writer pair shared by every message
// codec in `crate::message`.

/// Appends a length-prefixed UTF-8 string (`u32` length, then the bytes).
pub(crate) fn put_str(out: &mut Vec<u8>, value: &str) {
    out.extend_from_slice(&(value.len() as u32).to_le_bytes());
    out.extend_from_slice(value.as_bytes());
}

/// A strict cursor over a fully-read payload buffer.
///
/// Every inner length is checked against the bytes actually present before any slice or
/// allocation, so a payload cannot lie its way into an out-of-bounds read or an
/// attacker-sized buffer; [`PayloadReader::finish`] rejects trailing bytes, so a
/// payload is either exactly its message or corrupt.
pub(crate) struct PayloadReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        PayloadReader { bytes, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, len: usize, section: &'static str) -> Result<&'a [u8], NetError> {
        if self.remaining() < len {
            return Err(NetError::Truncated { section });
        }
        let slice = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self, section: &'static str) -> Result<u8, NetError> {
        Ok(self.take(1, section)?[0])
    }

    pub(crate) fn u32(&mut self, section: &'static str) -> Result<u32, NetError> {
        Ok(u32::from_le_bytes(
            self.take(4, section)?.try_into().expect("4 bytes"),
        ))
    }

    pub(crate) fn u64(&mut self, section: &'static str) -> Result<u64, NetError> {
        Ok(u64::from_le_bytes(
            self.take(8, section)?.try_into().expect("8 bytes"),
        ))
    }

    pub(crate) fn str(&mut self, section: &'static str) -> Result<&'a str, NetError> {
        let len = self.u32(section)? as usize;
        let bytes = self.take(len, section)?;
        std::str::from_utf8(bytes)
            .map_err(|_| NetError::corrupt(format!("{section}: string is not valid UTF-8")))
    }

    /// Declares that `count` records of `record_size` bytes each follow, bounding the
    /// product by the bytes actually present *before* the caller allocates a collection
    /// of `count` entries.
    pub(crate) fn expect_records(
        &mut self,
        count: usize,
        record_size: usize,
        section: &'static str,
    ) -> Result<(), NetError> {
        let needed = count.checked_mul(record_size);
        match needed {
            Some(needed) if needed <= self.remaining() => Ok(()),
            _ => Err(NetError::Truncated { section }),
        }
    }

    pub(crate) fn finish(self, context: &'static str) -> Result<(), NetError> {
        if self.remaining() != 0 {
            return Err(NetError::corrupt(format!(
                "{context}: {} undeclared trailing bytes",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        for (message_type, payload) in [
            (1u16, Vec::new()),
            (2, vec![0u8; 1]),
            (3, (0..=255u8).collect::<Vec<u8>>()),
        ] {
            let bytes = encode_frame(message_type, &payload);
            let mut cursor = std::io::Cursor::new(&bytes);
            let (got_type, got_payload) = read_frame(&mut cursor).unwrap();
            assert_eq!(got_type, message_type);
            assert_eq!(got_payload, payload);
            assert_eq!(cursor.position() as usize, bytes.len());
        }
    }

    #[test]
    fn consecutive_frames_stream_cleanly() {
        let mut stream = encode_frame(1, b"first");
        stream.extend_from_slice(&encode_frame(2, b"second"));
        let mut cursor = std::io::Cursor::new(&stream);
        assert_eq!(read_frame(&mut cursor).unwrap(), (1, b"first".to_vec()));
        assert_eq!(read_frame(&mut cursor).unwrap(), (2, b"second".to_vec()));
        assert!(matches!(
            read_frame(&mut cursor),
            Err(NetError::Truncated { section: "header" })
        ));
    }

    /// A sink that counts the `write` calls it receives.
    #[derive(Default)]
    struct CountingSink {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn queued_frames_leave_in_one_write() {
        let mut writer = FrameWriter::new(CountingSink::default());
        let mut expected = Vec::new();
        for message_type in 0..10u16 {
            let bytes = writer.queue_frame(message_type, |out| out.extend_from_slice(b"reply"));
            assert_eq!(bytes, frame_len(5));
            expected.extend_from_slice(&encode_frame(message_type, b"reply"));
        }
        assert_eq!(writer.sink.writes, 0, "queueing alone never writes");
        assert_eq!(writer.pending(), expected.len());
        writer.flush().unwrap();
        assert_eq!(writer.sink.writes, 1);
        assert_eq!(writer.sink.bytes, expected);
        writer.flush().unwrap();
        assert_eq!(writer.sink.writes, 1, "an empty outbox is not written");
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut bytes = encode_frame(1, b"x");
        bytes[0] = b'X';
        assert!(matches!(
            read_frame(&mut bytes.as_slice()),
            Err(NetError::BadMagic { found }) if found[0] == b'X'
        ));
        let mut bytes = encode_frame(1, b"x");
        bytes[4] = 99;
        assert!(matches!(
            read_frame(&mut bytes.as_slice()),
            Err(NetError::UnsupportedVersion { found: 99 })
        ));
    }

    #[test]
    fn oversized_declared_lengths_fail_before_allocation() {
        // A header declaring u32::MAX bytes with nothing behind it: the reader must
        // reject on the declared bound, not attempt a 4 GiB read.
        let mut bytes = encode_frame(1, b"");
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut bytes.as_slice()),
            Err(NetError::Oversized { declared, .. }) if declared == u64::from(u32::MAX)
        ));
    }

    #[test]
    fn truncation_in_every_section_is_typed() {
        let bytes = encode_frame(3, b"payload!");
        for (cut, section) in [
            (4usize, "header"),
            (14, "payload"),
            (bytes.len() - 2, "trailer"),
        ] {
            let got = read_frame(&mut &bytes[..cut]);
            assert!(
                matches!(got, Err(NetError::Truncated { section: s }) if s == section),
                "cut at {cut}: {got:?}"
            );
        }
    }

    #[test]
    fn every_flipped_byte_is_caught_by_the_checksum() {
        let bytes = encode_frame(4, b"integrity matters");
        for i in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0x20;
            assert!(
                read_frame(&mut corrupted.as_slice()).is_err(),
                "flip at byte {i} went unnoticed"
            );
        }
    }

    #[test]
    fn payload_reader_bounds_every_access() {
        let mut out = Vec::new();
        out.extend_from_slice(&7u32.to_le_bytes());
        put_str(&mut out, "hello");
        let mut reader = PayloadReader::new(&out);
        assert_eq!(reader.u32("n").unwrap(), 7);
        assert_eq!(reader.str("s").unwrap(), "hello");
        reader.finish("test").unwrap();

        // A string length lying about the buffer is truncation, not a slice panic.
        let mut lying = Vec::new();
        lying.extend_from_slice(&100u32.to_le_bytes());
        lying.extend_from_slice(b"short");
        assert!(matches!(
            PayloadReader::new(&lying).str("s"),
            Err(NetError::Truncated { .. })
        ));

        // Trailing bytes are corrupt, and record counts are bounded before allocation.
        let mut trailing = PayloadReader::new(&[1, 2, 3]);
        assert!(trailing
            .expect_records(usize::MAX / 2, 12, "records")
            .is_err());
        let _ = trailing.u8("b").unwrap();
        assert!(trailing.finish("test").is_err());
    }
}
