//! The `SFOS` binary snapshot format: CSR topologies on disk.
//!
//! A frozen [`CsrGraph`] is two flat arrays, which makes it the natural wire and mmap
//! format for handing topologies between processes — the ROADMAP's build-once /
//! persist / query-many workload. This module is the codec for that hand-off: a
//! versioned, checksummed, little-endian container holding the `offsets`/`targets`
//! arrays verbatim, a shard count, and an optional **provenance record** — which
//! scenario curve generated the topology (`label`, `m`, cutoff, seed, realization) and
//! the `sweep_seed` drawn from the generation stream right after the topology was
//! built, so a search sweep run against the file continues the *identical* RNG
//! discipline as one run against the inline generator.
//!
//! A file stores the topology, not what follows from it. The header's shard count is
//! the whole partition record of a sharded store (`sfo-engine`'s `ShardedCsr`): shard
//! `i` of `s` owns [`crate::shard_range`]`(node_count, s, i)`, and every shard's
//! cross-shard entries follow from its rows, so neither the ranges nor boundary tables
//! are stored.
//!
//! The full byte layout is documented in `docs/FORMATS.md` at the workspace root (and
//! in [`SnapshotFile`]'s docs). Both directions stream through one fixed-size buffer:
//! the reader hashes every byte as it arrives and decodes the arrays straight into the
//! vectors it returns, in one front-to-back pass. Readers are strict: wrong magic,
//! unknown versions or flags, a shard count the partition cannot cut, truncation,
//! trailing bytes, checksum mismatches, and structurally invalid topologies
//! (non-monotone offsets, out-of-range targets, self-loops, unmirrored adjacency) all
//! yield a typed [`SnapshotError`] — never a panic, and never a silently wrong graph.

use crate::{CsrGraph, NodeId};
use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::Path;

/// The four magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"SFOS";

/// The format version this build writes and the only one it accepts. Version 1 files
/// also stored a shard manifest; rebuild them with `sfo snapshot build`.
pub const SNAPSHOT_VERSION: u16 = 2;

/// Header flag bit: the file carries a provenance section. (Bit 0, version 1's shard
/// manifest flag, is retired: no version 2 file sets it.)
const FLAG_PROVENANCE: u16 = 1 << 1;
/// Header flag bit: the provenance section ends with an origin tag. Requires
/// [`FLAG_PROVENANCE`]; older files never set it and keep loading unchanged.
const FLAG_ORIGIN: u16 = 1 << 2;
/// All flag bits this version understands; anything else is a corrupt or future file.
const KNOWN_FLAGS: u16 = FLAG_PROVENANCE | FLAG_ORIGIN;

/// Fixed-size prefix of the file before any variable-length section.
const HEADER_LEN: usize = 32;
/// Size of the trailing checksum.
const TRAILER_LEN: usize = 8;

/// Size of the one buffer a snapshot is read or written through.
const IO_BUFFER_LEN: usize = 64 * 1024;
/// Size of the buffer [`read_meta`] reads through: enough for a header and a typical
/// provenance section in one read, so spec validation and dispatch read a prefix, not
/// the arrays behind it.
const META_BUFFER_LEN: usize = 256;
/// Incoming entries one block of the mirror check transposes at a time (4 MiB).
const BLOCK_ENTRIES: usize = 1 << 20;

/// The FNV-1a 64 offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Errors produced while reading or writing a snapshot file.
///
/// Every variant is a hard error: a snapshot is either exactly what was written or it is
/// rejected. There is no partial or best-effort decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The underlying file could not be read or written.
    Io {
        /// The path involved.
        path: String,
        /// The operating-system error message.
        message: String,
    },
    /// The file does not start with the `SFOS` magic — it is not a snapshot at all.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The file is a snapshot, but of a format version this build does not understand.
    UnsupportedVersion {
        /// The version stored in the file.
        found: u16,
    },
    /// The file ended before the section being decoded was complete.
    Truncated {
        /// The section that could not be read in full.
        section: &'static str,
    },
    /// The trailing checksum does not match the file contents.
    ChecksumMismatch {
        /// The checksum stored in the trailer.
        stored: u64,
        /// The checksum computed over the file contents.
        computed: u64,
    },
    /// The file decodes but violates a format or graph invariant.
    Corrupt {
        /// The violated invariant.
        reason: String,
    },
    /// A section the caller requires is not present in the file.
    MissingSection {
        /// The absent section (`"shard partition"` or `"provenance"`).
        section: &'static str,
    },
}

impl SnapshotError {
    fn corrupt(reason: impl Into<String>) -> Self {
        SnapshotError::Corrupt {
            reason: reason.into(),
        }
    }

    fn io(path: &Path, error: &std::io::Error) -> Self {
        SnapshotError::Io {
            path: path.display().to_string(),
            message: error.to_string(),
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { path, message } => write!(f, "snapshot io error ({path}): {message}"),
            SnapshotError::BadMagic { found } => write!(
                f,
                "not a snapshot file: expected magic \"SFOS\", found {found:?}"
            ),
            SnapshotError::UnsupportedVersion { found } => write!(
                f,
                "unsupported snapshot version {found} (this build reads version {SNAPSHOT_VERSION})"
            ),
            SnapshotError::Truncated { section } => {
                write!(f, "snapshot truncated inside the {section} section")
            }
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: trailer says {stored:#018x}, contents hash to {computed:#018x}"
            ),
            SnapshotError::Corrupt { reason } => write!(f, "corrupt snapshot: {reason}"),
            SnapshotError::MissingSection { section } => {
                write!(f, "snapshot has no {section} section")
            }
        }
    }
}

impl Error for SnapshotError {}

/// FNV-1a over `bytes`: the trailer checksum.
///
/// Not cryptographic — it guards against truncation, bit rot, and concatenation
/// mistakes, which is what a local topology store needs. The whole file except the
/// 8-byte trailer is hashed.
///
/// Public because it is the workspace's one checksum: the `SFNF` wire frames of
/// `sfo-net` use the identical function (via [`fnv1a64_update`] for streaming over
/// non-contiguous sections), so the cross-format "same function, same constants"
/// guarantee is enforced by sharing code, not by keeping copies in sync.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_update(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a fold from `hash` over `bytes` — `fnv1a64(a ++ b)` equals
/// `fnv1a64_update(fnv1a64(a), b)`, so callers can checksum non-contiguous sections
/// without concatenating them.
pub fn fnv1a64_update(hash: u64, bytes: &[u8]) -> u64 {
    let mut hash = hash;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The decoded fixed-size header of a snapshot file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Format version (currently always [`SNAPSHOT_VERSION`]).
    pub version: u16,
    /// Number of nodes in the stored topology.
    pub node_count: u64,
    /// Number of undirected edges in the stored topology.
    pub edge_count: u64,
    /// Number of shards the topology is cut into (0 for a plain, unsharded file).
    pub shard_count: u32,
    /// Whether a provenance section is present.
    pub has_provenance: bool,
    /// Whether the provenance section ends with an origin tag (absent in older files).
    pub has_origin: bool,
}

/// How a snapshot's topology came to exist: drawn offline by a generator, or frozen
/// from a live overlay-protocol run.
///
/// The distinction matters downstream: a generator file's label names a closed-form
/// topology family, while a live-overlay file's degrees *emerged* from peers following
/// a local attachment rule — `params` records the protocol knobs (active-view cap,
/// attachment walks, churn model) that shaped it. Older files carry no tag and decode
/// to `origin: None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotOrigin {
    /// Drawn by an offline topology generator (`sfo snapshot build`).
    Generator,
    /// Frozen from a live membership-protocol run (`DynamicsSpec::Live` or
    /// `sfo overlay`).
    LiveOverlay {
        /// Human-readable protocol parameters, e.g. `"k_c=20, walks=2, peers=1000"`.
        params: String,
    },
}

impl fmt::Display for SnapshotOrigin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotOrigin::Generator => write!(f, "generator"),
            SnapshotOrigin::LiveOverlay { params } => write!(f, "live-overlay ({params})"),
        }
    }
}

/// Where a snapshot came from and how to continue its RNG stream.
///
/// Written by `sfo snapshot build`, read by the scenario runner: `label` is the curve
/// label (and therefore the stream-family salt) of the generating topology spec, and
/// `sweep_seed` is the `next_u64()` drawn from the generation stream immediately after
/// the topology was built — exactly the value the engine-batched sweep path uses as its
/// batch seed, so a sweep against the file is byte-identical to one against the inline
/// generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// Curve label of the generating topology spec (doubles as the stream-family salt).
    pub label: String,
    /// Stub count `m` of the generating spec (resolves `k_min: None` searches).
    pub m: u64,
    /// Hard cutoff of the generating spec (`None` = unbounded).
    pub cutoff: Option<u64>,
    /// Master seed of the generating scenario.
    pub seed: u64,
    /// Which realization of the generating scenario this topology is.
    pub realization: u64,
    /// The generation stream's next `u64` after the topology was drawn — the batch seed
    /// of a snapshot-backed sweep.
    pub sweep_seed: u64,
    /// How the topology came to exist (`None` in files written before the origin tag).
    pub origin: Option<SnapshotOrigin>,
}

/// A decoded snapshot: the topology plus its optional sections.
///
/// # On-disk layout (version 2, all integers little-endian)
///
/// | offset | size | field |
/// |-------:|-----:|-------|
/// | 0      | 4    | magic `"SFOS"` |
/// | 4      | 2    | version (`u16`, = 2) |
/// | 6      | 2    | flags (`u16`: bit 1 provenance, bit 2 origin; bit 0 retired) |
/// | 8      | 8    | `node_count` (`u64`) |
/// | 16     | 8    | `edge_count` (`u64`, undirected) |
/// | 24     | 4    | `shard_count` (`u32`, 0 for a plain file, at most `node_count`) |
/// | 28     | 4    | reserved, must be 0 |
/// | 32     | …    | provenance section, if flagged |
/// | …      | …    | `offsets`: `(node_count + 1) × u32` |
/// | …      | …    | `targets`: `2 × edge_count × u32` |
/// | end−8  | 8    | FNV-1a 64 checksum of every preceding byte |
///
/// The provenance section is `label_len (u32)`, the UTF-8 label bytes, zero padding to
/// the next 4-byte boundary (0–3 bytes; readers require it to be zero), then `m`,
/// `cutoff` (`u64::MAX` = unbounded), `seed`, `realization`, `sweep_seed`, each `u64`.
/// When the origin flag (bit 2) is set, the provenance section continues with an origin
/// tag: `kind (u32`, 0 = generator, 1 = live-overlay`)`, `params_len (u32)`, the UTF-8
/// params bytes, and zero padding to the next 4-byte boundary — so the arrays stay
/// 4-aligned. The origin flag requires the provenance flag; files without it decode to
/// `origin: None`. A nonzero `shard_count` cuts the node ids into
/// [`crate::shard_range`]'s contiguous near-equal ranges. Placing provenance *before* the
/// arrays keeps [`read_meta`] a small prefix read; padding the label keeps the
/// `offsets`/`targets` sections on 4-byte file offsets, which is what lets the
/// zero-copy mmap loader ([`SnapshotFile::load_mmap`]) borrow them in place (see
/// `docs/FORMATS.md`).
///
/// # Example
///
/// ```
/// use sfo_graph::{Graph, NodeId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dir = std::env::temp_dir().join("sfos-doc-example");
/// std::fs::create_dir_all(&dir)?;
/// let path = dir.join("ring.sfos");
/// let mut g = Graph::with_nodes(4);
/// for i in 0..4 {
///     g.add_edge(NodeId::new(i), NodeId::new((i + 1) % 4))?;
/// }
/// let frozen = g.freeze();
/// frozen.save(&path)?;
/// assert_eq!(sfo_graph::CsrGraph::load(&path)?, frozen);
/// # std::fs::remove_file(&path)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotFile {
    /// The stored topology.
    pub csr: CsrGraph,
    /// The shard count, when the file was written by a sharded store: shard `i` owns
    /// [`crate::shard_range`]`(node_count, shards, i)`.
    pub shards: Option<usize>,
    /// The provenance record, when the file was written by `sfo snapshot build`.
    pub provenance: Option<Provenance>,
}

impl SnapshotFile {
    /// Wraps a plain topology with no optional sections.
    pub fn plain(csr: CsrGraph) -> Self {
        SnapshotFile {
            csr,
            shards: None,
            provenance: None,
        }
    }

    /// Returns the header this snapshot encodes to.
    pub fn header(&self) -> SnapshotHeader {
        SnapshotHeader {
            version: SNAPSHOT_VERSION,
            node_count: self.csr.node_count() as u64,
            edge_count: self.csr.edge_count() as u64,
            shard_count: self.shards.map_or(0, |s| s as u32),
            has_provenance: self.provenance.is_some(),
            has_origin: self.provenance.as_ref().is_some_and(|p| p.origin.is_some()),
        }
    }

    /// Encodes the snapshot to its on-disk byte representation, including the trailer:
    /// exactly the bytes [`SnapshotFile::save`] writes.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is `Some(0)` or exceeds the node count: a file the reader
    /// would refuse.
    pub fn to_bytes(&self) -> Vec<u8> {
        let csr = &self.csr;
        let estimate = HEADER_LEN + TRAILER_LEN + 4 * (csr.node_count() + 1) + 8 * csr.edge_count();
        encode(
            csr,
            self.shards,
            self.provenance.as_ref(),
            Vec::with_capacity(estimate),
        )
        .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Writes the snapshot to `path`, replacing any existing file.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] when the file cannot be written, or when `shards`
    /// is `Some(0)` or exceeds the node count.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        save(path, &self.csr, self.shards, self.provenance.as_ref())
    }

    /// Reads and fully validates a snapshot from `path`.
    ///
    /// The file is read once, front to back, through one fixed-size buffer: the arrays
    /// are decoded straight into the vectors the returned graph owns, and nothing else
    /// of the file is held (see `docs/FORMATS.md`, "Reader guarantees").
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] when the file cannot be read, and every decoding
    /// error of [`SnapshotFile::from_bytes`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        let path = path.as_ref();
        let file = File::open(path).map_err(|e| SnapshotError::io(path, &e))?;
        let len = file
            .metadata()
            .map_err(|e| SnapshotError::io(path, &e))?
            .len();
        read_snapshot(file, path, len, Arrays::Owned)
    }

    /// Like [`SnapshotFile::load`], but borrows the `offsets`/`targets` arrays straight
    /// out of a read-only file mapping instead of copying them into the heap.
    ///
    /// Verify once, then borrow: the file streams through the same single pass as
    /// [`SnapshotFile::load`] (checksum and sections), the structural validation
    /// runs over the mapped arrays, and the returned [`CsrGraph`] then traverses the
    /// page cache in place ([`CsrGraph::is_mapped`] reports which storage a load
    /// produced). Only the array pages of the mapping are ever touched. The fallbacks,
    /// in order:
    ///
    /// * the mapping cannot be established (unsupported filesystem, empty file, …) —
    ///   retry as [`SnapshotFile::load`], so callers see the reader's usual errors;
    /// * the array sections are not 4-byte-aligned in the file (files written by this
    ///   build always are, via label padding; see `docs/FORMATS.md`) — decode an owned
    ///   copy in the same pass.
    ///
    /// Decoding errors — bad magic, checksum mismatch, structural corruption — are
    /// never masked by either fallback.
    ///
    /// # Errors
    ///
    /// The same errors as [`SnapshotFile::load`].
    #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
    pub fn load_mmap(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        let path = path.as_ref();
        let file = File::open(path).map_err(|e| SnapshotError::io(path, &e))?;
        // The pass reads the very file the mapping was made from.
        let mapping = match crate::mmap::MappedFile::map(&file) {
            Ok(mapping) => std::sync::Arc::new(mapping),
            Err(_) => return Self::load(path),
        };
        let len = mapping.bytes().len() as u64;
        read_snapshot(file, path, len, Arrays::Mapped(mapping))
    }

    /// Read-based stand-in on targets without mmap support: same validation, same
    /// result, owned storage.
    #[cfg(not(all(unix, target_pointer_width = "64", target_endian = "little")))]
    pub fn load_mmap(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        Self::load(path)
    }

    /// Decodes a snapshot from its on-disk byte representation.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] on wrong magic, an unsupported version, unknown
    /// flags, a shard count the partition cannot cut, truncation, trailing bytes, a
    /// checksum mismatch, or any structural inconsistency between the header and the
    /// arrays.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        read_snapshot(
            std::io::Cursor::new(bytes),
            Path::new("<bytes>"),
            bytes.len() as u64,
            Arrays::Owned,
        )
    }
}

/// Writes a topology plus its shard count and optional provenance to `path` in the
/// on-disk format, replacing any existing file — the borrowing core behind
/// [`SnapshotFile::save`], [`CsrGraph::save`] and the sharded store's `save`. Nothing
/// of the file is held but one fixed-size buffer.
///
/// # Errors
///
/// Returns [`SnapshotError::Io`] when the file cannot be written, or when `shards` is
/// `Some(0)` or exceeds the node count.
pub fn save(
    path: impl AsRef<Path>,
    csr: &CsrGraph,
    shards: Option<usize>,
    provenance: Option<&Provenance>,
) -> Result<(), SnapshotError> {
    let path = path.as_ref();
    check_cut(csr, shards)
        .and_then(|()| File::create(path))
        .and_then(|file| encode(csr, shards, provenance, file))
        .map(drop)
        .map_err(|e| SnapshotError::io(path, &e))
}

/// Number of zero bytes written after a provenance label so the section that follows
/// starts on a 4-byte boundary. Readers require the pad to be zero.
fn label_pad(label_len: usize) -> usize {
    (4 - label_len % 4) % 4
}

/// The snapshot writer: every byte passes through one fixed-size buffer and into the
/// checksum on its way to `out`.
struct Encoder<W> {
    out: W,
    buf: Vec<u8>,
    hash: u64,
}

impl<W: Write> Encoder<W> {
    /// Hashes `bytes` as it buffers them: folding each value in as it is encoded lets
    /// the encoding overlap the checksum's byte-serial dependency chain.
    fn put(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.hash = fnv1a64_update(self.hash, bytes);
        if self.buf.len() + bytes.len() > IO_BUFFER_LEN {
            self.flush()?;
            if bytes.len() > IO_BUFFER_LEN {
                return self.out.write_all(bytes);
            }
        }
        self.buf.extend_from_slice(bytes);
        Ok(())
    }

    fn u32(&mut self, value: u32) -> std::io::Result<()> {
        self.put(&value.to_le_bytes())
    }

    fn u64(&mut self, value: u64) -> std::io::Result<()> {
        self.put(&value.to_le_bytes())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.out.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }

    /// Writes what is buffered, then the checksum trailer.
    fn finish(mut self) -> std::io::Result<W> {
        self.flush()?;
        self.out.write_all(&self.hash.to_le_bytes())?;
        Ok(self.out)
    }
}

/// Refuses, as an [`std::io::ErrorKind::InvalidInput`] error, a shard count the
/// reader would refuse: zero, or more shards than nodes.
fn check_cut(csr: &CsrGraph, shards: Option<usize>) -> std::io::Result<()> {
    match shards.filter(|&s| s == 0 || s > csr.node_count()) {
        Some(shards) => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "{shards} shards cannot cut a {}-node topology",
                csr.node_count()
            ),
        )),
        None => Ok(()),
    }
}

/// Encodes a topology plus its shard count and optional provenance to `out` in the
/// on-disk format: the one encoder behind [`SnapshotFile::to_bytes`] and [`save`]. A
/// shard count the reader would refuse fails [`check_cut`] before anything is written.
fn encode<W: Write>(
    csr: &CsrGraph,
    shards: Option<usize>,
    provenance: Option<&Provenance>,
    out: W,
) -> std::io::Result<W> {
    check_cut(csr, shards)?;
    let mut flags = 0u16;
    if provenance.is_some() {
        flags |= FLAG_PROVENANCE;
    }
    if provenance.is_some_and(|p| p.origin.is_some()) {
        flags |= FLAG_ORIGIN;
    }

    let mut out = Encoder {
        out,
        buf: Vec::with_capacity(IO_BUFFER_LEN),
        hash: FNV_OFFSET,
    };
    out.put(&SNAPSHOT_MAGIC)?;
    out.put(&SNAPSHOT_VERSION.to_le_bytes())?;
    out.put(&flags.to_le_bytes())?;
    out.u64(csr.node_count() as u64)?;
    out.u64(csr.edge_count() as u64)?;
    out.u32(shards.map_or(0, |s| s as u32))?;
    out.u32(0)?;

    if let Some(provenance) = provenance {
        let label = provenance.label.as_bytes();
        out.u32(label.len() as u32)?;
        out.put(label)?;
        // Zero-pad the label so the offsets/targets arrays that follow start on a
        // 4-byte file offset — the precondition for borrowing them out of a mapping.
        out.put(&[0u8; 3][..label_pad(label.len())])?;
        out.u64(provenance.m)?;
        out.u64(provenance.cutoff.unwrap_or(u64::MAX))?;
        out.u64(provenance.seed)?;
        out.u64(provenance.realization)?;
        out.u64(provenance.sweep_seed)?;
        if let Some(origin) = &provenance.origin {
            let (kind, params) = match origin {
                SnapshotOrigin::Generator => (0u32, ""),
                SnapshotOrigin::LiveOverlay { params } => (1u32, params.as_str()),
            };
            let params = params.as_bytes();
            out.u32(kind)?;
            out.u32(params.len() as u32)?;
            out.put(params)?;
            // The origin tail is padded like the label, so the arrays stay 4-aligned.
            out.put(&[0u8; 3][..label_pad(params.len())])?;
        }
    }

    let (offsets, targets) = csr.raw_parts();
    for &offset in offsets {
        out.u32(offset)?;
    }
    for &target in targets {
        out.u32(target.as_u32())?;
    }
    out.finish()
}

/// Where a load puts the `offsets`/`targets` arrays.
enum Arrays {
    /// Decoded into owned vectors as they stream past.
    Owned,
    /// Borrowed from a read-only mapping of the file being read, when the sections are
    /// 4-byte aligned in it; decoded as [`Arrays::Owned`] otherwise.
    #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
    Mapped(std::sync::Arc<crate::mmap::MappedFile>),
}

/// A section of an `SFOS` file read front to back through one fixed-size buffer.
///
/// Every byte is folded into the checksum as it is consumed, so the file is never held
/// whole. Lengths read from the file are checked against the bytes left
/// before anything is sized by them.
struct Reader<'p, R> {
    source: R,
    /// The file, for I/O errors.
    path: &'p Path,
    buf: Vec<u8>,
    /// The bytes read but not consumed are `buf[pos..filled]`.
    pos: usize,
    filled: usize,
    /// Bytes of the section not yet pulled from the source.
    unread: u64,
    /// Length of the section.
    len: u64,
    hash: u64,
}

impl<'p, R: Read> Reader<'p, R> {
    /// Reads a `len`-byte section through a buffer of at most `buffer_len` bytes.
    fn new(source: R, path: &'p Path, len: u64, buffer_len: usize) -> Self {
        Reader {
            source,
            path,
            buf: vec![0; usize::try_from(len).map_or(buffer_len, |len| len.min(buffer_len))],
            pos: 0,
            filled: 0,
            unread: len,
            len,
            hash: FNV_OFFSET,
        }
    }

    fn io(&self, error: &std::io::Error) -> SnapshotError {
        SnapshotError::io(self.path, error)
    }

    /// Bytes of the section not yet consumed.
    fn remaining(&self) -> u64 {
        (self.filled - self.pos) as u64 + self.unread
    }

    /// Bytes of the section consumed so far.
    fn position(&self) -> u64 {
        self.len - self.remaining()
    }

    /// Makes at least `want` bytes (at most the buffer, at most what remains) ready.
    fn fill(&mut self, want: usize) -> Result<(), SnapshotError> {
        if self.filled - self.pos >= want {
            return Ok(());
        }
        self.buf.copy_within(self.pos..self.filled, 0);
        self.filled -= self.pos;
        self.pos = 0;
        let more = usize::try_from(self.unread)
            .map_or(self.buf.len(), |unread| unread)
            .min(self.buf.len() - self.filled);
        let fresh = &mut self.buf[self.filled..self.filled + more];
        if let Err(e) = self.source.read_exact(fresh) {
            return Err(self.io(&e));
        }
        self.filled += more;
        self.unread -= more as u64;
        Ok(())
    }

    fn array<const N: usize>(&mut self, section: &'static str) -> Result<[u8; N], SnapshotError> {
        if N as u64 > self.remaining() {
            return Err(SnapshotError::Truncated { section });
        }
        self.fill(N)?;
        let bytes = self.buf[self.pos..self.pos + N]
            .try_into()
            .expect("N bytes are ready");
        self.consume(N);
        Ok(bytes)
    }

    /// Consumes `n` ready bytes, folding them into the checksum.
    fn consume(&mut self, n: usize) {
        self.hash = fnv1a64_update(self.hash, &self.buf[self.pos..self.pos + n]);
        self.pos += n;
    }

    fn u32(&mut self, section: &'static str) -> Result<u32, SnapshotError> {
        self.array(section).map(u32::from_le_bytes)
    }

    fn u64(&mut self, section: &'static str) -> Result<u64, SnapshotError> {
        self.array(section).map(u64::from_le_bytes)
    }

    /// Reads `len` bytes of a variable-length field.
    fn bytes(&mut self, len: usize, section: &'static str) -> Result<Vec<u8>, SnapshotError> {
        if len as u64 > self.remaining() {
            return Err(SnapshotError::Truncated { section });
        }
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            self.fill(1)?;
            let n = (self.filled - self.pos).min(len - out.len());
            out.extend_from_slice(&self.buf[self.pos..self.pos + n]);
            self.consume(n);
        }
        Ok(out)
    }

    /// Streams `count` little-endian `u32` words to `each`. The caller has checked that
    /// the section holds them. Each word is hashed as it is decoded, so `each`'s work
    /// overlaps the checksum's byte-serial dependency chain.
    fn words(&mut self, count: usize, mut each: impl FnMut(u32)) -> Result<(), SnapshotError> {
        let mut left = count;
        while left > 0 {
            self.fill(4)?;
            let n = ((self.filled - self.pos) / 4).min(left);
            let mut hash = self.hash;
            for word in self.buf[self.pos..self.pos + 4 * n].chunks_exact(4) {
                hash = fnv1a64_update(hash, word);
                each(u32::from_le_bytes(word.try_into().expect("4 bytes")));
            }
            self.hash = hash;
            self.pos += 4 * n;
            left -= n;
        }
        Ok(())
    }

    /// Consumes (and hashes) `len` bytes without decoding them.
    fn skip(&mut self, len: u64) -> Result<(), SnapshotError> {
        let mut left = len;
        while left > 0 {
            self.fill(1)?;
            let n = ((self.filled - self.pos) as u64).min(left);
            self.consume(n as usize);
            left -= n;
        }
        Ok(())
    }

    /// Consumes the rest of the body and checks the trailer that follows it.
    fn verify(&mut self) -> Result<(), SnapshotError> {
        self.skip(self.remaining())?;
        let mut trailer = [0u8; TRAILER_LEN];
        if let Err(e) = self.source.read_exact(&mut trailer) {
            return Err(self.io(&e));
        }
        let stored = u64::from_le_bytes(trailer);
        if stored != self.hash {
            return Err(SnapshotError::ChecksumMismatch {
                stored,
                computed: self.hash,
            });
        }
        Ok(())
    }

    /// A UTF-8 text field followed by zero padding to a 4-byte boundary.
    fn padded_text(
        &mut self,
        len: usize,
        section: &'static str,
        [not_utf8, dirty_pad]: [&str; 2],
    ) -> Result<String, SnapshotError> {
        let text = String::from_utf8(self.bytes(len, section)?)
            .map_err(|_| SnapshotError::corrupt(not_utf8))?;
        if self.bytes(label_pad(len), section)?.iter().any(|&b| b != 0) {
            return Err(SnapshotError::corrupt(dirty_pad));
        }
        Ok(text)
    }

    fn provenance(&mut self, with_origin: bool) -> Result<Provenance, SnapshotError> {
        let label_len = self.u32("provenance")? as usize;
        let label = self.padded_text(
            label_len,
            "provenance",
            [
                "provenance label is not valid UTF-8",
                "provenance label padding is not zero",
            ],
        )?;
        let m = self.u64("provenance")?;
        let cutoff = match self.u64("provenance")? {
            u64::MAX => None,
            value => Some(value),
        };
        let mut provenance = Provenance {
            label,
            m,
            cutoff,
            seed: self.u64("provenance")?,
            realization: self.u64("provenance")?,
            sweep_seed: self.u64("provenance")?,
            origin: None,
        };
        if with_origin {
            provenance.origin = Some(self.origin()?);
        }
        Ok(provenance)
    }

    fn origin(&mut self) -> Result<SnapshotOrigin, SnapshotError> {
        let kind = self.u32("origin")?;
        let params_len = self.u32("origin")? as usize;
        let params = self.padded_text(
            params_len,
            "origin",
            [
                "origin params are not valid UTF-8",
                "origin params padding is not zero",
            ],
        )?;
        match kind {
            0 if params.is_empty() => Ok(SnapshotOrigin::Generator),
            0 => Err(SnapshotError::corrupt(
                "generator origin carries protocol params",
            )),
            1 => Ok(SnapshotOrigin::LiveOverlay { params }),
            other => Err(SnapshotError::corrupt(format!(
                "unknown origin kind {other}"
            ))),
        }
    }
}

/// The one loader: a single front-to-back pass over a `len`-byte source.
///
/// Verdicts come in a fixed order, whatever order the pass meets them in: header
/// errors, then the checksum, then the sections' decoding errors in file order, then
/// the topology. A structural fault found mid-pass is held until the trailer has been
/// checked.
fn read_snapshot<R: Read>(
    source: R,
    path: &Path,
    len: u64,
    arrays: Arrays,
) -> Result<SnapshotFile, SnapshotError> {
    if len < (HEADER_LEN + TRAILER_LEN) as u64 {
        // Too short for a header and a trailer: the header decides what to report.
        let mut prefix = Vec::with_capacity(HEADER_LEN);
        source
            .take(HEADER_LEN as u64)
            .read_to_end(&mut prefix)
            .map_err(|e| SnapshotError::io(path, &e))?;
        decode_header(&prefix)?;
        return Err(SnapshotError::Truncated { section: "trailer" });
    }
    let mut reader = Reader::new(source, path, len - TRAILER_LEN as u64, IO_BUFFER_LEN);
    let header = decode_header(&reader.array::<HEADER_LEN>("header")?)?;
    let body = match read_body(&mut reader, &header, arrays) {
        Err(error @ SnapshotError::Io { .. }) => return Err(error),
        body => body,
    };
    reader.verify()?;
    let (provenance, csr) = body?;
    Ok(SnapshotFile {
        csr,
        shards: (header.shard_count > 0).then_some(header.shard_count as usize),
        provenance,
    })
}

/// Everything after the header: sections in file order, then the held topology verdict.
fn read_body<R: Read>(
    reader: &mut Reader<'_, R>,
    header: &SnapshotHeader,
    arrays: Arrays,
) -> Result<(Option<Provenance>, CsrGraph), SnapshotError> {
    let provenance = if header.has_provenance {
        Some(reader.provenance(header.has_origin)?)
    } else {
        None
    };
    let node_count = usize::try_from(header.node_count)
        .ok()
        .filter(|&n| n < u32::MAX as usize)
        .ok_or_else(|| SnapshotError::corrupt("node count exceeds the u32 index space"))?;
    let entry_count = header
        .edge_count
        .checked_mul(2)
        .and_then(|n| usize::try_from(n).ok())
        .filter(|&n| n <= u32::MAX as usize)
        .ok_or_else(|| SnapshotError::corrupt("edge count exceeds the u32 index space"))?;

    // The array sections are bounds-checked as whole byte ranges before anything is
    // allocated, so the untrusted header counts can never size an allocation the file
    // cannot back.
    let offsets_at = reader.position();
    let offsets_len = 4 * (node_count as u64 + 1);
    if offsets_len > reader.remaining() {
        return Err(SnapshotError::Truncated { section: "offsets" });
    }
    let targets_len = 4 * entry_count as u64;
    if offsets_len + targets_len > reader.remaining() {
        return Err(SnapshotError::Truncated { section: "targets" });
    }
    let csr = match arrays {
        #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
        Arrays::Mapped(mapping) => {
            let at = |start: u64, len: u64| start as usize..(start + len) as usize;
            match crate::mmap::MappedCsr::new(
                mapping,
                at(offsets_at, offsets_len),
                at(offsets_at + offsets_len, targets_len),
            ) {
                Some(mapped) => {
                    reader.skip(offsets_len + targets_len)?;
                    CsrGraph::from_mapped(mapped)
                }
                None => read_arrays(reader, node_count, entry_count)?,
            }
        }
        Arrays::Owned => read_arrays(reader, node_count, entry_count)?,
    };
    let (offsets, targets) = csr.raw_parts();
    let topology = validate_topology(offsets, targets);
    if reader.remaining() != 0 {
        return Err(SnapshotError::corrupt(format!(
            "{} undeclared bytes between the last section and the trailer",
            reader.remaining()
        )));
    }
    topology?;
    Ok((provenance, csr))
}

/// Decodes the two arrays into the vectors the loaded graph owns.
fn read_arrays<R: Read>(
    reader: &mut Reader<'_, R>,
    node_count: usize,
    entry_count: usize,
) -> Result<CsrGraph, SnapshotError> {
    let mut offsets = Vec::with_capacity(node_count + 1);
    reader.words(node_count + 1, |word| offsets.push(word))?;
    let mut targets = Vec::with_capacity(entry_count);
    reader.words(entry_count, |word| targets.push(NodeId::from(word)))?;
    Ok(CsrGraph::from_raw_parts(offsets, targets))
}

/// Reads only the header and (if present) provenance of a snapshot file — a small
/// prefix read that touches none of the arrays and does **not** verify the checksum.
///
/// This is what spec validation and `sfo snapshot inspect` use to answer "what is this
/// file?" without paying for a full load; anything that will traverse the topology goes
/// through [`SnapshotFile::load`], which verifies everything.
///
/// # Errors
///
/// Returns [`SnapshotError::Io`] when the file cannot be opened and the header or
/// provenance decoding errors of the full reader.
pub fn read_meta(
    path: impl AsRef<Path>,
) -> Result<(SnapshotHeader, Option<Provenance>), SnapshotError> {
    let path = path.as_ref();
    let file = File::open(path).map_err(|e| SnapshotError::io(path, &e))?;
    let len = file
        .metadata()
        .map_err(|e| SnapshotError::io(path, &e))?
        .len();
    // The lengths inside the provenance are bounded by the file size before anything
    // is sized by them, so a corrupt label length cannot request a huge buffer.
    let mut reader = Reader::new(file, path, len, META_BUFFER_LEN);
    let header = decode_header(&reader.array::<HEADER_LEN>("header")?)?;
    let provenance = if header.has_provenance {
        Some(reader.provenance(header.has_origin)?)
    } else {
        None
    };
    Ok((header, provenance))
}

/// Reads the identity hash of a snapshot file: the FNV-1a 64 checksum stored in its
/// trailer, which (for files that pass verification) is a content hash of everything
/// before it — two valid snapshots share an identity exactly when they are byte-for-byte
/// the same file.
///
/// This is the value `sfo-net` workers echo in their `Hello` frame and dispatchers
/// compare against the snapshot a scenario names, refusing to split work across a worker
/// that serves a different realization. Only the header prefix and the trailer are read;
/// like [`read_meta`], this does **not** verify the checksum against the arrays —
/// the serving process does that once at load time via [`SnapshotFile::load`].
///
/// # Errors
///
/// Returns [`SnapshotError::Io`] when the file cannot be opened, the header errors of
/// the full reader (wrong magic, unsupported version, unknown flags), and
/// [`SnapshotError::Truncated`] when the file is too short to hold a trailer.
pub fn read_identity(path: impl AsRef<Path>) -> Result<u64, SnapshotError> {
    let path = path.as_ref();
    let mut file = std::fs::File::open(path).map_err(|e| SnapshotError::io(path, &e))?;
    let mut header_bytes = Vec::with_capacity(HEADER_LEN);
    Read::by_ref(&mut file)
        .take(HEADER_LEN as u64)
        .read_to_end(&mut header_bytes)
        .map_err(|e| SnapshotError::io(path, &e))?;
    decode_header(&header_bytes)?;
    let len = file
        .metadata()
        .map_err(|e| SnapshotError::io(path, &e))?
        .len();
    if len < (HEADER_LEN + TRAILER_LEN) as u64 {
        return Err(SnapshotError::Truncated { section: "trailer" });
    }
    file.seek(SeekFrom::End(-(TRAILER_LEN as i64)))
        .map_err(|e| SnapshotError::io(path, &e))?;
    let mut trailer = [0u8; TRAILER_LEN];
    file.read_exact(&mut trailer)
        .map_err(|_| SnapshotError::Truncated { section: "trailer" })?;
    Ok(u64::from_le_bytes(trailer))
}

/// Absolute byte ranges of every section of a snapshot file.
///
/// Built by [`section_layout`] from a prefix read — header plus (when flagged) the
/// 4-byte provenance label length — and the file size; the arrays are never read and
/// the checksum is not verified. This is what `sfo snapshot inspect` prints to answer
/// "where does each section live and how big is it" in O(header) time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionLayout {
    /// The decoded fixed-size header.
    pub header: SnapshotHeader,
    /// Byte range of the fixed-size header (always `0..32`).
    pub header_bytes: Range<u64>,
    /// Byte range of the provenance section, when flagged.
    pub provenance_bytes: Option<Range<u64>>,
    /// Byte range of the `offsets` array: `(node_count + 1) × u32`.
    pub offsets_bytes: Range<u64>,
    /// Byte range of the `targets` array: `2 × edge_count × u32`.
    pub targets_bytes: Range<u64>,
    /// Byte range of the checksum trailer (the last 8 bytes).
    pub trailer_bytes: Range<u64>,
    /// Total file size in bytes.
    pub file_len: u64,
}

impl SectionLayout {
    /// `true` when both array sections sit on 4-byte file offsets — the structural
    /// precondition for [`SnapshotFile::load_mmap`] to borrow them in place instead of
    /// taking the owned fallback. Files written by this build always qualify.
    pub fn zero_copy_eligible(&self) -> bool {
        self.offsets_bytes.start.is_multiple_of(4) && self.targets_bytes.start.is_multiple_of(4)
    }
}

/// Computes the [`SectionLayout`] of a snapshot file from a prefix read.
///
/// Like [`read_meta`], this touches none of the arrays and does **not** verify the
/// checksum; anything that will traverse the topology goes through
/// [`SnapshotFile::load`] or [`SnapshotFile::load_mmap`], which verify everything.
///
/// # Errors
///
/// Returns [`SnapshotError::Io`] when the file cannot be opened, the header errors of
/// the full reader, and [`SnapshotError::Truncated`]/[`SnapshotError::Corrupt`] when
/// the file size cannot hold the sections the header declares.
pub fn section_layout(path: impl AsRef<Path>) -> Result<SectionLayout, SnapshotError> {
    let path = path.as_ref();
    let mut file = std::fs::File::open(path).map_err(|e| SnapshotError::io(path, &e))?;
    let mut header_bytes = [0u8; HEADER_LEN];
    file.read_exact(&mut header_bytes)
        .map_err(|_| SnapshotError::Truncated { section: "header" })?;
    let header = decode_header(&header_bytes)?;
    let file_len = file
        .metadata()
        .map_err(|e| SnapshotError::io(path, &e))?
        .len();

    let provenance_bytes = if header.has_provenance {
        let mut len_bytes = [0u8; 4];
        file.read_exact(&mut len_bytes)
            .map_err(|_| SnapshotError::Truncated {
                section: "provenance",
            })?;
        let label_len = u32::from_le_bytes(len_bytes) as usize;
        let mut section_len = (4 + label_len + label_pad(label_len) + 5 * 8) as u64;
        if header.has_origin {
            // The origin tail is variable-length too: skip to its kind/params_len
            // prefix and fold its extent into the provenance section.
            file.seek(SeekFrom::Current(
                (label_len + label_pad(label_len) + 5 * 8) as i64,
            ))
            .map_err(|e| SnapshotError::io(path, &e))?;
            let mut origin_prefix = [0u8; 8];
            file.read_exact(&mut origin_prefix)
                .map_err(|_| SnapshotError::Truncated { section: "origin" })?;
            let params_len =
                u32::from_le_bytes(origin_prefix[4..8].try_into().expect("4 bytes")) as usize;
            section_len += (8 + params_len + label_pad(params_len)) as u64;
        }
        Some(HEADER_LEN as u64..HEADER_LEN as u64 + section_len)
    } else {
        None
    };

    let truncated = |section: &'static str| SnapshotError::Truncated { section };
    let offsets_start = provenance_bytes
        .as_ref()
        .map_or(HEADER_LEN as u64, |p| p.end);
    let offsets_end = header
        .node_count
        .checked_add(1)
        .and_then(|n| n.checked_mul(4))
        .and_then(|len| offsets_start.checked_add(len))
        .ok_or_else(|| truncated("offsets"))?;
    let targets_end = header
        .edge_count
        .checked_mul(8)
        .and_then(|len| offsets_end.checked_add(len))
        .ok_or_else(|| truncated("targets"))?;
    if targets_end + TRAILER_LEN as u64 > file_len {
        return Err(truncated("targets"));
    }
    let trailer_start = file_len - TRAILER_LEN as u64;

    if targets_end != trailer_start {
        return Err(SnapshotError::corrupt(format!(
            "{} undeclared bytes between the last section and the trailer",
            trailer_start - targets_end
        )));
    }

    Ok(SectionLayout {
        header,
        header_bytes: 0..HEADER_LEN as u64,
        provenance_bytes,
        offsets_bytes: offsets_start..offsets_end,
        targets_bytes: offsets_end..targets_end,
        trailer_bytes: trailer_start..file_len,
        file_len,
    })
}

/// Decodes and sanity-checks the fixed-size header prefix.
fn decode_header(bytes: &[u8]) -> Result<SnapshotHeader, SnapshotError> {
    if bytes.len() < HEADER_LEN {
        if bytes.len() < 4 {
            return Err(SnapshotError::Truncated { section: "header" });
        }
        let found: [u8; 4] = bytes[..4].try_into().expect("4-byte slice");
        if found != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic { found });
        }
        return Err(SnapshotError::Truncated { section: "header" });
    }
    let found: [u8; 4] = bytes[..4].try_into().expect("4-byte slice");
    if found != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic { found });
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    let flags = u16::from_le_bytes(bytes[6..8].try_into().expect("2 bytes"));
    if flags & !KNOWN_FLAGS != 0 {
        return Err(SnapshotError::corrupt(format!(
            "unknown flag bits {:#06x} for version {SNAPSHOT_VERSION}",
            flags & !KNOWN_FLAGS
        )));
    }
    let node_count = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let edge_count = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let shard_count = u32::from_le_bytes(bytes[24..28].try_into().expect("4 bytes"));
    let reserved = u32::from_le_bytes(bytes[28..32].try_into().expect("4 bytes"));
    if reserved != 0 {
        return Err(SnapshotError::corrupt("reserved header bytes are not zero"));
    }
    if u64::from(shard_count) > node_count {
        return Err(SnapshotError::corrupt(format!(
            "{shard_count} shards cannot cut a {node_count}-node topology"
        )));
    }
    let has_provenance = flags & FLAG_PROVENANCE != 0;
    let has_origin = flags & FLAG_ORIGIN != 0;
    if has_origin && !has_provenance {
        return Err(SnapshotError::corrupt(
            "origin tag flagged but no provenance section",
        ));
    }
    Ok(SnapshotHeader {
        version,
        node_count,
        edge_count,
        shard_count,
        has_provenance,
        has_origin,
    })
}

/// One bit per node: the entries of the row being checked.
struct RowMarks(Vec<u64>);

impl RowMarks {
    fn new(node_count: usize) -> Self {
        RowMarks(vec![0; node_count.div_ceil(64)])
    }

    /// Marks `node`; returns `false` when it was marked already.
    fn insert(&mut self, node: usize) -> bool {
        let (word, bit) = (node / 64, 1u64 << (node % 64));
        let fresh = self.0[word] & bit == 0;
        self.0[word] |= bit;
        fresh
    }

    fn contains(&self, node: usize) -> bool {
        self.0[node / 64] & (1u64 << (node % 64)) != 0
    }

    fn insert_row(&mut self, row: &[NodeId]) {
        for &node in row {
            self.insert(node.index());
        }
    }

    fn clear_row(&mut self, row: &[NodeId]) {
        for &node in row {
            self.0[node.index() / 64] &= !(1u64 << (node.index() % 64));
        }
    }
}

/// Structural validation of the CSR arrays: everything `CsrGraph` assumes must be
/// proven here, so a loaded snapshot can never panic downstream.
///
/// It needs a bitset and an in-degree per node plus one fixed-size block, never a
/// copy of `targets`. One pass over the rows checks each for out-of-range targets,
/// self-loops and parallel edges with the bitset as a row mark, and counts in-degrees.
/// Mirror symmetry is then checked by counting-sort transposition, one block of
/// destination nodes at a time (see [`first_unmirrored`]). Each error is the one a
/// check walking the rows in node order would report first.
fn validate_topology(offsets: &[u32], targets: &[NodeId]) -> Result<(), SnapshotError> {
    let node_count = offsets.len() - 1;
    if offsets[0] != 0 {
        return Err(SnapshotError::corrupt("offsets do not start at zero"));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(SnapshotError::corrupt("offsets are not monotone"));
    }
    if offsets[node_count] as usize != targets.len() {
        return Err(SnapshotError::corrupt(
            "final offset does not match the target array length",
        ));
    }
    let row = |node: usize| &targets[offsets[node] as usize..offsets[node + 1] as usize];
    let mut marks = RowMarks::new(node_count);
    let mut in_degree = vec![0u32; node_count];
    for node in 0..node_count {
        // In a sorted row a self-loop comes before any out-of-range neighbor.
        if row(node).iter().any(|neighbor| neighbor.index() == node) {
            return Err(SnapshotError::corrupt(format!(
                "node {node} has a self-loop"
            )));
        }
        if let Some(neighbor) = row(node).iter().filter(|n| n.index() >= node_count).min() {
            return Err(SnapshotError::corrupt(format!(
                "node {node} lists out-of-range neighbor {neighbor}"
            )));
        }
        let mut twice = false;
        for &neighbor in row(node) {
            twice |= !marks.insert(neighbor.index());
            in_degree[neighbor.index()] += 1;
        }
        marks.clear_row(row(node));
        if twice {
            return Err(SnapshotError::corrupt(format!(
                "node {node} lists a neighbor twice (parallel edge)"
            )));
        }
    }
    if let Some(node) = first_unmirrored(offsets, targets, in_degree, &mut marks) {
        let source = NodeId::new(node);
        if let Some(neighbor) = row(node)
            .iter()
            .find(|neighbor| !row(neighbor.index()).contains(&source))
        {
            return Err(SnapshotError::corrupt(format!(
                "adjacency is not mirrored: n{node} lists {neighbor} but not vice versa"
            )));
        }
    }
    Ok(())
}

/// The least node `u` listing some `v` whose row does not list `u`, over rows already
/// proven duplicate-free and in range.
///
/// The graph is symmetric exactly when every node's incoming sources lie in its own
/// row. Destination nodes are taken in blocks whose in-degrees sum to at most
/// [`BLOCK_ENTRIES`]; one scan of all rows lays each block node's incoming sources out
/// contiguously (a counting sort keyed by destination, `in_degree` becoming the write
/// cursors), and each node's sources are then tested against its marked row. A node
/// with more incoming entries than a block holds is checked alone, against its marked
/// row during the scan itself.
fn first_unmirrored(
    offsets: &[u32],
    targets: &[NodeId],
    mut in_degree: Vec<u32>,
    marks: &mut RowMarks,
) -> Option<usize> {
    let node_count = offsets.len() - 1;
    let row = |node: usize| &targets[offsets[node] as usize..offsets[node + 1] as usize];
    let mut first: Option<usize> = None;
    let mut note = |source: usize| first = Some(first.map_or(source, |f| f.min(source)));
    let mut block = Vec::with_capacity(BLOCK_ENTRIES.min(targets.len()));
    let mut lo = 0;
    while lo < node_count {
        let mut hi = lo + 1;
        let mut total = in_degree[lo] as usize;
        while hi < node_count && total + in_degree[hi] as usize <= BLOCK_ENTRIES {
            total += in_degree[hi] as usize;
            hi += 1;
        }
        if total > BLOCK_ENTRIES {
            marks.insert_row(row(lo));
            for source in 0..node_count {
                if row(source).iter().any(|n| n.index() == lo) && !marks.contains(source) {
                    note(source);
                }
            }
            marks.clear_row(row(lo));
        } else {
            let cursors = &mut in_degree[lo..hi];
            let mut cursor = 0u32;
            for degree in cursors.iter_mut() {
                let count = *degree;
                *degree = cursor;
                cursor += count;
            }
            block.clear();
            block.resize(total, 0u32);
            let (first_node, span) = (lo as u32, (hi - lo) as u32);
            for (source, bounds) in offsets.windows(2).enumerate() {
                for &neighbor in &targets[bounds[0] as usize..bounds[1] as usize] {
                    let at = neighbor.as_u32().wrapping_sub(first_node);
                    if at < span {
                        let cursor = &mut cursors[at as usize];
                        block[*cursor as usize] = source as u32;
                        *cursor += 1;
                    }
                }
            }
            // Each cursor now ends its node's sources; the previous one starts them.
            let mut start = 0;
            for (node, &end) in (lo..hi).zip(&in_degree[lo..hi]) {
                let end = end as usize;
                marks.insert_row(row(node));
                for &source in &block[start..end] {
                    if !marks.contains(source as usize) {
                        note(source as usize);
                    }
                }
                marks.clear_row(row(node));
                start = end;
            }
        }
        lo = hi;
    }
    first
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn sample() -> CsrGraph {
        let mut g = Graph::with_nodes(6);
        for i in 0..6 {
            g.add_edge(n(i), n((i + 1) % 6)).unwrap();
        }
        g.add_edge(n(0), n(3)).unwrap();
        g.freeze()
    }

    fn provenance() -> Provenance {
        Provenance {
            label: "PA, m=2, k_c=10".to_string(),
            m: 2,
            cutoff: Some(10),
            seed: 42,
            realization: 0,
            sweep_seed: 0xDEAD_BEEF_CAFE_F00D,
            origin: None,
        }
    }

    #[test]
    fn plain_snapshot_round_trips_through_bytes() {
        let csr = sample();
        let bytes = SnapshotFile::plain(csr.clone()).to_bytes();
        let back = SnapshotFile::from_bytes(&bytes).unwrap();
        assert_eq!(back.csr, csr);
        assert!(back.shards.is_none());
        assert!(back.provenance.is_none());
    }

    #[test]
    fn empty_and_isolated_graphs_round_trip() {
        for graph in [Graph::new(), Graph::with_nodes(5)] {
            let csr = graph.freeze();
            let bytes = SnapshotFile::plain(csr.clone()).to_bytes();
            assert_eq!(SnapshotFile::from_bytes(&bytes).unwrap().csr, csr);
        }
    }

    #[test]
    fn provenance_and_shard_count_round_trip() {
        let file = SnapshotFile {
            csr: sample(),
            shards: Some(2),
            provenance: Some(provenance()),
        };
        let bytes = file.to_bytes();
        let back = SnapshotFile::from_bytes(&bytes).unwrap();
        assert_eq!(back, file);
        let header = back.header();
        assert_eq!(header.shard_count, 2);
        assert!(header.has_provenance);
        // The shard count is the whole partition record: the arrays end the body.
        assert_eq!(bytes[24..28], 2u32.to_le_bytes());
        let label_len = provenance().label.len();
        let prov_len = 4 + label_len + label_pad(label_len) + 5 * 8;
        assert_eq!(bytes.len(), HEADER_LEN + prov_len + 28 + 56 + TRAILER_LEN);
    }

    #[test]
    fn save_load_and_read_meta_work_on_real_files() {
        let dir = std::env::temp_dir().join(format!("sfos-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("meta.sfos");
        let file = SnapshotFile {
            csr: sample(),
            shards: None,
            provenance: Some(provenance()),
        };
        file.save(&path).unwrap();
        assert_eq!(SnapshotFile::load(&path).unwrap(), file);
        let (header, meta) = read_meta(&path).unwrap();
        assert_eq!(header.node_count, 6);
        assert_eq!(header.edge_count, 7);
        assert_eq!(meta, Some(provenance()));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_reports_io_error() {
        let missing = std::env::temp_dir().join("sfos-definitely-missing.sfos");
        assert!(matches!(
            SnapshotFile::load(&missing),
            Err(SnapshotError::Io { .. })
        ));
        assert!(matches!(read_meta(&missing), Err(SnapshotError::Io { .. })));
        assert!(matches!(
            read_identity(&missing),
            Err(SnapshotError::Io { .. })
        ));
    }

    #[test]
    fn read_identity_is_the_stored_trailer_and_separates_files() {
        let dir = std::env::temp_dir().join(format!("sfos-identity-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("identity.sfos");
        let file = SnapshotFile {
            csr: sample(),
            shards: None,
            provenance: Some(provenance()),
        };
        file.save(&path).unwrap();
        let bytes = file.to_bytes();
        let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        assert_eq!(read_identity(&path).unwrap(), stored);
        assert_eq!(stored, fnv1a64(&bytes[..bytes.len() - 8]));

        // A different topology has a different identity.
        let other_path = dir.join("identity-other.sfos");
        let mut g = Graph::with_nodes(6);
        for i in 0..5 {
            g.add_edge(n(i), n(i + 1)).unwrap();
        }
        SnapshotFile::plain(g.freeze()).save(&other_path).unwrap();
        assert_ne!(
            read_identity(&other_path).unwrap(),
            read_identity(&path).unwrap()
        );

        // Not-a-snapshot and too-short files are typed errors, never garbage values.
        let junk = dir.join("identity-junk.sfos");
        std::fs::write(&junk, b"JUNKJUNKJUNK").unwrap();
        assert!(matches!(
            read_identity(&junk),
            Err(SnapshotError::BadMagic { .. })
        ));
        let short = dir.join("identity-short.sfos");
        std::fs::write(&short, &bytes[..HEADER_LEN]).unwrap();
        assert!(matches!(
            read_identity(&short),
            Err(SnapshotError::Truncated { section: "trailer" })
        ));
        for p in [&path, &other_path, &junk, &short] {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut bytes = SnapshotFile::plain(sample()).to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            SnapshotFile::from_bytes(&bytes),
            Err(SnapshotError::BadMagic { found }) if found == *b"XFOS"
        ));
        assert!(matches!(
            SnapshotFile::from_bytes(b"PK\x03\x04 not a snapshot"),
            Err(SnapshotError::BadMagic { .. })
        ));
    }

    #[test]
    fn version_1_files_are_unsupported() {
        // A version 1 header, manifest flag and all: refused before anything else.
        let mut bytes = SnapshotFile::plain(sample()).to_bytes();
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        bytes[6] |= 1;
        assert_eq!(
            SnapshotFile::from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion { found: 1 })
        );
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = SnapshotFile::plain(sample()).to_bytes();
        bytes[4] = 0x2A;
        assert_eq!(
            SnapshotFile::from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion { found: 42 })
        );
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let bytes = SnapshotFile {
            csr: sample(),
            shards: None,
            provenance: Some(provenance()),
        }
        .to_bytes();
        // Chopping the file anywhere must fail loudly — as a truncation before the
        // trailer exists, or as a checksum/structure failure otherwise. Never a panic,
        // never an Ok.
        for len in 0..bytes.len() - 1 {
            let err = SnapshotFile::from_bytes(&bytes[..len]).unwrap_err();
            if len < HEADER_LEN + TRAILER_LEN {
                assert!(
                    matches!(err, SnapshotError::Truncated { .. }),
                    "len {len}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let bytes = SnapshotFile::plain(sample()).to_bytes();
        for &pos in &[8usize, HEADER_LEN + 2, bytes.len() - TRAILER_LEN - 1] {
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= 0x40;
            assert!(
                matches!(
                    SnapshotFile::from_bytes(&corrupted),
                    Err(SnapshotError::ChecksumMismatch { .. })
                ),
                "flip at {pos}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = SnapshotFile::plain(sample()).to_bytes();
        bytes.extend_from_slice(&[0u8; 16]);
        // The appended bytes break the checksum first; that is the correct report.
        assert!(SnapshotFile::from_bytes(&bytes).is_err());
    }

    /// Re-encodes `file` with its checksum fixed up after `mutate` edits the body —
    /// the adversarial case the structural validators exist for.
    fn rehashed(file: &SnapshotFile, mutate: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut bytes = file.to_bytes();
        bytes.truncate(bytes.len() - TRAILER_LEN);
        mutate(&mut bytes);
        let checksum = fnv1a64(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        bytes
    }

    #[test]
    fn structurally_invalid_topologies_are_rejected_even_with_valid_checksums() {
        let file = SnapshotFile::plain(sample());
        let entry0 = HEADER_LEN + 4 * (6 + 1);

        // Out-of-range neighbor.
        let bytes = rehashed(&file, |b| {
            b[entry0..entry0 + 4].copy_from_slice(&99u32.to_le_bytes())
        });
        assert!(matches!(
            SnapshotFile::from_bytes(&bytes),
            Err(SnapshotError::Corrupt { reason }) if reason.contains("out-of-range")
        ));

        // Self-loop on node 0.
        let bytes = rehashed(&file, |b| {
            b[entry0..entry0 + 4].copy_from_slice(&0u32.to_le_bytes())
        });
        assert!(matches!(
            SnapshotFile::from_bytes(&bytes),
            Err(SnapshotError::Corrupt { reason }) if reason.contains("self-loop")
        ));

        // Unmirrored adjacency: node 0's first neighbor becomes n2, which does not list n0.
        let bytes = rehashed(&file, |b| {
            b[entry0..entry0 + 4].copy_from_slice(&2u32.to_le_bytes())
        });
        assert!(matches!(
            SnapshotFile::from_bytes(&bytes),
            Err(SnapshotError::Corrupt { .. })
        ));

        // Non-monotone offsets.
        let bytes = rehashed(&file, |b| {
            b[HEADER_LEN + 4..HEADER_LEN + 8].copy_from_slice(&90u32.to_le_bytes())
        });
        assert!(matches!(
            SnapshotFile::from_bytes(&bytes),
            Err(SnapshotError::Corrupt { .. })
        ));
    }

    #[test]
    fn inconsistent_headers_are_rejected() {
        let file = SnapshotFile::plain(sample());

        // Unknown flag bit.
        let bytes = rehashed(&file, |b| b[6] |= 0x80);
        assert!(matches!(
            SnapshotFile::from_bytes(&bytes),
            Err(SnapshotError::Corrupt { reason }) if reason.contains("flag")
        ));

        // Nonzero reserved bytes.
        let bytes = rehashed(&file, |b| b[28] = 1);
        assert!(matches!(
            SnapshotFile::from_bytes(&bytes),
            Err(SnapshotError::Corrupt { reason }) if reason.contains("reserved")
        ));

        // Flag bit 0, version 1's shard manifest flag, is retired.
        let bytes = rehashed(&file, |b| b[6] |= 1);
        assert_eq!(
            SnapshotFile::from_bytes(&bytes),
            Err(SnapshotError::corrupt(
                "unknown flag bits 0x0001 for version 2"
            ))
        );
    }

    #[test]
    fn shard_counts_the_partition_cannot_cut_are_corrupt() {
        // One shard per node is the finest cut; one more is corrupt.
        let file = SnapshotFile {
            csr: sample(),
            shards: Some(6),
            provenance: None,
        };
        assert_eq!(SnapshotFile::from_bytes(&file.to_bytes()).unwrap(), file);
        let bytes = rehashed(&file, |b| b[24] = 7);
        assert_eq!(
            SnapshotFile::from_bytes(&bytes),
            Err(SnapshotError::corrupt(
                "7 shards cannot cut a 6-node topology"
            ))
        );
        // Shards on an empty graph.
        let empty = SnapshotFile::plain(Graph::new().freeze());
        let bytes = rehashed(&empty, |b| b[24] = 1);
        assert_eq!(
            SnapshotFile::from_bytes(&bytes),
            Err(SnapshotError::corrupt(
                "1 shards cannot cut a 0-node topology"
            ))
        );
        // The writer refuses to produce either file.
        let dir = std::env::temp_dir().join(format!("sfos-cut-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("uncut.sfos");
        for (csr, shards) in [(sample(), 7), (sample(), 0), (Graph::new().freeze(), 1)] {
            let err = save(&path, &csr, Some(shards), None).unwrap_err();
            assert!(
                matches!(&err, SnapshotError::Io { message, .. } if message.contains("cannot cut")),
                "{shards} shards: {err:?}"
            );
            assert!(
                !path.exists(),
                "{shards} shards: the refused file was created"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_node_with_more_incoming_entries_than_a_block_is_checked_alone() {
        // A star: the hub's row lists every leaf, each leaf's row lists the hub.
        let leaves = BLOCK_ENTRIES as u32 + 1;
        let offsets: Vec<u32> = std::iter::once(0)
            .chain((0..=leaves).map(|leaf| leaves + leaf))
            .collect();
        let targets: Vec<NodeId> = (1..=leaves)
            .map(NodeId::from)
            .chain((0..leaves).map(|_| n(0)))
            .collect();
        assert_eq!(validate_topology(&offsets, &targets), Ok(()));
        // The last leaf names leaf 1 instead of the hub.
        let mut bent = targets.clone();
        *bent.last_mut().unwrap() = n(1);
        assert_eq!(
            validate_topology(&offsets, &bent),
            Err(SnapshotError::corrupt(format!(
                "adjacency is not mirrored: n0 lists n{leaves} but not vice versa"
            )))
        );
    }

    #[test]
    fn an_unmirrored_entry_is_found_across_blocks() {
        // A ring two blocks long: row i is [i - 1, i + 1].
        let nodes = BLOCK_ENTRIES as u32;
        let offsets: Vec<u32> = (0..=nodes).map(|i| 2 * i).collect();
        let mut targets: Vec<NodeId> = (0..nodes)
            .flat_map(|i| [(i + nodes - 1) % nodes, (i + 1) % nodes])
            .map(NodeId::from)
            .collect();
        assert_eq!(validate_topology(&offsets, &targets), Ok(()));
        // The last node trades n0 for n5: n0, in the first block, is the first source
        // whose entry (into the last block) is not mirrored.
        *targets.last_mut().unwrap() = n(5);
        assert_eq!(
            validate_topology(&offsets, &targets),
            Err(SnapshotError::corrupt(format!(
                "adjacency is not mirrored: n0 lists n{} but not vice versa",
                nodes - 1
            )))
        );
    }

    #[test]
    fn a_valid_topology_passes_the_blocked_mirror_check_and_any_asymmetry_fails_it() {
        // A star has one node with more incoming entries than small rings, so the
        // blocks take both shapes; removing any one entry must be caught and named.
        let mut g = Graph::with_nodes(40);
        for i in 1..40 {
            g.add_edge(n(0), n(i)).unwrap();
            g.add_edge(n(i), n(i % 39 + 1)).unwrap_or(());
        }
        let csr = g.freeze();
        let (offsets, targets) = csr.raw_parts();
        assert_eq!(validate_topology(offsets, targets), Ok(()));
        for at in 0..targets.len() {
            let node = offsets.partition_point(|&o| o as usize <= at) - 1;
            let row = &targets[offsets[node] as usize..offsets[node + 1] as usize];
            let Some(other) = (0..40)
                .map(n)
                .find(|&v| v.index() != node && !row.contains(&v))
            else {
                continue;
            };
            let mut bent = targets.to_vec();
            bent[at] = other;
            let err = validate_topology(offsets, &bent).unwrap_err();
            let first = (0..40)
                .flat_map(|u| {
                    bent[offsets[u] as usize..offsets[u + 1] as usize]
                        .iter()
                        .map(move |&v| (u, v))
                })
                .find(|&(u, v)| {
                    !bent[offsets[v.index()] as usize..offsets[v.index() + 1] as usize]
                        .contains(&n(u))
                })
                .unwrap();
            assert_eq!(
                err,
                SnapshotError::corrupt(format!(
                    "adjacency is not mirrored: n{} lists {} but not vice versa",
                    first.0, first.1
                )),
                "entry {at}"
            );
        }
    }

    #[test]
    fn oversized_length_fields_are_rejected_before_allocation() {
        // A provenance label length read_meta (no checksum protection) cannot back.
        let dir = std::env::temp_dir().join(format!("sfos-bounds-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad-label.sfos");
        let with_prov = SnapshotFile {
            csr: sample(),
            shards: None,
            provenance: Some(provenance()),
        };
        let bytes = rehashed(&with_prov, |b| {
            b[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&u32::MAX.to_le_bytes())
        });
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_meta(&path),
            Err(SnapshotError::Truncated { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(SnapshotError::BadMagic { found: *b"ABCD" }
            .to_string()
            .contains("SFOS"));
        assert!(SnapshotError::UnsupportedVersion { found: 9 }
            .to_string()
            .contains("version 9"));
        assert!(SnapshotError::Truncated { section: "targets" }
            .to_string()
            .contains("targets"));
        assert!(SnapshotError::ChecksumMismatch {
            stored: 1,
            computed: 2
        }
        .to_string()
        .contains("checksum"));
        assert!(SnapshotError::MissingSection {
            section: "shard partition"
        }
        .to_string()
        .contains("shard partition"));
    }

    #[test]
    fn checksum_is_fnv1a() {
        // Reference vectors for FNV-1a 64.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn provenance_labels_of_every_length_keep_the_arrays_4_aligned() {
        // The label pad is what makes the zero-copy borrow the structural common case:
        // whatever the label length, the offsets section must start on a 4-byte file
        // offset, the pad must round-trip invisibly, and a nonzero pad byte must fail.
        for len in 0..9usize {
            let mut prov = provenance();
            prov.label = "x".repeat(len);
            let file = SnapshotFile {
                csr: sample(),
                shards: None,
                provenance: Some(prov.clone()),
            };
            let bytes = file.to_bytes();
            let prov_len = 4 + len + label_pad(len) + 5 * 8;
            assert_eq!((HEADER_LEN + prov_len) % 4, 0, "label len {len}");
            let back = SnapshotFile::from_bytes(&bytes).unwrap();
            assert_eq!(back.provenance, Some(prov));

            if label_pad(len) > 0 {
                let dirty = rehashed(&file, |b| b[HEADER_LEN + 4 + len] = 0xAA);
                assert!(matches!(
                    SnapshotFile::from_bytes(&dirty),
                    Err(SnapshotError::Corrupt { reason }) if reason.contains("padding")
                ));
            }
        }
    }

    fn live_origin() -> SnapshotOrigin {
        SnapshotOrigin::LiveOverlay {
            params: "k_c=10, walks=2".to_string(),
        }
    }

    #[test]
    fn origin_tags_round_trip_and_set_the_flag() {
        for origin in [SnapshotOrigin::Generator, live_origin()] {
            let mut prov = provenance();
            prov.origin = Some(origin.clone());
            let file = SnapshotFile {
                csr: sample(),
                shards: None,
                provenance: Some(prov.clone()),
            };
            let bytes = file.to_bytes();
            assert_eq!(bytes[6] & (FLAG_ORIGIN as u8), FLAG_ORIGIN as u8);
            let back = SnapshotFile::from_bytes(&bytes).unwrap();
            assert_eq!(back.provenance, Some(prov));
            assert!(back.header().has_origin);
        }
    }

    #[test]
    fn origin_params_of_every_length_keep_the_arrays_4_aligned() {
        // The origin tail uses the same pad-to-4 rule as the label, so the offsets
        // section keeps starting on a 4-byte file offset and mmap stays zero-copy.
        for len in 0..9usize {
            let mut prov = provenance();
            prov.origin = Some(SnapshotOrigin::LiveOverlay {
                params: "p".repeat(len.max(1)),
            });
            let params_len = len.max(1);
            let file = SnapshotFile {
                csr: sample(),
                shards: None,
                provenance: Some(prov.clone()),
            };
            let label_len = prov.label.len();
            let prov_len = 4
                + label_len
                + label_pad(label_len)
                + 5 * 8
                + 8
                + params_len
                + label_pad(params_len);
            assert_eq!((HEADER_LEN + prov_len) % 4, 0, "params len {params_len}");
            let back = SnapshotFile::from_bytes(&file.to_bytes()).unwrap();
            assert_eq!(back.provenance, Some(prov));
        }
    }

    #[test]
    fn files_without_origin_encode_exactly_as_before_and_keep_loading() {
        // Version tolerance both ways: a provenance with no origin writes the
        // pre-origin byte layout (flag bit 2 clear, no tail), and decodes to
        // `origin: None` — old files are untouched by the new field.
        let file = SnapshotFile {
            csr: sample(),
            shards: None,
            provenance: Some(provenance()),
        };
        let bytes = file.to_bytes();
        assert_eq!(bytes[6] & (FLAG_ORIGIN as u8), 0);
        let label_len = provenance().label.len();
        let prov_len = 4 + label_len + label_pad(label_len) + 5 * 8;
        assert_eq!(
            bytes.len(),
            HEADER_LEN + prov_len + 28 + 56 + TRAILER_LEN,
            "no origin tail is written when the field is None"
        );
        let back = SnapshotFile::from_bytes(&bytes).unwrap();
        assert!(!back.header().has_origin);
        assert_eq!(back.provenance.unwrap().origin, None);
    }

    #[test]
    fn corrupt_origin_tags_are_rejected_even_with_valid_checksums() {
        let mut prov = provenance();
        prov.origin = Some(live_origin());
        let file = SnapshotFile {
            csr: sample(),
            shards: None,
            provenance: Some(prov),
        };
        let label_len = provenance().label.len();
        let kind_at = HEADER_LEN + 4 + label_len + label_pad(label_len) + 5 * 8;

        // Unknown origin kind.
        let bytes = rehashed(&file, |b| {
            b[kind_at..kind_at + 4].copy_from_slice(&7u32.to_le_bytes())
        });
        assert!(matches!(
            SnapshotFile::from_bytes(&bytes),
            Err(SnapshotError::Corrupt { reason }) if reason.contains("origin kind")
        ));

        // Generator origins carry no params; rewriting the kind alone must fail.
        let bytes = rehashed(&file, |b| {
            b[kind_at..kind_at + 4].copy_from_slice(&0u32.to_le_bytes())
        });
        assert!(matches!(
            SnapshotFile::from_bytes(&bytes),
            Err(SnapshotError::Corrupt { reason }) if reason.contains("params")
        ));

        // Nonzero origin pad byte ("k_c=10, walks=2" is 15 bytes, 1 pad byte).
        let params_len = 15;
        let bytes = rehashed(&file, |b| b[kind_at + 8 + params_len] = 0xAA);
        assert!(matches!(
            SnapshotFile::from_bytes(&bytes),
            Err(SnapshotError::Corrupt { reason }) if reason.contains("padding")
        ));

        // The origin flag without a provenance section is an inconsistent header.
        let plain = SnapshotFile::plain(sample());
        let bytes = rehashed(&plain, |b| b[6] |= FLAG_ORIGIN as u8);
        assert!(matches!(
            SnapshotFile::from_bytes(&bytes),
            Err(SnapshotError::Corrupt { reason }) if reason.contains("origin")
        ));
    }

    #[test]
    fn read_meta_and_section_layout_cover_origin_tails() {
        let dir = std::env::temp_dir().join(format!("sfos-origin-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("origin.sfos");
        let mut prov = provenance();
        prov.origin = Some(live_origin());
        let file = SnapshotFile {
            csr: sample(),
            shards: None,
            provenance: Some(prov.clone()),
        };
        file.save(&path).unwrap();

        let (header, meta) = read_meta(&path).unwrap();
        assert!(header.has_origin);
        assert_eq!(meta, Some(prov.clone()));

        // The provenance extent includes the origin tail, sections still tile the
        // file, and the arrays stay mmap-eligible.
        let layout = section_layout(&path).unwrap();
        let prov_bytes = layout.provenance_bytes.clone().unwrap();
        let label_len = prov.label.len();
        let params_len = 15;
        let expected =
            4 + label_len + label_pad(label_len) + 5 * 8 + 8 + params_len + label_pad(params_len);
        assert_eq!(prov_bytes.end - prov_bytes.start, expected as u64);
        assert_eq!(layout.offsets_bytes.start, prov_bytes.end);
        assert!(layout.zero_copy_eligible());

        let mapped = SnapshotFile::load_mmap(&path).unwrap();
        assert_eq!(mapped.provenance, Some(prov));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn origin_display_is_human_readable() {
        assert_eq!(SnapshotOrigin::Generator.to_string(), "generator");
        assert_eq!(live_origin().to_string(), "live-overlay (k_c=10, walks=2)");
    }

    #[test]
    fn section_layout_tiles_the_file_and_marks_zero_copy_eligibility() {
        let dir = std::env::temp_dir().join(format!("sfos-layout-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("layout.sfos");
        let file = SnapshotFile {
            csr: sample(),
            shards: Some(3),
            provenance: Some(provenance()),
        };
        file.save(&path).unwrap();
        let layout = section_layout(&path).unwrap();
        let bytes = file.to_bytes();
        assert_eq!(layout.file_len, bytes.len() as u64);
        assert_eq!(layout.header_bytes, 0..32);
        // Sections tile the file contiguously with nothing unaccounted for.
        let prov = layout.provenance_bytes.clone().unwrap();
        assert_eq!(prov.start, 32);
        assert_eq!(layout.offsets_bytes.start, prov.end);
        assert_eq!(layout.offsets_bytes.end, layout.targets_bytes.start);
        // 7 nodes' worth of offsets (6 + 1) and 14 directed entries.
        assert_eq!(layout.offsets_bytes.end - layout.offsets_bytes.start, 28);
        assert_eq!(layout.targets_bytes.end - layout.targets_bytes.start, 56);
        assert_eq!(layout.targets_bytes.end, layout.trailer_bytes.start);
        assert_eq!(layout.trailer_bytes.end, layout.file_len);
        assert!(layout.zero_copy_eligible());

        // Plain files have no optional sections and still tile exactly.
        let plain_path = dir.join("layout-plain.sfos");
        SnapshotFile::plain(sample()).save(&plain_path).unwrap();
        let plain = section_layout(&plain_path).unwrap();
        assert!(plain.provenance_bytes.is_none());
        assert_eq!(plain.offsets_bytes.start, 32);
        assert_eq!(plain.targets_bytes.end, plain.trailer_bytes.start);
        assert!(plain.zero_copy_eligible());

        // A header whose counts the file cannot hold is a typed error.
        let mut truncated = bytes.clone();
        truncated.truncate(48);
        let short_path = dir.join("layout-short.sfos");
        std::fs::write(&short_path, &truncated).unwrap();
        assert!(matches!(
            section_layout(&short_path),
            Err(SnapshotError::Truncated { .. })
        ));
        for p in [&path, &plain_path, &short_path] {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn read_meta_reads_only_the_prefix() {
        // Regression guard for the inspect path's cost model: read_meta must decode the
        // header and provenance from a prefix read and never touch the arrays. The file
        // below *claims* enormous arrays but is truncated right after the provenance —
        // a reader that touched anything past the provenance would fail.
        let full = SnapshotFile {
            csr: sample(),
            shards: None,
            provenance: Some(provenance()),
        }
        .to_bytes();
        let label_len = provenance().label.len();
        let prefix_len = HEADER_LEN + 4 + label_len + label_pad(label_len) + 5 * 8;
        let mut prefix = full[..prefix_len].to_vec();
        // Claim 2^30 nodes and 2^30 edges the file does not hold.
        prefix[8..16].copy_from_slice(&(1u64 << 30).to_le_bytes());
        prefix[16..24].copy_from_slice(&(1u64 << 30).to_le_bytes());

        let dir = std::env::temp_dir().join(format!("sfos-prefix-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("prefix-only.sfos");
        std::fs::write(&path, &prefix).unwrap();
        let (header, meta) = read_meta(&path).unwrap();
        assert_eq!(header.node_count, 1 << 30);
        assert_eq!(meta, Some(provenance()));
        // The full readers must still reject the same file loudly.
        assert!(SnapshotFile::load(&path).is_err());
        assert!(SnapshotFile::load_mmap(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mmap_load_is_byte_identical_to_the_read_load() {
        let dir = std::env::temp_dir().join(format!("sfos-mmap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mapped.sfos");
        let file = SnapshotFile {
            csr: sample(),
            shards: Some(3),
            provenance: Some(provenance()),
        };
        file.save(&path).unwrap();

        let read = SnapshotFile::load(&path).unwrap();
        let mapped = SnapshotFile::load_mmap(&path).unwrap();
        assert_eq!(mapped, read);
        assert_eq!(mapped.shards, read.shards);
        assert_eq!(mapped.provenance, read.provenance);
        #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
        assert!(mapped.csr.is_mapped());
        assert!(!read.csr.is_mapped());
        // The mapped graph is traversable after the loader's locals drop, and owned
        // copies detach from the mapping.
        assert_eq!(mapped.csr.neighbors(n(0)), read.csr.neighbors(n(0)));
        let (offsets, targets) = mapped.csr.clone().into_parts();
        assert_eq!(
            (offsets.as_slice(), targets.as_slice()),
            read.csr.raw_parts()
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mmap_load_never_masks_decode_errors() {
        let dir = std::env::temp_dir().join(format!("sfos-mmap-err-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // A bit flip must surface as the checksum mismatch, not as a fallback load.
        let mut bytes = SnapshotFile::plain(sample()).to_bytes();
        bytes[HEADER_LEN + 2] ^= 0x40;
        let flipped = dir.join("flipped.sfos");
        std::fs::write(&flipped, &bytes).unwrap();
        assert!(matches!(
            SnapshotFile::load_mmap(&flipped),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));

        // Not-a-snapshot and empty files produce the reader's usual typed errors.
        let junk = dir.join("junk.sfos");
        std::fs::write(&junk, b"JUNKJUNKJUNKJUNK").unwrap();
        assert!(matches!(
            SnapshotFile::load_mmap(&junk),
            Err(SnapshotError::BadMagic { .. })
        ));
        let empty = dir.join("empty.sfos");
        std::fs::write(&empty, b"").unwrap();
        assert!(matches!(
            SnapshotFile::load_mmap(&empty),
            Err(SnapshotError::Truncated { .. })
        ));
        let missing = dir.join("missing.sfos");
        assert!(matches!(
            SnapshotFile::load_mmap(&missing),
            Err(SnapshotError::Io { .. })
        ));
        for p in [&flipped, &junk, &empty] {
            std::fs::remove_file(p).unwrap();
        }
    }
}
