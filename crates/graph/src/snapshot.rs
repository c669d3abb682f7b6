//! The `SFOS` binary snapshot format: CSR topologies on disk.
//!
//! A frozen [`CsrGraph`] is two flat arrays, which makes it the natural wire and mmap
//! format for handing topologies between processes — the ROADMAP's build-once /
//! persist / query-many workload. This module is the codec for that hand-off: a
//! versioned, checksummed, little-endian container holding the `offsets`/`targets`
//! arrays verbatim, plus two optional sections:
//!
//! * a **shard manifest** — the contiguous node ranges and per-shard cross-shard
//!   boundary tables of a sharded store (`sfo-engine`'s `ShardedCsr` writes and reads
//!   it; a per-host shard placement ships exactly one shard's rows plus its table), and
//! * a **provenance record** — which scenario curve generated the topology (`label`,
//!   `m`, cutoff, seed, realization) and the `sweep_seed` drawn from the generation
//!   stream right after the topology was built, so a search sweep run against the file
//!   continues the *identical* RNG discipline as one run against the inline generator.
//!
//! The full byte layout is documented in `docs/FORMATS.md` at the workspace root (and
//! in [`SnapshotFile`]'s docs). Readers are strict: wrong magic, unknown versions or
//! flags, truncation, trailing bytes, checksum mismatches, and structurally invalid
//! topologies (non-monotone offsets, out-of-range targets, self-loops, unmirrored
//! adjacency) all yield a typed [`SnapshotError`] — never a panic, and never a silently
//! wrong graph.

use crate::{CsrGraph, NodeId};
use std::error::Error;
use std::fmt;
use std::io::Read;
use std::ops::Range;
use std::path::Path;

/// The four magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"SFOS";

/// The format version this build writes and the only one it accepts.
pub const SNAPSHOT_VERSION: u16 = 1;

/// Header flag bit: the file carries a shard manifest section.
const FLAG_SHARD_MANIFEST: u16 = 1 << 0;
/// Header flag bit: the file carries a provenance section.
const FLAG_PROVENANCE: u16 = 1 << 1;
/// Header flag bit: the provenance section ends with an origin tag. Requires
/// [`FLAG_PROVENANCE`]; older files never set it and keep loading unchanged.
const FLAG_ORIGIN: u16 = 1 << 2;
/// All flag bits this version understands; anything else is a corrupt or future file.
const KNOWN_FLAGS: u16 = FLAG_SHARD_MANIFEST | FLAG_PROVENANCE | FLAG_ORIGIN;

/// Fixed-size prefix of the file before any variable-length section.
const HEADER_LEN: usize = 32;
/// Size of the trailing checksum.
const TRAILER_LEN: usize = 8;

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
        /// The absent section (`"shard manifest"` or `"provenance"`).
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
    fnv1a64_update(0xcbf2_9ce4_8422_2325, bytes)
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
    /// Number of shards in the manifest (0 when the file has no manifest).
    pub shard_count: u32,
    /// Whether a shard manifest section is present.
    pub has_shard_manifest: bool,
    /// Whether a provenance section is present.
    pub has_provenance: bool,
    /// Whether the provenance section ends with an origin tag (absent in older files).
    pub has_origin: bool,
}

/// One directed cross-shard adjacency entry of a stored shard manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundaryRecord {
    /// The node inside the shard that owns this record.
    pub source: u32,
    /// Its neighbor in another shard.
    pub target: u32,
    /// The shard that owns `target`.
    pub target_shard: u32,
}

/// One shard of a stored manifest: a contiguous node range plus its boundary table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRecord {
    /// First global node id of the shard.
    pub start: u64,
    /// One past the last global node id of the shard.
    pub end: u64,
    /// The directed adjacency entries leaving the shard, in frozen adjacency order.
    pub boundary: Vec<BoundaryRecord>,
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
/// # On-disk layout (version 1, all integers little-endian)
///
/// | offset | size | field |
/// |-------:|-----:|-------|
/// | 0      | 4    | magic `"SFOS"` |
/// | 4      | 2    | version (`u16`, = 1) |
/// | 6      | 2    | flags (`u16`: bit 0 shard manifest, bit 1 provenance, bit 2 origin) |
/// | 8      | 8    | `node_count` (`u64`) |
/// | 16     | 8    | `edge_count` (`u64`, undirected) |
/// | 24     | 4    | `shard_count` (`u32`, 0 without a manifest) |
/// | 28     | 4    | reserved, must be 0 |
/// | 32     | …    | provenance section, if flagged |
/// | …      | …    | `offsets`: `(node_count + 1) × u32` |
/// | …      | …    | `targets`: `2 × edge_count × u32` |
/// | …      | …    | shard manifest, if flagged |
/// | end−8  | 8    | FNV-1a 64 checksum of every preceding byte |
///
/// The provenance section is `label_len (u32)`, the UTF-8 label bytes, zero padding to
/// the next 4-byte boundary (0–3 bytes; readers require it to be zero), then `m`,
/// `cutoff` (`u64::MAX` = unbounded), `seed`, `realization`, `sweep_seed`, each `u64`.
/// When the origin flag (bit 2) is set, the provenance section continues with an origin
/// tag: `kind (u32`, 0 = generator, 1 = live-overlay`)`, `params_len (u32)`, the UTF-8
/// params bytes, and zero padding to the next 4-byte boundary — so the arrays stay
/// 4-aligned. The origin flag requires the provenance flag; files without it decode to
/// `origin: None`, which keeps every pre-origin snapshot loading unchanged.
/// The shard manifest is `shard_count` records of `start (u64)`, `end (u64)`,
/// `boundary_len (u64)` and `boundary_len` boundary entries of `source`, `target`,
/// `target_shard` (each `u32`). Placing provenance *before* the arrays keeps
/// [`read_meta`] a small prefix read; padding the label keeps the `offsets`/`targets`
/// sections on 4-byte file offsets, which is what lets the zero-copy mmap loader
/// ([`SnapshotFile::load_mmap`]) borrow them in place (see `docs/FORMATS.md`).
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
    /// The shard manifest, when the file was written by a sharded store.
    pub shards: Option<Vec<ShardRecord>>,
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
            shard_count: self.shards.as_ref().map_or(0, |s| s.len() as u32),
            has_shard_manifest: self.shards.is_some(),
            has_provenance: self.provenance.is_some(),
            has_origin: self.provenance.as_ref().is_some_and(|p| p.origin.is_some()),
        }
    }

    /// Encodes the snapshot to its on-disk byte representation, including the trailer.
    pub fn to_bytes(&self) -> Vec<u8> {
        encode(&self.csr, self.shards.as_deref(), self.provenance.as_ref())
    }

    /// Writes the snapshot to `path`, replacing any existing file.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] when the file cannot be written.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        write_bytes(path.as_ref(), &self.to_bytes())
    }

    /// Reads and fully validates a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] when the file cannot be read, and every decoding
    /// error of [`SnapshotFile::from_bytes`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| SnapshotError::io(path, &e))?;
        SnapshotFile::from_bytes(&bytes)
    }

    /// Like [`SnapshotFile::load`], but borrows the `offsets`/`targets` arrays straight
    /// out of a read-only file mapping instead of copying them into the heap.
    ///
    /// Verify once, then borrow: the checksum and the full structural validation pass
    /// run against the mapped bytes exactly as the read-based loader runs them against
    /// a heap copy, after which the returned [`CsrGraph`] traverses the page cache in
    /// place ([`CsrGraph::is_mapped`] reports which storage a load produced). The
    /// fallbacks, in order:
    ///
    /// * the mapping cannot be established (unsupported filesystem, empty file, …) —
    ///   retry as [`SnapshotFile::load`], so callers see the reader's usual errors;
    /// * the array sections are not 4-byte-aligned in the file (files written by this
    ///   build always are, via label padding; see `docs/FORMATS.md`) — decode an owned
    ///   copy from the *same* mapped bytes, no second read of the file.
    ///
    /// Decoding errors — bad magic, checksum mismatch, structural corruption — are
    /// never masked by either fallback.
    ///
    /// # Errors
    ///
    /// The same errors as [`SnapshotFile::load`].
    #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
    pub fn load_mmap(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        use std::sync::Arc;
        let path = path.as_ref();
        let file = match crate::mmap::MappedFile::map(path) {
            Ok(file) => Arc::new(file),
            Err(_) => return Self::load(path),
        };
        let bytes = file.bytes();
        let layout = decode_layout(bytes)?;
        match crate::mmap::MappedCsr::new(
            Arc::clone(&file),
            layout.offsets.clone(),
            layout.targets.clone(),
        ) {
            Some(mapped) => {
                validate_topology(mapped.offsets(), mapped.targets())?;
                if let Some(shards) = &layout.shards {
                    validate_manifest(shards, mapped.offsets(), mapped.targets())?;
                }
                Ok(SnapshotFile {
                    csr: CsrGraph::from_mapped(mapped),
                    shards: layout.shards,
                    provenance: layout.provenance,
                })
            }
            None => build_owned(bytes, layout),
        }
    }

    /// Read-based stand-in on targets without mmap support: same validation, same
    /// result, owned storage.
    #[cfg(not(all(unix, target_pointer_width = "64", target_endian = "little")))]
    pub fn load_mmap(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        Self::load(path)
    }
}

/// Writes `bytes` to `path`, mapping failures to [`SnapshotError::Io`].
pub(crate) fn write_bytes(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    std::fs::write(path, bytes).map_err(|e| SnapshotError::io(path, &e))
}

/// Number of zero bytes written after a provenance label so the section that follows
/// starts on a 4-byte boundary. Readers require the pad to be zero.
fn label_pad(label_len: usize) -> usize {
    (4 - label_len % 4) % 4
}

/// Encodes a topology plus optional sections to the on-disk byte representation —
/// the borrowing core behind [`SnapshotFile::to_bytes`] and [`CsrGraph::save`].
pub fn encode(
    csr: &CsrGraph,
    shards: Option<&[ShardRecord]>,
    provenance: Option<&Provenance>,
) -> Vec<u8> {
    let node_count = csr.node_count();
    let edge_count = csr.edge_count();
    let mut flags = 0u16;
    if shards.is_some() {
        flags |= FLAG_SHARD_MANIFEST;
    }
    if provenance.is_some() {
        flags |= FLAG_PROVENANCE;
    }
    if provenance.is_some_and(|p| p.origin.is_some()) {
        flags |= FLAG_ORIGIN;
    }

    let mut out =
        Vec::with_capacity(HEADER_LEN + TRAILER_LEN + 4 * (node_count + 1) + 8 * edge_count + 256);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&flags.to_le_bytes());
    out.extend_from_slice(&(node_count as u64).to_le_bytes());
    out.extend_from_slice(&(edge_count as u64).to_le_bytes());
    let shard_count = shards.map_or(0u32, |s| s.len() as u32);
    out.extend_from_slice(&shard_count.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());

    if let Some(provenance) = provenance {
        let label = provenance.label.as_bytes();
        out.extend_from_slice(&(label.len() as u32).to_le_bytes());
        out.extend_from_slice(label);
        // Zero-pad the label so the offsets/targets arrays that follow start on a
        // 4-byte file offset — the precondition for borrowing them out of a mapping.
        out.extend_from_slice(&[0u8; 3][..label_pad(label.len())]);
        out.extend_from_slice(&provenance.m.to_le_bytes());
        out.extend_from_slice(&provenance.cutoff.unwrap_or(u64::MAX).to_le_bytes());
        out.extend_from_slice(&provenance.seed.to_le_bytes());
        out.extend_from_slice(&provenance.realization.to_le_bytes());
        out.extend_from_slice(&provenance.sweep_seed.to_le_bytes());
        if let Some(origin) = &provenance.origin {
            let (kind, params) = match origin {
                SnapshotOrigin::Generator => (0u32, ""),
                SnapshotOrigin::LiveOverlay { params } => (1u32, params.as_str()),
            };
            let params = params.as_bytes();
            out.extend_from_slice(&kind.to_le_bytes());
            out.extend_from_slice(&(params.len() as u32).to_le_bytes());
            out.extend_from_slice(params);
            // The origin tail is padded like the label, so the arrays stay 4-aligned.
            out.extend_from_slice(&[0u8; 3][..label_pad(params.len())]);
        }
    }

    let (offsets, targets) = csr.raw_parts();
    for &offset in offsets {
        out.extend_from_slice(&offset.to_le_bytes());
    }
    for &target in targets {
        out.extend_from_slice(&target.as_u32().to_le_bytes());
    }

    if let Some(shards) = shards {
        for shard in shards {
            out.extend_from_slice(&shard.start.to_le_bytes());
            out.extend_from_slice(&shard.end.to_le_bytes());
            out.extend_from_slice(&(shard.boundary.len() as u64).to_le_bytes());
            for edge in &shard.boundary {
                out.extend_from_slice(&edge.source.to_le_bytes());
                out.extend_from_slice(&edge.target.to_le_bytes());
                out.extend_from_slice(&edge.target_shard.to_le_bytes());
            }
        }
    }

    let checksum = fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

impl SnapshotFile {
    /// Decodes a snapshot from its on-disk byte representation.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] on wrong magic, an unsupported version, unknown
    /// flags, truncation, trailing bytes, a checksum mismatch, or any structural
    /// inconsistency between the header, the arrays, and the manifest.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let layout = decode_layout(bytes)?;
        build_owned(bytes, layout)
    }
}

/// The fully-verified shape of a snapshot body, before the arrays are materialized.
///
/// [`decode_layout`] is the single parse both loaders share; it records *where* the
/// `offsets`/`targets` sections live rather than copying them, so
/// [`SnapshotFile::from_bytes`] can collect them into owned vectors while the mmap
/// loader borrows the same ranges in place.
struct DecodedLayout {
    provenance: Option<Provenance>,
    /// Absolute byte range of the `offsets` section within the input bytes.
    offsets: Range<usize>,
    /// Absolute byte range of the `targets` section within the input bytes.
    targets: Range<usize>,
    shards: Option<Vec<ShardRecord>>,
}

/// Verifies the checksum and decodes everything except the arrays themselves: header,
/// provenance, array section bounds, shard manifest, and the no-trailing-bytes
/// invariant. The topology/manifest *content* validation runs in the caller once the
/// arrays are materialized (owned) or borrowed (mapped).
fn decode_layout(bytes: &[u8]) -> Result<DecodedLayout, SnapshotError> {
    let header = decode_header(bytes)?;
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        // decode_header only needs the fixed prefix; a file cut between the header
        // and the trailer still has to be rejected before the checksum is "read".
        return Err(SnapshotError::Truncated { section: "trailer" });
    }
    let body = &bytes[..bytes.len() - TRAILER_LEN];
    let stored = u64::from_le_bytes(
        bytes[bytes.len() - TRAILER_LEN..]
            .try_into()
            .expect("trailer is 8 bytes"),
    );
    let computed = fnv1a64(body);
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }

    let mut cursor = Cursor::new(&body[HEADER_LEN..]);
    let provenance = if header.has_provenance {
        Some(cursor.provenance(header.has_origin)?)
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

    // The array sections are bounds-checked as whole byte ranges, never element-wise:
    // `take` proves the body holds them before anything downstream allocates, so the
    // untrusted header counts can never size an allocation the file cannot back.
    let array_len = |elements: usize, section: &'static str| {
        elements
            .checked_mul(4)
            .ok_or(SnapshotError::Truncated { section })
    };
    let offsets_len = array_len(node_count + 1, "offsets")?;
    let offsets_start = HEADER_LEN + cursor.position();
    cursor.take(offsets_len, "offsets")?;
    let targets_len = array_len(entry_count, "targets")?;
    let targets_start = HEADER_LEN + cursor.position();
    cursor.take(targets_len, "targets")?;

    let shards = if header.has_shard_manifest {
        // Every record is at least 24 bytes, so a shard count the remaining bytes
        // cannot possibly hold is rejected *before* sizing any allocation by it —
        // lengths read from the file are untrusted until proven affordable.
        if header.shard_count as u64 > (cursor.remaining() / 24) as u64 {
            return Err(SnapshotError::Truncated {
                section: "shard manifest",
            });
        }
        let mut shards = Vec::with_capacity(header.shard_count as usize);
        for _ in 0..header.shard_count {
            let start = cursor.u64("shard manifest")?;
            let end = cursor.u64("shard manifest")?;
            let boundary_len = cursor.u64("shard manifest")?;
            let boundary_len = usize::try_from(boundary_len)
                .ok()
                .filter(|&n| n <= entry_count)
                .ok_or_else(|| {
                    SnapshotError::corrupt("shard boundary table longer than the adjacency itself")
                })?;
            let mut boundary = Vec::with_capacity(boundary_len);
            for _ in 0..boundary_len {
                boundary.push(BoundaryRecord {
                    source: cursor.u32("shard manifest")?,
                    target: cursor.u32("shard manifest")?,
                    target_shard: cursor.u32("shard manifest")?,
                });
            }
            shards.push(ShardRecord {
                start,
                end,
                boundary,
            });
        }
        Some(shards)
    } else {
        None
    };

    if !cursor.is_empty() {
        return Err(SnapshotError::corrupt(format!(
            "{} undeclared bytes between the last section and the trailer",
            cursor.remaining()
        )));
    }

    Ok(DecodedLayout {
        provenance,
        offsets: offsets_start..offsets_start + offsets_len,
        targets: targets_start..targets_start + targets_len,
        shards,
    })
}

/// Materializes a verified layout into an owned snapshot: collect the arrays from
/// contiguous chunks, the cheapest copy out of the byte buffer (the snapshot_io bench
/// times loads against regenerating capped PA), then run the full structural
/// validation over them.
fn build_owned(bytes: &[u8], layout: DecodedLayout) -> Result<SnapshotFile, SnapshotError> {
    let offsets: Vec<u32> = bytes[layout.offsets.clone()]
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect();
    let targets: Vec<NodeId> = bytes[layout.targets.clone()]
        .chunks_exact(4)
        .map(|c| NodeId::from(u32::from_le_bytes(c.try_into().expect("4 bytes"))))
        .collect();
    validate_topology(&offsets, &targets)?;
    if let Some(shards) = &layout.shards {
        validate_manifest(shards, &offsets, &targets)?;
    }
    Ok(SnapshotFile {
        csr: CsrGraph::from_raw_parts(offsets, targets),
        shards: layout.shards,
        provenance: layout.provenance,
    })
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
    let mut file = std::fs::File::open(path).map_err(|e| SnapshotError::io(path, &e))?;
    let mut header_bytes = [0u8; HEADER_LEN];
    file.read_exact(&mut header_bytes)
        .map_err(|_| SnapshotError::Truncated { section: "header" })?;
    let header = decode_header(&header_bytes)?;
    if !header.has_provenance {
        return Ok((header, None));
    }
    let mut len_bytes = [0u8; 4];
    file.read_exact(&mut len_bytes)
        .map_err(|_| SnapshotError::Truncated {
            section: "provenance",
        })?;
    let label_len = u32::from_le_bytes(len_bytes) as usize;
    // label_len is untrusted: bound it by the actual file size before allocating, so a
    // corrupt length field cannot request a multi-gigabyte buffer.
    let file_len = file
        .metadata()
        .map_err(|e| SnapshotError::io(path, &e))?
        .len();
    let body_len = label_len + label_pad(label_len) + 5 * 8;
    if body_len as u64 > file_len.saturating_sub((HEADER_LEN + 4) as u64) {
        return Err(SnapshotError::Truncated {
            section: "provenance",
        });
    }
    let mut rest = vec![0u8; body_len];
    file.read_exact(&mut rest)
        .map_err(|_| SnapshotError::Truncated {
            section: "provenance",
        })?;
    let mut cursor = Cursor::new(&rest);
    let mut provenance = cursor.provenance_body(label_len)?;
    if header.has_origin {
        // The origin tail: kind + params_len, then params bounded by the file size
        // (params_len is as untrusted as label_len above).
        let mut prefix = [0u8; 8];
        file.read_exact(&mut prefix)
            .map_err(|_| SnapshotError::Truncated { section: "origin" })?;
        let params_len = u32::from_le_bytes(prefix[4..8].try_into().expect("4 bytes")) as usize;
        let tail_len = params_len + label_pad(params_len);
        let consumed = (HEADER_LEN + 4 + body_len + 8) as u64;
        if tail_len as u64 > file_len.saturating_sub(consumed) {
            return Err(SnapshotError::Truncated { section: "origin" });
        }
        let mut origin_bytes = prefix.to_vec();
        origin_bytes.resize(8 + tail_len, 0);
        file.read_exact(&mut origin_bytes[8..])
            .map_err(|_| SnapshotError::Truncated { section: "origin" })?;
        provenance.origin = Some(Cursor::new(&origin_bytes).origin()?);
    }
    Ok((header, Some(provenance)))
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
    file.by_ref()
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
    use std::io::{Seek, SeekFrom};
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
    /// Byte range of the shard manifest, when flagged. Its internal record boundaries
    /// are variable-length, so only the section extent is computable from the prefix.
    pub manifest_bytes: Option<Range<u64>>,
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
            use std::io::{Seek, SeekFrom};
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

    let manifest_bytes = if header.has_shard_manifest {
        // Each of the shard_count records is at least 24 bytes.
        if trailer_start - targets_end < header.shard_count as u64 * 24 {
            return Err(truncated("shard manifest"));
        }
        Some(targets_end..trailer_start)
    } else if targets_end != trailer_start {
        return Err(SnapshotError::corrupt(format!(
            "{} undeclared bytes between the last section and the trailer",
            trailer_start - targets_end
        )));
    } else {
        None
    };

    Ok(SectionLayout {
        header,
        header_bytes: 0..HEADER_LEN as u64,
        provenance_bytes,
        offsets_bytes: offsets_start..offsets_end,
        targets_bytes: offsets_end..targets_end,
        manifest_bytes,
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
    let has_shard_manifest = flags & FLAG_SHARD_MANIFEST != 0;
    if has_shard_manifest && shard_count == 0 {
        return Err(SnapshotError::corrupt(
            "shard manifest flagged but shard count is zero",
        ));
    }
    if !has_shard_manifest && shard_count != 0 {
        return Err(SnapshotError::corrupt(
            "shard count set but no shard manifest flagged",
        ));
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
        has_shard_manifest,
        has_provenance,
        has_origin,
    })
}

/// Structural validation of the decoded CSR arrays: everything `CsrGraph` assumes must
/// be proven here, so a loaded snapshot can never panic downstream.
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
    // One sorted copy of every row serves all remaining checks: range and self-loop
    // scans, duplicate detection (adjacent equals), and mirror symmetry (for every
    // entry (u, v), binary-search u in v's sorted row). Hard-cutoff topologies keep
    // rows short, so this is O(E log k_max) — far cheaper than sorting the global
    // directed edge list, and load time must stay below regeneration time.
    let mut sorted_rows = targets.to_vec();
    for node in 0..node_count {
        let row = &mut sorted_rows[offsets[node] as usize..offsets[node + 1] as usize];
        row.sort_unstable();
        for &neighbor in row.iter() {
            if neighbor.index() >= node_count {
                return Err(SnapshotError::corrupt(format!(
                    "node {node} lists out-of-range neighbor {neighbor}"
                )));
            }
            if neighbor.index() == node {
                return Err(SnapshotError::corrupt(format!(
                    "node {node} has a self-loop"
                )));
            }
        }
        if row.windows(2).any(|w| w[0] == w[1]) {
            return Err(SnapshotError::corrupt(format!(
                "node {node} lists a neighbor twice (parallel edge)"
            )));
        }
    }
    for node in 0..node_count {
        for &neighbor in &targets[offsets[node] as usize..offsets[node + 1] as usize] {
            let i = neighbor.index();
            let mirror_row = &sorted_rows[offsets[i] as usize..offsets[i + 1] as usize];
            if mirror_row.binary_search(&NodeId::new(node)).is_err() {
                return Err(SnapshotError::corrupt(format!(
                    "adjacency is not mirrored: n{node} lists {neighbor} but not vice versa"
                )));
            }
        }
    }
    Ok(())
}

/// Validates a shard manifest against the topology it ships with: the ranges must tile
/// `0..node_count` contiguously, and every shard's boundary table must be *exactly* the
/// cross-shard adjacency entries its node range produces, in frozen adjacency order.
///
/// The recomputation makes the manifest trustworthy on its own: `sfo snapshot inspect`
/// and a shard-host deployment can read boundary fractions and routing tables straight
/// from the file without re-deriving the partition.
fn validate_manifest(
    shards: &[ShardRecord],
    offsets: &[u32],
    targets: &[NodeId],
) -> Result<(), SnapshotError> {
    let node_count = offsets.len() - 1;
    let mut expected_start = 0u64;
    for (s, shard) in shards.iter().enumerate() {
        if shard.start != expected_start || shard.end < shard.start {
            return Err(SnapshotError::corrupt(format!(
                "shard {s} range [{}, {}) does not tile the node ids contiguously",
                shard.start, shard.end
            )));
        }
        expected_start = shard.end;
    }
    if expected_start != node_count as u64 {
        return Err(SnapshotError::corrupt(
            "shard ranges do not cover every node",
        ));
    }
    // Ranges tile 0..node_count, so the owner of a node is findable by binary search on
    // the shard starts; validate_topology has already proven every target in range.
    let owner_of = |node: u32| -> u32 {
        shards.partition_point(|shard| shard.start <= node as u64) as u32 - 1
    };
    for (s, shard) in shards.iter().enumerate() {
        let mut stored = shard.boundary.iter();
        for node in shard.start..shard.end {
            let node = node as usize;
            for &neighbor in &targets[offsets[node] as usize..offsets[node + 1] as usize] {
                let target_shard = owner_of(neighbor.as_u32());
                if target_shard as usize == s {
                    continue;
                }
                let expected = BoundaryRecord {
                    source: node as u32,
                    target: neighbor.as_u32(),
                    target_shard,
                };
                if stored.next() != Some(&expected) {
                    return Err(SnapshotError::corrupt(format!(
                        "shard {s} boundary table does not list the cross-shard entry \
                         n{node}->{neighbor} its rows produce"
                    )));
                }
            }
        }
        if stored.next().is_some() {
            return Err(SnapshotError::corrupt(format!(
                "shard {s} boundary table lists entries its rows do not produce"
            )));
        }
    }
    Ok(())
}

/// A bounds-checked little-endian reader over one section of the body.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, len: usize, section: &'static str) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(SnapshotError::Truncated { section })?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self, section: &'static str) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4, section)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self, section: &'static str) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8, section)?.try_into().expect("8 bytes"),
        ))
    }

    fn provenance(&mut self, with_origin: bool) -> Result<Provenance, SnapshotError> {
        let label_len = self.u32("provenance")? as usize;
        let mut provenance = self.provenance_body(label_len)?;
        if with_origin {
            provenance.origin = Some(self.origin()?);
        }
        Ok(provenance)
    }

    fn origin(&mut self) -> Result<SnapshotOrigin, SnapshotError> {
        let kind = self.u32("origin")?;
        let params_len = self.u32("origin")? as usize;
        let params_bytes = self.take(params_len, "origin")?;
        let params = std::str::from_utf8(params_bytes)
            .map_err(|_| SnapshotError::corrupt("origin params are not valid UTF-8"))?
            .to_string();
        let pad = self.take(label_pad(params_len), "origin")?;
        if pad.iter().any(|&b| b != 0) {
            return Err(SnapshotError::corrupt("origin params padding is not zero"));
        }
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

    fn provenance_body(&mut self, label_len: usize) -> Result<Provenance, SnapshotError> {
        let label_bytes = self.take(label_len, "provenance")?;
        let label = std::str::from_utf8(label_bytes)
            .map_err(|_| SnapshotError::corrupt("provenance label is not valid UTF-8"))?
            .to_string();
        let pad = self.take(label_pad(label_len), "provenance")?;
        if pad.iter().any(|&b| b != 0) {
            return Err(SnapshotError::corrupt(
                "provenance label padding is not zero",
            ));
        }
        let m = self.u64("provenance")?;
        let cutoff = match self.u64("provenance")? {
            u64::MAX => None,
            value => Some(value),
        };
        Ok(Provenance {
            label,
            m,
            cutoff,
            seed: self.u64("provenance")?,
            realization: self.u64("provenance")?,
            sweep_seed: self.u64("provenance")?,
            origin: None,
        })
    }

    fn is_empty(&self) -> bool {
        self.pos == self.bytes.len()
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn position(&self) -> usize {
        self.pos
    }
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
    fn provenance_and_manifest_round_trip() {
        let csr = sample();
        let shards = vec![
            ShardRecord {
                start: 0,
                end: 3,
                boundary: vec![
                    BoundaryRecord {
                        source: 0,
                        target: 5,
                        target_shard: 1,
                    },
                    BoundaryRecord {
                        source: 0,
                        target: 3,
                        target_shard: 1,
                    },
                    BoundaryRecord {
                        source: 2,
                        target: 3,
                        target_shard: 1,
                    },
                ],
            },
            ShardRecord {
                start: 3,
                end: 6,
                boundary: vec![
                    BoundaryRecord {
                        source: 3,
                        target: 2,
                        target_shard: 0,
                    },
                    BoundaryRecord {
                        source: 3,
                        target: 0,
                        target_shard: 0,
                    },
                    BoundaryRecord {
                        source: 5,
                        target: 0,
                        target_shard: 0,
                    },
                ],
            },
        ];
        let file = SnapshotFile {
            csr,
            shards: Some(shards),
            provenance: Some(provenance()),
        };
        let back = SnapshotFile::from_bytes(&file.to_bytes()).unwrap();
        assert_eq!(back, file);
        let header = back.header();
        assert_eq!(header.shard_count, 2);
        assert!(header.has_shard_manifest);
        assert!(header.has_provenance);
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

        // Shard count without a manifest flag.
        let bytes = rehashed(&file, |b| b[24] = 3);
        assert!(matches!(
            SnapshotFile::from_bytes(&bytes),
            Err(SnapshotError::Corrupt { reason }) if reason.contains("shard count")
        ));
    }

    #[test]
    fn invalid_manifests_are_rejected() {
        let csr = sample();
        let bad_range = SnapshotFile {
            csr: csr.clone(),
            shards: Some(vec![ShardRecord {
                start: 0,
                end: 4,
                boundary: Vec::new(),
            }]),
            provenance: None,
        };
        assert!(matches!(
            SnapshotFile::from_bytes(&bad_range.to_bytes()),
            Err(SnapshotError::Corrupt { reason }) if reason.contains("cover")
        ));

        let bad_owner = SnapshotFile {
            csr,
            shards: Some(vec![
                ShardRecord {
                    start: 0,
                    end: 3,
                    boundary: vec![BoundaryRecord {
                        source: 0,
                        target: 1, // n1 lives in shard 0, not shard 1
                        target_shard: 1,
                    }],
                },
                ShardRecord {
                    start: 3,
                    end: 6,
                    boundary: Vec::new(),
                },
            ]),
            provenance: None,
        };
        assert!(matches!(
            SnapshotFile::from_bytes(&bad_owner.to_bytes()),
            Err(SnapshotError::Corrupt { .. })
        ));
    }

    #[test]
    fn lying_boundary_tables_are_rejected_by_recomputation() {
        // Ranges and ownership are consistent, but the tables omit real cross edges /
        // invent fake ones; the codec recomputes the partition's boundary and compares.
        let csr = sample();
        let empty_tables = SnapshotFile {
            csr: csr.clone(),
            shards: Some(vec![
                ShardRecord {
                    start: 0,
                    end: 3,
                    boundary: Vec::new(),
                },
                ShardRecord {
                    start: 3,
                    end: 6,
                    boundary: Vec::new(),
                },
            ]),
            provenance: None,
        };
        assert!(matches!(
            SnapshotFile::from_bytes(&empty_tables.to_bytes()),
            Err(SnapshotError::Corrupt { reason }) if reason.contains("boundary")
        ));

        let mut extra = SnapshotFile::from_bytes(
            &SnapshotFile {
                csr,
                shards: Some(vec![ShardRecord {
                    start: 0,
                    end: 6,
                    boundary: Vec::new(),
                }]),
                provenance: None,
            }
            .to_bytes(),
        )
        .unwrap();
        // One shard has no cross edges; inventing one must fail.
        extra.shards.as_mut().unwrap()[0]
            .boundary
            .push(BoundaryRecord {
                source: 0,
                target: 1,
                target_shard: 0,
            });
        assert!(matches!(
            SnapshotFile::from_bytes(&extra.to_bytes()),
            Err(SnapshotError::Corrupt { .. })
        ));
    }

    #[test]
    fn oversized_length_fields_are_rejected_before_allocation() {
        // A shard count the file cannot possibly hold must fail as truncation, not
        // reserve memory for 4 billion records.
        let file = SnapshotFile {
            csr: sample(),
            shards: Some(vec![ShardRecord {
                start: 0,
                end: 6,
                boundary: Vec::new(),
            }]),
            provenance: None,
        };
        let bytes = rehashed(&file, |b| {
            b[24..28].copy_from_slice(&u32::MAX.to_le_bytes())
        });
        assert!(matches!(
            SnapshotFile::from_bytes(&bytes),
            Err(SnapshotError::Truncated { .. })
        ));

        // Same for a provenance label length in read_meta (no checksum protection).
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
            section: "shard manifest"
        }
        .to_string()
        .contains("shard manifest"));
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
            shards: Some(vec![ShardRecord {
                start: 0,
                end: 6,
                boundary: Vec::new(),
            }]),
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
        let manifest = layout.manifest_bytes.clone().unwrap();
        assert_eq!(manifest.start, layout.targets_bytes.end);
        assert_eq!(manifest.end, layout.trailer_bytes.start);
        assert_eq!(layout.trailer_bytes.end, layout.file_len);
        assert!(layout.zero_copy_eligible());

        // Plain files have no optional sections and still tile exactly.
        let plain_path = dir.join("layout-plain.sfos");
        SnapshotFile::plain(sample()).save(&plain_path).unwrap();
        let plain = section_layout(&plain_path).unwrap();
        assert!(plain.provenance_bytes.is_none());
        assert!(plain.manifest_bytes.is_none());
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
            shards: Some(vec![ShardRecord {
                start: 0,
                end: 6,
                boundary: Vec::new(),
            }]),
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
