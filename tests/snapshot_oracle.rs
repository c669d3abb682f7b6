//! The snapshot reader against the whole-buffer reader it replaced.
//!
//! `SnapshotFile::load` streams a file through one fixed-size buffer. This file keeps
//! the reader it replaced — read the whole file, verify the checksum, decode every
//! section into memory, then check the topology — as a test-only oracle of the version
//! 2 format, and requires for every case of a generated corruption matrix that
//! `SnapshotFile::from_bytes`, `SnapshotFile::load` and `SnapshotFile::load_mmap` return
//! the oracle's value or exactly its error.
//!
//! The matrix starts from three valid files (sharded with provenance and origin tag,
//! provenance without a tag, plain) and covers:
//!
//! * truncation one byte before, at and after every section boundary, with the trailer
//!   left as it was and with the trailer re-hashed over what is left;
//! * three flipped bits at the first, middle and last byte of every section and of the
//!   header's shard count, with and without re-hashing.

use rand::SeedableRng;
use sfoverlay::graph::snapshot::fnv1a64;
use sfoverlay::prelude::*;
use std::ops::Range;
use std::path::PathBuf;

mod oracle {
    //! The reader as it ran before streaming: whole-buffer decode, then validation.

    use sfoverlay::graph::snapshot::fnv1a64;
    use sfoverlay::prelude::{Provenance, SnapshotError, SnapshotOrigin};

    const HEADER_LEN: usize = 32;
    const TRAILER_LEN: usize = 8;
    const FLAG_PROVENANCE: u16 = 2;
    const FLAG_ORIGIN: u16 = 4;
    const KNOWN_FLAGS: u16 = 6;

    /// Everything a successful load returns, in plain arrays.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) struct Decoded {
        pub(crate) offsets: Vec<u32>,
        pub(crate) targets: Vec<u32>,
        pub(crate) shards: Option<usize>,
        pub(crate) provenance: Option<Provenance>,
    }

    struct Header {
        node_count: u64,
        edge_count: u64,
        shard_count: u32,
        has_provenance: bool,
        has_origin: bool,
    }

    fn corrupt(reason: impl Into<String>) -> SnapshotError {
        SnapshotError::Corrupt {
            reason: reason.into(),
        }
    }

    fn label_pad(len: usize) -> usize {
        (4 - len % 4) % 4
    }

    fn decode_header(bytes: &[u8]) -> Result<Header, SnapshotError> {
        if bytes.len() < HEADER_LEN {
            if bytes.len() < 4 {
                return Err(SnapshotError::Truncated { section: "header" });
            }
            let found: [u8; 4] = bytes[..4].try_into().unwrap();
            if found != *b"SFOS" {
                return Err(SnapshotError::BadMagic { found });
            }
            return Err(SnapshotError::Truncated { section: "header" });
        }
        let found: [u8; 4] = bytes[..4].try_into().unwrap();
        if found != *b"SFOS" {
            return Err(SnapshotError::BadMagic { found });
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
        if version != 2 {
            return Err(SnapshotError::UnsupportedVersion { found: version });
        }
        let flags = u16::from_le_bytes(bytes[6..8].try_into().unwrap());
        if flags & !KNOWN_FLAGS != 0 {
            return Err(corrupt(format!(
                "unknown flag bits {:#06x} for version 2",
                flags & !KNOWN_FLAGS
            )));
        }
        let node_count = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let edge_count = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        let shard_count = u32::from_le_bytes(bytes[24..28].try_into().unwrap());
        let reserved = u32::from_le_bytes(bytes[28..32].try_into().unwrap());
        if reserved != 0 {
            return Err(corrupt("reserved header bytes are not zero"));
        }
        if u64::from(shard_count) > node_count {
            return Err(corrupt(format!(
                "{shard_count} shards cannot cut a {node_count}-node topology"
            )));
        }
        let has_provenance = flags & FLAG_PROVENANCE != 0;
        let has_origin = flags & FLAG_ORIGIN != 0;
        if has_origin && !has_provenance {
            return Err(corrupt("origin tag flagged but no provenance section"));
        }
        Ok(Header {
            node_count,
            edge_count,
            shard_count,
            has_provenance,
            has_origin,
        })
    }

    struct Cursor<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Cursor<'a> {
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
                self.take(4, section)?.try_into().unwrap(),
            ))
        }

        fn u64(&mut self, section: &'static str) -> Result<u64, SnapshotError> {
            Ok(u64::from_le_bytes(
                self.take(8, section)?.try_into().unwrap(),
            ))
        }

        fn remaining(&self) -> usize {
            self.bytes.len() - self.pos
        }

        fn provenance(&mut self, with_origin: bool) -> Result<Provenance, SnapshotError> {
            let label_len = self.u32("provenance")? as usize;
            let label_bytes = self.take(label_len, "provenance")?;
            let label = std::str::from_utf8(label_bytes)
                .map_err(|_| corrupt("provenance label is not valid UTF-8"))?
                .to_string();
            let pad = self.take(label_pad(label_len), "provenance")?;
            if pad.iter().any(|&b| b != 0) {
                return Err(corrupt("provenance label padding is not zero"));
            }
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
            let params_bytes = self.take(params_len, "origin")?;
            let params = std::str::from_utf8(params_bytes)
                .map_err(|_| corrupt("origin params are not valid UTF-8"))?
                .to_string();
            let pad = self.take(label_pad(params_len), "origin")?;
            if pad.iter().any(|&b| b != 0) {
                return Err(corrupt("origin params padding is not zero"));
            }
            match kind {
                0 if params.is_empty() => Ok(SnapshotOrigin::Generator),
                0 => Err(corrupt("generator origin carries protocol params")),
                1 => Ok(SnapshotOrigin::LiveOverlay { params }),
                other => Err(corrupt(format!("unknown origin kind {other}"))),
            }
        }
    }

    /// The old `decode_layout` + `build_owned`: checksum, sections, then validation.
    pub(crate) fn decode(bytes: &[u8]) -> Result<Decoded, SnapshotError> {
        let header = decode_header(bytes)?;
        if bytes.len() < HEADER_LEN + TRAILER_LEN {
            return Err(SnapshotError::Truncated { section: "trailer" });
        }
        let body = &bytes[..bytes.len() - TRAILER_LEN];
        let stored = u64::from_le_bytes(bytes[bytes.len() - TRAILER_LEN..].try_into().unwrap());
        let computed = fnv1a64(body);
        if stored != computed {
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }
        let mut cursor = Cursor {
            bytes: &body[HEADER_LEN..],
            pos: 0,
        };
        let provenance = if header.has_provenance {
            Some(cursor.provenance(header.has_origin)?)
        } else {
            None
        };
        let node_count = usize::try_from(header.node_count)
            .ok()
            .filter(|&n| n < u32::MAX as usize)
            .ok_or_else(|| corrupt("node count exceeds the u32 index space"))?;
        let entry_count = header
            .edge_count
            .checked_mul(2)
            .and_then(|n| usize::try_from(n).ok())
            .filter(|&n| n <= u32::MAX as usize)
            .ok_or_else(|| corrupt("edge count exceeds the u32 index space"))?;
        let array_len = |elements: usize, section: &'static str| {
            elements
                .checked_mul(4)
                .ok_or(SnapshotError::Truncated { section })
        };
        let words = |bytes: &[u8]| -> Vec<u32> {
            bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                .collect()
        };
        let offsets_len = array_len(node_count + 1, "offsets")?;
        let offsets = words(cursor.take(offsets_len, "offsets")?);
        let targets_len = array_len(entry_count, "targets")?;
        let targets = words(cursor.take(targets_len, "targets")?);

        if cursor.remaining() != 0 {
            return Err(corrupt(format!(
                "{} undeclared bytes between the last section and the trailer",
                cursor.remaining()
            )));
        }

        validate_topology(&offsets, &targets)?;
        Ok(Decoded {
            offsets,
            targets,
            shards: (header.shard_count > 0).then_some(header.shard_count as usize),
            provenance,
        })
    }

    fn validate_topology(offsets: &[u32], targets: &[u32]) -> Result<(), SnapshotError> {
        let node_count = offsets.len() - 1;
        if offsets[0] != 0 {
            return Err(corrupt("offsets do not start at zero"));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(corrupt("offsets are not monotone"));
        }
        if offsets[node_count] as usize != targets.len() {
            return Err(corrupt(
                "final offset does not match the target array length",
            ));
        }
        let mut sorted_rows = targets.to_vec();
        for node in 0..node_count {
            let row = &mut sorted_rows[offsets[node] as usize..offsets[node + 1] as usize];
            row.sort_unstable();
            for &neighbor in row.iter() {
                if neighbor as usize >= node_count {
                    return Err(corrupt(format!(
                        "node {node} lists out-of-range neighbor n{neighbor}"
                    )));
                }
                if neighbor as usize == node {
                    return Err(corrupt(format!("node {node} has a self-loop")));
                }
            }
            if row.windows(2).any(|w| w[0] == w[1]) {
                return Err(corrupt(format!(
                    "node {node} lists a neighbor twice (parallel edge)"
                )));
            }
        }
        for node in 0..node_count {
            for &neighbor in &targets[offsets[node] as usize..offsets[node + 1] as usize] {
                let i = neighbor as usize;
                let mirror_row = &sorted_rows[offsets[i] as usize..offsets[i + 1] as usize];
                if mirror_row.binary_search(&(node as u32)).is_err() {
                    return Err(corrupt(format!(
                        "adjacency is not mirrored: n{node} lists n{neighbor} but not vice versa"
                    )));
                }
            }
        }
        Ok(())
    }
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sfos-oracle-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn decoded(file: SnapshotFile) -> oracle::Decoded {
    let (offsets, targets) = file.csr.raw_parts();
    oracle::Decoded {
        offsets: offsets.to_vec(),
        targets: targets.iter().map(|t| t.as_u32()).collect(),
        shards: file.shards,
        provenance: file.provenance,
    }
}

/// Replaces the trailer of `body ++ trailer` (or of a body with no trailer) by the
/// checksum of `body`.
fn rehash(mut body: Vec<u8>) -> Vec<u8> {
    let checksum = fnv1a64(&body);
    body.extend_from_slice(&checksum.to_le_bytes());
    body
}

/// Requires every loader to agree with the oracle on `bytes`, value or error text.
fn agree(case: &str, bytes: &[u8], path: &PathBuf) -> bool {
    let expected = oracle::decode(bytes);
    let from_bytes = SnapshotFile::from_bytes(bytes).map(decoded);
    assert_eq!(from_bytes, expected, "{case}: from_bytes");
    std::fs::write(path, bytes).unwrap();
    let loaded = SnapshotFile::load(path).map(decoded);
    assert_eq!(loaded, expected, "{case}: load");
    let mapped = SnapshotFile::load_mmap(path).map(decoded);
    assert_eq!(mapped, expected, "{case}: load_mmap");
    if let (Err(a), Err(b)) = (&from_bytes, &expected) {
        assert_eq!(a.to_string(), b.to_string(), "{case}: error text");
    }
    expected.is_ok()
}

/// The three valid files the matrix corrupts.
fn pristine_files() -> Vec<(&'static str, Vec<u8>)> {
    let mut spec = ScenarioSpec::sweep(
        "oracle",
        TopologySpec::Pa {
            nodes: 300,
            m: 2,
            cutoff: Some(9),
        },
        SearchSpec::Flooding,
        SweepSpec::single(vec![1, 2], 2),
        41,
        1,
    );
    spec.sweep.as_mut().unwrap().batch = true;
    let sharded = build_snapshot(&spec, 3).unwrap();
    assert!(sharded.shards.is_some());

    let mut untagged = build_snapshot(&spec, 0).unwrap();
    untagged.provenance.as_mut().unwrap().origin = None;
    untagged.provenance.as_mut().unwrap().label = "odd".to_string();

    let generator = TopologySpec::Pa {
        nodes: 120,
        m: 3,
        cutoff: None,
    }
    .build()
    .unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let plain = SnapshotFile::plain(generator.generate(&mut rng).unwrap().freeze());

    vec![
        ("sharded", sharded.to_bytes()),
        ("untagged", untagged.to_bytes()),
        ("plain", plain.to_bytes()),
    ]
}

/// Byte ranges of each section of a valid file, in file order.
fn sections(bytes: &[u8], path: &PathBuf) -> Vec<(&'static str, Range<usize>)> {
    std::fs::write(path, bytes).unwrap();
    let layout = section_layout(path).unwrap();
    let range = |r: &Range<u64>| r.start as usize..r.end as usize;
    let mut sections = vec![
        ("header", range(&layout.header_bytes)),
        ("shard count", 24..28),
    ];
    if let Some(provenance) = &layout.provenance_bytes {
        sections.push(("provenance", range(provenance)));
    }
    sections.push(("offsets", range(&layout.offsets_bytes)));
    sections.push(("targets", range(&layout.targets_bytes)));
    sections.push(("trailer", range(&layout.trailer_bytes)));
    sections
}

#[test]
fn truncation_at_every_section_boundary_matches_the_oracle() {
    let path = temp_path("truncated.sfos");
    for (name, pristine) in pristine_files() {
        assert!(agree(name, &pristine, &path), "{name} must load");
        let mut cuts: Vec<usize> = sections(&pristine, &path)
            .iter()
            .flat_map(|(_, r)| [r.start, r.end])
            .flat_map(|b| [b.saturating_sub(1), b, b + 1])
            .filter(|&cut| cut < pristine.len())
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        for cut in cuts {
            let kept = &pristine[..cut];
            assert!(!agree(&format!("{name}: cut at {cut}"), kept, &path));
            if cut >= 40 {
                // The body that is left, trailer re-hashed: the structural verdicts.
                let body = rehash(pristine[..cut - 8].to_vec());
                assert!(!agree(
                    &format!("{name}: cut at {cut}, re-hashed"),
                    &body,
                    &path
                ));
            }
        }
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn flipped_bits_in_every_section_match_the_oracle() {
    let path = temp_path("flipped.sfos");
    let mut structural = 0;
    for (name, pristine) in pristine_files() {
        let body_len = pristine.len() - 8;
        for (section, range) in sections(&pristine, &path) {
            let positions = [range.start, (range.start + range.end) / 2, range.end - 1];
            for pos in positions {
                for bit in [0u8, 3, 7] {
                    let mut bytes = pristine.clone();
                    bytes[pos] ^= 1 << bit;
                    let case = format!("{name}: {section} byte {pos} bit {bit}");
                    agree(&case, &bytes, &path);
                    if pos < body_len {
                        bytes.truncate(body_len);
                        let bytes = rehash(bytes);
                        if !agree(&format!("{case}, re-hashed"), &bytes, &path) {
                            structural += 1;
                        }
                    }
                }
            }
        }
    }
    // The re-hashed flips reach the structural checks, not only the checksum.
    assert!(structural > 50, "{structural} structural rejections");
    std::fs::remove_file(&path).unwrap();
}
