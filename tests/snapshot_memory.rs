//! The heap a snapshot load or save holds, measured by a counting allocator.
//!
//! A load may hold, beyond the value it returns, at most four bytes per node and 4 MiB:
//! never the file or a copy of `targets`. A sharded store holds what the plain load
//! holds plus 4 KiB: its shard ranges, never a per-shard table. A sharded save may hold
//! at most 4 MiB beyond what it started with: never the file or a copy of the arrays.
//! The snapshot is a 4-shard capped-PA topology of 10^5 nodes.
//!
//! The allocator counts every thread of the process, so this file holds one test. A
//! reallocation counts as a fresh allocation followed by freeing the old block, the
//! most the heap can hold while it copies.

use sfoverlay::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

// SAFETY: every method forwards to `System` with the caller's arguments unchanged and
// only updates two counters besides.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            grew(new_size);
            shrank(layout.size());
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its value, the peak heap above the start while it ran, and the
/// heap above the start once it returned: what the value holds.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let start = LIVE.load(Ordering::SeqCst);
    PEAK.store(start, Ordering::SeqCst);
    let value = f();
    let peak = PEAK.load(Ordering::SeqCst) - start;
    let held = LIVE.load(Ordering::SeqCst).saturating_sub(start);
    (value, peak, held)
}

const NODES: usize = 100_000;
const KIB: usize = 1 << 10;
const MIB: usize = 1 << 20;

#[test]
fn loads_hold_their_arrays_plus_four_bytes_a_node_and_saves_one_buffer() {
    let mut spec = ScenarioSpec::sweep(
        "memory",
        TopologySpec::Pa {
            nodes: NODES,
            m: 2,
            cutoff: Some(40),
        },
        SearchSpec::Flooding,
        SweepSpec::single(vec![2], 1),
        1207,
        1,
    );
    spec.sweep.as_mut().unwrap().batch = true;
    let dir = std::env::temp_dir().join(format!("sfos-memory-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pa.sfos");
    let built = build_snapshot(&spec, 4).unwrap();
    built.save(&path).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), built.to_bytes());
    drop(built);
    let file_len = std::fs::metadata(&path).unwrap().len() as usize;
    let slack = 4 * NODES + 4 * MIB;

    let (file, peak, held) = measure(|| SnapshotFile::load(&path).unwrap());
    let (offsets, targets) = file.csr.raw_parts();
    let arrays = 4 * (offsets.len() + targets.len());
    assert!(
        held >= arrays,
        "the load holds its arrays: {held} < {arrays}"
    );
    assert!(
        peak <= held + slack,
        "SnapshotFile::load of a {file_len}-byte file peaked at {peak} bytes, holding {held}"
    );
    assert_eq!(file.shards, Some(4));
    drop(file);
    let file_held = held;

    let (sharded, peak, held) = measure(|| ShardedCsr::load(&path).unwrap());
    assert!(
        peak <= held + slack,
        "ShardedCsr::load peaked at {peak} bytes, holding {held}"
    );
    assert!(
        held <= file_held + 4 * KIB,
        "ShardedCsr::load holds {held} bytes, SnapshotFile::load {file_held}"
    );

    let (mapped, peak, held) = measure(|| SnapshotFile::load_mmap(&path).unwrap());
    assert!(mapped.csr.is_mapped());
    assert!(
        peak <= held + slack,
        "SnapshotFile::load_mmap peaked at {peak} bytes, holding {held}"
    );
    drop(mapped);

    let (mapped, peak, held) = measure(|| ShardedCsr::load_mmap(&path).unwrap());
    assert!(mapped.is_mapped());
    assert!(
        peak <= held + slack,
        "ShardedCsr::load_mmap peaked at {peak} bytes, holding {held}"
    );
    drop(mapped);

    let copy = dir.join("copy.sfos");
    let ((), peak, _) = measure(|| sharded.save(&copy).unwrap());
    assert!(peak <= 4 * MIB, "ShardedCsr::save peaked at {peak} bytes");
    assert_eq!(
        std::fs::read(&copy).unwrap(),
        sharded.to_snapshot_file().to_bytes()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
