//! Pieces do not come back: a shuffle hands each target *selections* of its
//! source chunks, so the heap blocks one shuffle allocates grow with the
//! columns it merges — per source a fixed number of routing vectors, per
//! target one set of output buffers — and not with the number of (source,
//! target) pairs, each of which used to be a gathered batch of its own: four
//! to eight blocks per column, built by one worker and freed by another.
//!
//! The bounds below sit between what this engine allocates and what a
//! piece-per-target shuffle of the same data allocates (about 8,500 blocks at
//! 16 partitions and 68,000 at 64 for the grouping).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use trance_dist::{ClusterConfig, ColCollection, DistContext, JoinHint, JoinSpec};
use trance_nrc::Value;

/// Counts every block the process allocates.
struct Counting;

static BLOCKS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a statistic and touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap blocks allocated while `f` runs.
fn blocks_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = BLOCKS.load(Ordering::Relaxed);
    let out = f();
    (out, BLOCKS.load(Ordering::Relaxed) - before)
}

/// 4,000 rows over 500 keys, one string, one real and one integer value.
fn facts(ctx: &DistContext) -> ColCollection {
    let rows: Vec<Value> = (0..4000i64)
        .map(|i| {
            Value::tuple([
                ("k", Value::Int(i % 500)),
                ("name", Value::str(format!("name-{}", i % 97))),
                ("price", Value::Real(i as f64 * 0.5)),
                ("qty", Value::Int(i % 7)),
            ])
        })
        .collect();
    ColCollection::ingest(&ctx.parallelize(rows), &[]).unwrap()
}

fn dims(ctx: &DistContext) -> ColCollection {
    let rows: Vec<Value> = (0..500i64)
        .map(|k| {
            Value::tuple([
                ("dk", Value::Int(k)),
                ("region", Value::str(format!("region-{}", k % 11))),
            ])
        })
        .collect();
    ColCollection::ingest(&ctx.parallelize(rows), &[]).unwrap()
}

/// Heap blocks of one `nest_bag` and of one shuffle join over `partitions`
/// partitions.
fn shuffle_blocks(partitions: usize) -> (usize, usize) {
    // One worker: every task runs inline on this thread.
    let ctx = DistContext::new(ClusterConfig::new(1, partitions));
    let (facts, dims) = (facts(&ctx), dims(&ctx));

    let key = ["k".to_string()];
    let values = ["name".to_string(), "price".to_string(), "qty".to_string()];
    let (nested, nest) = blocks_of(|| facts.nest_bag(&key, &values, "items").unwrap());
    assert_eq!(nested.len(), 500);
    assert_eq!(ctx.stats().snapshot().shuffled_tuples, 4000);

    ctx.stats().reset();
    let spec = JoinSpec::inner(&["k"], &["dk"]).with_hint(JoinHint::Shuffle);
    let (joined, join) = blocks_of(|| facts.join(&dims, &spec).unwrap());
    assert_eq!(joined.len(), 4000);
    assert_eq!(ctx.stats().snapshot().shuffled_tuples, 4500);
    (nest, join)
}

// One test function: the counter is process-wide, and the harness runs the
// tests of a binary on parallel threads.
#[test]
fn a_shuffle_allocates_per_column_not_per_source_target_pair() {
    let (nest16, join16) = shuffle_blocks(16);
    let (nest64, join64) = shuffle_blocks(64);
    for (op, at16, at64) in [
        ("nest_bag", nest16, nest64),
        ("shuffle join", join16, join64),
    ] {
        assert!(
            at16 <= 4_000 && at64 <= 20_000,
            "{op} allocated {at16} heap blocks over 16 partitions (bound 4,000) \
             and {at64} over 64 (bound 20,000)"
        );
        // Four times the partitions, 16 times the (source, target) pairs.
        assert!(
            at64 <= 5 * at16,
            "{op}: {at16} heap blocks over 16 partitions, {at64} over 64 — \
             more than linear in the partitions"
        );
    }
}
