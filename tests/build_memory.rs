//! The circuit build's peak heap: building 54LS181 (708 islands) holds
//! at most two dense `islands²` blocks of `f64` at once, the LU factor
//! and `C⁻¹`, and the admission-time [`ResourceEstimate`] covers what
//! the build really allocates. A counting global allocator records the
//! peak of live heap bytes while the benchmark is elaborated.
//!
//! The bound is 2.5 blocks: the two blocks plus half a block for
//! everything else the build holds at its peak (the factor's nonzero
//! lists, the netlist and the element lists). A build that holds a third
//! block at once, as one keeping `C` or a transposed copy of `C⁻¹` does,
//! needs 3 blocks and fails.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use semsim::core::resource::ResourceEstimate;
use semsim::logic::{elaborate, Benchmark, SetLogicParams};

/// Forwards to the system allocator and counts live bytes and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn build_peak_is_two_dense_blocks_and_the_estimate_covers_it() {
    let logic = Benchmark::Ls181.logic();
    let params = SetLogicParams::default();
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let circuit = elaborate(&logic, &params).unwrap().circuit;
    let peak = PEAK.load(Ordering::SeqCst) - before;

    let n = circuit.num_islands();
    assert_eq!(n, 708, "54LS181 island count");
    let block = n * n * std::mem::size_of::<f64>();
    let bound = block * 5 / 2;
    let predicted =
        ResourceEstimate::predict(n, circuit.num_leads(), circuit.num_junctions()).total_bytes();
    println!(
        "peak {peak} B = {:.3} blocks of {block} B; bound {bound} B; estimate {predicted} B",
        peak as f64 / block as f64
    );
    assert!(peak >= 2 * block, "the build holds the factor and C⁻¹");
    assert!(
        peak < bound,
        "build peak {peak} B exceeds 2.5 blocks ({bound} B)"
    );
    assert!(
        predicted >= peak as u64,
        "estimate {predicted} B is below the counted build peak {peak} B"
    );
}
