//! The circuit build's peak heap: building c432 (1554 islands) never
//! holds an `islands × islands` block, and the admission-time
//! [`ResourceEstimate`] covers what the build really allocates. A
//! counting global allocator records the peak of live heap bytes while
//! the benchmark is elaborated.
//!
//! The bound is one dense block of `f64` (18.4 MiB at c432). The sparse
//! build peaks at about 7 MiB there: the truncated `C⁻¹` (153 entries
//! per column), the dependency neighbourhoods and the netlist. A build
//! that formed a dense `C`, factor or inverse would need the block on
//! top of those and fails.

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
fn build_peak_is_below_one_dense_block_and_the_estimate_covers_it() {
    let logic = Benchmark::C432.logic();
    let params = SetLogicParams::default();
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let circuit = elaborate(&logic, &params).unwrap().circuit;
    let peak = PEAK.load(Ordering::SeqCst) - before;

    let n = circuit.num_islands();
    assert_eq!(n, 1554, "c432 island count");
    let block = n * n * std::mem::size_of::<f64>();
    let predicted =
        ResourceEstimate::predict(n, circuit.num_leads(), circuit.num_junctions()).total_bytes();
    println!(
        "peak {peak} B = {:.3} blocks of {block} B; estimate {predicted} B",
        peak as f64 / block as f64
    );
    assert!(
        peak < block,
        "build peak {peak} B reaches a dense islands² block ({block} B)"
    );
    assert!(
        predicted >= peak as u64,
        "estimate {predicted} B is below the counted build peak {peak} B"
    );
}
