//! The peak heap of the two paths from text to circuit: neither holds an
//! `islands × islands` block, and the admission-time [`ResourceEstimate`]
//! covers what each really allocates. A counting global allocator
//! records the peak of live heap bytes while
//!
//! - the c432 benchmark (1554 islands) is elaborated, a logic build
//!   that runs no linter. The bound is one dense block of `f64`
//!   (18.4 MiB). The sparse build peaks at about 7 MiB there: the
//!   truncated `C⁻¹` (153 entries per column), the dependency
//!   neighbourhoods and the netlist.
//! - a generated 2000-island grounded RC chain is compiled from a
//!   netlist, lint included: the linter's SC002/SC003 factor `C` as the
//!   build does. The bound is one dense block (32.0 MB) and the file's
//!   estimate (9.38 MB); the compile peaks near 1.3 MB.
//!
//! A path that formed a dense `C`, factor or inverse would need the
//! block on top of those and fails. The allocator is process-global, so
//! both measurements run in the one test; a second test would run
//! concurrently and mix the counters. The estimate's locality model can
//! still under-price a small, weakly grounded chain that keeps all of
//! `C⁻¹`; the chain here is strongly grounded, and that case is not
//! what this test checks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use semsim::core::resource::ResourceEstimate;
use semsim::logic::{elaborate, Benchmark, SetLogicParams};
use semsim::netlist::CircuitFile;

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
    let (circuit, peak) = peak_of(|| elaborate(&logic, &params).unwrap().circuit);
    let n = circuit.num_islands();
    assert_eq!(n, 1554, "c432 island count");
    let predicted =
        ResourceEstimate::predict(n, circuit.num_leads(), circuit.num_junctions()).total_bytes();
    assert_bounded("build", peak, n, predicted);
    drop(circuit);

    let n = 2000;
    let file = CircuitFile::parse(&grounded_chain(n)).unwrap();
    let (compiled, peak) = peak_of(|| file.compile().unwrap());
    assert_eq!(compiled.circuit.num_islands(), n, "chain island count");
    assert_bounded("compile", peak, n, file.resource_estimate().total_bytes());
}

/// `f()` and the peak of live heap bytes above the level it started at.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let out = f();
    (out, PEAK.load(Ordering::SeqCst) - before)
}

/// Asserts that the counted `peak` of a path over `n` islands stays
/// below one dense `n × n` block of `f64` and within `predicted`.
fn assert_bounded(what: &str, peak: usize, n: usize, predicted: u64) {
    let block = n * n * std::mem::size_of::<f64>();
    println!(
        "{what} peak {peak} B = {:.3} blocks of {block} B; estimate {predicted} B",
        peak as f64 / block as f64
    );
    assert!(
        peak < block,
        "{what} peak {peak} B reaches a dense islands² block ({block} B)"
    );
    assert!(
        predicted >= peak as u64,
        "estimate {predicted} B is below the counted {what} peak {peak} B"
    );
}

/// A netlist of `n` islands (nodes 2..=n+1) in a chain of tunnel
/// junctions from a biased lead (node 1) to ground, each island also
/// grounded through 10 aF.
fn grounded_chain(n: usize) -> String {
    let mut text = String::from("vdc 1 0.02\n");
    for k in 1..=n + 1 {
        let next = if k == n + 1 { 0 } else { k + 1 };
        text.push_str(&format!("junc {k} {k} {next} 1e-6 1e-18\n"));
    }
    for k in 2..=n + 1 {
        text.push_str(&format!("cap {k} 0 1e-17\n"));
    }
    text.push_str("temp 5\nrecord 1 1 2\njumps 1000 1\n");
    text
}
