//! The measurement harness every bench binary shares: allocation
//! counting, calibrated best-of-rounds timing, paired A/B timing, and the
//! report-and-gate exit.
//!
//! Timing uses `std::time::Instant` only. Scheduling noise only ever
//! slows a run down, so every statistic here keeps the fastest round.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A global allocator that counts every allocation request, reallocs
/// included, so a measured pass can report how often it hit the heap.
/// Deallocations are not counted.
///
/// A binary that reports allocations installs it with
/// `#[global_allocator] static A: CountingAlloc = CountingAlloc;` and
/// reads the count with [`allocs`].
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a statistic that
// publishes no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation requests served by [`CountingAlloc`] so far; stays 0 in a
/// binary that does not install it.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Runs `f` once and returns its result with the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Iterations of a pass that takes `once` seconds needed to fill `budget`
/// seconds, clamped to 3..=50 000.
pub fn iterations(once: f64, budget: f64) -> usize {
    ((budget / once.max(1e-9)) as usize).clamp(3, 50_000)
}

/// The result of [`measure`].
pub struct Measurement {
    /// Units of work per second in the fastest round.
    pub units_per_sec: f64,
    /// Heap allocations per unit, averaged over every timed pass.
    pub allocs_per_unit: f64,
}

/// Timed rounds per [`measure`] call.
const ROUNDS: usize = 3;

/// Measures `pass`, which does `units` units of work and returns a count
/// that must equal `expected`.
///
/// Three warm-up passes check the count. One more pass calibrates the
/// iteration count to `budget` seconds per round (see [`iterations`]).
/// Then three rounds are timed and the fastest wins. Allocations are
/// averaged over every timed pass; once warm, the count per pass is
/// deterministic.
///
/// # Panics
///
/// If a warm-up pass returns a count other than `expected`.
pub fn measure(
    mut pass: impl FnMut() -> usize,
    expected: usize,
    units: usize,
    budget: f64,
) -> Measurement {
    for _ in 0..3 {
        assert_eq!(pass(), expected, "benchmark pass must process every unit");
    }
    let iters = iterations(timed(|| black_box(pass())).1, budget);
    let mut best_secs = f64::INFINITY;
    let allocs_before = allocs();
    for _ in 0..ROUNDS {
        let ((), secs) = timed(|| {
            for _ in 0..iters {
                black_box(pass());
            }
        });
        best_secs = best_secs.min(secs);
    }
    let timed_units = (ROUNDS * iters * units) as f64;
    Measurement {
        units_per_sec: (units * iters) as f64 / best_secs,
        allocs_per_unit: (allocs() - allocs_before) as f64 / timed_units,
    }
}

/// The result of [`paired`].
pub struct Pair {
    /// Fastest `a` time, in seconds.
    pub a_best: f64,
    /// Fastest `b` time, in seconds.
    pub b_best: f64,
    /// The largest per-round ratio `a / b`.
    pub ratio: f64,
}

/// Runs `a` then `b` back to back for `rounds` rounds. Each returns the
/// seconds it timed, so setup it does outside its timer is not counted.
///
/// Both sides of a round share the machine's state at that moment, so a
/// load spike degrades both instead of skewing their ratio; the best
/// round's ratio is the most faithful one.
pub fn paired(rounds: usize, mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> Pair {
    let mut pair = Pair { a_best: f64::INFINITY, b_best: f64::INFINITY, ratio: 0.0 };
    for _ in 0..rounds {
        let a_secs = a();
        let b_secs = b();
        pair.a_best = pair.a_best.min(a_secs);
        pair.b_best = pair.b_best.min(b_secs);
        pair.ratio = pair.ratio.max(a_secs / b_secs);
    }
    pair
}

/// Whether the binary runs in `--quick` mode: short budgets for CI smoke
/// runs, every gate still enforced unless the bench says otherwise, and
/// the committed report left untouched.
pub fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The host's available parallelism, recorded in every report.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// A JSON number with one decimal, or `null` when not finite.
pub fn json_f(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.1}")
    } else {
        "null".to_string()
    }
}

/// Opens a report object with the fields every bench report carries: what
/// it measures, the command that reproduces it, and the core count.
pub fn report_header(benchmark: &str, bin: &str) -> String {
    format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"{}\",\n",
            "  \"command\": \"cargo run -p irdl-bench --bin {} --release\",\n",
            "  \"cores\": {},\n",
        ),
        benchmark,
        bin,
        cores(),
    )
}

/// Ends a bench run: prints `json`, writes it to `BENCH_<name>.json` at
/// the repository root unless in `--quick` mode, prints every gate
/// failure, and exits with status 1 if there is any.
pub fn finish(name: &str, json: &str, failures: &[String]) {
    print!("{json}");
    if quick() {
        eprintln!("quick mode: not rewriting BENCH_{name}.json");
    } else {
        let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
    }
    for failure in failures {
        eprintln!("FAIL: {failure}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
