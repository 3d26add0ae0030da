//! The allocation counter and `measure` agree on an exact count.
//!
//! This binary installs the counting allocator and holds a single test, so
//! no other test thread allocates while the count is taken.

use std::hint::black_box;

use irdl_bench::measure::{measure, CountingAlloc};

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

#[test]
fn a_pass_of_k_boxes_reports_k_allocations() {
    for k in [0, 1, 5] {
        let m = measure(
            || {
                for i in 0..k {
                    black_box(Box::new(i));
                }
                1
            },
            1,
            1,
            0.001,
        );
        assert_eq!(m.allocs_per_unit, k as f64, "{k} boxes per pass");
    }
}
