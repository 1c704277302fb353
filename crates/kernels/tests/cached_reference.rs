//! Mandelbrot and BFS compute their serial reference once per instance and
//! compare every drive against it. A wrong output must fail whether it is
//! the instance's first drive (the one that fills the cache) or a later one.

use easched_kernels::graphs::Bfs;
use easched_kernels::mandelbrot::Mandelbrot;
use easched_kernels::workload::{Invoker, SerialInvoker, Workload};
use std::ops::Range;

/// An invoker that never runs item 0 of any invocation: Mandelbrot leaves
/// pixel 0 unwritten, and BFS never expands its source.
struct SkipFirstItem;

impl Invoker for SkipFirstItem {
    fn invoke(&mut self, n: u64, process: &(dyn Fn(Range<usize>) + Sync)) {
        if n > 1 {
            process(1..n as usize);
        }
    }
}

/// Wrong, clean, wrong, clean on one instance.
fn assert_every_drive_is_checked(w: &dyn Workload) {
    for round in 0..2 {
        assert!(
            !w.drive(&mut SkipFirstItem).is_passed(),
            "round {round}: a drive that skipped an item passed"
        );
        assert!(
            w.drive(&mut SerialInvoker).is_passed(),
            "round {round}: a clean drive failed"
        );
    }
}

#[test]
fn mandelbrot_checks_every_drive_against_its_cached_reference() {
    assert_every_drive_is_checked(&Mandelbrot::new(48, 32, 64, Mandelbrot::default_profile()));
}

#[test]
fn bfs_checks_every_drive_against_its_cached_reference() {
    assert_every_drive_is_checked(&Bfs::new(12, 12, 5, Bfs::default_profile()));
}
