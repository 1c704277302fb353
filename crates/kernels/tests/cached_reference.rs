//! Every kernel with a serial reference (or, for Black-Scholes, its
//! verification targets) computes it once per instance and
//! compares every drive against it. A wrong output must fail whether it
//! is the instance's first drive (the one that fills the cache) or a
//! later one.

use easched_kernels::{
    Bfs, BlackScholes, ConnectedComponents, Invoker, Mandelbrot, NBody, RayTracer, Seismic,
    SerialInvoker, ShortestPath, Workload,
};
use std::ops::Range;

/// An invoker that never runs one item of any invocation, chosen so the
/// kernel's output is wrong: Mandelbrot leaves that pixel unwritten,
/// Black-Scholes leaves an option's call and put at zero, BFS and SP
/// never expand their source, CC leaves a vertex that is not its
/// component's minimum on its own label, NBody zeroes a body, Seismic
/// drops the pulse cell and the ray tracer leaves a pixel black.
struct SkipItem(usize);

impl Invoker for SkipItem {
    fn invoke(&mut self, n: u64, process: &(dyn Fn(Range<usize>) + Sync)) {
        let n = n as usize;
        let skip = self.0.min(n);
        if skip > 0 {
            process(0..skip);
        }
        if skip + 1 < n {
            process(skip + 1..n);
        }
    }
}

/// Wrong, clean, wrong, clean on one instance.
fn assert_every_drive_is_checked(w: &dyn Workload, skip: usize) {
    for round in 0..2 {
        assert!(
            !w.drive(&mut SkipItem(skip)).is_passed(),
            "round {round}: a drive that skipped item {skip} passed"
        );
        assert!(
            w.drive(&mut SerialInvoker).is_passed(),
            "round {round}: a clean drive failed"
        );
    }
}

#[test]
fn mandelbrot_checks_every_drive_against_its_cached_reference() {
    let w = Mandelbrot::new(48, 32, 64, Mandelbrot::default_profile());
    assert_every_drive_is_checked(&w, 0);
}

#[test]
fn blackscholes_checks_every_drive_against_its_cached_targets() {
    // Option 0 is also the first serially priced sample.
    let w = BlackScholes::new(300, 2, 5, BlackScholes::default_profile());
    assert_every_drive_is_checked(&w, 0);
}

#[test]
fn bfs_checks_every_drive_against_its_cached_reference() {
    assert_every_drive_is_checked(&Bfs::new(12, 12, 5, Bfs::default_profile()), 0);
}

#[test]
fn cc_checks_every_drive_against_its_cached_reference() {
    // Vertex 0 already holds label 0: skip the last vertex instead.
    let w = ConnectedComponents::new(12, 12, 5, ConnectedComponents::default_profile());
    assert_every_drive_is_checked(&w, 12 * 12 - 1);
}

#[test]
fn sp_checks_every_drive_against_its_cached_reference() {
    let w = ShortestPath::new(12, 12, 5, ShortestPath::default_profile());
    assert_every_drive_is_checked(&w, 0);
}

#[test]
fn nbody_checks_every_drive_against_its_cached_reference() {
    // The reference is the state after two steps.
    assert_every_drive_is_checked(&NBody::new(16, 3, 5, NBody::default_profile()), 0);
}

#[test]
fn seismic_checks_every_drive_against_its_cached_reference() {
    // The boundary stays zero whatever runs: skip the centre pulse.
    let w = Seismic::new(9, 7, 4, Seismic::default_profile());
    assert_every_drive_is_checked(&w, 3 * 9 + 4);
}

#[test]
fn raytracer_checks_every_drive_against_its_cached_reference() {
    let w = RayTracer::new(16, 12, 4, 1, 5, RayTracer::default_profile());
    assert_every_drive_is_checked(&w, 0);
}
