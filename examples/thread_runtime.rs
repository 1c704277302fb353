//! The paper's runtime architecture on real OS threads: CPU workers that
//! drain a shared counter plus a GPU proxy thread, driven by the EAS policy
//! in wall-clock time.
//!
//! The "GPU" is the proxy-paced device emulation from
//! `easched_runtime::ThreadBackend` (we have no OpenCL device — see
//! DESIGN.md §2); everything else is the real machinery: shared-counter
//! profiling, throughput measurement, α decisions, split execution.
//!
//! `crates/core/tests/thread_eas.rs` checks the plumbing on a synthetic
//! kernel; only this example renders real output in wall-clock time and
//! prints it.
//!
//! ```text
//! cargo run --release --example thread_runtime
//! ```

use easched::core::{characterize, CharacterizationConfig, EasConfig, EasScheduler, Objective};
use easched::runtime::{Scheduler, ThreadBackend, ThreadBackendConfig};
use easched::sim::Platform;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

fn main() {
    let platform = Platform::haswell_desktop();
    let model = characterize(&platform, &CharacterizationConfig::default());
    let mut eas = EasScheduler::new(model, EasConfig::new(Objective::EnergyDelay));

    // A real Mandelbrot render: items are pixels, executed by whichever
    // "device" claims them.
    let (width, height, max_iter) = (1024usize, 512usize, 192u32);
    let pixels: Vec<AtomicU32> = (0..width * height).map(|_| AtomicU32::new(0)).collect();
    let render = |items: std::ops::Range<usize>| {
        for i in items {
            let (x, y) = (i % width, i / width);
            let (cx, cy) = (
                -2.2 + 3.2 * (x as f64 + 0.5) / width as f64,
                -1.2 + 2.4 * (y as f64 + 0.5) / height as f64,
            );
            let (mut zx, mut zy) = (0.0f64, 0.0);
            let mut it = 0;
            while zx * zx + zy * zy <= 4.0 && it < max_iter {
                let t = zx * zx - zy * zy + cx;
                zy = 2.0 * zx * zy + cy;
                zx = t;
                it += 1;
            }
            pixels[i].store(it, Ordering::Relaxed);
        }
    };

    let workers = std::thread::available_parallelism().map_or(4, |n| n.get().min(8));
    // Emulated GPU: 3M pixels/s wall-clock.
    let config = ThreadBackendConfig::new(workers, 3.0e6);
    let traits = easched::sim::KernelTraits::builder("mandelbrot")
        .cpu_rate(2.0e6)
        .gpu_rate(3.0e6)
        .memory_intensity(0.85)
        .build();

    println!("rendering {width}×{height} Mandelbrot on {workers} CPU workers + GPU proxy thread");
    let t0 = Instant::now();
    let mut backend =
        ThreadBackend::new(config, &platform, &traits, (width * height) as u64, &render);
    eas.schedule(1, &mut backend);
    let elapsed = t0.elapsed();

    let interior = pixels
        .iter()
        .filter(|p| p.load(Ordering::Relaxed) == max_iter)
        .count();
    println!(
        "done in {elapsed:.2?}: {} pixels, {interior} interior points, learned α = {:?}",
        width * height,
        eas.learned_alpha(1)
    );
    assert!(interior > 0, "the render must contain set members");

    // Crude ASCII proof that real work happened.
    for row in (0..height).step_by(height / 12) {
        let line: String = (0..width)
            .step_by(width / 72)
            .map(|col| {
                let it = pixels[row * width + col].load(Ordering::Relaxed);
                match it {
                    i if i == max_iter => '#',
                    i if i > 24 => '+',
                    i if i > 8 => '.',
                    _ => ' ',
                }
            })
            .collect();
        println!("{line}");
    }
}
