//! Sphere-scene ray tracer (Table 1 "RT").
//!
//! Regular, compute-bound, single long kernel invocation: one item per
//! pixel, each casting a primary ray against every sphere, shading with
//! point lights (diffuse + specular), plus one reflection bounce.
//! Verification re-renders serially and compares bitwise (identical
//! operations per pixel → identical floats).

use crate::profiles::{Calib, Profile};
use crate::workload::{Invoker, Verification, Workload, WorkloadSpec};
use easched_sim::{AccessPattern, KernelTraits, Platform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

type Vec3 = [f32; 3];

fn dot(a: Vec3, b: Vec3) -> f32 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

fn sub(a: Vec3, b: Vec3) -> Vec3 {
    [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
}

fn add(a: Vec3, b: Vec3) -> Vec3 {
    [a[0] + b[0], a[1] + b[1], a[2] + b[2]]
}

fn scale(a: Vec3, s: f32) -> Vec3 {
    [a[0] * s, a[1] * s, a[2] * s]
}

fn normalize(a: Vec3) -> Vec3 {
    let len = dot(a, a).sqrt();
    if len > 0.0 {
        scale(a, 1.0 / len)
    } else {
        a
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Sphere {
    center: Vec3,
    radius: f32,
    color: Vec3,
    specular: f32,
    reflect: f32,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Light {
    pos: Vec3,
    intensity: f32,
}

/// Ray-sphere intersection: smallest positive t, or None.
fn hit(sphere: &Sphere, origin: Vec3, dir: Vec3) -> Option<f32> {
    let oc = sub(origin, sphere.center);
    let b = 2.0 * dot(oc, dir);
    let c = dot(oc, oc) - sphere.radius * sphere.radius;
    let disc = b * b - 4.0 * c;
    if disc < 0.0 {
        return None;
    }
    let sq = disc.sqrt();
    let t1 = (-b - sq) / 2.0;
    let t2 = (-b + sq) / 2.0;
    if t1 > 1e-3 {
        Some(t1)
    } else if t2 > 1e-3 {
        Some(t2)
    } else {
        None
    }
}

const BACKGROUND: Vec3 = [0.05, 0.05, 0.1];

/// The ray tracer workload.
#[derive(Debug)]
pub struct RayTracer {
    width: usize,
    height: usize,
    spheres: Vec<Sphere>,
    lights: Vec<Light>,
    profile: Profile,
    /// The serial render, computed on the first drive and compared
    /// against on every drive.
    serial_image: OnceLock<Vec<[f32; 3]>>,
}

impl RayTracer {
    /// Creates a `width × height` render of `n_spheres` seeded spheres lit
    /// by `n_lights` point lights.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or count is zero.
    pub fn new(
        width: usize,
        height: usize,
        n_spheres: usize,
        n_lights: usize,
        seed: u64,
        profile: Profile,
    ) -> Self {
        assert!(
            width > 0 && height > 0 && n_spheres > 0 && n_lights > 0,
            "dimensions and counts must be positive"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let spheres = (0..n_spheres)
            .map(|_| Sphere {
                center: [
                    rng.gen_range(-4.0..4.0),
                    rng.gen_range(-3.0..3.0),
                    rng.gen_range(3.0..12.0),
                ],
                radius: rng.gen_range(0.2..0.8),
                color: [
                    rng.gen_range(0.1..1.0),
                    rng.gen_range(0.1..1.0),
                    rng.gen_range(0.1..1.0),
                ],
                specular: rng.gen_range(8.0..64.0),
                reflect: rng.gen_range(0.0..0.4),
            })
            .collect();
        let lights = (0..n_lights)
            .map(|_| Light {
                pos: [
                    rng.gen_range(-6.0..6.0),
                    rng.gen_range(2.0..6.0),
                    rng.gen_range(-2.0..4.0),
                ],
                intensity: rng.gen_range(0.4..1.0),
            })
            .collect();
        RayTracer {
            width,
            height,
            spheres,
            lights,
            profile,
            serial_image: OnceLock::new(),
        }
    }

    /// Default calibration: GPU ≈ 2.8× CPU on the desktop.
    pub fn default_profile() -> Profile {
        Profile {
            desktop: Calib {
                cpu_rate: 1.3e5,
                gpu_rate: 3.4e5,
                mem_intensity: 0.10,
                access: AccessPattern::Random,
                working_set: 256 * 48, // scene fits in cache
                bus_fraction: 0.10,
                irregularity: 0.05,
                instr_per_item: 5_000.0,
                loads_per_item: 1_500.0,
            },
            tablet: Calib {
                cpu_rate: 2.4e4,
                gpu_rate: 3.5e4,
                mem_intensity: 0.10,
                access: AccessPattern::Random,
                working_set: 225 * 48,
                bus_fraction: 0.10,
                irregularity: 0.05,
                instr_per_item: 4_000.0,
                loads_per_item: 1_200.0,
            },
        }
    }

    fn nearest(&self, origin: Vec3, dir: Vec3) -> Option<(usize, f32)> {
        let mut best: Option<(usize, f32)> = None;
        for (i, s) in self.spheres.iter().enumerate() {
            if let Some(t) = hit(s, origin, dir) {
                if best.is_none_or(|(_, bt)| t < bt) {
                    best = Some((i, t));
                }
            }
        }
        best
    }

    fn shade(&self, origin: Vec3, dir: Vec3, depth: u32) -> Vec3 {
        let Some((si, t)) = self.nearest(origin, dir) else {
            return BACKGROUND;
        };
        let sphere = &self.spheres[si];
        let point = add(origin, scale(dir, t));
        let normal = normalize(sub(point, sphere.center));
        let mut color = scale(sphere.color, 0.08); // ambient
        for light in &self.lights {
            let to_light = normalize(sub(light.pos, point));
            // Shadow test.
            let blocked = self
                .nearest(point, to_light)
                .is_some_and(|(_, st)| st < dot(sub(light.pos, point), to_light));
            if blocked {
                continue;
            }
            let diffuse = dot(normal, to_light).max(0.0) * light.intensity;
            color = add(color, scale(sphere.color, diffuse));
            let reflect_dir = sub(scale(normal, 2.0 * dot(normal, to_light)), to_light);
            let spec = dot(reflect_dir, scale(dir, -1.0))
                .max(0.0)
                .powf(sphere.specular)
                * light.intensity;
            color = add(color, [spec, spec, spec]);
        }
        if depth > 0 && sphere.reflect > 0.0 {
            let rdir = normalize(sub(dir, scale(normal, 2.0 * dot(dir, normal))));
            let reflected = self.shade(point, rdir, depth - 1);
            color = add(
                scale(color, 1.0 - sphere.reflect),
                scale(reflected, sphere.reflect),
            );
        }
        color
    }

    /// Renders pixel `i` (row-major) to a packed RGB f32 triple.
    fn render_pixel(&self, i: usize) -> [f32; 3] {
        let (x, y) = (i % self.width, i / self.width);
        let u = (x as f32 + 0.5) / self.width as f32 * 2.0 - 1.0;
        let v = 1.0 - (y as f32 + 0.5) / self.height as f32 * 2.0;
        let aspect = self.width as f32 / self.height as f32;
        let dir = normalize([u * aspect, v, 1.5]);
        self.shade([0.0, 0.0, -2.0], dir, 1)
    }
}

impl Workload for RayTracer {
    fn input_description(&self) -> String {
        format!(
            "{}x{}, {} spheres, {} lights",
            self.width,
            self.height,
            self.spheres.len(),
            self.lights.len()
        )
    }

    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            name: "Ray Tracer",
            abbrev: "RT",
            regular: true,
            runs_on_tablet: true,
        }
    }

    fn traits_for(&self, platform: &Platform) -> KernelTraits {
        self.profile.traits_for("RT", platform)
    }

    fn drive(&self, invoker: &mut dyn Invoker) -> Verification {
        let n = self.width * self.height;
        let image: Vec<[AtomicU32; 3]> = (0..n).map(|_| Default::default()).collect();
        invoker.invoke(n as u64, &|items| {
            for i in items {
                let c = self.render_pixel(i);
                for k in 0..3 {
                    image[i][k].store(c[k].to_bits(), Ordering::Relaxed);
                }
            }
        });
        // The serial render must match bitwise.
        let serial = self
            .serial_image
            .get_or_init(|| (0..n).map(|i| self.render_pixel(i)).collect());
        for (i, (px, want)) in image.iter().zip(serial).enumerate() {
            for k in 0..3 {
                let got = f32::from_bits(px[k].load(Ordering::Relaxed));
                if got != want[k] {
                    return Verification::Failed(format!(
                        "pixel {i} channel {k}: {got} vs {}",
                        want[k]
                    ));
                }
            }
        }
        Verification::Passed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{record_trace, SerialInvoker};

    #[test]
    fn ray_sphere_intersection() {
        let s = Sphere {
            center: [0.0, 0.0, 5.0],
            radius: 1.0,
            color: [1.0; 3],
            specular: 10.0,
            reflect: 0.0,
        };
        let t = hit(&s, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]).unwrap();
        assert!((t - 4.0).abs() < 1e-5);
        assert!(hit(&s, [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]).is_none());
        // From inside: exits through far wall.
        let t = hit(&s, [0.0, 0.0, 5.0], [0.0, 0.0, 1.0]).unwrap();
        assert!((t - 1.0).abs() < 1e-5);
    }

    #[test]
    fn miss_renders_background() {
        // A scene whose only sphere is far off to the side.
        let mut rt = RayTracer::new(8, 8, 1, 1, 1, RayTracer::default_profile());
        rt.spheres[0].center = [100.0, 100.0, 50.0];
        let c = rt.render_pixel(0);
        assert_eq!(c, BACKGROUND);
    }

    #[test]
    fn workload_verifies() {
        let w = RayTracer::new(24, 18, 8, 2, 3, RayTracer::default_profile());
        assert!(w.drive(&mut SerialInvoker).is_passed());
    }

    #[test]
    fn single_invocation_per_pixel() {
        let w = RayTracer::new(10, 6, 4, 1, 4, RayTracer::default_profile());
        let (trace, v) = record_trace(&w);
        assert!(v.is_passed());
        assert_eq!(trace.sizes, vec![60]);
    }

    #[test]
    fn lit_sphere_brighter_than_background() {
        let rt = RayTracer::new(64, 64, 24, 3, 5, RayTracer::default_profile());
        let mut max_lum = 0.0f32;
        for i in 0..64 * 64 {
            let c = rt.render_pixel(i);
            max_lum = max_lum.max(c[0] + c[1] + c[2]);
        }
        assert!(
            max_lum > BACKGROUND.iter().sum::<f32>() * 2.0,
            "scene all dark"
        );
    }

    #[test]
    fn classifies_compute_bound() {
        let w = RayTracer::new(8, 8, 4, 1, 6, RayTracer::default_profile());
        let p = Platform::haswell_desktop();
        assert!(w.traits_for(&p).l3_miss_ratio(p.memory.llc_bytes) < 0.33);
    }

    #[test]
    #[should_panic(expected = "dimensions and counts must be positive")]
    fn rejects_zero_lights() {
        RayTracer::new(8, 8, 4, 0, 0, RayTracer::default_profile());
    }
}
