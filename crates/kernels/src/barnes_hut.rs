//! Barnes-Hut N-body force approximation (Table 1 "BH").
//!
//! Irregular, memory-bound, single long kernel invocation. A 2-D quadtree is
//! built serially (the paper's tree build is also outside the data-parallel
//! kernel), then the kernel computes the approximate force on each body by
//! traversing the tree with the standard opening-angle criterion — the
//! pointer-chasing, input-dependent traversal that makes BH irregular and
//! memory-bound.
//!
//! Verification: approximate forces must be within a few percent of the
//! exact O(n²) forces on a sample of bodies.

use crate::profiles::{Calib, Profile};
use crate::workload::{Invoker, Verification, Workload, WorkloadSpec};
use easched_sim::{AccessPattern, KernelTraits, Platform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};

const THETA: f64 = 0.5;
const SOFTENING: f64 = 1e-4;

/// Quadtree node stored in an arena.
#[derive(Debug, Clone)]
struct Node {
    /// Center of this cell.
    cx: f64,
    cy: f64,
    /// Half-width of the cell.
    half: f64,
    /// Total mass and center of mass.
    mass: f64,
    com_x: f64,
    com_y: f64,
    /// Child indices (quadrants), `usize::MAX` = empty.
    children: [usize; 4],
    /// Body index if this is a leaf with one body, else `usize::MAX`.
    body: usize,
}

const NONE: usize = usize::MAX;

/// A quadtree over 2-D bodies.
#[derive(Debug)]
struct QuadTree {
    nodes: Vec<Node>,
}

impl QuadTree {
    fn build(xs: &[f64], ys: &[f64], masses: &[f64]) -> QuadTree {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &v in xs.iter().chain(ys) {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let half = ((hi - lo) / 2.0).max(1e-9) * 1.001;
        let (cx, cy) = ((hi + lo) / 2.0, (hi + lo) / 2.0);
        let mut tree = QuadTree {
            nodes: vec![Node {
                cx,
                cy,
                half,
                mass: 0.0,
                com_x: 0.0,
                com_y: 0.0,
                children: [NONE; 4],
                body: NONE,
            }],
        };
        for i in 0..xs.len() {
            tree.insert(0, i, xs, ys);
        }
        tree.summarize(0, xs, ys, masses);
        tree
    }

    fn quadrant(node: &Node, x: f64, y: f64) -> usize {
        (usize::from(x >= node.cx)) | (usize::from(y >= node.cy) << 1)
    }

    fn child_center(node: &Node, q: usize) -> (f64, f64, f64) {
        let h = node.half / 2.0;
        let cx = node.cx + if q & 1 == 1 { h } else { -h };
        let cy = node.cy + if q & 2 == 2 { h } else { -h };
        (cx, cy, h)
    }

    fn insert(&mut self, node_idx: usize, body: usize, xs: &[f64], ys: &[f64]) {
        let node = &self.nodes[node_idx];
        let is_empty_leaf = node.children == [NONE; 4] && node.body == NONE;
        if is_empty_leaf {
            self.nodes[node_idx].body = body;
            return;
        }
        // If this is an occupied leaf, push the resident body down first.
        let resident = self.nodes[node_idx].body;
        if resident != NONE {
            self.nodes[node_idx].body = NONE;
            self.push_down(node_idx, resident, xs, ys);
        }
        self.push_down(node_idx, body, xs, ys);
    }

    fn push_down(&mut self, node_idx: usize, body: usize, xs: &[f64], ys: &[f64]) {
        let q = Self::quadrant(&self.nodes[node_idx], xs[body], ys[body]);
        if self.nodes[node_idx].children[q] == NONE {
            let (cx, cy, h) = Self::child_center(&self.nodes[node_idx], q);
            self.nodes.push(Node {
                cx,
                cy,
                half: h,
                mass: 0.0,
                com_x: 0.0,
                com_y: 0.0,
                children: [NONE; 4],
                body: NONE,
            });
            let new_idx = self.nodes.len() - 1;
            self.nodes[node_idx].children[q] = new_idx;
        }
        let child = self.nodes[node_idx].children[q];
        self.insert(child, body, xs, ys);
    }

    fn summarize(&mut self, node_idx: usize, xs: &[f64], ys: &[f64], masses: &[f64]) {
        let (mut m, mut mx, mut my) = (0.0, 0.0, 0.0);
        let body = self.nodes[node_idx].body;
        if body != NONE {
            m += masses[body];
            mx += masses[body] * xs[body];
            my += masses[body] * ys[body];
        }
        let children = self.nodes[node_idx].children;
        for c in children.into_iter().filter(|&c| c != NONE) {
            self.summarize(c, xs, ys, masses);
            let cn = &self.nodes[c];
            m += cn.mass;
            mx += cn.mass * cn.com_x;
            my += cn.mass * cn.com_y;
        }
        let node = &mut self.nodes[node_idx];
        node.mass = m;
        if m > 0.0 {
            node.com_x = mx / m;
            node.com_y = my / m;
        }
    }

    /// Approximate force on body `i` via Barnes-Hut traversal.
    fn force(&self, i: usize, xs: &[f64], ys: &[f64]) -> (f64, f64) {
        let (mut fx, mut fy) = (0.0, 0.0);
        let mut stack = vec![0usize];
        while let Some(idx) = stack.pop() {
            let node = &self.nodes[idx];
            if node.mass == 0.0 {
                continue;
            }
            let dx = node.com_x - xs[i];
            let dy = node.com_y - ys[i];
            let dist2 = dx * dx + dy * dy + SOFTENING;
            let dist = dist2.sqrt();
            let is_far = (2.0 * node.half) / dist < THETA;
            let is_single_body_leaf = node.children == [NONE; 4];
            if is_far || is_single_body_leaf {
                if is_single_body_leaf && node.body == i {
                    continue; // self-interaction
                }
                let f = node.mass / (dist2 * dist);
                fx += f * dx;
                fy += f * dy;
            } else {
                stack.extend(node.children.into_iter().filter(|&c| c != NONE));
            }
        }
        (fx, fy)
    }
}

/// Exact O(n) force on body `i` from all others.
fn exact_force(i: usize, xs: &[f64], ys: &[f64], masses: &[f64]) -> (f64, f64) {
    let (mut fx, mut fy) = (0.0, 0.0);
    for j in 0..xs.len() {
        if j == i {
            continue;
        }
        let dx = xs[j] - xs[i];
        let dy = ys[j] - ys[i];
        let dist2 = dx * dx + dy * dy + SOFTENING;
        let f = masses[j] / (dist2 * dist2.sqrt());
        fx += f * dx;
        fy += f * dy;
    }
    (fx, fy)
}

/// The Barnes-Hut workload: one force-computation step over `n` bodies.
#[derive(Debug)]
pub(crate) struct BarnesHut {
    xs: Vec<f64>,
    ys: Vec<f64>,
    masses: Vec<f64>,
    profile: Profile,
}

impl BarnesHut {
    /// Creates a seeded `n`-body cluster (two Gaussian blobs, so the tree is
    /// deep and unbalanced).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub(crate) fn new(n: usize, seed: u64, profile: Profile) -> Self {
        assert!(n >= 2, "need at least 2 bodies");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for i in 0..n {
            let (cx, cy) = if i % 3 == 0 { (3.0, 1.0) } else { (-2.0, -1.0) };
            // Box-Muller-ish spread from uniforms.
            let r: f64 = rng.gen_range(0.01..1.0f64);
            let a: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            xs.push(cx + r.sqrt() * a.cos());
            ys.push(cy + r.sqrt() * a.sin());
        }
        let masses = (0..n).map(|_| rng.gen_range(0.5..2.0)).collect();
        BarnesHut {
            xs,
            ys,
            masses,
            profile,
        }
    }

    /// Default calibration: long on both devices, memory-bound
    /// (pointer-chasing traversal).
    pub(crate) fn default_profile() -> Profile {
        Profile {
            desktop: Calib {
                cpu_rate: 2.5e4,
                gpu_rate: 3.6e4,
                mem_intensity: 0.90,
                access: AccessPattern::Random,
                working_set: 1_000_000 * 100, // paper: 1M bodies + tree
                bus_fraction: 1.05,
                irregularity: 0.35,
                instr_per_item: 6_000.0,
                loads_per_item: 2_000.0,
            },
            tablet: Calib {
                cpu_rate: 3.0e3,
                gpu_rate: 3.3e3,
                mem_intensity: 0.90,
                access: AccessPattern::Random,
                working_set: 1_000_000 * 100,
                bus_fraction: 1.05,
                irregularity: 0.35,
                instr_per_item: 6_000.0,
                loads_per_item: 2_000.0,
            },
        }
    }
}

impl Workload for BarnesHut {
    fn input_description(&self) -> String {
        format!("{} bodies, 1 step", self.xs.len())
    }

    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            name: "BarnesHut",
            abbrev: "BH",
            regular: false,
            runs_on_tablet: false,
        }
    }

    fn traits_for(&self, platform: &Platform) -> KernelTraits {
        self.profile.traits_for("BH", platform)
    }

    fn drive(&self, invoker: &mut dyn Invoker) -> Verification {
        let n = self.xs.len();
        let tree = QuadTree::build(&self.xs, &self.ys, &self.masses);
        let forces: Vec<[AtomicU64; 2]> = (0..n).map(|_| Default::default()).collect();
        {
            let t = &tree;
            invoker.invoke(n as u64, &|items| {
                for i in items {
                    let (fx, fy) = t.force(i, &self.xs, &self.ys);
                    forces[i][0].store(fx.to_bits(), Ordering::Relaxed);
                    forces[i][1].store(fy.to_bits(), Ordering::Relaxed);
                }
            });
        }
        // Spot-check against exact forces. θ=0.5 gives a small *typical*
        // error but individual bodies near force cancellation can see large
        // relative error, so we bound the mean relative error tightly and
        // allow outliers a looser absolute-scale bound.
        let samples = n.min(64);
        let mut rel_sum = 0.0;
        let mut mag_sum = 0.0;
        let mut worst: (usize, f64) = (0, 0.0);
        for s in 0..samples {
            let i = s * n / samples;
            let fx = f64::from_bits(forces[i][0].load(Ordering::Relaxed));
            let fy = f64::from_bits(forces[i][1].load(Ordering::Relaxed));
            let (ex, ey) = exact_force(i, &self.xs, &self.ys, &self.masses);
            let exact_mag = (ex * ex + ey * ey).sqrt();
            let err = ((fx - ex).powi(2) + (fy - ey).powi(2)).sqrt();
            let rel = err / exact_mag.max(1e-9);
            rel_sum += rel;
            mag_sum += exact_mag;
            if rel > worst.1 {
                worst = (i, rel);
            }
        }
        let mean_rel = rel_sum / samples as f64;
        let mean_mag = mag_sum / samples as f64;
        if mean_rel > 0.05 {
            return Verification::Failed(format!("mean force error {:.1}%", mean_rel * 100.0));
        }
        // Outlier guard: even the worst body must stay within a quarter of
        // the cluster's typical force scale (θ=0.5 error concentrates on
        // bodies whose pairwise forces nearly cancel).
        for s in 0..samples {
            let i = s * n / samples;
            let fx = f64::from_bits(forces[i][0].load(Ordering::Relaxed));
            let fy = f64::from_bits(forces[i][1].load(Ordering::Relaxed));
            let (ex, ey) = exact_force(i, &self.xs, &self.ys, &self.masses);
            let err = ((fx - ex).powi(2) + (fy - ey).powi(2)).sqrt();
            if err > 0.25 * mean_mag {
                return Verification::Failed(format!(
                    "body {i}: force error {err:.3e} vs typical magnitude {mean_mag:.3e} (worst rel {:.1}% at {})",
                    worst.1 * 100.0,
                    worst.0
                ));
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
    fn tree_mass_equals_total() {
        let bh = BarnesHut::new(200, 1, BarnesHut::default_profile());
        let tree = QuadTree::build(&bh.xs, &bh.ys, &bh.masses);
        let total: f64 = bh.masses.iter().sum();
        assert!((tree.nodes[0].mass - total).abs() < 1e-9);
    }

    #[test]
    fn com_is_weighted_mean() {
        let xs = vec![0.0, 2.0];
        let ys = vec![0.0, 0.0];
        let ms = vec![1.0, 3.0];
        let tree = QuadTree::build(&xs, &ys, &ms);
        assert!((tree.nodes[0].com_x - 1.5).abs() < 1e-12);
    }

    #[test]
    fn two_bodies_force_is_exact() {
        // With only two bodies the traversal reaches leaves: exact result.
        let xs = vec![0.0, 1.0];
        let ys = vec![0.0, 0.0];
        let ms = vec![1.0, 1.0];
        let tree = QuadTree::build(&xs, &ys, &ms);
        let (fx, fy) = tree.force(0, &xs, &ys);
        let (ex, ey) = exact_force(0, &xs, &ys, &ms);
        assert!((fx - ex).abs() < 1e-12 && (fy - ey).abs() < 1e-12);
    }

    #[test]
    fn coincident_bodies_do_not_crash() {
        // Degenerate: all bodies at the same point (softening saves us; the
        // tree recursion must also terminate despite unsplittable bodies).
        let xs = vec![1.0, 1.0 + 1e-12, 1.0];
        let ys = vec![2.0, 2.0, 2.0 + 1e-12];
        let ms = vec![1.0; 3];
        let tree = QuadTree::build(&xs, &ys, &ms);
        let (fx, fy) = tree.force(0, &xs, &ys);
        assert!(fx.is_finite() && fy.is_finite());
    }

    #[test]
    fn workload_verifies() {
        let w = BarnesHut::new(400, 2, BarnesHut::default_profile());
        assert!(w.drive(&mut SerialInvoker).is_passed());
    }

    #[test]
    fn single_invocation() {
        let w = BarnesHut::new(64, 3, BarnesHut::default_profile());
        let (trace, v) = record_trace(&w);
        assert!(v.is_passed());
        assert_eq!(trace.sizes, vec![64]);
    }

    #[test]
    fn classifies_memory_bound() {
        let w = BarnesHut::new(8, 4, BarnesHut::default_profile());
        let p = Platform::haswell_desktop();
        assert!(w.traits_for(&p).l3_miss_ratio(p.memory.llc_bytes) > 0.33);
    }
}
