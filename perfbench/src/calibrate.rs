//! Host-speed calibration.
//!
//! The benchmark runs on small VMs whose cores are shared with other
//! tenants. While it was tuned, one identical attack cell took anywhere from
//! 0.44 s to 0.91 s within a few minutes, so raw wall times varied from run
//! to run by more than any bound a regression check could use. End-to-end
//! times are therefore reported in *reference seconds*: the wall time of a
//! unit, divided by how much slower than on a quiet host fixed kernels ran
//! right before and right after the unit. The kernels are the benchmark's
//! own code, so no change to the library moves them. On a quiet host,
//! reference seconds are wall seconds. Set-up times are scaled the same way
//! by a third kernel that allocates like set-up does. The kernel times
//! themselves go into the report.

use std::time::Instant;

/// Kernel times that define one reference second per second: their quiet
/// medians on the 2-vCPU VM the benchmark was tuned on.
pub const REFERENCE_S: f64 = 0.008;
pub const COMPUTE_REFERENCE_S: f64 = 0.0009;
pub const ALLOC_REFERENCE_S: f64 = 1.0e-4;
/// Table size of the table kernel: 1.6 MB, beyond L2 like the solver's
/// clause arena, within the last-level cache.
const TABLE: usize = 200_000;
const PASSES: usize = 10;
const COMPUTE_STEPS: usize = 400_000;

/// Times of the table and compute kernels at one moment.
#[derive(Debug, Clone, Copy)]
pub struct Speed {
    table: f64,
    compute: f64,
}

/// Runs the calibration kernels and keeps every time they measured.
pub struct Calibrator {
    table: Vec<u64>,
    /// Times of the table kernel.
    pub table_samples: Vec<f64>,
    /// Times of the compute kernel.
    pub compute_samples: Vec<f64>,
    /// Times of the allocation kernel.
    pub setup_samples: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Self {
        Calibrator {
            table: vec![0; TABLE],
            table_samples: Vec::new(),
            compute_samples: Vec::new(),
            setup_samples: Vec::new(),
        }
    }

    /// Times one run of the table kernel, dependent random read-modify-writes
    /// over the table, and one of the compute kernel, a chain of xorshift
    /// multiply-adds that stays in registers. Both are driven by a xorshift
    /// generator.
    pub fn measure(&mut self) -> Speed {
        for (i, slot) in self.table.iter_mut().enumerate() {
            *slot = i as u64;
        }
        let start = Instant::now();
        let mut x = 0x0139_408d_cbbf_7a44u64;
        for _ in 0..PASSES {
            for i in 0..TABLE {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let j = (x % TABLE as u64) as usize;
                self.table[i] = self.table[i].wrapping_add(self.table[j] ^ x);
            }
        }
        std::hint::black_box(&self.table);
        let table = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let mut acc = 0u64;
        for _ in 0..COMPUTE_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(x.wrapping_mul(acc | 1));
        }
        std::hint::black_box(acc);
        let compute = start.elapsed().as_secs_f64();

        self.table_samples.push(table);
        self.compute_samples.push(compute);
        Speed { table, compute }
    }

    /// Reference seconds per wall second between two measurements: the
    /// inverse of the kernels' mean slowdown, weighted geometrically with
    /// `compute_weight` on the compute kernel and the rest on the table
    /// kernel.
    pub fn factor(before: Speed, after: Speed, compute_weight: f64) -> f64 {
        let table = (before.table + after.table) / (2.0 * REFERENCE_S);
        let compute = (before.compute + after.compute) / (2.0 * COMPUTE_REFERENCE_S);
        1.0 / (table.powf(1.0 - compute_weight) * compute.powf(compute_weight))
    }

    /// Times one run of the allocation kernel: it builds and drops a few
    /// thousand small vectors and strings, the kind of work set-up does
    /// (generating and encrypting a netlist). Set-up slows down by up to 2x
    /// for seconds at a time on a shared host; this kernel slows down with
    /// it, while the table kernel does not.
    pub fn measure_allocation(&mut self) -> f64 {
        let start = Instant::now();
        let mut total = 0usize;
        for i in 0..2000u32 {
            let v: Vec<u32> = (0..i % 17 + 3).collect();
            let s = format!("n{i}");
            total += v.len() + s.len();
        }
        std::hint::black_box(total);
        let seconds = start.elapsed().as_secs_f64();
        self.setup_samples.push(seconds);
        seconds
    }
}
