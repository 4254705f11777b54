//! Host speed, measured between timed operations.
//!
//! On the shared 2-vCPU VM this benchmark was tuned on, the speed of the
//! host drifts by ±25 % within minutes (other tenants, frequency
//! changes), which is wider than any bound the benchmark may set. The
//! drift is common to CPU-bound work: over 8 back-to-back samples a
//! click-count job's rate times the time of the fixed kernel below stayed
//! within ±3 % while each factor alone moved by 50 %. The end-to-end run
//! therefore reports throughput and set-up time at a fixed reference
//! speed, dividing out the run's median kernel time relative to
//! [`REFERENCE_MS`] (see `e2e.rs`); the raw wall-clock medians go to the
//! provenance line.

use std::time::Instant;

/// Kernel time, in milliseconds, of the reference host speed the scaled
/// metrics are expressed in (about the median on the tuning host).
pub const REFERENCE_MS: f64 = 2.5;

/// A fixed CPU-bound kernel over a buffer that stays allocated, so a
/// sample costs no page faults.
pub struct HostClock {
    buf: Vec<u64>,
}

impl HostClock {
    pub fn new() -> HostClock {
        let mut clock = HostClock {
            buf: (0..200_000).collect(),
        };
        clock.sample_ms();
        clock
    }

    /// Wall milliseconds of one run of the kernel (about 2–3 ms).
    pub fn sample_ms(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut acc = 0u64;
        for _ in 0..20 {
            for x in self.buf.iter_mut() {
                *x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                acc ^= *x;
            }
        }
        std::hint::black_box(acc);
        t0.elapsed().as_secs_f64() * 1e3
    }
}
