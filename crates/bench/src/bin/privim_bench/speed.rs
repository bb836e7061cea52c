//! How fast a core runs right now, so times measured on a shared host can
//! be scaled to one fixed speed.
//!
//! On a small VM each vCPU shares a physical core with other tenants, and
//! its speed changes with their load: a fixed loop takes 8 ms in one phase
//! and 11–14 ms in the next, for seconds to minutes at a time, and the two
//! vCPUs change independently. A time measured on such a core mixes the
//! program's cost with the phase it ran in. The probe here is a fixed
//! kernel of the benchmark's own, which no change to the program can make
//! faster or slower; timing it right before and right after a unit of work
//! on the same core gives the speed that unit ran at.

use std::hint::black_box;
use std::time::Instant;

/// What [`probe_ms`] reads on the reference VM (2-vCPU Intel Xeon, AVX2)
/// when its core is not shared with other load. Times are scaled to this
/// speed: `reported = measured · PROBE_REF_MS / probe`.
pub const PROBE_REF_MS: f64 = 3.7;

/// Side of the probe's square matrices: 2 × 512 KiB, so the product runs
/// from the core's own caches.
const N: usize = 256;

/// Passes of the probe kernel per reading.
const PASSES: usize = 10;

/// One pass of the probe kernel: a 256 × 256 matrix product in plain Rust.
fn kernel(a: &[f64], c: &mut [f64]) {
    for i in 0..N {
        for k in 0..N {
            let aik = a[i * N + k];
            let (row, src) = (&mut c[i * N..(i + 1) * N], &a[k * N..(k + 1) * N]);
            for (x, y) in row.iter_mut().zip(src) {
                *x += aik * y;
            }
        }
    }
}

/// Milliseconds one pass of the probe kernel takes on the calling thread's
/// core now: the mean of [`PASSES`] passes, about 40 ms in all. The mean,
/// not the fastest pass, because the work being scaled also pays for the
/// interruptions a slow phase brings.
pub fn probe_ms() -> f64 {
    let a: Vec<f64> = (0..N * N).map(|i| (i % 97) as f64 * 0.01).collect();
    let mut c = vec![0.0; N * N];
    let t = Instant::now();
    for _ in 0..PASSES {
        kernel(black_box(&a), black_box(&mut c));
        black_box(&c);
    }
    t.elapsed().as_secs_f64() * 1e3 / PASSES as f64
}

/// [`probe_ms`] on each of `cpus` at once, one pinned thread per CPU.
pub fn probe_cpus_ms(cpus: &[usize]) -> Vec<f64> {
    if cpus.is_empty() {
        return vec![probe_ms()];
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = cpus
            .iter()
            .map(|&cpu| {
                s.spawn(move || {
                    pin(cpu);
                    probe_ms()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .collect()
    })
}

/// The factor that scales a time measured between probes `before` and
/// `after` to the reference speed.
pub fn factor(before: f64, after: f64) -> f64 {
    2.0 * PROBE_REF_MS / (before + after)
}

/// The CPUs this process may run on, in ascending order.
pub fn cpus() -> Vec<usize> {
    let mut mask = [0u64; 16];
    // SAFETY: the kernel writes at most `size` bytes through the pointer,
    // and both come from the same live array.
    // privim-lint: allow(unsafe, reason = "sched_getaffinity FFI on the calling thread (pid 0): the kernel writes at most the given size into a live stack array of exactly that size")
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..mask.len() * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Keep the calling thread on `cpu` from now on, so probes taken before and
/// after a unit of work read the core that ran it. Returns false if the
/// kernel refused.
pub fn pin(cpu: usize) -> bool {
    let mut mask = [0u64; 16];
    if cpu >= mask.len() * 64 {
        return false;
    }
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the kernel reads at most `size` bytes through the pointer,
    // and both come from the same live array.
    // privim-lint: allow(unsafe, reason = "sched_setaffinity FFI on the calling thread (pid 0): the kernel reads at most the given size from a live stack array of exactly that size")
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    rc == 0
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_reads_a_positive_time_and_factor_scales_to_the_reference() {
        assert!(probe_ms() > 0.0);
        assert_eq!(factor(PROBE_REF_MS, PROBE_REF_MS), 1.0);
        // A core twice as slow as the reference halves the reported time.
        assert_eq!(factor(2.0 * PROBE_REF_MS, 2.0 * PROBE_REF_MS), 0.5);
    }

    #[test]
    fn pinning_to_an_allowed_cpu_keeps_the_thread_there() {
        let allowed = cpus();
        assert!(!allowed.is_empty());
        let last = *allowed.last().unwrap();
        std::thread::spawn(move || {
            assert!(pin(last));
            assert_eq!(cpus(), vec![last]);
        })
        .join()
        .unwrap();
    }
}
