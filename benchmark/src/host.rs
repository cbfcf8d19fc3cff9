//! What the numbers were measured on.

use std::time::Instant;

/// Cores the process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Kernel release string, or `unknown` off Linux.
pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// Milliseconds a fixed arithmetic loop takes: a yardstick that tells a
/// slow host (or a busy neighbour) from a slow program. 40 M steps of a
/// 64-bit LCG, serial by data dependence; the `black_box` in the loop
/// keeps the compiler from folding the recurrence into a closed form.
pub fn calibrate_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..40_000_000u32 {
        x = std::hint::black_box(x)
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}
