//! The host block: core count, ISA flags, CPU governor, the calibrated
//! kernel cost model, and two measured ceilings — a STREAM-triad
//! bandwidth probe and an FMA-bound compute probe. Every achieved GB/s or
//! GFLOP/s the benchmark reports is divided by these ceilings.

use std::hint::black_box;
use std::time::Instant;

use tagnn_tensor::dispatch::CostModel;
use tagnn_tensor::kernels;

use crate::report::Metrics;
use crate::stats;

pub struct Host {
    pub cpus: usize,
    pub avx2: bool,
    pub fma: bool,
    pub avx512f: bool,
    pub governor: String,
    pub cost: CostModel,
    pub stream_gbps: f64,
    pub fma_gflops: f64,
}

pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn isa(flag: &str) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        match flag {
            "avx2" => std::arch::is_x86_feature_detected!("avx2"),
            "fma" => std::arch::is_x86_feature_detected!("fma"),
            "avx512f" => std::arch::is_x86_feature_detected!("avx512f"),
            _ => false,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = flag;
        false
    }
}

/// The part of the host block that needs no probing.
pub fn describe_brief() -> String {
    format!(
        "cpus={} avx2={} fma={} avx512f={} governor={}",
        cpus(),
        isa("avx2"),
        isa("fma"),
        isa("avx512f"),
        governor(),
    )
}

fn governor() -> String {
    std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unreadable".to_string())
}

impl Host {
    /// Runs both ceiling probes (about half a second in total).
    pub fn probe() -> Self {
        Self {
            cpus: cpus(),
            avx2: isa("avx2"),
            fma: isa("fma"),
            avx512f: isa("avx512f"),
            governor: governor(),
            cost: *CostModel::calibrated(),
            stream_gbps: stream_triad_gbps(),
            fma_gflops: fma_gflops(),
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "cpus={} avx2={} fma={} avx512f={} governor={} cost_model(dense,spmm,row,agg ns)={},{},{},{} \
             stream={:.2} GB/s fma={:.2} GFLOP/s",
            self.cpus,
            self.avx2,
            self.fma,
            self.avx512f,
            self.governor,
            self.cost.dense_mac_ns,
            self.cost.spmm_mac_ns,
            self.cost.spmm_row_ns,
            self.cost.agg_mac_ns,
            self.stream_gbps,
            self.fma_gflops,
        )
    }

    pub fn publish(&self, m: &mut Metrics) {
        m.set("host.cpus", self.cpus as f64);
        m.set("host.avx2", f64::from(u8::from(self.avx2)));
        m.set("host.fma", f64::from(u8::from(self.fma)));
        m.set("host.avx512f", f64::from(u8::from(self.avx512f)));
        m.set("host.stream_gbps", self.stream_gbps);
        m.set("host.fma_gflops", self.fma_gflops);
        m.set("host.cost_model.dense_mac_ns", self.cost.dense_mac_ns);
        m.set("host.cost_model.spmm_mac_ns", self.cost.spmm_mac_ns);
        m.set("host.cost_model.spmm_row_ns", self.cost.spmm_row_ns);
        m.set("host.cost_model.agg_mac_ns", self.cost.agg_mac_ns);
    }
}

/// Single-threaded STREAM triad `a = b + s·c` over three 64 MiB arrays
/// (larger than any last-level cache this runs on), median of seven
/// repetitions, counting three words moved per element.
fn stream_triad_gbps() -> f64 {
    const N: usize = 16 << 20;
    let b = vec![1.5f32; N];
    let c = vec![0.25f32; N];
    let mut a = vec![0.0f32; N];
    let s = black_box(3.0f32);
    let mut rates = Vec::new();
    for rep in 0..8 {
        let t = Instant::now();
        for ((x, &y), &z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + s * z;
        }
        black_box(&mut a);
        let secs = t.elapsed().as_secs_f64();
        if rep > 0 {
            rates.push((3 * N * 4) as f64 / secs / 1e9);
        }
    }
    stats::median(&rates)
}

/// Independent FMA chains per probe iteration: enough to cover the FMA
/// latency on two issue ports.
const CHAINS: usize = 12;

/// Peak single-core FMA throughput: independent 8-lane fused
/// multiply-add chains with no memory traffic, median of five slices of
/// 50 ms, counting two flops per lane per FMA.
fn fma_gflops() -> f64 {
    const ITERS: u64 = 1 << 16;
    let mut rates = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let mut calls = 0u64;
        while t.elapsed().as_secs_f64() < 0.05 {
            black_box(fma_chains(black_box(ITERS)));
            calls += 1;
        }
        let flops = (calls * ITERS * CHAINS as u64 * 8 * 2) as f64;
        rates.push(flops / t.elapsed().as_secs_f64() / 1e9);
    }
    stats::median(&rates)
}

fn fma_chains(iters: u64) -> f32 {
    #[cfg(target_arch = "x86_64")]
    {
        if isa("avx2") && isa("fma") {
            // SAFETY: the CPU supports AVX2 and FMA (checked just above),
            // which is all `fma_chains_avx2` requires.
            return unsafe { fma_chains_avx2(iters) };
        }
    }
    let mut acc = [[0.0f32; 8]; CHAINS];
    for _ in 0..iters {
        for chain in acc.iter_mut() {
            for x in chain.iter_mut() {
                *x = *x * 0.999 + 0.001;
            }
        }
    }
    acc.iter().flatten().sum()
}

/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_chains_avx2(iters: u64) -> f32 {
    use std::arch::x86_64::{_mm256_add_ps, _mm256_fmadd_ps, _mm256_set1_ps, _mm256_storeu_ps};
    let a = _mm256_set1_ps(0.999);
    let b = _mm256_set1_ps(0.001);
    let mut acc = [_mm256_set1_ps(0.0); CHAINS];
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = _mm256_fmadd_ps(*x, a, b);
        }
    }
    let mut sum = _mm256_set1_ps(0.0);
    for x in acc {
        sum = _mm256_add_ps(sum, x);
    }
    let mut lanes = [0.0f32; 8];
    // SAFETY: `lanes` holds exactly the eight f32 the store writes.
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), sum) };
    lanes.iter().sum()
}

/// GFLOP/s of the repository's GEMM kernel at one shape, timed in
/// slices of at least `slice_s` seconds; the median of five slices.
pub fn gemm_gflops(m: usize, k: usize, n: usize, slice_s: f64) -> f64 {
    let a: Vec<f32> = (0..m * k).map(|i| (i % 7) as f32 * 0.125 + 0.1).collect();
    let b: Vec<f32> = (0..k * n).map(|i| (i % 5) as f32 * 0.25 - 0.5).collect();
    let mut out = vec![0.0f32; m * n];
    kernels::gemm_into(m, k, n, &a, &b, &mut out);
    let flops = 2.0 * (m * k * n) as f64;
    let mut rates = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let mut calls = 0u64;
        while t.elapsed().as_secs_f64() < slice_s {
            kernels::gemm_into(m, k, n, black_box(&a), black_box(&b), &mut out);
            black_box(&mut out);
            calls += 1;
        }
        rates.push(flops * calls as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    stats::median(&rates)
}

/// CPU time the hypervisor spent on other guests while this machine's
/// CPUs were runnable (the `steal` column of `/proc/stat`), as a share
/// of all CPU time since `start`. Zero where the kernel does not report
/// it.
pub struct Steal {
    start: Vec<u64>,
}

fn cpu_times() -> Vec<u64> {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines().next().map(|l| {
                l.split_whitespace()
                    .skip(1)
                    .filter_map(|v| v.parse().ok())
                    .collect()
            })
        })
        .unwrap_or_default()
}

impl Steal {
    pub fn start() -> Self {
        Self { start: cpu_times() }
    }

    pub fn frac(&self) -> f64 {
        let now = cpu_times();
        let delta: Vec<u64> = now
            .iter()
            .zip(&self.start)
            .map(|(b, a)| b.saturating_sub(*a))
            .collect();
        let total: u64 = delta.iter().sum();
        match delta.get(7) {
            Some(&steal) if total > 0 => steal as f64 / total as f64,
            _ => 0.0,
        }
    }
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`).
pub fn status_kb(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") as f64 / 1024.0
}
