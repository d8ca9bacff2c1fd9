//! The pingmesh-rs pipeline benchmark: four workloads measured end to
//! end, and every layer timed from outside through its public functions.
//! See README.md for the metric and workload tables.

pub mod compare;
pub mod env;
pub mod gen;
pub mod http;
pub mod layers;
pub mod metrics;
pub mod report;
pub mod sched;
pub mod sizes;
pub mod span;
pub mod stats;
pub mod workloads;

use span::Tracer;

/// What a workload run is given.
pub struct Ctx {
    pub seed: u64,
    /// `--seconds` over the nominal run length: scales the measured work.
    pub scale: f64,
    pub traced: bool,
    /// The main thread's tracer (enabled only on traced runs).
    pub tracer: Tracer,
}

impl Ctx {
    pub fn new(seed: u64, seconds: u64, traced: bool) -> Self {
        Self {
            seed,
            scale: seconds as f64 / sizes::RUN_SECONDS as f64,
            traced,
            tracer: Tracer::new(traced, std::time::Instant::now()),
        }
    }

    /// `nominal` scaled by `--seconds`, at least `floor`.
    pub fn scaled(&self, nominal: u64, floor: u64) -> u64 {
        ((nominal as f64 * self.scale).round() as u64).max(floor)
    }

    pub fn scaled_secs(&self, nominal: f64) -> std::time::Duration {
        std::time::Duration::from_secs_f64(nominal * self.scale)
    }
}

/// Times `f` over `iters` calls; nanoseconds per call.
pub fn ns_per_call<R>(iters: u64, mut f: impl FnMut(u64) -> R) -> f64 {
    let t0 = std::time::Instant::now();
    for i in 0..iters {
        std::hint::black_box(f(i));
    }
    t0.elapsed().as_nanos() as f64 / iters.max(1) as f64
}
