//! Observability substrate for the Pingmesh reproduction.
//!
//! Three pillars, all dependency-free and safe to call from any thread:
//!
//! * **Events** — typed, structured records carrying wall time and (when
//!   emitted under the simulator) virtual [`SimTime`], buffered in a
//!   lock-sharded bounded ring ([`EventRing`]) that never blocks the
//!   emitting thread and counts every dropped event exactly.
//! * **Spans** — scoped timers ([`Span`]) that emit one duration event
//!   when the guarded region exits.
//! * **Metrics** — a [`Registry`] of named counters, gauges (direct and
//!   callback-bridged), and log-bucketed latency histograms (reusing
//!   [`pingmesh_types::LatencyHistogram`]), with point-in-time snapshots.
//!
//! Exports: [`encode::snapshot_to_prometheus`] (served by the realmode
//! collector at `GET /metrics`), [`encode::events_to_jsonl`] (served at
//! `GET /events?since=`), and [`encode::snapshot_to_json`] (bench
//! telemetry manifests).
//!
//! Everything routes through process-global state ([`registry()`],
//! [`events()`]) so instrumentation sites need no plumbing. The global
//! [`set_enabled`] switch gates event emission; when disabled, emission
//! macros return before allocating anything, keeping the probe hot path
//! allocation-free (verified by `tests/hot_path_allocs.rs`).
//!
//! Metric naming convention: `pingmesh_<crate>_<name>`, lowercase
//! snake_case, counters suffixed `_total`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod encode;
mod event;
mod metrics;
pub mod slo;
mod span;
pub mod trace;

pub use event::{Event, EventRing, Field, Level};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricId, Registry, SampleValue, Snapshot,
};
pub use span::Span;

use pingmesh_types::SimTime;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether observability is currently enabled. Cheap (one relaxed load);
/// emission sites check this before building any payload.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enables or disables event emission. Metrics handles keep
/// working either way (they are plain atomics); the switch gates event
/// construction, ring writes, and sinks.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Default capacity of the global event ring.
pub const DEFAULT_EVENT_CAPACITY: usize = 8192;

/// The process-global event ring.
pub fn events() -> &'static EventRing {
    static RING: OnceLock<EventRing> = OnceLock::new();
    RING.get_or_init(|| EventRing::new(DEFAULT_EVENT_CAPACITY))
}

/// The process-global metrics registry. On first touch, the plain
/// atomics `pingmesh-types` maintains (it sits below this crate and
/// cannot register metrics itself) are bridged in as callback gauges.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let r = Registry::new();
        use pingmesh_types::telemetry;
        use std::sync::atomic::Ordering;
        r.callback_gauge("pingmesh_types_histograms_created", &[], || {
            telemetry::HISTOGRAMS_CREATED.load(Ordering::Relaxed) as f64
        });
        r.callback_gauge("pingmesh_types_histogram_pages", &[], || {
            telemetry::HISTOGRAM_PAGES.load(Ordering::Relaxed) as f64
        });
        r.callback_gauge("pingmesh_types_histogram_merges", &[], || {
            telemetry::HISTOGRAM_MERGES.load(Ordering::Relaxed) as f64
        });
        r.callback_gauge("pingmesh_types_rtts_classified", &[], || {
            telemetry::RTTS_CLASSIFIED.load(Ordering::Relaxed) as f64
        });
        // Build identity and process uptime, Prometheus-style: build_info
        // is a constant 1 whose labels carry the identity; uptime counts
        // seconds since this registry (≈ the process) came up.
        r.callback_gauge(
            "pingmesh_build_info",
            &[
                ("version", env!("CARGO_PKG_VERSION")),
                (
                    "commit",
                    option_env!("PINGMESH_BUILD_COMMIT").unwrap_or("unknown"),
                ),
            ],
            || 1.0,
        );
        let started = std::time::Instant::now();
        r.callback_gauge("pingmesh_uptime_seconds", &[], move || {
            started.elapsed().as_secs_f64()
        });
        r
    })
}

static STDERR_SINK: AtomicBool = AtomicBool::new(false);

/// Mirrors every recorded event, after ring storage, to stderr as one
/// human-readable line — the bench binaries use this so stdout carries
/// only figure data.
pub fn install_stderr_sink() {
    STDERR_SINK.store(true, Ordering::Relaxed);
}

/// Records a structured event into the global ring (and on stderr, if
/// [`install_stderr_sink`] ran).
/// No-op while observability is disabled. Prefer the [`emit!`] macro,
/// which skips field construction entirely when disabled.
pub fn record_event(
    level: Level,
    target: &'static str,
    name: &'static str,
    fields: Vec<(&'static str, Field)>,
    sim: Option<SimTime>,
) {
    if !enabled() {
        return;
    }
    let ev = Event {
        seq: 0,
        wall_unix_ns: event::wall_unix_ns(),
        sim,
        level,
        target,
        name,
        fields,
    };
    if STDERR_SINK.load(Ordering::Relaxed) {
        eprintln!("{}", encode::event_to_line(&ev));
    }
    events().push(ev);
}

/// Starts a scoped timer; the returned [`Span`] emits a `duration_us`
/// event when dropped. Inert (and allocation-free) when disabled.
pub fn span(target: &'static str, name: &'static str) -> Span {
    Span::new(target, name, enabled())
}

/// Emits a structured event: `emit!(Info, "crate.module", "event_name",
/// "key" => value, ...)`. Values go through [`Field::from`], so integers,
/// floats, bools, and strings all work. When observability is disabled
/// this expands to a single branch — no allocation, no field evaluation.
#[macro_export]
macro_rules! emit {
    ($level:ident, $target:expr, $name:expr $(, $k:literal => $v:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::record_event(
                $crate::Level::$level,
                $target,
                $name,
                vec![$(($k, $crate::Field::from($v))),*],
                None,
            );
        }
    };
}

/// Like [`emit!`] but stamps the event with a virtual [`SimTime`]:
/// `emit_sim!(sim_time; Info, "netsim.engine", "tick", "depth" => d)`.
#[macro_export]
macro_rules! emit_sim {
    ($sim:expr; $level:ident, $target:expr, $name:expr $(, $k:literal => $v:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::record_event(
                $crate::Level::$level,
                $target,
                $name,
                vec![$(($k, $crate::Field::from($v))),*],
                Some($sim),
            );
        }
    };
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// One test here turns the process-wide switch off for a moment, and
    /// `cargo test` runs tests on parallel threads: every test that needs
    /// events on holds this.
    static ENABLED: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Turns events on for the caller's scope.
    pub(crate) fn events_on() -> std::sync::MutexGuard<'static, ()> {
        let guard = ENABLED.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        guard
    }

    #[test]
    fn emit_lands_in_global_ring() {
        let _on = events_on();
        let before = events().last_seq();
        emit!(Info, "obs.test", "lib_emit", "n" => 3u64, "ok" => true);
        let evs = events().snapshot_since(before);
        let ev = evs.iter().find(|e| e.name == "lib_emit").unwrap();
        assert_eq!(ev.level, Level::Info);
        assert!(ev.fields.contains(&("n", Field::U64(3))));
        assert!(ev.fields.contains(&("ok", Field::Bool(true))));
    }

    #[test]
    fn emit_sim_carries_virtual_time() {
        let _on = events_on();
        let before = events().last_seq();
        emit_sim!(SimTime(77); Debug, "obs.test", "sim_emit");
        let evs = events().snapshot_since(before);
        assert_eq!(
            evs.iter().find(|e| e.name == "sim_emit").unwrap().sim,
            Some(SimTime(77))
        );
    }

    #[test]
    fn disabled_gates_emission_and_field_evaluation() {
        let _on = events_on();
        let before = events().last_seq();
        set_enabled(false);
        let evaluated = AtomicUsize::new(0);
        let expensive = || {
            evaluated.fetch_add(1, Ordering::Relaxed);
            1u64
        };
        emit!(Info, "obs.test", "gated", "v" => expensive());
        assert_eq!(evaluated.load(Ordering::Relaxed), 0, "fields not built");
        set_enabled(true);
        emit!(Info, "obs.test", "ungated", "v" => expensive());
        assert_eq!(evaluated.load(Ordering::Relaxed), 1);
        let names: Vec<&str> = events()
            .snapshot_since(before)
            .iter()
            .map(|e| e.name)
            .collect::<Vec<_>>();
        assert!(!names.contains(&"gated"));
        assert!(names.contains(&"ungated"));
    }
}
