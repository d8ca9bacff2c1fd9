//! Structural gate on what a serve miss copies — counted, not timed.
//!
//! One `#[test]` in a binary of its own: the histogram counters in
//! `pingmesh_types::telemetry` are process-wide, so nothing else may
//! build or merge a histogram while the deltas are taken.

use pingmesh_dsa::agg::LatencyScope;
use pingmesh_dsa::store::{CosmosStore, StreamName};
use pingmesh_serve::views::{ApiQuery, HeatmapLevel};
use pingmesh_topology::ServiceMap;
use pingmesh_types::telemetry::{HISTOGRAMS_CREATED, HISTOGRAM_MERGES};
use pingmesh_types::{
    DcId, PodId, PodsetId, ProbeKind, ProbeOutcome, ProbeRecord, QosClass, ServerId, SimDuration,
    SimTime,
};
use std::sync::atomic::Ordering;
use std::sync::Arc;

const W: u64 = 600_000_000;
const DCS: u32 = 2;
const SERVERS_PER_DC: u32 = 600;
const SERVERS_PER_POD: u32 = 20;
const SERVERS_PER_PODSET: u32 = 200;
const WINDOWS: u64 = 2;

/// 1,200 probing servers over two streams and two windows; every server
/// probes intra-pod, inter-pod and the other DC, so every scope map fills.
fn store() -> CosmosStore {
    let mut store = CosmosStore::new(4_096, 1);
    let mut services = ServiceMap::new();
    for (name, dc) in [("search", 0), ("storage", 1)] {
        let servers: Vec<ServerId> = (0..SERVERS_PER_DC)
            .map(|s| ServerId(dc * SERVERS_PER_DC + s))
            .collect();
        services.register(name, servers).unwrap();
    }
    store.set_service_map(Arc::new(services)).unwrap();
    let place = |server: u32| {
        (
            PodId(server / SERVERS_PER_POD),
            PodsetId(server / SERVERS_PER_PODSET),
            DcId(server / SERVERS_PER_DC),
        )
    };
    for dc in 0..DCS {
        let mut recs = Vec::new();
        for window in 0..WINDOWS {
            for s in 0..SERVERS_PER_DC {
                let src = dc * SERVERS_PER_DC + s;
                let peers = [
                    src ^ 1,                                          // same pod
                    dc * SERVERS_PER_DC + (s + 250) % SERVERS_PER_DC, // same DC
                    (1 - dc) * SERVERS_PER_DC + s,                    // other DC
                ];
                for (k, dst) in peers.into_iter().enumerate() {
                    let (src_pod, src_podset, src_dc) = place(src);
                    let (dst_pod, dst_podset, dst_dc) = place(dst);
                    recs.push(ProbeRecord {
                        ts: SimTime(window * W + (s as u64 * 3 + k as u64) * 1_000),
                        src: ServerId(src),
                        dst: ServerId(dst),
                        src_pod,
                        dst_pod,
                        src_podset,
                        dst_podset,
                        src_dc,
                        dst_dc,
                        kind: ProbeKind::TcpSyn,
                        qos: QosClass::High,
                        src_port: 40_000,
                        dst_port: 8_100,
                        outcome: if (s + k as u32).is_multiple_of(17) {
                            ProbeOutcome::Timeout
                        } else {
                            ProbeOutcome::Success {
                                rtt: SimDuration::from_micros(200 + (s as u64 * 13) % 900),
                            }
                        },
                    });
                }
            }
        }
        let newest = recs.iter().map(|r| r.ts).max().unwrap();
        assert!(store.append(StreamName { dc: DcId(dc) }, &recs, newest));
    }
    store
}

/// (histograms created, histogram merges) while `f` runs.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let created = HISTOGRAMS_CREATED.load(Ordering::Relaxed);
    let merges = HISTOGRAM_MERGES.load(Ordering::Relaxed);
    let out = f();
    (
        HISTOGRAMS_CREATED.load(Ordering::Relaxed) - created,
        HISTOGRAM_MERGES.load(Ordering::Relaxed) - merges,
        out,
    )
}

#[test]
fn a_build_copies_the_scopes_it_renders_never_the_servers() {
    let store = store();
    let (from, to) = (SimTime(0), SimTime(WINDOWS * W));
    let servers = (DCS * SERVERS_PER_DC) as u64;
    let partials = store.partial_count() as u64;
    assert_eq!(partials, DCS as u64 * WINDOWS);

    // The premise: the whole merge of this range is O(servers).
    let (created, merges, full) = counted(|| store.merged_window_aggregate(from, to));
    assert_eq!(full.per_server.len() as u64, servers);
    assert!(created >= servers && merges >= servers * WINDOWS);

    let sla_scopes = (full.per_dc.len()
        + full.per_dc_pair.len()
        + full.per_podset.len()
        + full.per_service.len()) as u64;
    assert_eq!(sla_scopes, 2 + 2 + 6 + 2);
    let (created, merges, body) = counted(|| ApiQuery::Sla { from, to }.build(&store));
    assert!(!body.unwrap().is_empty());
    assert!(
        (1..=sla_scopes).contains(&created),
        "sla built {created} histograms for {sla_scopes} rows"
    );
    assert!(
        (1..=sla_scopes * partials).contains(&merges),
        "sla merged {merges} histograms: {sla_scopes} rows x {partials} partials"
    );

    let cdf = ApiQuery::Cdf {
        dc: DcId(1),
        scope: LatencyScope::InterPod,
        from,
        to,
    };
    let (created, merges, body) = counted(|| cdf.build(&store));
    assert!(!body.unwrap().is_empty());
    assert_eq!(created, 1, "a CDF reads one histogram");
    assert!((1..=partials).contains(&merges), "cdf merged {merges}");

    let pod = ApiQuery::Heatmap {
        level: HeatmapLevel::Pod,
        from,
        to,
    };
    let (created, merges, body) = counted(|| pod.build(&store));
    assert!(body.unwrap().len() > 1_000, "a cell per pod pair");
    assert_eq!((created, merges), (0, 0), "pod cells carry counts only");

    let podset_pairs = full.podset_matrix.len() as u64;
    assert!(podset_pairs > 0 && podset_pairs < 100);
    let podset = ApiQuery::Heatmap {
        level: HeatmapLevel::Podset,
        from,
        to,
    };
    let (created, merges, body) = counted(|| podset.build(&store));
    assert!(!body.unwrap().is_empty());
    assert!((1..=podset_pairs).contains(&created));
    assert!((1..=podset_pairs * partials).contains(&merges));
}
