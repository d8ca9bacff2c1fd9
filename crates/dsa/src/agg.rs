//! Single-pass window aggregation.
//!
//! The SCOPE jobs in the paper are declarative group-bys over the probe
//! logs. [`WindowAggregate`] is our equivalent: one pass over a window's
//! records produces every grouping the downstream consumers need —
//! latency histograms per (DC, scope, payload, QoS), per-pair outcome
//! stats, per-server stats, and the podset-pair matrices the heatmap and
//! pattern detection consume.

use pingmesh_topology::ServiceMap;
use pingmesh_types::counters::{classify_rtt, RttClass};
use pingmesh_types::hist::Sample;
use pingmesh_types::{
    DcId, LatencyHistogram, PairStats, PodId, PodsetId, ProbeOutcome, ProbeRecord, QosClass,
    ServerId, ServiceId, SimDuration,
};
use std::borrow::Borrow;
use std::cell::Cell;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};

/// Builds the hashers of [`WindowAggregate`]'s maps: aHash's fallback
/// construction (a folded 64×64→128-bit multiply per integer written)
/// under two secret keys. The keys are drawn from std's [`RandomState`]
/// once per thread and advanced for every new map, as `RandomState::new()`
/// advances its own, so no two new maps share a hash function (a clone
/// keeps its original's): iterating one map into another with the same
/// function would cluster hashbrown's probes, and every merge does
/// exactly that. The keys are never exposed, `Debug` included, so
/// colliding ids cannot be computed offline and uploaded (DESIGN §7).
#[derive(Clone, Copy)]
pub struct FoldState {
    k0: u64,
    k1: u64,
}

thread_local! {
    static FOLD_KEYS: Cell<(u64, u64)> = {
        let seed = RandomState::new();
        Cell::new((seed.hash_one(0u8), seed.hash_one(1u8)))
    };
}

impl Default for FoldState {
    fn default() -> Self {
        FOLD_KEYS.with(|keys| {
            let (k0, k1) = keys.get();
            keys.set((k0.wrapping_add(1), k1));
            Self { k0, k1 }
        })
    }
}

impl std::fmt::Debug for FoldState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FoldState").finish_non_exhaustive()
    }
}

impl BuildHasher for FoldState {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher {
            buffer: self.k0,
            pad: self.k1,
        }
    }
}

/// The hasher [`FoldState`] builds.
pub struct FoldHasher {
    buffer: u64,
    pad: u64,
}

/// The high and low halves of a full 64×64-bit product, xored.
#[inline(always)]
fn folded_multiply(s: u64, by: u64) -> u64 {
    let wide = u128::from(s) * u128::from(by);
    (wide as u64) ^ ((wide >> 64) as u64)
}

impl FoldHasher {
    #[inline(always)]
    fn update(&mut self, word: u64) {
        // PCG's multiplier, as in aHash's fallback.
        self.buffer = folded_multiply(word ^ self.buffer, 6_364_136_223_846_793_005);
    }
}

impl Hasher for FoldHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let rot = (self.buffer & 63) as u32;
        folded_multiply(self.buffer, self.pad).rotate_left(rot)
    }

    fn write(&mut self, bytes: &[u8]) {
        self.update(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.update(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.update(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.update(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.update(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.update(i as u64);
    }
}

/// A map of a [`WindowAggregate`], hashed by [`FoldState`].
pub type FoldMap<K, V> = HashMap<K, V, FoldState>;

/// A (source server, destination server) pair key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PairKey {
    /// Probing server.
    pub src: ServerId,
    /// Probed server.
    pub dst: ServerId,
}

/// Scope of a latency sample within a DC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LatencyScope {
    /// Same pod (same ToR).
    IntraPod,
    /// Same DC, different pod.
    InterPod,
    /// Across DCs.
    InterDc,
}

/// Key of a latency histogram bucket group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HistKey {
    /// Source data center.
    pub dc: DcId,
    /// Scope of the pair.
    pub scope: LatencyScope,
    /// Whether the probe carried payload.
    pub payload: bool,
    /// QoS class.
    pub qos: QosClass,
}

impl HistKey {
    /// The SYN-only (no payload), high-QoS group of a DC and scope — the
    /// one [`WindowAggregate::syn_hist`] reads.
    pub fn syn(dc: DcId, scope: LatencyScope) -> Self {
        Self {
            dc,
            scope,
            payload: false,
            qos: QosClass::High,
        }
    }
}

/// Outcome counts plus the RTT distribution of one scope's probes — the
/// unit of SLA accounting for servers, pods, podsets, DCs, DC pairs and
/// services alike.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScopeStats {
    /// Aggregate outcome counts over the scope's probes.
    pub stats: PairStats,
    /// RTT distribution of the scope's successful probes.
    pub latency: LatencyHistogram,
}

impl ScopeStats {
    /// Packet drop rate (the 3 s + 9 s heuristic).
    pub fn drop_rate(&self) -> f64 {
        self.stats.drop_rate()
    }

    /// Median RTT.
    pub fn p50(&self) -> Option<SimDuration> {
        self.latency.p50()
    }

    /// 99th-percentile RTT.
    pub fn p99(&self) -> Option<SimDuration> {
        self.latency.p99()
    }

    /// Merges another scope's accumulation into this one.
    pub fn merge(&mut self, other: &ScopeStats) {
        self.stats.merge(&other.stats);
        self.latency.merge(&other.latency);
    }
}

/// One record's outcome, classified once for every map it lands in: a
/// successful probe's drop class (3 s / 9 s signature) and bucketed RTT,
/// or `None` for a failed one.
#[derive(Debug, Clone, Copy)]
struct Classified(Option<(RttClass, Sample)>);

impl Classified {
    fn of(outcome: ProbeOutcome) -> Self {
        let classify = |rtt| (classify_rtt(rtt), Sample::new(rtt));
        Self(outcome.rtt().map(classify))
    }

    #[inline]
    fn count(self, stats: &mut PairStats) {
        match self.0 {
            Some((RttClass::Normal, _)) => stats.ok += 1,
            Some((RttClass::OneDrop, _)) => stats.rtt_3s += 1,
            Some((RttClass::TwoDrops, _)) => stats.rtt_9s += 1,
            None => stats.failed += 1,
        }
    }

    #[inline]
    fn record(self, latency: &mut LatencyHistogram) {
        if let Some((_, s)) = self.0 {
            latency.record_sample(s);
        }
    }

    #[inline]
    fn fold(self, scope: &mut ScopeStats) {
        self.count(&mut scope.stats);
        self.record(&mut scope.latency);
    }
}

/// Merges one map of an aggregate into the same map of another, entry
/// by entry — the whole of [`WindowAggregate::merge`] is this per map, and
/// a reader that needs only some maps applies it to those alone.
pub fn merge_map<K: Copy + Eq + Hash, V: Default, S: BuildHasher>(
    into: &mut HashMap<K, V, S>,
    from: &HashMap<K, V, S>,
    merge: impl Fn(&mut V, &V),
) {
    for (k, v) in from {
        merge(into.entry(*k).or_default(), v);
    }
}

/// The source fields of a record: a fold run shares all four.
type Source = (ServerId, PodId, PodsetId, DcId);

/// The aggregate of one analysis window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowAggregate {
    /// Records folded in.
    pub record_count: u64,
    /// Latency histograms per (DC, scope, payload, QoS).
    pub hists: FoldMap<HistKey, LatencyHistogram>,
    /// Outcome stats per (src, dst) server pair.
    pub pairs: FoldMap<PairKey, PairStats>,
    /// Outcome stats per probing server.
    pub per_server: FoldMap<ServerId, ScopeStats>,
    /// Outcome stats per pod (of the probing server).
    pub per_pod: FoldMap<PodId, ScopeStats>,
    /// Outcome stats per podset (of the probing server).
    pub per_podset: FoldMap<PodsetId, ScopeStats>,
    /// Outcome stats per data center (of the probing server).
    pub per_dc: FoldMap<DcId, ScopeStats>,
    /// Outcome stats per (source DC, destination DC); inter-DC probes only.
    pub per_dc_pair: FoldMap<(DcId, DcId), ScopeStats>,
    /// Outcome stats per service — only populated when folding with a
    /// [`ServiceMap`] (see [`WindowAggregate::fold_records`]).
    pub per_service: FoldMap<ServiceId, ScopeStats>,
    /// P99-relevant histogram per (src podset, dst podset), intra-DC only
    /// — the heatmap input.
    pub podset_matrix: FoldMap<(PodsetId, PodsetId), LatencyHistogram>,
    /// Outcome stats per (src podset, dst podset), intra-DC only.
    pub podset_pairs: FoldMap<(PodsetId, PodsetId), PairStats>,
    /// Outcome stats per (src pod, dst pod), intra-DC only — the
    /// pod-granularity heatmap the serving tier renders. Cardinality is
    /// bounded by the server-pair map above (pods ≤ servers).
    pub pod_pairs: FoldMap<(PodId, PodId), PairStats>,
}

impl WindowAggregate {
    /// Builds the aggregate from a window's records.
    pub fn build(records: impl IntoIterator<Item = impl Borrow<ProbeRecord>>) -> Self {
        Self::build_with(records, None)
    }

    /// [`WindowAggregate::build`], optionally attributing each record to
    /// the services covering both endpoints.
    pub fn build_with(
        records: impl IntoIterator<Item = impl Borrow<ProbeRecord>>,
        services: Option<&ServiceMap>,
    ) -> Self {
        let mut agg = WindowAggregate::default();
        agg.fold_records(records, services);
        agg
    }

    /// Folds one record.
    pub fn fold(&mut self, r: &ProbeRecord) {
        self.fold_records([r], None);
    }

    /// Folds one record, additionally attributing it to every service
    /// that covers both endpoints.
    pub fn fold_with_services(&mut self, r: &ProbeRecord, services: &ServiceMap) {
        self.fold_records([r], Some(services));
    }

    /// Folds records, classifying each outcome once. A maximal run of
    /// records from one source — equal `src`, `src_pod`, `src_podset` and
    /// `src_dc`; an agent's upload is one run — looks up its per-server,
    /// per-pod, per-podset and per-DC entries (and its services) once.
    /// With a [`ServiceMap`], a record also counts toward every service
    /// that covers both its endpoints.
    pub fn fold_records(
        &mut self,
        records: impl IntoIterator<Item = impl Borrow<ProbeRecord>>,
        services: Option<&ServiceMap>,
    ) {
        let WindowAggregate {
            record_count,
            hists,
            pairs,
            per_server,
            per_pod,
            per_podset,
            per_dc,
            per_dc_pair,
            per_service,
            podset_matrix,
            podset_pairs,
            pod_pairs,
        } = self;
        let mut run: Option<(Source, [&mut ScopeStats; 4], &[ServiceId])> = None;
        for r in records {
            let r = r.borrow();
            *record_count += 1;
            let c = Classified::of(r.outcome);
            let source = (r.src, r.src_pod, r.src_podset, r.src_dc);
            if run.as_ref().is_none_or(|(s, ..)| *s != source) {
                let scopes = [
                    per_server.entry(r.src).or_default(),
                    per_pod.entry(r.src_pod).or_default(),
                    per_podset.entry(r.src_podset).or_default(),
                    per_dc.entry(r.src_dc).or_default(),
                ];
                let src_services = services.map_or(&[][..], |s| s.services_on(r.src));
                run = Some((source, scopes, src_services));
            }
            let (_, scopes, src_services) = run.as_mut().expect("the run was just started");
            for scope in scopes {
                c.fold(scope);
            }
            c.count(
                pairs
                    .entry(PairKey {
                        src: r.src,
                        dst: r.dst,
                    })
                    .or_default(),
            );
            let scope = if r.is_inter_dc() {
                LatencyScope::InterDc
            } else if r.is_intra_pod() {
                LatencyScope::IntraPod
            } else {
                LatencyScope::InterPod
            };
            if c.0.is_some() {
                let key = HistKey {
                    dc: r.src_dc,
                    scope,
                    payload: r.kind.has_payload(),
                    qos: r.qos,
                };
                c.record(hists.entry(key).or_default());
            }
            if r.is_inter_dc() {
                c.fold(per_dc_pair.entry((r.src_dc, r.dst_dc)).or_default());
            } else {
                let podsets = (r.src_podset, r.dst_podset);
                if c.0.is_some() {
                    c.record(podset_matrix.entry(podsets).or_default());
                }
                c.count(podset_pairs.entry(podsets).or_default());
                c.count(pod_pairs.entry((r.src_pod, r.dst_pod)).or_default());
            }
            if let Some(map) = services {
                for &svc in src_services.iter() {
                    if map.services_on(r.dst).contains(&svc) {
                        c.fold(per_service.entry(svc).or_default());
                    }
                }
            }
        }
    }

    /// Merges another aggregate into this one. Aggregates are CRDT-like:
    /// merging per-window aggregates equals aggregating the union of the
    /// windows, which lets long experiments fold history chunk by chunk
    /// and drop raw records.
    pub fn merge(&mut self, other: &WindowAggregate) {
        self.record_count += other.record_count;
        merge_map(&mut self.hists, &other.hists, LatencyHistogram::merge);
        merge_map(&mut self.pairs, &other.pairs, PairStats::merge);
        merge_map(&mut self.per_server, &other.per_server, ScopeStats::merge);
        merge_map(&mut self.per_pod, &other.per_pod, ScopeStats::merge);
        merge_map(&mut self.per_podset, &other.per_podset, ScopeStats::merge);
        merge_map(&mut self.per_dc, &other.per_dc, ScopeStats::merge);
        merge_map(&mut self.per_dc_pair, &other.per_dc_pair, ScopeStats::merge);
        merge_map(&mut self.per_service, &other.per_service, ScopeStats::merge);
        merge_map(
            &mut self.podset_matrix,
            &other.podset_matrix,
            LatencyHistogram::merge,
        );
        merge_map(
            &mut self.podset_pairs,
            &other.podset_pairs,
            PairStats::merge,
        );
        merge_map(&mut self.pod_pairs, &other.pod_pairs, PairStats::merge);
    }

    /// Convenience: the SYN-only, high-QoS histogram for a DC and scope —
    /// "if not specifically mentioned, the latency we use in the paper is
    /// the inter-pod TCP SYN/SYN-ACK RTT without payload".
    pub fn syn_hist(&self, dc: DcId, scope: LatencyScope) -> Option<&LatencyHistogram> {
        self.hists.get(&HistKey::syn(dc, scope))
    }

    /// Measured drop rate over a set of pairs (3 s + 9 s heuristic).
    pub fn drop_rate_over<'a>(pairs: impl IntoIterator<Item = &'a PairStats>) -> f64 {
        let mut total = PairStats::default();
        for p in pairs {
            total.merge(p);
        }
        total.drop_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pingmesh_types::{PodId, ProbeKind, ProbeOutcome, SimDuration, SimTime};

    #[allow(clippy::too_many_arguments)]
    fn rec(
        src: u32,
        dst: u32,
        src_pod: u32,
        dst_pod: u32,
        src_podset: u32,
        dst_podset: u32,
        dst_dc: u32,
        outcome: ProbeOutcome,
    ) -> ProbeRecord {
        ProbeRecord {
            ts: SimTime(0),
            src: ServerId(src),
            dst: ServerId(dst),
            src_pod: PodId(src_pod),
            dst_pod: PodId(dst_pod),
            src_podset: PodsetId(src_podset),
            dst_podset: PodsetId(dst_podset),
            src_dc: DcId(0),
            dst_dc: DcId(dst_dc),
            kind: ProbeKind::TcpSyn,
            qos: QosClass::High,
            src_port: 40_000,
            dst_port: 8_100,
            outcome,
        }
    }

    fn ok(us: u64) -> ProbeOutcome {
        ProbeOutcome::Success {
            rtt: SimDuration::from_micros(us),
        }
    }

    #[test]
    fn scopes_are_separated() {
        let records = vec![
            rec(0, 1, 0, 0, 0, 0, 0, ok(200)),    // intra-pod
            rec(0, 2, 0, 1, 0, 0, 0, ok(260)),    // inter-pod
            rec(0, 3, 0, 9, 0, 3, 1, ok(60_000)), // inter-DC
        ];
        let agg = WindowAggregate::build(&records);
        assert_eq!(agg.record_count, 3);
        assert_eq!(
            agg.syn_hist(DcId(0), LatencyScope::IntraPod)
                .unwrap()
                .count(),
            1
        );
        assert_eq!(
            agg.syn_hist(DcId(0), LatencyScope::InterPod)
                .unwrap()
                .count(),
            1
        );
        assert_eq!(
            agg.syn_hist(DcId(0), LatencyScope::InterDc)
                .unwrap()
                .count(),
            1
        );
    }

    #[test]
    fn payload_and_qos_split_histograms() {
        let mut p = rec(0, 2, 0, 1, 0, 0, 0, ok(400));
        p.kind = ProbeKind::TcpPayload(1_000);
        let mut q = rec(0, 2, 0, 1, 0, 0, 0, ok(300));
        q.qos = QosClass::Low;
        let agg = WindowAggregate::build([rec(0, 2, 0, 1, 0, 0, 0, ok(260)), p, q]);
        assert_eq!(agg.hists.len(), 3);
        assert_eq!(
            agg.syn_hist(DcId(0), LatencyScope::InterPod)
                .unwrap()
                .count(),
            1
        );
    }

    #[test]
    fn syn_retry_rtts_count_as_drops_not_normal() {
        let records = vec![
            rec(0, 2, 0, 1, 0, 0, 0, ok(260)),
            rec(0, 2, 0, 1, 0, 0, 0, ok(3_000_260)),
            rec(0, 2, 0, 1, 0, 0, 0, ok(9_000_260)),
            rec(0, 2, 0, 1, 0, 0, 0, ProbeOutcome::Timeout),
        ];
        let agg = WindowAggregate::build(&records);
        let pair = agg.pairs[&PairKey {
            src: ServerId(0),
            dst: ServerId(2),
        }];
        assert_eq!(pair.ok, 1);
        assert_eq!(pair.rtt_3s, 1);
        assert_eq!(pair.rtt_9s, 1);
        assert_eq!(pair.failed, 1);
        // drop rate = 2/3 per the heuristic
        assert!((pair.drop_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn podset_matrix_excludes_inter_dc() {
        let records = vec![
            rec(0, 2, 0, 1, 0, 1, 0, ok(260)),
            rec(0, 3, 0, 9, 0, 3, 1, ok(60_000)),
        ];
        let agg = WindowAggregate::build(&records);
        assert_eq!(agg.podset_matrix.len(), 1);
        assert!(agg.podset_matrix.contains_key(&(PodsetId(0), PodsetId(1))));
    }

    #[test]
    fn pod_pairs_fold_intra_dc_only_and_merge() {
        let records = vec![
            rec(0, 2, 0, 1, 0, 1, 0, ok(260)),
            rec(0, 2, 0, 1, 0, 1, 0, ProbeOutcome::Timeout),
            rec(0, 3, 0, 9, 0, 3, 1, ok(60_000)), // inter-DC: excluded
        ];
        let agg = WindowAggregate::build(&records);
        assert_eq!(agg.pod_pairs.len(), 1);
        let p = agg.pod_pairs[&(PodId(0), PodId(1))];
        assert_eq!(p.ok, 1);
        assert_eq!(p.failed, 1);
        // Merge accumulates the same key.
        let mut merged = agg.clone();
        merged.merge(&agg);
        assert_eq!(merged.pod_pairs[&(PodId(0), PodId(1))].ok, 2);
    }

    #[test]
    fn per_server_stats_accumulate() {
        let records = vec![
            rec(0, 2, 0, 1, 0, 0, 0, ok(260)),
            rec(0, 3, 0, 2, 0, 0, 0, ProbeOutcome::Timeout),
            rec(1, 2, 0, 1, 0, 0, 0, ok(220)),
        ];
        let agg = WindowAggregate::build(&records);
        let s0 = &agg.per_server[&ServerId(0)];
        assert_eq!(s0.stats.ok, 1);
        assert_eq!(s0.stats.failed, 1);
        assert_eq!(s0.latency.count(), 1);
        assert_eq!(agg.per_server[&ServerId(1)].stats.ok, 1);
    }

    #[test]
    fn scope_maps_fold_by_source_scope() {
        let records = vec![
            rec(0, 2, 0, 1, 0, 0, 0, ok(260)),
            rec(0, 3, 0, 2, 0, 1, 0, ProbeOutcome::Timeout),
            rec(1, 2, 0, 1, 0, 0, 1, ok(60_000)), // inter-DC
        ];
        let agg = WindowAggregate::build(&records);
        assert_eq!(agg.per_pod[&PodId(0)].stats.ok, 2);
        assert_eq!(agg.per_pod[&PodId(0)].stats.failed, 1);
        assert_eq!(agg.per_dc[&DcId(0)].stats.ok, 2);
        assert_eq!(agg.per_dc[&DcId(0)].latency.count(), 2);
        assert_eq!(agg.per_dc_pair.len(), 1);
        assert_eq!(agg.per_dc_pair[&(DcId(0), DcId(1))].stats.ok, 1);
        assert!(agg.per_service.is_empty());
    }

    #[test]
    fn sla_metrics_expose_percentiles_and_drop_rate() {
        let mut records = vec![rec(0, 1, 0, 0, 0, 0, 0, ok(250)); 99];
        records.push(rec(0, 1, 0, 0, 0, 0, 0, ok(3_000_250)));
        let agg = WindowAggregate::build(&records);
        let sla = &agg.per_server[&ServerId(0)];
        assert!((sla.drop_rate() - 0.01).abs() < 1e-9);
        assert!(sla.p50().unwrap().as_micros() < 300);
        assert!(sla.p99().unwrap().as_micros() < 400);
    }

    #[test]
    fn per_service_counts_only_covered_pairs() {
        let mut services = ServiceMap::new();
        let svc = services
            .register("search", [ServerId(0), ServerId(1)])
            .unwrap();
        let records = vec![
            rec(0, 1, 0, 0, 0, 0, 0, ok(200)), // both in service
            rec(0, 5, 0, 1, 0, 0, 0, ok(300)), // dst not in service
            rec(5, 1, 1, 0, 0, 0, 0, ok(300)), // src not in service
        ];
        let agg = WindowAggregate::build_with(&records, Some(&services));
        assert_eq!(agg.per_service[&svc].stats.ok, 1);
    }

    #[test]
    fn per_pair_tracks_failures() {
        let records = vec![
            rec(0, 1, 0, 0, 0, 0, 0, ProbeOutcome::Timeout),
            rec(0, 1, 0, 0, 0, 0, 0, ProbeOutcome::Timeout),
            rec(0, 2, 0, 1, 0, 0, 0, ok(220)),
        ];
        let agg = WindowAggregate::build(&records);
        let pair = |dst| {
            agg.pairs[&PairKey {
                src: ServerId(0),
                dst: ServerId(dst),
            }]
        };
        assert!(pair(1).is_deterministic_failure());
        assert!(!pair(2).is_deterministic_failure());
    }

    #[test]
    fn inter_dc_pairs_feed_the_interdc_pipeline() {
        let mut back = rec(9, 0, 9, 0, 3, 0, 0, ok(61_000));
        back.src_dc = DcId(1);
        let records = vec![
            rec(0, 9, 0, 9, 0, 3, 1, ok(60_000)),
            back,
            rec(0, 1, 0, 0, 0, 0, 0, ok(200)), // intra-DC: not in the pair scope
        ];
        let agg = WindowAggregate::build(&records);
        assert_eq!(agg.per_dc_pair.len(), 2, "one scope per direction");
        assert_eq!(agg.per_dc_pair[&(DcId(0), DcId(1))].stats.ok, 1);
        assert_eq!(agg.per_dc_pair[&(DcId(1), DcId(0))].stats.ok, 1);
    }

    #[test]
    fn every_map_hashes_with_its_own_keys() {
        let key = PairKey {
            src: ServerId(1),
            dst: ServerId(2),
        };
        let (a, b) = (FoldState::default(), FoldState::default());
        assert_ne!(a.hash_one(key), b.hash_one(key), "two maps, two functions");
        let other_thread = std::thread::spawn(move || FoldState::default().hash_one(key));
        assert_ne!(a.hash_one(key), other_thread.join().unwrap());
        // A clone keeps its keys, so a cloned map's table stays valid.
        assert_eq!(a.hash_one(key), a.clone().hash_one(key));
        assert_ne!(
            a.hash_one(key),
            a.hash_one(PairKey {
                src: ServerId(2),
                ..key
            })
        );
    }

    #[test]
    fn drop_rate_over_merges_pairs() {
        let a = PairStats {
            ok: 9_999,
            rtt_3s: 1,
            ..Default::default()
        };
        let b = PairStats {
            ok: 9_997,
            rtt_3s: 3,
            ..Default::default()
        };
        let rate = WindowAggregate::drop_rate_over([&a, &b]);
        assert!((rate - 4.0 / 20_000.0).abs() < 1e-12);
    }
}
