//! Seeded input generation. The program under test receives only what
//! is generated here; the same `--seed` gives the same bytes.

use pingmesh_controller::{GeneratorConfig, PinglistGenerator, PinglistSet};
use pingmesh_dsa::store::{CosmosStore, StreamName, PARTIAL_WINDOW};
use pingmesh_topology::{DcSpec, Topology, TopologySpec};
use pingmesh_types::{
    PingTarget, PinglistEntry, ProbeOutcome, ProbeRecord, ServerId, SimDuration, SimTime,
};
use std::sync::Arc;

/// splitmix64: tiny, seedable, and good enough to draw workloads from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Independent stream `stream` of run seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// FNV-1a, for the determinism checks and exact-repeat digests.
pub fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= *b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A topology with the pinglists the controller generates for it — the
/// source of every synthetic record's (src, dst, port, kind) tuple, so
/// heatmap and CDF bodies have production cardinality.
pub struct Mesh {
    pub topo: Arc<Topology>,
    pub lists: PinglistSet,
}

impl Mesh {
    /// Two `DcSpec::medium` data centers: 800 servers, 80 pods.
    pub fn two_medium() -> Self {
        let topo = Arc::new(
            Topology::build(TopologySpec {
                dcs: vec![DcSpec::medium("DC1"), DcSpec::medium("DC2")],
            })
            .expect("2x medium is a valid spec"),
        );
        let lists =
            PinglistGenerator::new(GeneratorConfig::default()).generate_all_threads(&topo, 1, 1);
        Self { topo, lists }
    }

    fn entries_of(&self, s: ServerId) -> &[PinglistEntry] {
        &self.lists.lists[s.index()].entries
    }

    /// The record the agent on `src` would upload for one probe of
    /// `entry` launched at `ts`.
    fn record(
        &self,
        src: ServerId,
        entry: &PinglistEntry,
        ts: SimTime,
        rng: &mut Rng,
    ) -> ProbeRecord {
        let PingTarget::Server { id: dst, .. } = entry.target else {
            unreachable!("the default generator config has no VIP targets");
        };
        let (s, d) = (self.topo.server(src), self.topo.server(dst));
        let roll = rng.below(10_000);
        let base_us = if s.dc != d.dc {
            20_000 + rng.below(40_000)
        } else if s.pod != d.pod {
            250 + rng.below(450)
        } else {
            150 + rng.below(250)
        };
        // ~1e-3 of probes see one SYN drop (3 s), ~2e-4 time out.
        let outcome = match roll {
            0..=1 => ProbeOutcome::Timeout,
            2..=11 => ProbeOutcome::Success {
                rtt: SimDuration::from_micros(3_000_000 + base_us),
            },
            _ => ProbeOutcome::Success {
                rtt: SimDuration::from_micros(base_us),
            },
        };
        ProbeRecord {
            ts,
            src,
            dst,
            src_pod: s.pod,
            dst_pod: d.pod,
            src_podset: s.podset,
            dst_podset: d.podset,
            src_dc: s.dc,
            dst_dc: d.dc,
            kind: entry.kind,
            qos: entry.qos,
            src_port: 32_768 + rng.below(28_000) as u16,
            dst_port: entry.port,
            outcome,
        }
    }

    /// One agent's upload: `n` records from a random server's pinglist,
    /// timestamps ascending across `[t0, t0 + span)`.
    pub fn agent_batch(
        &self,
        rng: &mut Rng,
        n: usize,
        t0: SimTime,
        span: SimDuration,
    ) -> Vec<ProbeRecord> {
        let src = ServerId(rng.below(self.topo.server_count() as u64) as u32);
        let entries = self.entries_of(src);
        let step = (span.as_micros() / n.max(1) as u64).max(1);
        (0..n)
            .map(|i| {
                let entry = &entries[rng.below(entries.len() as u64) as usize];
                let jitter = rng.below(step);
                let ts =
                    SimTime(t0.as_micros() + (i as u64 * step + jitter).min(span.as_micros() - 1));
                self.record(src, entry, ts, rng)
            })
            .collect()
    }

    /// `batches` agent uploads of `per_batch` records spread evenly over
    /// `windows` ten-minute windows starting at window `first_window`.
    pub fn batches(
        &self,
        rng: &mut Rng,
        batches: usize,
        per_batch: usize,
        first_window: u64,
        windows: u64,
    ) -> Vec<Vec<ProbeRecord>> {
        (0..batches)
            .map(|b| {
                let w = first_window + (b as u64 * windows) / batches.max(1) as u64;
                self.agent_batch(rng, per_batch, window_start(w), PARTIAL_WINDOW)
            })
            .collect()
    }
}

pub const W_US: u64 = PARTIAL_WINDOW.0;

pub fn window_start(w: u64) -> SimTime {
    SimTime(w * W_US)
}

/// Appends every batch to `store`, each under its agent's DC stream.
pub fn append_all(store: &mut CosmosStore, batches: &[Vec<ProbeRecord>]) {
    for batch in batches {
        let t = batch
            .iter()
            .map(|r| r.ts)
            .max()
            .expect("batches are non-empty");
        let ok = store.append(
            StreamName {
                dc: batch[0].src_dc,
            },
            batch,
            t,
        );
        assert!(ok, "seeding append refused");
    }
}

/// Hash of the JSON bytes of every batch: what the upload path puts on
/// the wire for this seed.
pub fn batch_bytes_hash(batches: &[Vec<ProbeRecord>]) -> u64 {
    let mut h = FNV_OFFSET;
    for b in batches {
        fnv1a(&mut h, &serde_json::to_vec(b).expect("records serialize"));
    }
    h
}

/// The dashboard query universe over `windows` ten-minute windows, the
/// last of which is still filling.
pub struct Keys {
    pub paths: Vec<String>,
    /// Indices of the frozen single-window keys.
    pub frozen: std::ops::Range<usize>,
    /// Indices of the nine keys over the last (open) window.
    pub open: std::ops::Range<usize>,
    /// Hourly SLA rollup over the first six windows (all frozen).
    pub rollup_frozen: usize,
    /// Hourly SLA rollup over the last six windows, open one included.
    pub rollup_open: usize,
    /// `/api/windows`: live store status, never cached.
    pub status: usize,
}

fn window_keys(out: &mut Vec<String>, w: u64) {
    let (from, to) = (w * W_US, (w + 1) * W_US);
    out.push(format!("/api/sla?from={from}&to={to}"));
    out.push(format!("/api/heatmap?level=pod&from={from}&to={to}"));
    out.push(format!("/api/heatmap?level=podset&from={from}&to={to}"));
    for dc in 0..2 {
        for scope in ["intrapod", "interpod", "interdc"] {
            out.push(format!(
                "/api/cdf?dc={dc}&scope={scope}&from={from}&to={to}"
            ));
        }
    }
}

impl Keys {
    pub fn new(windows: u64) -> Self {
        assert!(
            windows >= 7,
            "the rollups need six windows beside the open one"
        );
        let mut paths = Vec::new();
        for w in 0..windows - 1 {
            window_keys(&mut paths, w);
        }
        let frozen = 0..paths.len();
        window_keys(&mut paths, windows - 1);
        let open = frozen.end..paths.len();
        let rollup_frozen = paths.len();
        paths.push(format!("/api/sla?from=0&to={}", 6 * W_US));
        let rollup_open = paths.len();
        paths.push(format!(
            "/api/sla?from={}&to={}",
            (windows - 6) * W_US,
            windows * W_US
        ));
        let status = paths.len();
        paths.push("/api/windows".to_string());
        Self {
            paths,
            frozen,
            open,
            rollup_frozen,
            rollup_open,
            status,
        }
    }

    /// SLA over the open window: the first of the open keys.
    pub fn open_sla(&self) -> usize {
        self.open.start
    }

    /// Every key whose response is cacheable (all but the status poll).
    pub fn cacheable(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.paths.len()).filter(|&i| i != self.status)
    }
}

/// One request the generator will send: which key, and whether to replay
/// the validator it last saw for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pick {
    pub key: u16,
    pub replay: bool,
}

fn pick_in(rng: &mut Rng, r: &std::ops::Range<usize>) -> usize {
    r.start + rng.below(r.len() as u64) as usize
}

/// The dashboard poll: 70 % frozen single-window keys (uniform), 10 %
/// frozen hourly rollup, 10 % status, 10 % open-window SLA; 80 % of
/// requests replay `If-None-Match`.
pub fn dashboard_picks(keys: &Keys, rng: &mut Rng, n: usize) -> Vec<Pick> {
    (0..n)
        .map(|_| {
            let key = match rng.below(100) {
                0..=69 => pick_in(rng, &keys.frozen),
                70..=79 => keys.rollup_frozen,
                80..=89 => keys.status,
                _ => keys.open_sla(),
            };
            Pick {
                key: key as u16,
                replay: rng.below(10) < 8,
            }
        })
        .collect()
}

/// Reads beside writes: 60 % open-window keys, 20 % hourly rollup that
/// includes the open window, 20 % frozen single-window keys; no replay.
pub fn churn_picks(keys: &Keys, rng: &mut Rng, n: usize) -> Vec<Pick> {
    (0..n)
        .map(|_| {
            let key = match rng.below(100) {
                0..=59 => pick_in(rng, &keys.open),
                60..=79 => keys.rollup_open,
                _ => pick_in(rng, &keys.frozen),
            };
            Pick {
                key: key as u16,
                replay: false,
            }
        })
        .collect()
}

pub fn picks_hash(picks: &[Pick]) -> u64 {
    let mut h = FNV_OFFSET;
    for p in picks {
        fnv1a(&mut h, &[p.key as u8, (p.key >> 8) as u8, p.replay as u8]);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        let mesh = Mesh::two_medium();
        let gen = |seed| {
            let batches = mesh.batches(&mut Rng::new(seed, 1), 12, 200, 0, 6);
            let keys = Keys::new(8);
            let picks = dashboard_picks(&keys, &mut Rng::new(seed, 2), 5_000);
            let churn = churn_picks(&keys, &mut Rng::new(seed, 3), 5_000);
            (
                batch_bytes_hash(&batches),
                picks_hash(&picks),
                picks_hash(&churn),
            )
        };
        assert_eq!(gen(7), gen(7));
        let (a, b) = (gen(7), gen(8));
        assert!(a.0 != b.0 && a.1 != b.1 && a.2 != b.2);
    }

    #[test]
    fn batches_are_one_agent_each_ascending_and_span_the_windows() {
        let mesh = Mesh::two_medium();
        let batches = mesh.batches(&mut Rng::new(1, 1), 60, 100, 2, 6);
        let mut windows = std::collections::BTreeSet::new();
        for b in &batches {
            assert_eq!(b.len(), 100);
            assert!(b
                .iter()
                .all(|r| r.src == b[0].src && r.src_dc == b[0].src_dc));
            assert!(b.windows(2).all(|p| p[0].ts <= p[1].ts));
            let w = b[0].ts.window_index(PARTIAL_WINDOW);
            assert!(b.iter().all(|r| r.ts.window_index(PARTIAL_WINDOW) == w));
            windows.insert(w);
        }
        assert_eq!(
            windows.into_iter().collect::<Vec<_>>(),
            vec![2, 3, 4, 5, 6, 7]
        );
    }

    #[test]
    fn key_universe_and_mixes_have_the_stated_shape() {
        let keys = Keys::new(24);
        assert_eq!(keys.frozen.len(), 23 * 9);
        assert_eq!(keys.open.len(), 9);
        assert_eq!(keys.paths.len(), 24 * 9 + 3);
        assert!(keys.paths[keys.open_sla()].starts_with("/api/sla"));
        let picks = dashboard_picks(&keys, &mut Rng::new(3, 2), 100_000);
        let share = |f: &dyn Fn(&Pick) -> bool| picks.iter().filter(|p| f(p)).count() as f64 / 1e5;
        assert!((share(&|p| keys.frozen.contains(&(p.key as usize))) - 0.70).abs() < 0.01);
        assert!((share(&|p| p.key as usize == keys.status) - 0.10).abs() < 0.01);
        assert!((share(&|p| p.replay) - 0.80).abs() < 0.01);
        let churn = churn_picks(&keys, &mut Rng::new(3, 3), 100_000);
        let open = churn
            .iter()
            .filter(|p| keys.open.contains(&(p.key as usize)))
            .count() as f64
            / 1e5;
        assert!((open - 0.60).abs() < 0.01);
        assert!(churn
            .iter()
            .all(|p| !p.replay && p.key as usize != keys.status));
    }
}
