//! Randomized property tests over the core invariants.
//!
//! These were originally proptest strategies; the offline build has no
//! proptest, so the same properties run over a deterministic seeded
//! generator (SplitMix64). Each property checks the same invariants over
//! 64 generated cases, and failures print the offending case seed.

use pingmesh::controller::{from_xml, to_xml, GeneratorConfig, PinglistGenerator};
use pingmesh::topology::{DcSpec, Router, Topology, TopologySpec};
use pingmesh::types::{
    FiveTuple, LatencyHistogram, PingTarget, Pinglist, PinglistEntry, ProbeKind, QosClass,
    ServerId, SimDuration, SwitchTier, VipId,
};

const CASES: u64 = 64;

/// SplitMix64: tiny, seedable, good-enough mixing for test-case generation.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi);
        lo + self.next_u64() % (hi - lo)
    }

    fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn arb_spec(g: &mut Gen) -> TopologySpec {
    // Small but varied deployments: 1-3 DCs with independent shapes.
    let dcs = (0..g.range(1, 4))
        .map(|_| DcSpec {
            name: "dc".into(),
            podsets: g.range(1, 4) as u32,
            pods_per_podset: g.range(1, 5) as u32,
            servers_per_pod: g.range(1, 6) as u32,
            leaves_per_podset: g.range(1, 4) as u32,
            spines: g.range(1, 5) as u32,
            borders: g.range(1, 3) as u32,
        })
        .collect();
    TopologySpec { dcs }
}

#[test]
fn topology_containment_invariants() {
    for case in 0..CASES {
        let mut g = Gen::new(case);
        let topo = Topology::build(arb_spec(&mut g)).unwrap();
        // IPs unique and reversible; containment chains agree.
        let mut seen = std::collections::HashSet::new();
        for s in topo.servers() {
            let info = topo.server(s);
            assert!(seen.insert(info.ip), "case {case}: duplicate ip");
            assert_eq!(topo.server_by_ip(info.ip), Some(s), "case {case}");
            assert_eq!(topo.pod(info.pod).podset, info.podset, "case {case}");
            assert_eq!(topo.podset(info.podset).dc, info.dc, "case {case}");
            assert!(topo.pod(info.pod).servers.contains(&s.0), "case {case}");
        }
        // Per-DC ranges tile the global server space.
        let total: usize = topo.dcs().map(|d| topo.servers_in_dc(d).count()).sum();
        assert_eq!(total, topo.server_count(), "case {case}");
    }
}

#[test]
fn ecmp_paths_are_well_formed() {
    for case in 0..CASES {
        let mut g = Gen::new(0x1000 + case);
        let topo = Topology::build(arb_spec(&mut g)).unwrap();
        let router = Router::new(&topo);
        let n = topo.server_count() as u32;
        let salt = g.next_u64() as u32;
        let src_port = g.range(1024, u16::MAX as u64 + 1) as u16;
        let a = ServerId(salt % n);
        let b = ServerId((salt / 7) % n);
        let tuple = FiveTuple::tcp(topo.ip_of(a), src_port, topo.ip_of(b), 8100);
        let path = router.resolve(a, b, &tuple);
        // Endpoints are the servers themselves.
        assert_eq!(path.hops.first(), Some(&a.into()), "case {case}");
        assert_eq!(path.hops.last(), Some(&b.into()), "case {case}");
        // Deterministic.
        assert_eq!(router.resolve(a, b, &tuple), path, "case {case}");
        // Structure: tier sequence is a palindrome of the expected shape
        // and every switch belongs to the right DC.
        let tiers: Vec<SwitchTier> = path.switches().map(|s| s.tier).collect();
        let rev: Vec<SwitchTier> = tiers.iter().rev().copied().collect();
        assert_eq!(tiers, rev, "case {case}: tier sequence must be symmetric");
        for sw in path.switches() {
            let dc = topo.dc_of_switch(sw);
            assert!(
                dc == Some(topo.server(a).dc) || dc == Some(topo.server(b).dc),
                "case {case}"
            );
        }
        // No switch repeats on a loop-free path.
        let set: std::collections::HashSet<_> = path.switches().collect();
        assert_eq!(set.len(), path.switches().count(), "case {case}");
    }
}

#[test]
fn pinglist_generation_invariants() {
    for case in 0..CASES {
        let mut g = Gen::new(0x2000 + case);
        let topo = Topology::build(arb_spec(&mut g)).unwrap();
        let generator = PinglistGenerator::new(GeneratorConfig::default());
        let set = generator.generate_all(&topo, 3);
        assert_eq!(set.lists.len(), topo.server_count(), "case {case}");
        for pl in &set.lists {
            let me = pl.server;
            for e in &pl.entries {
                // Hard floors hold straight out of the generator.
                assert!(
                    e.interval >= pingmesh::types::constants::MIN_PROBE_INTERVAL,
                    "case {case}"
                );
                match e.target {
                    PingTarget::Server { id, ip } => {
                        assert_ne!(id, me, "case {case}: no self-ping");
                        assert_eq!(topo.ip_of(id), ip, "case {case}: target ip matches id");
                        let a = topo.server(me);
                        let b = topo.server(id);
                        // The intra-DC rule: cross-pod same-DC peers share
                        // the in-pod index.
                        if a.dc == b.dc && a.pod != b.pod {
                            assert_eq!(a.index_in_pod, b.index_in_pod, "case {case}");
                        }
                    }
                    PingTarget::Vip { .. } => {}
                }
            }
        }
        // Intra-pod symmetry: if a pings b (same pod), b pings a.
        for pl in &set.lists {
            let me = pl.server;
            for e in &pl.entries {
                if let PingTarget::Server { id, .. } = e.target {
                    if topo.server(me).pod == topo.server(id).pod {
                        let back = &set.lists[id.index()];
                        let reciprocated = back.entries.iter().any(|e2| {
                            matches!(e2.target, PingTarget::Server { id: rid, .. } if rid == me)
                        });
                        assert!(
                            reciprocated,
                            "case {case}: intra-pod pinglist not symmetric"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn histogram_quantiles_track_exact_quantiles() {
    for case in 0..CASES {
        let mut g = Gen::new(0x3000 + case);
        let len = g.range(100, 2_000) as usize;
        let mut samples: Vec<u64> = (0..len).map(|_| g.range(1, 10_000_000)).collect();
        let q = g.f64_unit();
        let mut h = LatencyHistogram::new();
        for &s in &samples {
            h.record(SimDuration::from_micros(s));
        }
        samples.sort_unstable();
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        let exact = samples[rank - 1] as f64;
        let est = h.quantile(q).unwrap().as_micros() as f64;
        // Log-bucketed histogram: ≤ ~5% relative error (bucket width),
        // plus clamping to the observed min/max.
        assert!(
            (est - exact).abs() / exact <= 0.05,
            "case {case}: q={q} exact={exact} est={est}"
        );
    }
}

#[test]
fn histogram_merge_is_equivalent_to_union() {
    for case in 0..CASES {
        let mut g = Gen::new(0x4000 + case);
        let a: Vec<u64> = (0..g.range(1, 500))
            .map(|_| g.range(1, 1_000_000))
            .collect();
        let b: Vec<u64> = (0..g.range(1, 500))
            .map(|_| g.range(1, 1_000_000))
            .collect();
        let mut ha = LatencyHistogram::new();
        let mut hb = LatencyHistogram::new();
        let mut hu = LatencyHistogram::new();
        for &x in &a {
            ha.record(SimDuration::from_micros(x));
            hu.record(SimDuration::from_micros(x));
        }
        for &x in &b {
            hb.record(SimDuration::from_micros(x));
            hu.record(SimDuration::from_micros(x));
        }
        ha.merge(&hb);
        assert_eq!(ha, hu, "case {case}");
    }
}

#[test]
fn pinglist_xml_roundtrips() {
    for case in 0..CASES {
        let mut g = Gen::new(0x5000 + case);
        let entries: Vec<PinglistEntry> = (0..g.range(0, 50))
            .map(|_| {
                let peer = g.range(0, 1000) as u32;
                let port = g.range(1, u16::MAX as u64) as u16;
                let kind = g.range(0, 3) as u32;
                let qos = g.range(0, 2) as u32;
                let interval_s = g.range(10, 10_000);
                PinglistEntry {
                    target: if kind == 2 && peer.is_multiple_of(5) {
                        PingTarget::Vip {
                            id: VipId(peer),
                            ip: std::net::Ipv4Addr::new(172, 16, 0, (peer % 256) as u8),
                        }
                    } else {
                        PingTarget::Server {
                            id: ServerId(peer),
                            ip: std::net::Ipv4Addr::new(
                                10,
                                0,
                                (peer / 256) as u8,
                                (peer % 256) as u8,
                            ),
                        }
                    },
                    port,
                    kind: match kind {
                        0 => ProbeKind::TcpSyn,
                        1 => ProbeKind::TcpPayload(800 + peer % 400),
                        _ => ProbeKind::Http,
                    },
                    qos: if qos == 0 {
                        QosClass::High
                    } else {
                        QosClass::Low
                    },
                    interval: SimDuration::from_secs(interval_s),
                }
            })
            .collect();
        let pl = Pinglist {
            server: ServerId(g.next_u64() as u32),
            generation: g.next_u64(),
            entries,
        };
        let xml = to_xml(&pl);
        let back = from_xml(&xml).unwrap();
        assert_eq!(pl, back, "case {case}");
    }
}

#[test]
fn xml_parser_never_panics_on_garbage() {
    // from_xml must reject or accept, never panic — agents parse bytes
    // that crossed a network.
    const ALPHABET: &[u8] = b"<>/=\"' \n\tPinglistservrgnatoqoskindporl0123456789&;#xAZ\xc3\xa9-_.";
    for case in 0..CASES {
        let mut g = Gen::new(0x6000 + case);
        let len = g.range(0, 400) as usize;
        let bytes: Vec<u8> = (0..len)
            .map(|_| ALPHABET[g.range(0, ALPHABET.len() as u64) as usize])
            .collect();
        let garbage = String::from_utf8_lossy(&bytes).into_owned();
        let _ = from_xml(&garbage);
        let framed = format!("<Pinglist server=\"1\" generation=\"2\">{garbage}</Pinglist>");
        let _ = from_xml(&framed);
    }
}

#[test]
fn simnet_probes_are_deterministic_per_seed() {
    use pingmesh::netsim::{CounterDelta, DcProfile, SimNet};
    use pingmesh::types::{ProbeKind, QosClass, SimTime};
    let spec = TopologySpec::single_tiny();
    let topo = std::sync::Arc::new(Topology::build(spec).unwrap());
    let run = |seed: u64| {
        let net = SimNet::new(topo.clone(), vec![DcProfile::us_west()], seed);
        let a = ServerId(0);
        let ip = topo.ip_of(ServerId(17));
        let mut delta = CounterDelta::new();
        (0..50u16)
            .map(|i| {
                net.state()
                    .probe_keyed(
                        net.run_seed(),
                        &mut delta,
                        a,
                        ip,
                        40_000 + i,
                        8_100,
                        ProbeKind::TcpSyn,
                        QosClass::High,
                        SimTime(i as u64),
                    )
                    .outcome
            })
            .collect::<Vec<_>>()
    };
    for case in 0..CASES {
        let seed = Gen::new(0x7000 + case).next_u64();
        assert_eq!(run(seed), run(seed), "case {case}");
    }
}

#[test]
fn ecmp_hash_is_uniform_enough() {
    for case in 0..CASES {
        let mut g = Gen::new(0x8000 + case);
        let base_port = g.range(1024, 60_000) as u16;
        let buckets = g.range(2, 16);
        let ip_a = std::net::Ipv4Addr::new(10, 0, 0, 1);
        let ip_b = std::net::Ipv4Addr::new(10, 0, 7, 9);
        let n = 4_000u32;
        let mut counts = vec![0u32; buckets as usize];
        for i in 0..n {
            let t = FiveTuple::tcp(ip_a, base_port.wrapping_add(i as u16), ip_b, 8100);
            counts[(t.ecmp_hash() % buckets) as usize] += 1;
        }
        let expect = n as f64 / buckets as f64;
        for &c in &counts {
            assert!(
                (c as f64) > expect * 0.6 && (c as f64) < expect * 1.4,
                "case {case}: bucket {c} vs expectation {expect}"
            );
        }
    }
}
