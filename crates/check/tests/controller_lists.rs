//! The on-demand controller serves exactly the lists the whole-generation
//! path served: every server's Pinglist XML, from both the simulated
//! replicas and the web service, is byte-identical to `generate_all`'s list
//! after the drained-podset surgery the orchestrator used to apply by hand.

use pingmesh_check::ScenarioSpec;
use pingmesh_controller::{
    to_xml, ControllerCluster, GeneratorConfig, PinglistGenerator, PinglistSource, WebState,
};
use pingmesh_topology::{DcSpec, Topology, TopologySpec};
use pingmesh_types::{PingTarget, PodsetId, SimDuration, SimTime, VipId};
use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// The reference: every list generated at once, then the podsets in
/// `excluded` cut out after the fact — their servers' lists emptied, every
/// other list's entries that target them removed, VIP entries kept.
fn generate_all_then_exclude(
    topo: &Topology,
    config: &GeneratorConfig,
    generation: u64,
    excluded: &BTreeSet<PodsetId>,
) -> Vec<String> {
    let mut set = PinglistGenerator::new(config.clone()).generate_all(topo, generation);
    if !excluded.is_empty() {
        for list in &mut set.lists {
            if excluded.contains(&topo.server(list.server).podset) {
                list.entries.clear();
                continue;
            }
            list.entries.retain(|e| match e.target {
                PingTarget::Server { id, .. } => !excluded.contains(&topo.server(id).podset),
                PingTarget::Vip { .. } => true,
            });
        }
    }
    set.lists.iter().map(to_xml).collect()
}

/// Every server's list as the simulated cluster and the web service
/// answer it, generated on request, checked against the reference.
fn assert_on_demand_matches(
    topo: Arc<Topology>,
    config: &GeneratorConfig,
    generation: u64,
    excluded: &BTreeSet<PodsetId>,
    what: &str,
) {
    let want = generate_all_then_exclude(&topo, config, generation, excluded);
    assert_eq!(want.len(), topo.server_count());
    let source = || {
        let generator =
            PinglistGenerator::new(config.clone()).with_excluded_podsets(excluded.clone());
        PinglistSource::new(topo.clone(), generator, generation)
    };
    let mut cluster = ControllerCluster::new(2);
    cluster.set_pinglists(source());
    let web = WebState::new();
    web.set_pinglists(source());
    for (s, want) in topo.servers().zip(&want) {
        let served = cluster
            .fetch(s, SimTime::ZERO)
            .expect("replicas up")
            .expect("a list for every server");
        assert_eq!(to_xml(&served), *want, "{what}: {s} from the cluster");
        let resp = web.respond("GET", &format!("/pinglist/{}", s.0));
        assert_eq!(resp.status, 200, "{what}: {s}");
        assert_eq!(
            resp.body,
            want.as_bytes(),
            "{what}: {s} from the web service"
        );
    }
    let past = topo.server_count() as u32;
    assert!(cluster
        .fetch(pingmesh_types::ServerId(past), SimTime::ZERO)
        .unwrap()
        .is_none());
    assert_eq!(web.respond("GET", &format!("/pinglist/{past}")).status, 404);
}

/// The benchmark's 5,120-server data center at its probe cadence, whole
/// and with two podsets drained.
#[test]
fn on_demand_lists_match_generate_all_on_the_5120_server_shape() {
    let topo = Arc::new(
        Topology::build(TopologySpec {
            dcs: vec![DcSpec {
                name: "DC1".to_string(),
                podsets: 8,
                pods_per_podset: 8,
                servers_per_pod: 80,
                leaves_per_podset: 4,
                spines: 8,
                borders: 2,
            }],
        })
        .unwrap(),
    );
    assert_eq!(topo.server_count(), 5_120);
    let config = GeneratorConfig {
        intra_pod_interval: SimDuration::from_secs(120),
        intra_dc_interval: SimDuration::from_secs(600),
        ..GeneratorConfig::default()
    };
    for excluded in [vec![], vec![2, 5]] {
        let excluded: BTreeSet<PodsetId> = excluded.into_iter().map(PodsetId).collect();
        assert_on_demand_matches(topo.clone(), &config, 1, &excluded, "5,120 servers");
    }
}

/// Fifty fuzz specs' topologies and generator settings, each with one or
/// more podsets drained (the ones the spec powers down, or a seeded pick),
/// every fifth with VIP targets and a tight entry cap besides.
#[test]
fn on_demand_lists_match_generate_all_on_fifty_fuzz_specs() {
    for seed in 0..50u64 {
        let spec = ScenarioSpec::generate(seed, true);
        let dcs = (0..spec.dcs)
            .map(|i| DcSpec {
                name: format!("d{i}"),
                podsets: spec.podsets,
                pods_per_podset: spec.pods_per_podset,
                servers_per_pod: spec.servers_per_pod,
                leaves_per_podset: spec.leaves_per_podset,
                spines: spec.spines,
                borders: spec.borders,
            })
            .collect();
        let topo = Arc::new(Topology::build(TopologySpec { dcs }).unwrap());
        let mut config = GeneratorConfig {
            intra_pod_interval: SimDuration::from_secs(u64::from(spec.intra_pod_interval_secs)),
            intra_dc_interval: SimDuration::from_secs(u64::from(spec.intra_dc_interval_secs)),
            inter_dc_interval: SimDuration::from_secs(u64::from(spec.inter_dc_interval_secs)),
            payload_probes: spec.payload_probes,
            qos_low: spec.qos_low,
            ..GeneratorConfig::default()
        };
        if seed % 5 == 0 {
            config.vip_targets = vec![(VipId(0), Ipv4Addr::new(172, 16, 0, 1))];
            config.max_entries_per_server = 1 + seed as usize % 7;
        }
        let podsets = topo.podset_count() as u32;
        let mut excluded: BTreeSet<PodsetId> = spec
            .podset_downs
            .iter()
            .map(|pd| PodsetId(pd.pick % podsets))
            .collect();
        excluded.insert(PodsetId(seed as u32 % podsets));
        assert_on_demand_matches(topo, &config, 1 + seed, &excluded, &format!("seed {seed}"));
    }
}
