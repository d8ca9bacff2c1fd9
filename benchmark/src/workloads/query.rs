//! What the two query workloads share: driving the generator over
//! several connections, and the byte-identity check.

use crate::gen::{Keys, Pick};
use crate::http::{self, Client, PhaseOut};
use crate::span::Tracer;
use parking_lot::Mutex;
use pingmesh_dsa::store::CosmosStore;
use pingmesh_serve::views::ApiQuery;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Runs `per_conn` on one thread per connection and merges what they
/// measured; the threads' spans are absorbed into `tracer`.
fn fan_out(
    conns: usize,
    tracer: &mut Tracer,
    per_conn: impl Fn(usize, &mut Tracer) -> std::io::Result<PhaseOut> + Sync,
) -> PhaseOut {
    let origin = Instant::now();
    let enabled = tracer.enabled();
    let outs: Vec<(std::io::Result<PhaseOut>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let per_conn = &per_conn;
                scope.spawn(move || {
                    let mut t = Tracer::new(enabled, origin);
                    (per_conn(c, &mut t), t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect()
    });
    let mut all = PhaseOut::default();
    for (out, t) in outs {
        tracer.absorb(t);
        match out {
            Ok(o) => all.merge(o),
            // A connection that died mid-phase: one failed operation on
            // top of whatever it lost.
            Err(_) => all.failed += 1,
        }
    }
    all
}

/// Closed loop: `conns` keep-alive connections, `depth` in flight each.
#[allow(clippy::too_many_arguments)]
pub fn closed(
    addr: SocketAddr,
    keys: &Keys,
    picks: &[Vec<Pick>],
    depth: usize,
    warmup: Duration,
    measure: Duration,
    tracer: &mut Tracer,
) -> PhaseOut {
    fan_out(picks.len(), tracer, |c, t| {
        http::closed_loop(addr, keys, &picks[c], depth, warmup, measure, t)
    })
}

/// Open loop at `total_rate` requests per second, split evenly over the
/// connections, their arrivals staggered by a fraction of the interval.
pub fn open(
    addr: SocketAddr,
    keys: &Keys,
    picks: &[Vec<Pick>],
    total_rate: f64,
    warmup: Duration,
    measure: Duration,
    tracer: &mut Tracer,
) -> PhaseOut {
    let conns = picks.len();
    let rate = total_rate / conns as f64;
    fan_out(conns, tracer, |c, t| {
        let offset = Duration::from_secs_f64(c as f64 / conns as f64 / rate);
        http::open_loop(addr, keys, &picks[c], rate, offset, warmup, measure, t)
    })
}

/// After quiesce: fetches every cacheable key once, without a validator,
/// and compares the served bytes with a from-scratch `ApiQuery::build`.
/// Returns (checked, mismatches).
pub fn byte_identity(addr: SocketAddr, store: &Mutex<CosmosStore>, keys: &Keys) -> (u64, u64) {
    let mut client = Client::connect(addr).expect("connect for the identity check");
    let (mut checked, mut mismatches) = (0, 0);
    for k in keys.cacheable() {
        let path = &keys.paths[k];
        let resp = client
            .exchange(&http::get_bytes(path, None))
            .expect("identity fetch");
        let (p, q) = path.split_once('?').expect("cacheable paths have queries");
        let query = ApiQuery::parse(p, Some(q)).expect("generated paths parse");
        let oracle = query.build(&store.lock()).expect("oracle rebuild");
        checked += 1;
        if resp.status != 200 || client.bytes(&resp.body) != oracle {
            mismatches += 1;
            eprintln!("  MISMATCH {path}: status {}", resp.status);
        }
    }
    (checked, mismatches)
}
