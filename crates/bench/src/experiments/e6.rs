//! E6 — §4.3's motivation: Protocol I's blocking signature deposit costs
//! real throughput under frequent updates; Protocol II does not.
//!
//! Wall-clock, multi-threaded: `u` client threads against one server
//! thread; ops/sec and tail latency per protocol and concurrency level.

use std::time::Instant;

use tcvs_core::{HonestServer, Op, OpResult, ProtocolConfig, ProtocolKind};
use tcvs_crypto::setup_users;
use tcvs_merkle::{u64_key, MerkleTree};
use tcvs_net::{NetClient1, NetClient2, NetClientTrusted, NetError, NetServer};

use crate::table::{f, Table};

/// One client's `execute`, boxed so the closed loop is protocol-blind.
type Exec = Box<dyn FnMut(&Op) -> Result<OpResult, NetError> + Send>;

/// Client `u`'s `i`-th operation: `update_pct` % puts over 1,024 keys.
fn script(u: u64, i: u64, update_pct: u64) -> Op {
    let key = u64_key((u * 7919 + i * 13) % 1024);
    if i % 100 < update_pct {
        Op::Put(key, vec![(i % 251) as u8; 32])
    } else {
        Op::Get(key)
    }
}

/// `clients` threads, each issuing `ops` operations back to back against a
/// fresh honest server. Returns ops/s and the sorted per-op latencies (µs).
fn closed_loop(
    protocol: ProtocolKind,
    clients: u32,
    ops: u64,
    update_pct: u64,
    config: &ProtocolConfig,
) -> (f64, Vec<f64>) {
    let blocking = protocol == ProtocolKind::One;
    let server = NetServer::spawn(Box::new(HonestServer::new(config)), blocking);
    let root0 = MerkleTree::with_order(config.order).root_digest();
    let execs: Vec<Exec> = match protocol {
        ProtocolKind::One => {
            // Each user's MSS key must cover `ops` signatures.
            let height = (64 - (ops + 2).leading_zeros()).max(4);
            let (rings, registry) = setup_users([0x11; 32], clients, height);
            let mut cs: Vec<NetClient1> = rings
                .into_iter()
                .map(|r| NetClient1::new(r, registry.clone(), *config, &server))
                .collect();
            cs[0].deposit_initial(&root0).expect("fresh server");
            cs.into_iter()
                .map(|mut c| -> Exec { Box::new(move |op: &Op| c.execute(op)) })
                .collect()
        }
        _ => (0..clients)
            .map(|u| -> Exec {
                if protocol == ProtocolKind::Trusted {
                    let mut c = NetClientTrusted::new(u, &server);
                    Box::new(move |op: &Op| c.execute(op))
                } else {
                    let mut c = NetClient2::new(u, &root0, *config, &server);
                    Box::new(move |op: &Op| c.execute(op))
                }
            })
            .collect(),
    };
    let start = Instant::now();
    let threads: Vec<_> = (0u64..)
        .zip(execs)
        .map(|(u, mut exec)| {
            std::thread::spawn(move || {
                let mut lat = Vec::with_capacity(ops as usize);
                for i in 0..ops {
                    let t = Instant::now();
                    exec(&script(u, i, update_pct)).expect("honest server");
                    lat.push(t.elapsed().as_secs_f64() * 1e6);
                }
                lat
            })
        })
        .collect();
    let mut lat: Vec<f64> = threads
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let secs = start.elapsed().as_secs_f64();
    server.shutdown();
    lat.sort_by(f64::total_cmp);
    (lat.len() as f64 / secs.max(1e-9), lat)
}

/// Runs E6.
pub fn run(quick: bool) -> Vec<Table> {
    let client_counts: Vec<u32> = if quick {
        vec![1, 4]
    } else {
        vec![1, 2, 4, 8, 16]
    };
    let ops_per_client: u64 = if quick { 100 } else { 1000 };
    let config = ProtocolConfig {
        order: 16,
        k: u64::MAX, // syncs out of band; this measures the op path
        epoch_len: 1 << 30,
    };

    let mut t = Table::new(
        "E6",
        "wall-clock throughput: trusted vs protocol-1 (blocking) vs protocol-2",
        &[
            "protocol", "clients", "update %", "ops/s", "p50 µs", "p99 µs",
        ],
    );

    for update_pct in [10u64, 90] {
        for &clients in &client_counts {
            for protocol in [ProtocolKind::Trusted, ProtocolKind::One, ProtocolKind::Two] {
                let (ops_per_sec, lat) =
                    closed_loop(protocol, clients, ops_per_client, update_pct, &config);
                let q = |p: f64| lat[((lat.len() - 1) as f64 * p).round() as usize];
                t.row(vec![
                    protocol.label().into(),
                    clients.to_string(),
                    update_pct.to_string(),
                    f(ops_per_sec),
                    f(q(0.5)),
                    f(q(0.99)),
                ]);
            }
        }
    }
    t.note("protocol-1 < protocol-2 ≤ trusted in ops/s; the gap grows with update rate and concurrency (the blocking deposit serializes the server).");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e6_protocol1_slower_than_protocol2_under_contention() {
        let tables = super::run(true);
        let t = &tables[0];
        let tput = |proto: &str, clients: &str, upd: &str| -> f64 {
            t.rows
                .iter()
                .find(|r| r[0] == proto && r[1] == clients && r[2] == upd)
                .unwrap()[3]
                .parse()
                .unwrap()
        };
        // At 4 clients / 90% updates the blocking effect must be visible.
        let p1 = tput("protocol-1", "4", "90");
        let p2 = tput("protocol-2", "4", "90");
        assert!(
            p1 < p2,
            "protocol-1 ({p1:.0} ops/s) should trail protocol-2 ({p2:.0} ops/s)"
        );
    }
}
