//! Cross-driver parity: the simulator and the threaded client run the same
//! client step (`tcvs_core::Protocol`), so one trace against one deviating
//! server is caught on the same operation, with the same deviation, by
//! `simulate` and by sequentially driven `NetClient1`/`NetClient2`s.

mod common;

use common::spec;
use tcvs_core::adversary::{LieServer, TamperServer, Trigger};
use tcvs_core::{Deviation, Protocol, ProtocolConfig, ProtocolKind, ServerApi};
use tcvs_crypto::setup_users;
use tcvs_net::{NetClient, NetClient1, NetClient2, NetError, NetServer};
use tcvs_sim::{initial_root, simulate, SimSpec};
use tcvs_workload::{generate, OpMix, Trace, WorkloadSpec};

const USERS: u32 = 3;

/// A driver's verdict: the index of the detecting op and its deviation.
type Verdict = Option<(u64, Deviation)>;

fn trace() -> Trace {
    generate(&WorkloadSpec {
        n_users: USERS,
        n_ops: 40,
        key_space: 16,
        mix: OpMix::write_heavy(),
        seed: 35,
        ..WorkloadSpec::default()
    })
}

/// A spec whose run ends on the first per-op verdict: no sync-up fires.
fn parity_spec(protocol: ProtocolKind) -> SimSpec {
    let mut s = spec(protocol, USERS);
    s.config.k = u64::MAX;
    s.final_sync = false;
    s
}

/// The first deviation the threaded clients report, op by op in trace
/// order.
fn net_verdict<P: Protocol>(clients: &mut [NetClient<P>], trace: &Trace) -> Verdict {
    for (i, sop) in trace.ops().iter().enumerate() {
        match clients[sop.user as usize].execute(&sop.op) {
            Ok(_) => {}
            Err(NetError::Deviation(d)) => return Some((i as u64, d)),
            Err(e) => panic!("transport failure at op {i}: {e}"),
        }
    }
    None
}

/// Runs `trace` through the simulator and over the wire, each against its
/// own fresh server from `adversary`, and returns both verdicts.
fn both_verdicts(
    protocol: ProtocolKind,
    adversary: fn(&ProtocolConfig) -> Box<dyn ServerApi + Send>,
) -> (Verdict, Verdict) {
    let s = parity_spec(protocol);
    let t = trace();
    let sim = simulate(&s, adversary(&s.config).as_mut(), &t, None)
        .detection
        .map(|d| (d.op_index, d.deviation));

    let root0 = initial_root(&s.config);
    let blocking = protocol == ProtocolKind::One;
    let server = NetServer::spawn(adversary(&s.config), blocking);
    let net = match protocol {
        ProtocolKind::One => {
            let (rings, registry) = setup_users(s.setup_seed, USERS, s.mss_height);
            let mut cs: Vec<NetClient1> = rings
                .into_iter()
                .map(|r| NetClient1::new(r, registry.clone(), s.config, &server))
                .collect();
            cs[0].deposit_initial(&root0).expect("a fresh key signs");
            net_verdict(&mut cs, &t)
        }
        _ => {
            let mut cs: Vec<NetClient2> = (0..USERS)
                .map(|u| NetClient2::new(u, &root0, s.config, &server))
                .collect();
            net_verdict(&mut cs, &t)
        }
    };
    server.shutdown();
    (sim, net)
}

fn lie(config: &ProtocolConfig) -> Box<dyn ServerApi + Send> {
    Box::new(LieServer::new(config, Trigger::AtCtr(7)))
}

fn tamper(config: &ProtocolConfig) -> Box<dyn ServerApi + Send> {
    Box::new(TamperServer::new(config, Trigger::AtCtr(7)))
}

#[test]
fn a_lie_is_caught_on_the_same_op_by_both_drivers() {
    for protocol in [ProtocolKind::One, ProtocolKind::Two] {
        let (sim, net) = both_verdicts(protocol, lie);
        assert!(sim.is_some(), "{protocol:?}: the simulator missed the lie");
        assert_eq!(sim, net, "{protocol:?}");
    }
}

#[test]
fn a_tamper_is_caught_on_the_same_op_by_both_protocol1_drivers() {
    let (sim, net) = both_verdicts(ProtocolKind::One, tamper);
    assert!(sim.is_some(), "the simulator missed the tamper");
    assert_eq!(sim, net);
}
