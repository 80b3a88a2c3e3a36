//! Shared helpers for the simulator's protocol, adversary and workload
//! suites. Each test binary compiles its own copy and uses a subset.

#![allow(dead_code)]

use tcvs_core::{ProtocolConfig, ProtocolKind};
use tcvs_sim::SimSpec;

/// A compact config suitable for fast integration runs.
pub fn small_config() -> ProtocolConfig {
    ProtocolConfig {
        order: 8,
        k: 8,
        epoch_len: 16,
    }
}

/// A `SimSpec` for `protocol` with `n` users over [`small_config`].
pub fn spec(protocol: ProtocolKind, n: u32) -> SimSpec {
    SimSpec {
        protocol,
        config: small_config(),
        n_users: n,
        mss_height: 9,
        setup_seed: [0x77; 32],
        final_sync: true,
        faults: tcvs_core::FaultPlan::none(),
    }
}

/// The three protocols of §4.
pub const PROTOCOLS: [ProtocolKind; 3] =
    [ProtocolKind::One, ProtocolKind::Two, ProtocolKind::Three];

/// The adversary names used by `make_adversary`.
pub const ADVERSARIES: [&str; 8] = [
    "fork",
    "drop",
    "rollback",
    "tamper",
    "counter-skip",
    "lie",
    "stale-read",
    "hide-key",
];

/// Builds an adversary by name, triggered at `trigger` operations.
pub fn make_adversary(
    name: &str,
    config: &ProtocolConfig,
    trigger: u64,
) -> Box<dyn tcvs_core::ServerApi> {
    use tcvs_core::adversary::*;
    let t = Trigger::AtCtr(trigger);
    match name {
        "fork" => Box::new(ForkServer::new(config, t, &[0])),
        "drop" => Box::new(DropServer::new(config, t)),
        "rollback" => Box::new(RollbackServer::new(config, t)),
        "tamper" => Box::new(TamperServer::new(config, t)),
        "counter-skip" => Box::new(CounterSkipServer::new(config, t)),
        "lie" => Box::new(LieServer::new(config, t)),
        "stale-read" => Box::new(StaleReadServer::new(config, t)),
        "hide-key" => Box::new(HideKeyServer::new(config, t)),
        other => panic!("unknown adversary {other}"),
    }
}
