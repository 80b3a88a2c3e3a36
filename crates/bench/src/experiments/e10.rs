//! E10 — the detection-delay matrix (§2.2.1's metric): every adversary ×
//! every protocol × many seeds; detection rate and delay in operations.

use tcvs_core::adversary::{all_adversaries, Trigger};
use tcvs_core::{ProtocolConfig, ProtocolKind};
use tcvs_sim::{simulate, SimSpec};
use tcvs_workload::{generate, generate_epoch_workload, OpMix, WorkloadSpec};

use crate::table::{f, Table};

/// Runs E10.
pub fn run(quick: bool) -> Vec<Table> {
    let seeds: Vec<u64> = if quick {
        vec![1, 2]
    } else {
        (1..=20).collect()
    };
    let n_users = 4u32;
    let epoch_len = 16u64;
    let config = ProtocolConfig {
        order: 8,
        k: 8,
        epoch_len,
    };
    // The fork splits the users in half: {0, 1} against {2, 3}.
    let adversaries: Vec<&str> = all_adversaries(&config, Trigger::Never, n_users)
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    let protocols = [ProtocolKind::One, ProtocolKind::Two, ProtocolKind::Three];

    let mut t = Table::new(
        "E10",
        "detection matrix: adversary × protocol (rate, median delay in ops)",
        &[
            "adversary",
            "protocol",
            "runs",
            "detected",
            "median ops-after-fault",
            "median max-user-ops (k metric)",
        ],
    );

    for (a, adversary) in adversaries.into_iter().enumerate() {
        for protocol in protocols {
            let mut detected = 0u32;
            let mut delays = Vec::new();
            let mut kdelays = Vec::new();
            for &seed in &seeds {
                let trace = if protocol == ProtocolKind::Three {
                    // write-heavy (not update-only) so the read-targeting
                    // stale-read adversary has operations to attack.
                    generate_epoch_workload(
                        n_users,
                        10,
                        epoch_len,
                        2,
                        &WorkloadSpec {
                            n_users,
                            key_space: 32,
                            mix: OpMix::write_heavy(),
                            seed,
                            ..WorkloadSpec::default()
                        },
                    )
                } else {
                    generate(&WorkloadSpec {
                        n_users,
                        n_ops: 120,
                        key_space: 32,
                        mix: OpMix::write_heavy(),
                        seed,
                        ..WorkloadSpec::default()
                    })
                };
                // Fault a third of the way in.
                let trigger = trace.len() as u64 / 3;
                let (_, mut server) =
                    all_adversaries(&config, Trigger::AtCtr(trigger), n_users).swap_remove(a);
                let spec = SimSpec {
                    protocol,
                    config,
                    n_users,
                    mss_height: 9,
                    setup_seed: [seed as u8; 32],
                    final_sync: true,
                    faults: tcvs_core::FaultPlan::none(),
                };
                let r = simulate(&spec, server.as_mut(), &trace, Some(trigger));
                if let Some(ev) = r.detection {
                    detected += 1;
                    if let Some(d) = ev.ops_after_violation {
                        delays.push(d);
                    }
                    if let Some(m) = ev.max_user_ops_after_violation {
                        kdelays.push(m);
                    }
                }
            }
            delays.sort_unstable();
            kdelays.sort_unstable();
            let med = |v: &[u64]| {
                if v.is_empty() {
                    "—".to_string()
                } else {
                    v[v.len() / 2].to_string()
                }
            };
            t.row(vec![
                adversary.into(),
                protocol.label().into(),
                seeds.len().to_string(),
                format!("{}%", f(100.0 * detected as f64 / seeds.len() as f64)),
                med(&delays),
                med(&kdelays),
            ]);
        }
    }
    t.note("all protocols detect all eight adversaries; per-op checks (lie, hide-key, counter regression) detect on the attacked op, structural attacks wait for the sync-up (≤ k per-user ops) or epoch audit (≤ 2 epochs). Delays count from the trigger: stale-read and hide-key wait there for a read to attack.");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e10_full_detection_rate() {
        let tables = super::run(true);
        for row in &tables[0].rows {
            assert_eq!(
                row[3], "100%",
                "{} vs {} must be detected in all runs",
                row[0], row[1]
            );
        }
    }
}
