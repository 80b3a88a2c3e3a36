//! E8 — the crypto substrate behind the protocols' assumptions: SHA-256
//! throughput, one-time and Merkle signatures (costs and sizes), matching
//! the PKI assumption of §4.2.

use std::time::Instant;

use tcvs_crypto::{
    lamport::{lamport_keygen, lamport_sign, lamport_verify},
    mss::{mss_verify, MssSigner},
    sha256,
    wots::{wots_keygen, wots_sign, wots_verify},
    SeedRng, Sha256,
};

use crate::table::{f, Table};

fn time_us<T>(iters: u32, mut op: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(op());
    }
    start.elapsed().as_secs_f64() * 1e6 / iters as f64
}

/// Runs E8.
pub fn run(quick: bool) -> Vec<Table> {
    let iters = if quick { 20 } else { 200 };

    // --- SHA-256 throughput ------------------------------------------------
    let mut t1 = Table::new(
        "E8a",
        "SHA-256 throughput (the collision-intractable hash of [2])",
        &["message bytes", "µs/hash", "MB/s"],
    );
    for exp in [4u32, 8, 12, 16, 20] {
        let len = 1usize << exp;
        let data = vec![0x5Au8; len];
        let us = time_us(iters, || {
            let mut h = Sha256::new();
            h.update(&data);
            h.finalize()
        });
        t1.row(vec![
            len.to_string(),
            f(us),
            f(len as f64 / us), // bytes/µs == MB/s
        ]);
    }

    // --- One-time signatures ------------------------------------------------
    let mut t2 = Table::new(
        "E8b",
        "one-time signatures: Lamport vs Winternitz (w=16)",
        &["scheme", "keygen µs", "sign µs", "verify µs", "sig bytes"],
    );
    let msg = sha256(b"h(M(D) || ctr)");
    {
        let keygen_us = time_us(iters, || {
            let mut rng = SeedRng::from_label(b"e8-lamport");
            lamport_keygen(&mut rng)
        });
        let mut rng = SeedRng::from_label(b"e8-lamport");
        let (mut sk, pk) = lamport_keygen(&mut rng);
        let sig = lamport_sign(&mut sk, &msg).unwrap();
        let verify_us = time_us(iters, || lamport_verify(&pk, &msg, &sig));
        let sign_us = time_us(iters, || {
            let mut rng = SeedRng::from_label(b"e8-lamport-s");
            let (mut sk, _) = lamport_keygen(&mut rng);
            lamport_sign(&mut sk, &msg).unwrap()
        });
        t2.row(vec![
            "lamport".into(),
            f(keygen_us),
            f(sign_us),
            f(verify_us),
            sig.size_bytes().to_string(),
        ]);
    }
    {
        let keygen_us = time_us(iters, || {
            let mut rng = SeedRng::from_label(b"e8-wots");
            wots_keygen(&mut rng)
        });
        let mut rng = SeedRng::from_label(b"e8-wots");
        let (mut sk, pk) = wots_keygen(&mut rng);
        let sig = wots_sign(&mut sk, &msg).unwrap();
        let verify_us = time_us(iters, || wots_verify(&pk, &msg, &sig));
        let sign_us = time_us(iters, || {
            let mut rng = SeedRng::from_label(b"e8-wots-s");
            let (mut sk, _) = wots_keygen(&mut rng);
            wots_sign(&mut sk, &msg).unwrap()
        });
        t2.row(vec![
            "wots-16".into(),
            f(keygen_us),
            f(sign_us),
            f(verify_us),
            sig.size_bytes().to_string(),
        ]);
    }

    // --- Merkle signature scheme ---------------------------------------------
    let mut t3 = Table::new(
        "E8c",
        "Merkle signature scheme: many-time keys from one-time keys [9]",
        &[
            "height",
            "capacity",
            "keygen ms",
            "prepare µs",
            "sign µs",
            "verify µs",
            "sig bytes",
        ],
    );
    let heights: Vec<u32> = if quick {
        vec![4, 8]
    } else {
        vec![4, 6, 8, 10, 12]
    };
    for h in heights {
        let start = Instant::now();
        let mut signer = MssSigner::generate([0xE8; 32], h);
        let keygen_ms = start.elapsed().as_secs_f64() * 1e3;
        let pk = signer.public_key();
        // Offline half (the next leaf's chain table), then the online half
        // that reads the signature out of it; `sign` alone pays both.
        let (mut prepare_us, mut sign_us) = (0.0, 0.0);
        for _ in 0..8 {
            prepare_us += time_us(1, || signer.prepare()) / 8.0;
            sign_us += time_us(1, || signer.sign(&msg).unwrap()) / 8.0;
        }
        let sig = signer.sign(&msg).unwrap();
        let verify_us = time_us(iters, || mss_verify(&pk, &msg, &sig));
        t3.row(vec![
            h.to_string(),
            (1u64 << h).to_string(),
            f(keygen_ms),
            f(prepare_us),
            f(sign_us),
            f(verify_us),
            sig.size_bytes().to_string(),
        ]);
    }
    t3.note("prepare is the message-independent half of signing (the next leaf's 67×16 chain table), done off the deposit path; sign is what is left on it. An unprepared sign costs their sum.");
    t3.note("keygen is O(2^height) one-time keygens; sign/verify stay O(height) — the protocol's per-op cost is flat.");

    vec![t1, t2, t3]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e8_produces_three_tables() {
        let tables = super::run(true);
        assert_eq!(tables.len(), 3);
        assert!(tables.iter().all(|t| !t.rows.is_empty()));
        // WOTS signatures are far smaller than Lamport's.
        let t2 = &tables[1];
        let lam: u64 = t2.rows[0][4].parse().unwrap();
        let wots: u64 = t2.rows[1][4].parse().unwrap();
        assert!(wots * 3 < lam);
    }
}
