//! Every persisted byte outside the tree codec is pinned: a checkpoint
//! (`TCKP`) with every section present, one log record body per tag and op
//! kind, the canonical bytes of a reply to every op kind with and without a
//! Protocol I signature, an evidence bundle (`TCVSEVB1`) and a chunk
//! manifest (`TCVB`). The digests were recorded before the protocol codecs
//! moved into `tcvs_core::wire`; a codec change must leave every one of them
//! where it is. Trees and proofs (`TCVM`) are pinned by `tcvs-merkle`'s
//! `layout_pins.rs`.
//!
//! Seven pins were re-recorded since, when a present key's point proof
//! began to ship its leaf's other entries as pair digests only: the
//! `reply-get` and `reply-put` replies (plain and signed) carry such a
//! proof; the checkpoint journals those replies; and the evidence bundle,
//! alone and as `record-evidence`'s payload, embeds the `reply-get` proof.
//! No framing around a proof moved.
//!
//! Three pins were re-recorded again when the sharded grove was deleted:
//! `evidence`, `record-evidence` (its payload) and `checkpoint` (which
//! carries the bundle in its evidence section). The pinned bundle lost its
//! grove sample — the slot is now always written absent, and a present one
//! is refused — and its kind moved from the retired grove sync-up tag 3 to
//! `protocol-verdict`, which the one server's sync-up capture uses. Every
//! other field of the bundle, and every other pin, stayed where it was.
//!
//! The same three were re-recorded once more for bundle version 2, which
//! the cold audit's re-run of the client's check needs: the payload
//! carries the rejected exchange (the client's anchor, the op and the
//! whole signed `get` reply) where it carried a bare proof, and the
//! per-shard fields are flat (one initial token, one share set, one log
//! set, no claimed shard set, no trigger shard, no grove slot). The
//! replies, records, manifest and every other pin stayed where they were.
//!
//! `record-delta`, an incremental checkpoint's record body (tag 7), was
//! added with incremental checkpoints and deleted with them; no other pin
//! moved either time.
//!
//! When checkpoints moved into the log, `record-chunk` (a piece of a full
//! checkpoint) and `commit` (a whole commit frame as a segment holds it:
//! one frame, one check, several records) were added. No other pin moved:
//! a full checkpoint is now written a piece at a time, and `checkpoint`,
//! encoded by that stream, still pins the bytes the pieces concatenate to.
//!
//! When the server's flight-recorder frames and evidence bundles left the
//! log, `record-flight`, `record-flight-root-span` and `record-evidence`
//! (tags 5 and 6) were deleted, and two pins were re-recorded: `checkpoint`
//! (state version 3, without the flight-tail and evidence sections) and
//! `commit` (an op and a piece, where it held an op, a flight frame and a
//! piece). The `evidence` bundle, every reply, every remaining record and
//! the manifest stayed where they were.

use tcvs_core::forensics::LoggedTransition;
use tcvs_core::{
    Anchor, Deviation, EvidenceBuilder, EvidenceKind, Exchange, HonestServer, ProtocolConfig,
    ServerApi, ServerMetrics, ServerResponse, ServerSnapshot, SignedCheckpoint, SignedEpochState,
    SignedState, SyncShare, TransitionLog, TriggerInfo,
};
use tcvs_crypto::{setup_users, sha256, Digest, Keyring};
use tcvs_merkle::{u64_key, ChunkSource, Op};
use tcvs_obs::{Event, EventKind, MetricsRegistry, SpanContext};
use tcvs_storage::{
    response_bytes, DurableOptions, DurableState, DurableStorage, Medium, MemMedium, Record,
    Storage, WriteBatch,
};

/// Recorded before the codecs moved; the seven proof-bearing pins named
/// above on the first build whose point proofs hide unproven entries, the
/// three bundle-bearing ones on the first build of bundle version 2,
/// `record-chunk` on the first build whose checkpoints ride the log, and
/// `checkpoint` and `commit` on the first build whose log holds no flight
/// frames or evidence.
const PINS: &str = "\
checkpoint 6fa824dd8487d6f03d3922137defb4ae7bf48a1987f7f535d8e01e6a71d057e0
commit bd575d7907cf111a5f0524bcc72794c39ade0047d78ad61c0bc9348424d23995
evidence 6950da9de2994eae2c5339802a13105f82abae9a182ae7ebd78948846fb7af34
manifest 86f419413a3018cd584471fd417a7f4bcb90250f35cf814f0559e9b8330cc359
reply-get aebe7b6758aa9209f64f80077358b07b73c3414ea5c1681302a13f3da48c85ee
reply-get-absent 6d96bd561759395b21c11f751078ed5b4ecdf3ab355c0f86b04ca667fb6f3547
reply-put 45918773c84ff997114e245a627851dc448a299953b5e6d8e6723b97165120db
reply-range 2246d29ac9ff65952919dea916e4bd3d5338d8392af3add0bcc01791f00b2cbb
reply-delete 4d6070c0ee619dcf459e8bcf4a43563b73bccce6e79656e0bb5dad87cc6c291f
reply-get-signed 9e58fbaad3e3c21cabb7cbe769156ea0346bdcd0b7fd1870db9bf29c31bf1b6f
reply-get-absent-signed ac686c23ede5c88d42dd807371adb0deb9dc2de4598c49e777f52c9c7321cf95
reply-put-signed 587d6e6bbd62d2991121f2314bb43683f0f0dcbcf299796fc23605faa477e478
reply-range-signed af6d6214fa2482b29eb24d34f47bc49a0d129d4437fb8c53d42088ccf157503b
reply-delete-signed f5fbe15dcbf920082c292a79c47669a4fb0357b4b69d3fcea55733f2f08da03f
record-op-get 105e15bb69a20c15c2272c28f785b3ed53d5a790120558be60b1b077fabd1637
record-op-get-absent 42649c25bca7e5e4095957b8a9ac6d9808b53d2928af4af4cd5192014521df42
record-op-put 68e226c3b1af670404ce012eeb1ea993e4c9804cd83834000e451cb8dd32a5c3
record-op-range 9d8a952e186941eff2b95609b7ea47dae2dcffef4227eae011bcba8ca362cd1f
record-op-delete 25ad1daa1c4044bedee6a1ee9426b4452e81fb33e6b962dff52b66cf4c76ebf0
record-signature 9a9746176f0c8266d21d6746fedcd10bb3b6c2739cbc1a2fbd49e7f4a201d109
record-epoch-state e09a2eb5a28f3d1e4092f2c042743f837f89adc1e6ba5abf6172f9c40b914872
record-audit-checkpoint dd673da6370ffe6bff81c8f098779c22739c3f474e606276a9ec3ee734087cf9
record-chunk 6fc05e4d1e2750254f933ba5f4f4634086c93dcce868ce2696ebd0fee8ee3360
";

fn hex(d: Digest) -> String {
    d.as_bytes().iter().map(|b| format!("{b:02x}")).collect()
}

fn ops() -> [(&'static str, Op); 5] {
    [
        ("get", Op::Get(u64_key(3))),
        ("get-absent", Op::Get(u64_key(999))),
        ("put", Op::Put(u64_key(5), b"five".to_vec())),
        ("range", Op::Range(Some(u64_key(10)), Some(u64_key(20)))),
        ("delete", Op::Delete(u64_key(7))),
    ]
}

fn signed_state(ring: &mut Keyring, root: Digest, ctr: u64) -> SignedState {
    let sig = ring
        .sign(&tcvs_core::state::signed_payload(&root, ctr))
        .unwrap();
    SignedState {
        signer: ring.user,
        root,
        ctr,
        sig,
    }
}

fn epoch_state(ring: &mut Keyring, last: Option<Digest>) -> SignedEpochState {
    let (user, sigma) = (ring.user, sha256(b"sigma"));
    let payload = SignedEpochState::payload(user, 0, &sigma, last.as_ref(), 3);
    SignedEpochState {
        user,
        epoch: 0,
        sigma,
        last,
        ops: 3,
        sig: ring.sign(&payload).unwrap(),
    }
}

fn spanned(t: u64, kind: EventKind, detail: &str) -> Event {
    Event::new(t, kind, 1)
        .detail(detail)
        .span(SpanContext::root(3, 9).child(4))
}

#[test]
fn every_persisted_encoding_is_pinned() {
    let config = ProtocolConfig {
        order: 4,
        k: 4,
        epoch_len: 10,
    };
    let (mut rings, registry) = setup_users([0x25; 32], 2, 6);
    let mut server = HonestServer::new(&config);
    for i in 0..40u64 {
        let value = vec![i as u8; 1 + (i % 7) as usize];
        server.handle_op((i % 2) as u32, &Op::Put(u64_key(i), value), i);
    }

    // Every op kind, first without and then with a stored signature.
    let mut replies: Vec<(String, ServerResponse)> = Vec::new();
    for (name, op) in ops() {
        let round = replies.len() as u64 + 40;
        replies.push((name.to_string(), server.handle_op(0, &op, round)));
    }
    let (root, ctr) = (server.core().root_digest(), server.core().ctr());
    server.deposit_signature(0, signed_state(&mut rings[0], root, ctr));
    for (name, op) in ops() {
        let round = replies.len() as u64 + 40;
        replies.push((format!("{name}-signed"), server.handle_op(1, &op, round)));
    }
    assert!(replies.iter().any(|(_, r)| r.sig.is_some()));

    let epoch_with = epoch_state(&mut rings[1], Some(sha256(b"last")));
    let epoch_without = epoch_state(&mut rings[0], None);
    let checkpoint = SignedCheckpoint {
        epoch: 0,
        checker: 0,
        final_token: sha256(b"final"),
        sig: rings[0]
            .sign(&SignedCheckpoint::payload(0, 0, &sha256(b"final")))
            .unwrap(),
    };
    server.deposit_epoch_state(epoch_with.clone());
    server.deposit_epoch_state(epoch_without.clone());
    server.deposit_checkpoint(checkpoint.clone());
    let deposit = signed_state(&mut rings[1], sha256(b"r"), 9);

    let metrics = MetricsRegistry::new();
    metrics.counter("net.retries").add(2);
    metrics.gauge("net.depth").set(-3);
    let mut log = TransitionLog::new();
    log.record(LoggedTransition {
        old_token: sha256(b"a"),
        new_token: sha256(b"b"),
        ctr: 1,
        user: 0,
    });
    let share = |last| SyncShare {
        user: 1,
        lctr: 4,
        gctr: 9,
        sigma: sha256(b"s"),
        last,
    };
    let bundle = EvidenceBuilder::new(EvidenceKind::ProtocolVerdict, 7, "protocol-1")
        .captured_at(12)
        .description("pinned")
        .deviation(&Deviation::SyncFailed)
        .trigger(TriggerInfo {
            deviation: "sync-failed".into(),
            detail: "detail".into(),
            user: Some(1),
            ctr: Some(3),
        })
        .initial(sha256(b"i0"))
        .shares(vec![share(Some(sha256(b"l"))), share(None)])
        .signed_state(deposit.clone())
        .epoch_states([epoch_with.clone(), epoch_without])
        .checkpoints([checkpoint.clone()])
        .exchange(Some(Exchange::Op {
            anchor: Anchor {
                order: config.order,
                gctr: 41,
            },
            op: ops()[0].1.clone(),
            reply: replies[5].1.clone(),
        }))
        .keys_from(&registry)
        .transition_log(1, &log)
        .events([spanned(2, EventKind::Detection, "event")])
        .flight_tail([Event::new(1, EventKind::Deposit, 0)])
        .metrics(&metrics.snapshot())
        .build()
        .to_bytes();

    // `bytes_out` is a computed size, not a persisted fact of the run: fix
    // it so the checkpoint pin holds every other byte still.
    let snap = server.core().crash_snapshot();
    assert!(snap.last_sig().is_some());
    let snapshot = ServerSnapshot::from_parts(
        snap.db().clone(),
        snap.ctr(),
        snap.last_user(),
        snap.epoch_len(),
        snap.last_sig().cloned(),
        snap.epoch_states().to_vec(),
        snap.checkpoints().to_vec(),
        snap.user_epochs().to_vec(),
        ServerMetrics {
            bytes_out: 123_456,
            ..snap.snapshot_metrics()
        },
    )
    .unwrap();
    let state = DurableState {
        snapshot,
        journal: replies
            .iter()
            .enumerate()
            .map(|(seq, (_, r))| ((seq % 2) as u32, seq as u64, r.clone()))
            .collect(),
    };
    let mut checkpoint_bytes = Vec::new();
    state.encode_into(&mut checkpoint_bytes);

    let mut records: Vec<(String, Record)> = ops()
        .into_iter()
        .map(|(name, op)| {
            let rec = Record::Op {
                user: 1,
                seq: 8,
                op,
                round: 9,
            };
            (format!("record-op-{name}"), rec)
        })
        .collect();
    records.extend([
        ("record-signature".into(), Record::Signature(deposit)),
        ("record-epoch-state".into(), Record::EpochState(epoch_with)),
        (
            "record-audit-checkpoint".into(),
            Record::AuditCheckpoint(checkpoint),
        ),
        (
            "record-chunk".into(),
            Record::Chunk((17, 1, 3), checkpoint_bytes[100..160].to_vec()),
        ),
    ]);
    // A commit of two records as the first frame of a segment: an op and
    // a piece, one frame and one check.
    let medium = MemMedium::new();
    let mut store = DurableStorage::open(medium.clone(), DurableOptions::default());
    store.recover().unwrap();
    let mut batch = WriteBatch::new();
    for (name, rec) in &records {
        if ["record-op-put", "record-chunk"].contains(&name.as_str()) {
            batch.push(rec.clone());
        }
    }
    assert_eq!(store.commit(batch).unwrap(), 2);
    let commit = medium.read("seg-0000000000000000.log").unwrap().unwrap();

    let manifest = ChunkSource::new(server.core().db(), 512)
        .unwrap()
        .manifest()
        .to_bytes();

    let mut got = vec![
        ("checkpoint".to_string(), checkpoint_bytes),
        ("commit".to_string(), commit),
        ("evidence".to_string(), bundle),
        ("manifest".to_string(), manifest),
    ];
    got.extend(
        replies
            .iter()
            .map(|(n, r)| (format!("reply-{n}"), response_bytes(r))),
    );
    got.extend(
        records
            .into_iter()
            .map(|(n, r)| (n, [&[r.tag()][..], &r.body()].concat())),
    );
    let got: String = got
        .into_iter()
        .map(|(name, bytes)| format!("{name} {}\n", hex(sha256(&bytes))))
        .collect();
    assert_eq!(got, PINS, "a persisted encoding moved");
}
