//! Golden wire frames: one fixed message of every kind, pinned byte for byte.
//!
//! The expected hex was recorded from the encoder before the message codecs
//! moved onto the shared `ofscil_serve::bytes` reader/writer. A mismatch
//! means the wire format changed — which must come with a `WIRE_VERSION`
//! bump, never silently. On failure the test prints every case's actual hex
//! so a deliberate format change can re-record the table.

use ofscil_data::Batch;
use ofscil_obs::{Event, EventKind, ObsCursor, ObsQuery, ObsResult, Resolution, Rollup, TailBatch};
use ofscil_serve::{
    DeploymentExport, DeploymentStats, DurabilityStats, ExportStats, ServeError, ServeRequest,
    ServeResponse,
};
use ofscil_tensor::Tensor;
use ofscil_wire::codec::{encode_request, encode_response};
use ofscil_wire::{ReplEvent, WireRequest, WireResponse, WIRE_VERSION};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn event(kind: EventKind, seq: u64) -> Event {
    Event::new(kind, "t")
        .with_seq(seq)
        .with_time_us(1_000 + seq)
        .with_energy_mj(0.5)
        .with_latency_us(120)
        .with_accuracy(0.75)
        .with_wal_bytes(64)
}

fn rollup() -> Rollup {
    let mut cell = Rollup::new(60_000_000, "t", EventKind::Infer);
    cell.observe(&event(EventKind::Infer, 1));
    cell
}

fn export() -> DeploymentExport {
    DeploymentExport {
        name: "t".into(),
        seq: 3,
        snapshot: vec![0xde, 0xad],
        spent_mj: 1.5,
        budget_mj: Some(8.0),
        stats: ExportStats {
            infer_requests: 1,
            infer_batches: 2,
            largest_batch: 3,
            learn_requests: 4,
            snapshots: 5,
            rejected_infer: 6,
            rejected_learn: 7,
            deferred: 8,
        },
    }
}

fn query() -> ObsQuery {
    ObsQuery::deployment("t")
        .with_time_range(10, 20)
        .with_seq_range(1, 2)
        .with_kinds(&[EventKind::Infer])
        .with_limit(5)
        .with_resolution(Resolution::Auto)
}

/// One encoded frame per message kind, in kind order.
fn cases() -> Vec<(&'static str, Vec<u8>)> {
    let image = Tensor::from_vec(vec![0.5, -1.0], &[1, 2]).unwrap();
    let requests = [
        ("0x01 infer", WireRequest::Serve(ServeRequest::Infer { deployment: "t".into(), image })),
        (
            "0x02 learn",
            WireRequest::Serve(ServeRequest::LearnOnline {
                deployment: "t".into(),
                batch: Batch {
                    images: Tensor::from_vec(vec![0.25, 2.0], &[2, 1]).unwrap(),
                    labels: vec![3, 9],
                },
            }),
        ),
        ("0x03 snapshot", WireRequest::Serve(ServeRequest::Snapshot { deployment: "t".into() })),
        ("0x04 stats", WireRequest::Serve(ServeRequest::Stats { deployment: "t".into() })),
        (
            "0x05 top-up",
            WireRequest::Serve(ServeRequest::TopUpBudget {
                deployment: "t".into(),
                energy_mj: 12.75,
            }),
        ),
        ("0x06 subscribe", WireRequest::Subscribe { deployment: "t".into() }),
        ("0x07 export", WireRequest::Export { deployment: "t".into() }),
        ("0x08 import", WireRequest::Import(export())),
        ("0x09 re-anchor", WireRequest::ReAnchor { deployment: "t".into() }),
        ("0x0A obs query", WireRequest::ObsQuery(query())),
        (
            "0x0B advertise",
            WireRequest::AdvertiseFollower { upstream: "u".into(), follower: "f".into() },
        ),
        (
            "0x0C obs subscribe",
            WireRequest::ObsSubscribe {
                query: query(),
                cursor: Some(ObsCursor { time_us: 7, seq: 8 }),
            },
        ),
    ];
    let mut obs = ObsResult {
        events: vec![event(EventKind::Learn, 2)],
        rollups: vec![rollup()],
        truncated: true,
        appended: 9,
        dropped: 1,
        shards_ok: 2,
        shards_err: 1,
        ..ObsResult::default()
    };
    obs.aggregates.observe(&event(EventKind::Learn, 2));
    obs.latency_hist.record(120);
    let responses = [
        (
            "0x41 prediction",
            WireResponse::Serve(ServeResponse::Prediction {
                class: 4,
                similarity: 0.875,
                batched_with: 2,
            }),
        ),
        (
            "0x42 learned",
            WireResponse::Serve(ServeResponse::Learned { classes: vec![1, 5], total_classes: 6 }),
        ),
        ("0x43 snapshot", WireResponse::Serve(ServeResponse::Snapshot { bytes: vec![1, 2, 3] })),
        (
            "0x44 stats",
            WireResponse::Serve(ServeResponse::Stats(DeploymentStats {
                name: "t".into(),
                classes: 2,
                infer_requests: 3,
                infer_batches: 4,
                largest_batch: 5,
                learn_requests: 6,
                snapshots: 7,
                rejected_infer: 8,
                rejected_learn: 9,
                deferred: 10,
                energy_spent_mj: 1.25,
                energy_budget_mj: None,
                durability: Some(DurabilityStats {
                    wal_records: 11,
                    wal_bytes: 12,
                    compactions: 13,
                    last_checkpoint_seq: 14,
                }),
            })),
        ),
        (
            "0x45 budget",
            WireResponse::Serve(ServeResponse::Budget { spent_mj: 3.5, remaining_mj: Some(0.5) }),
        ),
        (
            "0x46 error",
            WireResponse::Error(ServeError::BudgetExhausted {
                deployment: "t".into(),
                required_mj: 2.0,
                remaining_mj: 0.25,
            }),
        ),
        ("0x47 export", WireResponse::Export(export())),
        ("0x48 imported", WireResponse::Imported { classes: 4 }),
        ("0x49 obs", WireResponse::Obs(Box::new(obs))),
        ("0x4A advertised", WireResponse::Advertised { registered: 2 }),
        ("0x61 repl full", WireResponse::Repl(ReplEvent::Full { seq: 7, snapshot: vec![9, 8] })),
        (
            "0x62 repl delta",
            WireResponse::Repl(ReplEvent::Delta {
                seq: 8,
                total_classes: 3,
                updates: vec![(2, vec![0.5, -0.25])],
            }),
        ),
        (
            "0x63 tail batch",
            WireResponse::Tail(TailBatch {
                events: vec![event(EventKind::Infer, 3)],
                rollups: vec![rollup()],
                cursor: ObsCursor { time_us: 1_003, seq: 3 },
                backfill: true,
                truncated: false,
                dropped: 2,
            }),
        ),
    ];
    requests
        .iter()
        .map(|(name, request)| (*name, encode_request(request)))
        .chain(responses.iter().map(|(name, response)| (*name, encode_response(response))))
        .collect()
}

const GOLDEN: &[(&str, &str)] = &[
    ("0x01 infer", "4f465752080001001600000001000000740201000000020000000000003f000080bfae323964"),
    (
        "0x02 learn",
        "4f465752080002002a00000001000000740202000000010000000000803e0000004002000000030000000000\
         00000900000000000000db5d578d",
    ),
    ("0x03 snapshot", "4f465752080003000500000001000000743ae1441d"),
    ("0x04 stats", "4f4657520800040005000000010000007403fbd368"),
    ("0x05 top-up", "4f465752080005000d0000000100000074000000000080294051157ded"),
    ("0x06 subscribe", "4f46575208000600050000000100000074f9ab3516"),
    ("0x07 export", "4f465752080007000500000001000000744e7ac7c4"),
    (
        "0x08 import",
        "4f46575208000800640000000100000074030000000000000002000000dead000000000000f83f0100000000\
         0000204001000000000000000200000000000000030000000000000004000000000000000500000000000000\
         060000000000000007000000000000000800000000000000e8e916cf",
    ),
    ("0x09 re-anchor", "4f465752080009000500000001000000746c6c5cba"),
    (
        "0x0A obs query",
        "4f46575208000a002e00000001000000740a0000000000000014000000000000000100000000000000020000\
         0000000000010000000500000002d5745b69",
    ),
    ("0x0B advertise", "4f46575208000b000a000000010000007501000000662dc6a726"),
    (
        "0x0C obs subscribe",
        "4f46575208000c003f00000001000000740a0000000000000014000000000000000100000000000000020000\
         000000000001000000050000000201070000000000000008000000000000008a30ce27",
    ),
    ("0x41 prediction", "4f465752080041001400000004000000000000000000603f02000000000000001325c1a5"),
    (
        "0x42 learned",
        "4f465752080042001c000000020000000100000000000000050000000000000006000000000000009b2dc53e",
    ),
    ("0x43 snapshot", "4f4657520800430007000000030000000102039e769441"),
    (
        "0x44 stats",
        "4f46575208004400770000000100000074020000000000000003000000000000000400000000000000050000\
         000000000006000000000000000700000000000000080000000000000009000000000000000a000000000000\
         00000000000000f43f00010b000000000000000c000000000000000d000000000000000e000000000000008d\
         183e5a",
    ),
    ("0x45 budget", "4f46575208004500110000000000000000000c4001000000000000e03f11abb0ac"),
    ("0x46 error", "4f46575208004600160000000201000000740000000000000040000000000000d03f2d998b42"),
    (
        "0x47 export",
        "4f46575208004700640000000100000074030000000000000002000000dead000000000000f83f0100000000\
         0000204001000000000000000200000000000000030000000000000004000000000000000500000000000000\
         060000000000000007000000000000000800000000000000abd3e9b2",
    ),
    ("0x48 imported", "4f46575208004800080000000400000000000000911f20fd"),
    (
        "0x49 obs",
        "4f4657520800490031020000010000000100000074010200000000000000ea03000000000000000000000000\
         e03f78000000000000000000403f40000000000000000100000000000000000000000000e03f000000000000\
         e03f000000000000e03f01000000000000000000000000005e400000000000005e400000000000005e400100\
         000000000000000000000000e83f000000000000e83f000000000000e83f0100000000000000010900000000\
         0000000100000000000000020000000100000001000000008793030000000001000000740001000000000000\
         00000000000000e03f000000000000e03f000000000000e03f01000000000000000000000000005e40000000\
         0000005e400000000000005e400100000000000000000000000000e83f000000000000e83f000000000000e8\
         3f01000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
         0000000000000000000000000000000000000000000100000000000000000000000000000000000000000000\
         0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
         0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
         0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
         0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
         005146e0e5",
    ),
    ("0x4A advertised", "4f46575208004a00080000000200000000000000059ac968"),
    ("0x61 repl full", "4f465752080061000e0000000700000000000000020000000908b677ed65"),
    (
        "0x62 repl delta",
        "4f46575208006200280000000800000000000000030000000000000001000000020000000000000002000000\
         0000003f000080be12ce5e4e",
    ),
    (
        "0x63 tail batch",
        "4f46575208006300c900000001eb030000000000000300000000000000020000000000000001000000010000\
         0074000300000000000000eb03000000000000000000000000e03f78000000000000000000403f4000000000\
         0000000100000000879303000000000100000074000100000000000000000000000000e03f000000000000e0\
         3f000000000000e03f01000000000000000000000000005e400000000000005e400000000000005e40010000\
         0000000000000000000000e83f000000000000e83f000000000000e83f0100000000000000e967e4b0",
    ),
];

#[test]
fn every_message_kind_encodes_to_its_golden_frame() {
    assert_eq!(WIRE_VERSION, 8);
    let cases = cases();
    let mismatched: Vec<_> = cases
        .iter()
        .filter(|(name, bytes)| {
            GOLDEN.iter().find(|(golden, _)| golden == name).map(|(_, hex_bytes)| *hex_bytes)
                != Some(hex(bytes).as_str())
        })
        .collect();
    for (name, bytes) in &mismatched {
        println!("(\"{name}\", \"{}\"),", hex(bytes));
    }
    assert!(mismatched.is_empty(), "{} frames differ from the golden bytes", mismatched.len());
    assert_eq!(GOLDEN.len(), cases.len());
}
