//! Property-based tests for the WAL frame format: arbitrary batches
//! must round-trip losslessly, and arbitrary damage (suffix truncation,
//! single-byte flips) must recover exactly the longest valid prefix —
//! never a wrong or altered record.

use proptest::prelude::*;

use hcd_dynamic::EdgeUpdate;

use crate::wal::{encode_record, scan_wal, TailStatus, FRAME_HEADER_LEN};

/// Strategy: one arbitrary update batch over a small vertex universe.
fn arb_batch(max_len: usize) -> impl Strategy<Value = Vec<EdgeUpdate>> {
    prop::collection::vec((0..64u32, 0..64u32, any::<bool>()), 0..max_len).prop_map(|raw| {
        raw.into_iter()
            .map(|(u, v, insert)| {
                if insert {
                    EdgeUpdate::Insert(u, v)
                } else {
                    EdgeUpdate::Remove(u, v)
                }
            })
            .collect()
    })
}

/// Strategy: a whole log as a batch sequence (records get seqs `1..`).
fn arb_batches(
    min_batches: usize,
    max_batches: usize,
) -> impl Strategy<Value = Vec<Vec<EdgeUpdate>>> {
    prop::collection::vec(arb_batch(10), min_batches..max_batches)
}

/// Concatenated frames plus the frame-boundary offsets
/// (`boundaries[i]` = start of record `i`, last entry = total length).
fn build_log(batches: &[Vec<EdgeUpdate>]) -> (Vec<u8>, Vec<usize>) {
    let mut log = Vec::new();
    let mut boundaries = vec![0usize];
    for (i, updates) in batches.iter().enumerate() {
        log.extend_from_slice(&encode_record(i as u64 + 1, updates));
        boundaries.push(log.len());
    }
    (log, boundaries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_batches_round_trip_through_the_log(batches in arb_batches(0, 8)) {
        let (log, boundaries) = build_log(&batches);
        let scan = scan_wal(&log);
        prop_assert_eq!(&scan.tail, &TailStatus::Clean);
        prop_assert_eq!(scan.records.len(), batches.len());
        for (i, r) in scan.records.iter().enumerate() {
            prop_assert_eq!(r.seq, i as u64 + 1);
            prop_assert_eq!(&r.updates, &batches[i]);
            prop_assert_eq!(r.end_offset as usize, boundaries[i + 1]);
        }
        prop_assert_eq!(scan.valid_len() as usize, log.len());
    }

    #[test]
    fn truncating_any_suffix_recovers_exactly_the_longest_valid_prefix(
        batches in arb_batches(1, 7),
        cut_sel in any::<u64>(),
    ) {
        let (log, boundaries) = build_log(&batches);
        let cut = (cut_sel % (log.len() as u64 + 1)) as usize;
        let scan = scan_wal(&log[..cut]);
        // The records that survive are exactly the ones whose frames lie
        // fully inside the kept bytes — nothing more, nothing altered.
        let full = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
        prop_assert_eq!(scan.records.len(), full);
        for (i, r) in scan.records.iter().enumerate() {
            prop_assert_eq!(r.seq, i as u64 + 1);
            prop_assert_eq!(&r.updates, &batches[i]);
        }
        prop_assert_eq!(scan.valid_len() as usize, boundaries[full]);
        if cut == boundaries[full] {
            prop_assert_eq!(&scan.tail, &TailStatus::Clean);
        } else {
            prop_assert_eq!(
                &scan.tail,
                &TailStatus::TornTail {
                    valid_len: boundaries[full] as u64,
                    torn_bytes: (cut - boundaries[full]) as u64,
                }
            );
        }
    }

    #[test]
    fn flipping_any_byte_never_yields_a_wrong_record(
        batches in arb_batches(1, 7),
        pos_sel in any::<u64>(),
        xor in 1..256u32,
    ) {
        let (mut log, boundaries) = build_log(&batches);
        let pos = (pos_sel % log.len() as u64) as usize;
        log[pos] ^= xor as u8;
        // Which record's frame holds the flipped byte?
        let hit = boundaries.iter().filter(|&&b| b > 0 && b <= pos).count();
        let scan = scan_wal(&log);
        // Everything before the damaged frame survives verbatim;
        // the damaged frame and everything after it never decode.
        prop_assert_eq!(scan.records.len(), hit, "tail: {:?}", scan.tail);
        for (i, r) in scan.records.iter().enumerate() {
            prop_assert_eq!(r.seq, i as u64 + 1);
            prop_assert_eq!(&r.updates, &batches[i]);
        }
        // A flip in the length field reads as a torn tail (unverifiable
        // framing); a flip under the checksum reads as corruption. Both
        // stop the scan at the damaged frame — `Clean` is impossible.
        let in_len_field = pos - boundaries[hit] < FRAME_HEADER_LEN / 2;
        match &scan.tail {
            TailStatus::TornTail { valid_len, .. } => {
                prop_assert!(in_len_field, "torn tail from a non-length flip at {pos}");
                prop_assert_eq!(*valid_len as usize, boundaries[hit]);
            }
            TailStatus::Corrupt { offset, .. } => {
                prop_assert_eq!(*offset as usize, boundaries[hit]);
            }
            TailStatus::Clean => prop_assert!(false, "flip at {pos} went unnoticed"),
        }
    }
}

// --- admission-control properties -------------------------------------
//
// Shedding must be boring: a pure function of the config under a
// sequential executor (so CI can assert exact shed counts), and a
// rejected request must leave zero footprint — no WAL append, no query
// counter, no queue mutation — because admission runs before any work.

mod admission_props {
    use super::*;
    use crate::admission::{AdmissionConfig, Rejected};
    use crate::ingress::IngressQueue;
    use crate::openloop::{run_open_loop, OpenLoopConfig};
    use crate::service::{DurabilityConfig, HcdService, Query};
    use hcd_graph::GraphBuilder;
    use hcd_par::Executor;
    use std::collections::BTreeMap;

    fn seed_graph() -> hcd_graph::CsrGraph {
        GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 0), (2, 3)])
            .build()
    }

    fn counter_map(exec: &Executor) -> BTreeMap<&'static str, u64> {
        exec.take_metrics()
            .counters
            .iter()
            .map(|c| (c.name, c.value))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // The same open-loop config, run twice from scratch under
        // sequential executors, makes identical shed decisions with
        // identical accounting and identical counters — no drift.
        // (Deadlines are restricted to the two deterministic regimes,
        // `None` and already-expired `Some(0)`; anything in between
        // races the wall clock by design.)
        #[test]
        fn shed_decisions_are_deterministic_under_seq(
            seed in any::<u64>(),
            offered_qps in 1..50_000u64,
            ticks in 1..60u64,
            drain_batch in 1..16usize,
            watermark in 1..64usize,
            zero_deadline in any::<bool>(),
            hot in 0..101u32,
        ) {
            let cfg = OpenLoopConfig {
                seed,
                offered_qps,
                ticks,
                drain_batch,
                watermark,
                deadline_ms: if zero_deadline { Some(0) } else { None },
                update_every: 7,
                universe: 16,
                hot_fraction: f64::from(hot) / 100.0,
            };
            let mut outcomes = Vec::new();
            for _ in 0..2 {
                let exec = Executor::sequential().with_metrics();
                let svc = HcdService::try_new(&seed_graph(), &exec).unwrap();
                let ingress = IngressQueue::new(AdmissionConfig {
                    watermark,
                    default_deadline: None,
                });
                let s = run_open_loop(&svc, &ingress, &cfg, &exec).unwrap();
                outcomes.push((s, counter_map(&exec)));
            }
            prop_assert_eq!(&outcomes[0], &outcomes[1]);
            let (s, _) = &outcomes[0];
            // Every offered arrival is accounted for exactly once.
            prop_assert_eq!(s.offered, s.answered + s.shed());
            prop_assert!(s.max_depth <= watermark);
            if zero_deadline {
                prop_assert_eq!(s.answered, 0);
                prop_assert!(s.saturated());
                prop_assert_eq!(s.shed_fraction(), 1.0);
            }
        }

        // Overflowing a full queue is side-effect free: the rejection
        // is typed, the WAL does not grow, no query or enqueue counter
        // moves, and the queue itself is untouched.
        #[test]
        fn overload_rejection_is_typed_and_side_effect_free(
            extra in 1..32usize,
            watermark in 1..16usize,
            vsel in any::<u32>(),
        ) {
            let exec = Executor::sequential().with_metrics();
            let dir = crate::testutil::TempDir::new("admission-prop");
            let svc = HcdService::try_new_durable(
                &seed_graph(),
                &dir,
                DurabilityConfig::default(),
                &exec,
            )
            .unwrap();
            let _ = &svc; // admission must refuse before the service is touched
            let wal = dir.join(crate::WAL_FILE_NAME);
            let wal_len = std::fs::metadata(&wal).unwrap().len();
            let q = IngressQueue::new(AdmissionConfig {
                watermark,
                default_deadline: None,
            });
            for _ in 0..watermark {
                q.try_enqueue(Query::InKCore(0, 1), None, &exec).unwrap();
            }
            exec.take_metrics(); // isolate the overflow's footprint
            for i in 0..extra {
                let v = vsel.wrapping_add(i as u32) % 8;
                let err = q
                    .try_enqueue(Query::CoreContaining(v, 1), None, &exec)
                    .unwrap_err();
                prop_assert_eq!(err, Rejected::Overloaded { depth: watermark, watermark });
            }
            let counters = counter_map(&exec);
            prop_assert_eq!(
                counters.get("serve.shed.overloaded").copied(),
                Some(extra as u64)
            );
            prop_assert!(!counters.contains_key("serve.queries"));
            prop_assert!(!counters.contains_key("serve.ingress.enqueued"));
            prop_assert!(!counters.contains_key("serve.wal_appends"));
            prop_assert_eq!(std::fs::metadata(&wal).unwrap().len(), wal_len);
            prop_assert_eq!(q.depth(), watermark);
        }
    }
}
