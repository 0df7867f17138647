//! Property-based tests (proptest) over the formal checkers and the
//! threaded DSTM.

use oftm_histories::{
    final_state_opaque, serializable, History, HistoryBuilder, OpacityCheck, SerCheck, TVarId, TxId,
};
use proptest::prelude::*;

/// A random *sequential legal* history: transactions run one after the
/// other; reads return exactly what replay dictates. By construction such
/// a history is serializable AND opaque — the checkers must accept.
fn sequential_legal_history(ops: Vec<(u8, u8, u64, bool)>) -> History {
    let mut b = HistoryBuilder::new();
    let mut state = std::collections::BTreeMap::new();
    for (chunk, ops) in ops.chunks(3).enumerate() {
        let tx = TxId::new((chunk % 3) as u32, chunk as u32);
        let mut local = std::collections::BTreeMap::new();
        for &(var, _p, val, is_write) in ops {
            let x = TVarId(u64::from(var % 4));
            if is_write {
                local.insert(x, val % 100 + 1);
                b.write(tx, x, val % 100 + 1);
            } else {
                let cur = local
                    .get(&x)
                    .or_else(|| state.get(&x))
                    .copied()
                    .unwrap_or(0);
                b.read(tx, x, cur);
            }
        }
        for (x, v) in local {
            state.insert(x, v);
        }
        b.commit(tx);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sequential legal histories are accepted by both checkers.
    #[test]
    fn sequential_legal_accepted(ops in proptest::collection::vec(
        (0u8..4, 0u8..3, 0u64..100, any::<bool>()), 0..18))
    {
        let h = sequential_legal_history(ops);
        prop_assert!(serializable(&h, 12).is_serializable());
        prop_assert!(final_state_opaque(&h, 12).is_opaque());
    }

    /// Opacity implies serializability (on arbitrary generated histories,
    /// whenever both checkers give definite answers).
    #[test]
    fn opacity_implies_serializability(ops in proptest::collection::vec(
        (0u8..3, 0u8..3, 0u64..8, any::<bool>()), 0..15))
    {
        // Build a possibly-ill-formed concurrent history by interleaving
        // complete operations from three "transactions".
        let mut b = HistoryBuilder::new();
        let txs = [TxId::new(0, 0), TxId::new(1, 0), TxId::new(2, 0)];
        let mut committed = [false; 3];
        for &(var, p, val, is_write) in &ops {
            let i = (p % 3) as usize;
            if committed[i] { continue; }
            let x = TVarId(u64::from(var % 3));
            if is_write {
                b.write(txs[i], x, val);
            } else {
                b.read(txs[i], x, val);
            }
        }
        for (i, tx) in txs.iter().enumerate() {
            if !committed[i] {
                b.commit(*tx);
                committed[i] = true;
            }
        }
        let h = b.build();
        let op = final_state_opaque(&h, 12);
        let ser = serializable(&h, 12);
        if matches!(op, OpacityCheck::Opaque { .. }) {
            prop_assert!(
                !matches!(ser, SerCheck::NotSerializable),
                "opaque history rejected by serializability"
            );
        }
    }

    /// The threaded DSTM under random transfer workloads conserves totals
    /// and produces conflict-serializable instrumented histories.
    #[test]
    fn dstm_random_transfers_safe(seeds in proptest::collection::vec(any::<u64>(), 1..4)) {
        use oftm::core::api::run_transaction;
        use oftm::core::api::WordStm;
        let rec = std::sync::Arc::new(oftm::Recorder::new());
        let stm = oftm::DstmWord::new(
            oftm::Dstm::new(std::sync::Arc::new(oftm::core::cm::Courteous))
                .with_recorder(std::sync::Arc::clone(&rec)),
        );
        const N: u64 = 4;
        for v in 0..N {
            stm.register_tvar(TVarId(v), 100);
        }
        std::thread::scope(|s| {
            for (i, &seed) in seeds.iter().enumerate() {
                let stm = &stm;
                s.spawn(move || {
                    let mut x = seed | 1;
                    for _ in 0..10 {
                        x ^= x << 13; x ^= x >> 7; x ^= x << 17;
                        let from = TVarId(x % N);
                        let to = TVarId((x >> 8) % N);
                        run_transaction(stm, i as u32, |tx| {
                            let f = tx.read(from)?;
                            if from != to && f >= 3 {
                                let t = tx.read(to)?;
                                tx.write(from, f - 3)?;
                                tx.write(to, t + 3)?;
                            }
                            Ok(())
                        });
                    }
                });
            }
        });
        let total: u64 = (0..N).map(|v| stm.peek(TVarId(v)).unwrap()).sum();
        prop_assert_eq!(total, 100 * N);
        prop_assert!(oftm_histories::conflict_serializable(&rec.snapshot()));
    }

    /// fo-consensus stress: agreement and validity for any thread count —
    /// over the splitter/TAS implementation.
    #[test]
    fn splitter_foc_agreement(n in 1u32..6) {
        use oftm::foc::{propose_until_decided, SplitterFoc};
        let foc: SplitterFoc<u64> = SplitterFoc::new();
        let decisions = std::sync::Mutex::new(std::collections::BTreeSet::new());
        std::thread::scope(|s| {
            for p in 0..n {
                let foc = &foc;
                let decisions = &decisions;
                s.spawn(move || {
                    let (d, _) = propose_until_decided(foc, p, 40 + u64::from(p));
                    decisions.lock().unwrap().insert(d);
                });
            }
        });
        let d = decisions.into_inner().unwrap();
        prop_assert_eq!(d.len(), 1);
        let v = *d.iter().next().unwrap();
        prop_assert!((40..40 + u64::from(n)).contains(&v));
    }
}
