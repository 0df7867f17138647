//! Transactional collections: one implementation, every STM.
//!
//! The collections in `oftm-structs` are written once against the uniform
//! word-level interface and allocate their nodes dynamically
//! (`WordStm::alloc_tvar_block`), so the *same* sorted-list set, hash map
//! and FIFO queue run unchanged on the obstruction-free DSTM, the
//! lock-based baselines, and both Algorithm 2 configurations.
//!
//! Run with: `cargo run --example collections`

use oftm::core::api::WordStm;
use oftm::core::cm::Courteous;
use oftm::structs::atomically;
use oftm::{Dstm, DstmWord, TxHashMap, TxIntSet, TxQueue};
use std::sync::Arc;

fn make_stm(name: &str) -> Box<dyn WordStm> {
    match name {
        "dstm" => Box::new(DstmWord::new(Dstm::new(Arc::new(Courteous)))),
        "tl" => Box::new(oftm::baselines::TlStm::new()),
        "tl2" => Box::new(oftm::baselines::Tl2Stm::new()),
        "coarse" => Box::new(oftm::baselines::CoarseStm::new()),
        "algo2-cas" => Box::new(oftm::algo2::Algo2Stm::new(oftm::algo2::FocKind::Cas)),
        "algo2-splitter" => Box::new(oftm::algo2::Algo2Stm::new(
            oftm::algo2::FocKind::SplitterTas,
        )),
        other => panic!("unknown STM {other}"),
    }
}

fn main() {
    for name in ["dstm", "tl", "tl2", "coarse", "algo2-cas", "algo2-splitter"] {
        let stm = make_stm(name);

        // The paper's IntSet workload: 4 threads hammer a shared sorted
        // list with interleaved inserts, then half the values vanish.
        let set = TxIntSet::create(&*stm);
        std::thread::scope(|s| {
            for p in 0..4u32 {
                let stm = &stm;
                s.spawn(move || {
                    for i in 0..8u64 {
                        set.insert(&**stm, p, i * 4 + u64::from(p));
                    }
                });
            }
        });
        for v in 0..16u64 {
            set.remove(&*stm, 0, v * 2); // evens out
        }
        let snap = set.snapshot(&*stm, 0);
        assert_eq!(snap.len(), 16);
        assert!(snap.iter().all(|v| v % 2 == 1));
        assert!(snap.windows(2).all(|w| w[0] < w[1]));

        // A queue and a map, plus a composed transaction: move the front
        // queue element into the map atomically.
        let q = TxQueue::create(&*stm);
        let m = TxHashMap::create(&*stm, 8);
        q.enqueue(&*stm, 0, 7);
        q.enqueue(&*stm, 0, 8);
        atomically(&*stm, 0, |ctx| {
            let v = q.dequeue_in(ctx)?.expect("nonempty");
            m.put_in(ctx, v, v * 100)?;
            Ok(())
        });
        assert_eq!(q.snapshot(&*stm, 0), vec![8]);
        assert_eq!(m.get(&*stm, 0, 7), Some(700));

        println!("{name:>15}: set={snap:?} queue+map composition OK");
    }
    println!("\nAll six STMs ran the identical collection code.");
}
