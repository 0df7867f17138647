//! IntSet: the sorted linked-list set from the DSTM paper [18], the
//! original OFTM benchmark workload, as `oftm-structs` provides it.
//!
//! Each list node is a block of word t-variables `[value, next]` whose
//! `next` holds the successor's id, so structural updates (insert/remove)
//! are transactions over the two or three nodes they touch — fine-grained
//! concurrency with coarse-grained reasoning, and a showcase for
//! transactions over linked shared data rather than flat words.
//!
//! Run with: `cargo run --example intset`

use oftm::core::cm::Courteous;
use oftm::{Dstm, DstmWord, TxIntSet};
use std::sync::Arc;

fn main() {
    let stm = DstmWord::new(Dstm::new(Arc::new(Courteous)));
    let set = TxIntSet::create(&stm);

    // Sequential sanity.
    assert!(set.insert(&stm, 0, 5));
    assert!(set.insert(&stm, 0, 1));
    assert!(set.insert(&stm, 0, 3));
    assert!(!set.insert(&stm, 0, 3));
    assert_eq!(set.snapshot(&stm, 0), vec![1, 3, 5]);
    assert!(set.remove(&stm, 0, 3));
    assert!(!set.remove(&stm, 0, 3));
    assert!(set.contains(&stm, 0, 5) && !set.contains(&stm, 0, 3));
    println!("sequential ops ok: {:?}", set.snapshot(&stm, 0));

    // Concurrent mixed workload: each thread owns a residue class, so the
    // final content is predictable while operations physically interleave
    // on shared nodes.
    const THREADS: u32 = 4;
    const RANGE: u64 = 200;
    std::thread::scope(|s| {
        for p in 0..THREADS {
            let (stm, set) = (&stm, &set);
            s.spawn(move || {
                // Insert all of my residue class, then delete the half that
                // is ≡ p (mod 2·THREADS).
                for v in (0..RANGE).filter(|v| v % u64::from(THREADS) == u64::from(p)) {
                    set.insert(stm, p, v);
                }
                for v in (0..RANGE).filter(|v| v % (2 * u64::from(THREADS)) == u64::from(p)) {
                    set.remove(stm, p, v);
                }
            });
        }
    });

    let snap = set.snapshot(&stm, 0);
    let expected: Vec<u64> = (0..RANGE)
        .filter(|v| {
            let t = v % u64::from(THREADS);
            v % (2 * u64::from(THREADS)) != t
        })
        .collect();
    assert_eq!(snap, expected);
    assert!(snap.windows(2).all(|w| w[0] < w[1]), "set stays sorted");
    println!(
        "concurrent IntSet: {} elements after {} threads of insert/remove — sorted and exact.",
        snap.len(),
        THREADS
    );
}
