//! IntSet: the sorted linked-list set from the DSTM paper [18], the
//! original OFTM benchmark workload.
//!
//! Each list node lives behind a typed `TVar`, so structural updates
//! (insert/remove) are transactions over the two or three nodes they
//! touch — fine-grained concurrency with coarse-grained reasoning, and a
//! showcase for transactions over linked shared data rather than flat
//! words.
//!
//! Run with: `cargo run --example intset`

use oftm::{Dstm, TVar, TxResult};
use std::sync::Arc;

/// A link: a transactional pointer to the next node (None = tail).
type Link = TVar<Option<Arc<Node>>>;

struct Node {
    value: u64,
    next: Link,
}

/// A sorted set of u64 with transactional insert/remove/contains.
struct IntSet {
    stm: Arc<Dstm>,
    head: Link,
}

impl IntSet {
    fn new(stm: Arc<Dstm>) -> Self {
        let head = stm.new_tvar(None);
        IntSet { stm, head }
    }

    /// Finds, inside transaction `tx`, the link after which `v` belongs
    /// (the first link whose successor is ≥ v or tail).
    fn locate(&self, tx: &mut oftm::Tx<'_>, v: u64) -> TxResult<(Link, Option<Arc<Node>>)> {
        let mut link = self.head.clone();
        loop {
            let next = tx.read(&link)?;
            match next {
                Some(ref n) if n.value < v => {
                    let follow = n.next.clone();
                    link = follow;
                }
                _ => return Ok((link, next)),
            }
        }
    }

    /// Inserts `v`; returns false if already present.
    fn insert(&self, proc: u32, v: u64) -> bool {
        self.stm.atomically(proc, |tx| {
            let (link, next) = self.locate(tx, v)?;
            if let Some(ref n) = next {
                if n.value == v {
                    return Ok(false);
                }
            }
            let node = Arc::new(Node {
                value: v,
                next: self.stm.new_tvar(next.clone()),
            });
            tx.write(&link, Some(node))?;
            Ok(true)
        })
    }

    /// Removes `v`; returns false if absent.
    fn remove(&self, proc: u32, v: u64) -> bool {
        self.stm.atomically(proc, |tx| {
            let (link, next) = self.locate(tx, v)?;
            match next {
                Some(ref n) if n.value == v => {
                    let after = tx.read(&n.next)?;
                    tx.write(&link, after)?;
                    Ok(true)
                }
                _ => Ok(false),
            }
        })
    }

    /// Membership test.
    fn contains(&self, proc: u32, v: u64) -> bool {
        self.stm.atomically(proc, |tx| {
            let (_, next) = self.locate(tx, v)?;
            Ok(matches!(next, Some(ref n) if n.value == v))
        })
    }

    /// Transactional snapshot of the whole set (sorted).
    fn snapshot(&self, proc: u32) -> Vec<u64> {
        self.stm.atomically(proc, |tx| {
            let mut out = Vec::new();
            let mut link = self.head.clone();
            loop {
                match tx.read(&link)? {
                    Some(n) => {
                        out.push(n.value);
                        let follow = n.next.clone();
                        link = follow;
                    }
                    None => return Ok(out),
                }
            }
        })
    }
}

fn main() {
    let stm = Arc::new(Dstm::new(Arc::new(oftm::core::cm::Courteous)));
    let set = Arc::new(IntSet::new(Arc::clone(&stm)));

    // Sequential sanity.
    assert!(set.insert(0, 5));
    assert!(set.insert(0, 1));
    assert!(set.insert(0, 3));
    assert!(!set.insert(0, 3));
    assert_eq!(set.snapshot(0), vec![1, 3, 5]);
    assert!(set.remove(0, 3));
    assert!(!set.remove(0, 3));
    assert!(set.contains(0, 5) && !set.contains(0, 3));
    println!("sequential ops ok: {:?}", set.snapshot(0));

    // Concurrent mixed workload: each thread owns a residue class, so the
    // final content is predictable while operations physically interleave
    // on shared nodes.
    const THREADS: u32 = 4;
    const RANGE: u64 = 200;
    std::thread::scope(|s| {
        for p in 0..THREADS {
            let set = Arc::clone(&set);
            s.spawn(move || {
                // Insert all of my residue class, then delete the half that
                // is ≡ p (mod 2·THREADS).
                for v in (0..RANGE).filter(|v| v % u64::from(THREADS) == u64::from(p)) {
                    set.insert(p, v);
                }
                for v in (0..RANGE).filter(|v| v % (2 * u64::from(THREADS)) == u64::from(p)) {
                    set.remove(p, v);
                }
            });
        }
    });

    let snap = set.snapshot(0);
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
