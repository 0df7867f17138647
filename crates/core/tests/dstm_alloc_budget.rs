//! What DSTM allocates, as counts — a budget that reads the same on every
//! machine. A t-variable is one allocation until somebody writes it
//! (`T_0`'s value is inline, there is no locator to allocate); reads
//! allocate nothing, however many; a write allocates its locator and
//! nothing else — also when it unlinks one that must wait for a peer.
//!
//! The counter is per thread and a reclamation domain is per instance,
//! so nothing a sibling test does shows up in these counts.

use oftm_core::api::WordStm;
use oftm_core::dstm::{Dstm, DstmWord};
use oftm_histories::TVarId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Blocks this thread has asked the allocator for.
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is passed to `System` unchanged; the only addition
// is a thread-local count, which neither allocates nor has a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Blocks allocated by this thread while `f` ran.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATED.with(Cell::get);
    f();
    ALLOCATED.with(Cell::get) - before
}

const WARM_UP: usize = 64;

fn dstm() -> DstmWord {
    DstmWord::new(Dstm::default())
}

fn id(base: TVarId, k: usize) -> TVarId {
    TVarId(base.0 + k as u64)
}

#[test]
fn a_fresh_block_allocates_its_states_and_no_locator() {
    let s = dstm();
    // The first block materialises the table's page.
    s.alloc_tvar_block(&[0; 4]);
    for _ in 0..WARM_UP {
        let allocated = allocations(|| {
            s.alloc_tvar_block(&[0; 4]);
        });
        assert_eq!(allocated, 4, "four states");
    }
}

/// A declared read-only transaction reading `n` variables from `base`.
fn ro_scan(s: &DstmWord, base: TVarId, n: usize) {
    let mut tx = s.begin_ro(0);
    for k in 0..n {
        assert_eq!(tx.read(id(base, k)), Ok(k as u64));
    }
    tx.try_commit().expect("uncontended");
}

#[test]
fn a_declared_read_only_scan_allocates_what_an_empty_transaction_does() {
    let s = dstm();
    let initials: Vec<u64> = (0..64).collect();
    let base = s.alloc_tvar_block(&initials);
    // Half the variables carry a committed locator, half are `T_0`'s.
    for k in (0..64).step_by(2) {
        let mut tx = s.begin(0);
        tx.write(id(base, k), k as u64).expect("uncontended");
        tx.try_commit().expect("uncontended");
    }
    for _ in 0..WARM_UP {
        ro_scan(&s, base, 64);
    }
    for _ in 0..WARM_UP {
        let empty = allocations(|| ro_scan(&s, base, 0));
        assert_eq!(allocations(|| ro_scan(&s, base, 64)), empty);
    }
}

#[test]
fn a_write_allocates_one_locator_more_than_a_read() {
    // Each transaction works on a variable nobody wrote before, so no
    // locator is displaced (the next test displaces one).
    let s = dstm();
    let commit_one = |write: bool| {
        let x = s.alloc_tvar_block(&[0]);
        allocations(|| {
            let mut tx = s.begin(0);
            if write {
                tx.write(x, 1).expect("uncontended");
            } else {
                assert_eq!(tx.read(x), Ok(0));
            }
            tx.try_commit().expect("uncontended");
        })
    };
    for _ in 0..WARM_UP {
        commit_one(false);
        commit_one(true);
    }
    for _ in 0..WARM_UP {
        assert_eq!(commit_one(true), commit_one(false) + 1);
    }
}

#[test]
fn a_displacing_write_allocates_its_locator_and_nothing_else() {
    // Every write below unlinks the locator the previous one installed,
    // under a peer that predates the unlink: it waits in the writer's
    // bag, which keeps its capacity from one transaction to the next.
    let s = dstm();
    let x = s.alloc_tvar_block(&[0]);
    let commit_one = |write: bool| {
        let peer = s.begin_ro(1);
        let allocated = allocations(|| {
            let mut tx = s.begin(0);
            if write {
                tx.write(x, 1).expect("uncontended");
            } else {
                assert_eq!(tx.read(x), Ok(1));
            }
            tx.try_commit().expect("uncontended");
        });
        peer.try_commit().expect("read nothing");
        allocated
    };
    for _ in 0..WARM_UP {
        commit_one(true);
        commit_one(false);
    }
    for _ in 0..WARM_UP {
        assert_eq!(commit_one(true), commit_one(false) + 1);
    }
}
