//! What the hybrid's TL2 mode may allocate, as counts — a budget that
//! reads the same on every machine. A transaction on `HybridStm` costs
//! what it costs on `Tl2Stm` plus the wrapper's `Box`; an allocation costs
//! exactly what TL2 charges, because no mirror is built while TL2 runs.
//!
//! The counter is per thread and a reclamation domain is per instance
//! (whoever pushes to its bins when they have to grow pays for that), so
//! nothing a sibling test does shows up in these counts.

use oftm_baselines::Tl2Stm;
use oftm_core::api::WordStm;
use oftm_histories::TVarId;
use oftm_hybrid::{HybridConfig, HybridStm, WINDOW};
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

const X: TVarId = TVarId(0);
const WARM_UP: u64 = 64;

/// One committed transaction reading and writing `X`.
fn rw1(stm: &dyn WordStm) {
    let mut tx = stm.begin(0);
    let v = tx.read(X).expect("uncontended");
    tx.write(X, v + 1).expect("uncontended");
    tx.try_commit().expect("uncontended");
}

/// `alloc_tvar_block(&[0; 3])`, then a commit that unlinks and retires the
/// block allocated the time before. Returns the allocations of each step.
fn alloc_then_retire(stm: &dyn WordStm, previous: &mut TVarId) -> (u64, u64) {
    let mut fresh = TVarId(0);
    let allocating = allocations(|| fresh = stm.alloc_tvar_block(&[0; 3]));
    let retiring = allocations(|| {
        let mut tx = stm.begin(0);
        tx.write(X, fresh.0).expect("uncontended");
        tx.retire_tvar_block(*previous, 3);
        tx.try_commit().expect("uncontended");
    });
    *previous = fresh;
    (allocating, retiring)
}

#[test]
fn tl2_mode_allocates_what_tl2_does_plus_the_wrapper() {
    a_transaction_costs_one_box_more_than_on_tl2();
    an_allocation_and_its_retirement_cost_what_tl2_charges();
}

fn a_transaction_costs_one_box_more_than_on_tl2() {
    let tl2 = Tl2Stm::new();
    let hybrid = HybridStm::new(HybridConfig::default());
    for stm in [&tl2 as &dyn WordStm, &hybrid] {
        stm.register_tvar(X, 0);
        (0..WARM_UP).for_each(|_| rw1(stm));
    }
    // Long enough to cross begin-batch boundaries and close controller
    // windows. The begin that closes a window takes a statistics snapshot,
    // which allocates: that one is outside the budget, every other is in.
    const MEASURED: u64 = 1_100;
    let over_budget = (0..MEASURED)
        .filter(|_| {
            let on_tl2 = allocations(|| rw1(&tl2));
            let on_hybrid = allocations(|| rw1(&hybrid));
            on_hybrid > on_tl2 + 1
        })
        .count() as u64;
    let windows_closed = MEASURED / WINDOW + 1;
    assert!(
        over_budget <= windows_closed,
        "{over_budget} of {MEASURED} transactions allocated more than tl2's blocks plus one"
    );
}

fn an_allocation_and_its_retirement_cost_what_tl2_charges() {
    let tl2 = Tl2Stm::new();
    let hybrid = HybridStm::new(HybridConfig::default());
    let mut previous = [TVarId(0); 2];
    for (stm, previous) in [&tl2 as &dyn WordStm, &hybrid]
        .into_iter()
        .zip(&mut previous)
    {
        stm.register_tvar(X, 0);
        *previous = stm.alloc_tvar_block(&[0; 3]);
        for _ in 0..WARM_UP {
            alloc_then_retire(stm, previous);
        }
    }
    for _ in 0..256 {
        let on_tl2 = alloc_then_retire(&tl2, &mut previous[0]);
        let on_hybrid = alloc_then_retire(&hybrid, &mut previous[1]);
        assert_eq!(on_hybrid.0, on_tl2.0, "alloc_tvar_block(&[0; 3])");
        // The wrapper's `Box`, and nothing for a mirror that is not there.
        assert_eq!(on_hybrid.1, on_tl2.1 + 1, "the retiring transaction");
    }
}
