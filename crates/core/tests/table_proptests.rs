//! Property tests for the paged-slab [`VarTable`]: seeded random tapes of
//! interleaved static inserts, block allocations, frees and lookups,
//! replayed against a model `HashMap` — the slab must agree op-for-op on
//! presence, values, the live count and the freed metric, and a freed id
//! must keep producing the uniform `get_ref_or_panic_in` diagnostic.
//!
//! A failing case prints `PROPTEST_SEED=…` for exact replay (the shim has
//! no shrinking; seeds replay instead).

use oftm_core::table::{VarTable, DYNAMIC_TVAR_BASE};
use oftm_histories::TVarId;
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Slab ≡ model HashMap under any interleaving of static insert,
    /// block alloc, block free and point remove.
    #[test]
    fn slab_matches_model(ops in proptest::collection::vec((0u8..5, 0u64..24, 1u64..5), 0..64)) {
        let table: VarTable<u64> = VarTable::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        // Blocks allocated so far, as (base, len, freed_already).
        let mut blocks: Vec<(u64, usize, bool)> = Vec::new();
        let mut freed_expected = 0u64;

        for &(op, a, b) in &ops {
            match op {
                // Static insert (replace allowed).
                0 => {
                    table.insert(TVarId(a), a * 1000 + b);
                    model.insert(a, a * 1000 + b);
                }
                // Block allocation of len b.
                1 => {
                    let initials: Vec<u64> = (0..b).map(|k| a + k).collect();
                    let base = table.alloc_block(&initials, |_, v| v);
                    prop_assert!(base.0 >= DYNAMIC_TVAR_BASE);
                    for (k, &init) in initials.iter().enumerate() {
                        prop_assert!(
                            model.insert(base.0 + k as u64, init).is_none(),
                            "allocator reused an id"
                        );
                    }
                    blocks.push((base.0, initials.len(), false));
                }
                // Free a previously allocated block (idempotent on repeat).
                2 => {
                    if !blocks.is_empty() {
                        let i = (a as usize) % blocks.len();
                        let (base, len, already) = blocks[i];
                        table.remove_block(TVarId(base), len);
                        if !already {
                            for k in 0..len {
                                prop_assert!(model.remove(&(base + k as u64)).is_some());
                            }
                            freed_expected += len as u64;
                        }
                        blocks[i].2 = true;
                    }
                }
                // Point remove of a static id.
                3 => {
                    let was = table.remove(TVarId(a));
                    prop_assert_eq!(was, model.remove(&a).is_some(), "remove({}) presence", a);
                    if was {
                        freed_expected += 1;
                    }
                }
                // Lookup of a static id.
                _ => {
                    let got = table.get(TVarId(a));
                    prop_assert_eq!(got, model.get(&a).copied(), "get({})", a);
                }
            }
            prop_assert_eq!(table.len(), model.len(), "live count diverged");
            prop_assert_eq!(table.freed(), freed_expected, "freed metric diverged");
        }

        // Every model entry resolves; every freed block misses — and via
        // the uniform diagnostic.
        let pin = table.domain().begin();
        for (&k, &v) in &model {
            prop_assert_eq!(*table.get_ref_or_panic_in(TVarId(k), &pin), v);
        }
        for &(base, len, freed) in &blocks {
            if freed {
                for k in 0..len {
                    let id = TVarId(base + k as u64);
                    prop_assert!(table.get(id).is_none(), "freed id {} still resolves", id.0);
                    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        *table.get_ref_or_panic_in(id, &pin)
                    }))
                    .expect_err("freed id must panic");
                    let msg = panic
                        .downcast_ref::<String>()
                        .cloned()
                        .unwrap_or_default();
                    prop_assert!(
                        msg.contains("not registered"),
                        "freed-id diagnostic wrong: {msg:?}"
                    );
                }
            }
        }
    }
}
