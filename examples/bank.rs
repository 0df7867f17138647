//! A concurrent bank: transfers plus consistent auditing.
//!
//! The canonical STM demo the paper's introduction motivates: writers
//! transfer money between random accounts; auditors sum every account
//! *inside one transaction* and must always observe the invariant total —
//! which the OFTM's opacity (validated invisible reads) guarantees even
//! while transfers rage.
//!
//! Run with: `cargo run --example bank`

use oftm::core::WordStm;
use oftm::{run_transaction, Dstm, DstmWord, TVarId, TxResult};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const ACCOUNTS: usize = 32;
const INITIAL: u64 = 1_000;
const TRANSFERS_PER_THREAD: usize = 5_000;
const WRITERS: u32 = 4;
const AUDITORS: u32 = 2;

fn main() {
    let stm = DstmWord::new(Dstm::new(Arc::new(oftm::core::cm::Courteous)));
    let accounts: Vec<TVarId> = (0..ACCOUNTS).map(|_| stm.alloc_tvar(INITIAL)).collect();
    let expected_total = ACCOUNTS as u64 * INITIAL;
    let audits = AtomicU64::new(0);

    std::thread::scope(|s| {
        // Writers: move random amounts between random account pairs.
        for p in 0..WRITERS {
            let (stm, accounts) = (&stm, &accounts);
            s.spawn(move || {
                let mut seed = 0x9E37u64.wrapping_mul(u64::from(p) + 1);
                let mut rand = move || {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    seed
                };
                for _ in 0..TRANSFERS_PER_THREAD {
                    let from = (rand() as usize) % ACCOUNTS;
                    let to = (rand() as usize) % ACCOUNTS;
                    let amount = rand() % 50;
                    if from == to {
                        continue;
                    }
                    run_transaction(stm, p, |tx| -> TxResult<()> {
                        let f = tx.read(accounts[from])?;
                        if f >= amount {
                            let t = tx.read(accounts[to])?;
                            tx.write(accounts[from], f - amount)?;
                            tx.write(accounts[to], t + amount)?;
                        }
                        Ok(())
                    });
                }
            });
        }
        // Auditors: snapshot the whole bank transactionally.
        for p in WRITERS..WRITERS + AUDITORS {
            let (stm, accounts, audits) = (&stm, &accounts, &audits);
            s.spawn(move || {
                for _ in 0..200 {
                    let (total, _) = run_transaction(stm, p, |tx| {
                        let mut sum = 0u64;
                        for &a in accounts {
                            sum += tx.read(a)?;
                        }
                        Ok(sum)
                    });
                    assert_eq!(
                        total, expected_total,
                        "auditor observed a torn state — opacity violated!"
                    );
                    audits.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    let final_total: u64 = accounts.iter().filter_map(|&a| stm.peek(a)).sum();
    println!(
        "{} transfers across {} threads; {} consistent audits; final total = {} (expected {})",
        WRITERS as usize * TRANSFERS_PER_THREAD,
        WRITERS,
        audits.load(Ordering::Relaxed),
        final_total,
        expected_total
    );
    assert_eq!(final_total, expected_total);
    println!("invariant held under full concurrency — atomicity + opacity at work.");
}
