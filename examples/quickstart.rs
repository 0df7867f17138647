//! Quickstart: the transactional API in five minutes.
//!
//! Run with: `cargo run --example quickstart`

use oftm::core::WordStm;
use oftm::{run_transaction, Dstm, DstmWord, TxResult};

fn main() {
    // An STM instance with the default (Aggressive) contention manager,
    // behind its word-level front end.
    let stm = DstmWord::new(Dstm::default());

    // T-variables: shared, transactional words, named by their ids.
    let counter = stm.alloc_tvar(0);
    let log_len = stm.alloc_tvar(0);

    // A transaction: read/write any number of t-variables; the closure
    // reruns automatically if the transaction is forcefully aborted.
    run_transaction(&stm, 0, |tx| -> TxResult<()> {
        let c = tx.read(counter)?;
        tx.write(counter, c + 1)?;
        let l = tx.read(log_len)?;
        tx.write(log_len, l + 1)
    });
    let peek = |x| stm.peek(x).expect("allocated");
    println!("after one transaction: counter = {}", peek(counter));

    // Concurrency: transactions from many threads compose safely.
    std::thread::scope(|s| {
        for p in 0..4u32 {
            let stm = &stm;
            s.spawn(move || {
                for _ in 0..1000 {
                    run_transaction(stm, p, |tx| {
                        let c = tx.read(counter)?;
                        tx.write(counter, c + 1)?;
                        let l = tx.read(log_len)?;
                        tx.write(log_len, l + 1)
                    });
                }
            });
        }
    });
    assert_eq!(peek(counter), 4001);
    assert_eq!(peek(log_len), 4001);
    println!(
        "after 4 threads × 1000 transactions: counter = {}, log_len = {} (always equal: atomicity)",
        peek(counter),
        peek(log_len)
    );

    // The paper's operations by hand: `read`, `write`, then `tryC` — or
    // `tryA`, which discards every write of the transaction.
    let mut tx = stm.begin(0);
    let c = tx.read(counter).expect("no peer to abort us");
    tx.write(counter, c + 1).expect("no peer to abort us");
    tx.try_abort();
    assert_eq!(peek(counter), 4001);
    println!("tryA discarded the write: counter = {}", peek(counter));
}
