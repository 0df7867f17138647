//! The single-thread cost ledger: direct calls into each layer's public
//! functions, timed in batches so the clock is read once per
//! [`BATCH`] calls.
//!
//! Rows take turns: the ledger makes [`PASSES`] passes over all of them
//! and a row's cost is the lower quartile over its batches of all passes
//! ([`lower_quartile`]), so a slow second of the machine costs every row
//! a few batches and none of them its reading. Every row is net of the instrument: the clock pair
//! around a batch and the cost of calling an empty closure through the
//! same loop are measured as rows of their own and subtracted. Rows do
//! not depend on the workload; a traced run records them once, before
//! the workload has touched the heap.

use crate::metrics::{
    BACKENDS, LEDGER_ONLY_BACKEND, LEDGER_SHARED_ROWS, LEDGER_TXN_ROWS, REFERENCE_BACKEND,
};
use crate::stats::lower_quartile;
use crate::workloads::make_backend;
use oftm::algo2::{Algo2Stm, FocKind};
use oftm::asyncrt::{run_transaction_async_budgeted, timer};
use oftm::core::api::{WordStm, WordTx};
use oftm::core::notify::{CommitNotifier, WaitSnapshot};
use oftm::core::pool::SlotPool;
use oftm::core::reclaim::{GraceTracker, RetiredBlock};
use oftm::core::run_transaction_with_budget;
use oftm::core::table::VarTable;
use oftm::histories::TVarId;
use oftm::obs::{pack_tx, AbortCause, Counter, StmStats, VarAttr};
use oftm::structs::atomically_budgeted;
use std::hint::black_box;
use std::sync::Arc;
use std::task::{Wake, Waker};
use std::time::{Duration, Instant};

/// Calls per clock pair. Slow rows (Algorithm 2) use fewer, so that a
/// batch stays near [`BATCH_TARGET`].
pub const BATCH: u64 = 1024;
const BATCH_TARGET: Duration = Duration::from_micros(500);

/// Turns each row gets (see module docs).
const PASSES: u32 = 8;

/// One kind of call and the batches timed so far.
struct Row {
    name: String,
    call: Box<dyn FnMut()>,
    /// Calls per batch, sized on a warm call.
    calls: u64,
    /// Batches the row may still run; rows whose calls leave something
    /// behind start with few.
    batches_left: usize,
    /// Nanoseconds per call of every batch, instrument included.
    per_call: Vec<f64>,
}

impl Row {
    fn new(name: String, batches_left: usize, mut call: Box<dyn FnMut()>) -> Row {
        call();
        call();
        let probe = Instant::now();
        call();
        let one = probe.elapsed().max(Duration::from_nanos(1));
        Row {
            name,
            call,
            calls: (BATCH_TARGET.as_nanos() / one.as_nanos()).clamp(1, u128::from(BATCH)) as u64,
            batches_left,
            per_call: Vec::new(),
        }
    }

    /// One turn: at least one batch, then more until `slice` is used up.
    fn turn(&mut self, slice: Duration) {
        let started = Instant::now();
        let mut first = true;
        while self.batches_left > 0 && (first || started.elapsed() < slice) {
            first = false;
            self.batches_left -= 1;
            let t0 = Instant::now();
            for _ in 0..self.calls {
                (self.call)();
            }
            self.per_call
                .push(t0.elapsed().as_nanos() as f64 / self.calls as f64);
        }
    }
}

/// The rows to measure, the instrument's own two first.
struct Ledger {
    rows: Vec<Row>,
}

const EMPTY_ROW: &str = "instrument: empty call";
const CLOCK_ROW: &str = "instrument: clock read";

impl Ledger {
    fn new() -> Ledger {
        let mut l = Ledger { rows: Vec::new() };
        l.add(EMPTY_ROW, || {
            black_box(());
        });
        l.add(CLOCK_ROW, || {
            black_box(Instant::now());
        });
        l
    }

    fn add(&mut self, name: impl Into<String>, call: impl FnMut() + 'static) {
        self.add_capped(name, usize::MAX, call);
    }

    fn add_capped(
        &mut self,
        name: impl Into<String>,
        max_batches: usize,
        call: impl FnMut() + 'static,
    ) {
        self.rows
            .push(Row::new(name.into(), max_batches, Box::new(call)));
    }

    /// Spends about `total` on the rows and returns each row's cost per
    /// call, net of the instrument.
    fn measure(mut self, total: Duration) -> Costs {
        let slice = total / (PASSES * self.rows.len() as u32);
        for _ in 0..PASSES {
            for row in &mut self.rows {
                row.turn(slice);
            }
        }
        let raw = |name: &str| {
            let row = self
                .rows
                .iter()
                .find(|r| r.name == name)
                .expect("instrument row");
            lower_quartile(&row.per_call)
        };
        let empty_ns = raw(EMPTY_ROW);
        // One `Instant::now()`: what the clock pair around a batch (or a
        // span) adds to the time it reads.
        let clock_ns = raw(CLOCK_ROW) - empty_ns;
        Costs {
            clock_ns,
            rows: self
                .rows
                .iter()
                .map(|r| {
                    (
                        r.name.clone(),
                        lower_quartile(&r.per_call) - clock_ns / r.calls as f64 - empty_ns,
                    )
                })
                .collect(),
        }
    }
}

struct Costs {
    clock_ns: f64,
    rows: Vec<(String, f64)>,
}

impl Costs {
    fn of(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    }
}

struct NoopWake;

impl Wake for NoopWake {
    fn wake(self: Arc<Self>) {}
}

/// The four begin→commit rows of one backend. Each row gets a fresh
/// instance: Algorithm 2's per-variable chains grow with every commit.
fn add_txn_rows(ledger: &mut Ledger, backend: &str, make: &dyn Fn() -> Arc<dyn WordStm>) {
    let fresh = || {
        let stm = make();
        let base = stm.alloc_tvar_block(&[0; 64]);
        (stm, base)
    };
    let [empty, ro1, rw1, ro64] = LEDGER_TXN_ROWS.map(|row| format!("{backend}.{row}"));
    let (stm, _) = fresh();
    ledger.add(empty, move || {
        stm.begin(0).try_commit().expect("solo transaction commits");
    });
    let (stm, base) = fresh();
    ledger.add(ro1, move || {
        let mut tx = stm.begin_ro(0);
        black_box(tx.read(base).expect("solo read"));
        tx.try_commit().expect("solo transaction commits");
    });
    let (stm, base) = fresh();
    ledger.add(rw1, move || {
        let mut tx = stm.begin(0);
        let v = tx.read(base).expect("solo read");
        tx.write(base, v + 1).expect("solo write");
        tx.try_commit().expect("solo transaction commits");
    });
    let (stm, base) = fresh();
    ledger.add(ro64, move || {
        let mut tx = stm.begin_ro(0);
        for k in 0..64 {
            black_box(tx.read(TVarId(base.0 + k)).expect("solo read"));
        }
        tx.try_commit().expect("solo transaction commits");
    });
}

/// Runs the whole ledger in about `total` and returns `(metric, ns)` for
/// every ledger metric of [`crate::metrics::per_layer`].
pub fn run(total: Duration) -> Vec<(String, f64)> {
    let mut ledger = Ledger::new();

    for backend in BACKENDS {
        add_txn_rows(&mut ledger, backend, &|| make_backend(backend));
    }
    add_txn_rows(&mut ledger, LEDGER_ONLY_BACKEND, &|| {
        Arc::new(Algo2Stm::new(FocKind::Cas))
    });

    // Retry loops: an empty body through each loop; the bare begin+commit
    // the loop wraps is subtracted below.
    const CORE_LOOP: &str = "empty body in run_transaction_with_budget";
    const CTX_LOOP: &str = "empty body in atomically_budgeted";
    let stm = make_backend(REFERENCE_BACKEND);
    ledger.add(CORE_LOOP, {
        let stm = Arc::clone(&stm);
        move || {
            black_box(
                run_transaction_with_budget(&*stm, 0, 1, |_| Ok(()))
                    .expect("solo transaction commits"),
            );
        }
    });
    ledger.add(CTX_LOOP, {
        let stm = Arc::clone(&stm);
        move || {
            black_box(
                atomically_budgeted(&*stm, 0, 1, |_| Ok(())).expect("solo transaction commits"),
            );
        }
    });

    let table: Arc<VarTable<u64>> = Arc::new(VarTable::new());
    let base = table.alloc_block(&[0; 4096], |_, init| init);
    let mut k = 0u64;
    ledger.add("core.table.get_ns", {
        let table = Arc::clone(&table);
        move || {
            k = (k + 1) & 4095;
            black_box(table.get(TVarId(base.0 + k)));
        }
    });
    ledger.add("core.table.alloc_free_ns", move || {
        let b = table.alloc_block(&[0, 0], |_, init| init);
        table.remove_block(b, 2);
    });

    let pool: SlotPool<Vec<u64>> = SlotPool::new();
    pool.put(0, Box::default());
    ledger.add("core.pool.take_put_ns", move || {
        let b = pool.take(0).expect("parked by the previous call");
        pool.put(0, b);
    });

    let grace = Arc::new(GraceTracker::new());
    ledger.add("core.reclaim.enter_exit_ns", {
        let grace = Arc::clone(&grace);
        move || drop(black_box(grace.begin()))
    });
    ledger.add("core.reclaim.retire_flush_ns", move || {
        let g = grace.begin();
        let block = RetiredBlock {
            base: TVarId(1 << 33),
            len: 2,
        };
        black_box(grace.retire_and_flush(g, vec![block]));
    });

    let notifier = Arc::new(CommitNotifier::new());
    let written = [TVarId(1 << 32), TVarId((1 << 32) + 1)];
    ledger.add("core.notify.publish_idle_ns", {
        let notifier = Arc::clone(&notifier);
        move || notifier.publish(written)
    });
    let waker = Waker::from(Arc::new(NoopWake));
    let mut snap = WaitSnapshot::new();
    ledger.add("core.notify.park_wake_ns", {
        let waker = waker.clone();
        move || {
            notifier.snapshot(written, &mut snap);
            black_box(notifier.park(&snap, &waker));
            notifier.publish(written);
        }
    });

    let stats = Arc::new(StmStats::new());
    ledger.add("obs.counter_incr_ns", {
        let stats = Arc::clone(&stats);
        move || stats.incr(Counter::Begins)
    });
    ledger.add("obs.record_attempt_ns", {
        let stats = Arc::clone(&stats);
        move || stats.record_attempt_ns(black_box(1234))
    });
    ledger.add("obs.abort_at_ns", {
        let stats = Arc::clone(&stats);
        move || {
            stats.abort_at(
                AbortCause::ReadValidation,
                VarAttr::Var(1 << 32),
                pack_tx(0, 1),
                pack_tx(1, 1),
            )
        }
    });
    ledger.add("obs.snapshot_ns", move || {
        black_box(stats.snapshot());
    });

    // One-attempt async transaction on `block_on`, and its sync twin.
    const SYNC_TWIN: &str = "one-attempt transaction, sync";
    const POLLED: &str = "one-attempt transaction, block_on";
    let x = stm.alloc_tvar(0);
    let body = move |tx: &mut dyn WordTx| {
        let v = tx.read(x)?;
        tx.write(x, v + 1)
    };
    ledger.add(SYNC_TWIN, {
        let stm = Arc::clone(&stm);
        move || {
            black_box(
                run_transaction_with_budget(&*stm, 0, 1, body).expect("solo transaction commits"),
            );
        }
    });
    ledger.add(POLLED, move || {
        black_box(
            async_executor::block_on(run_transaction_async_budgeted(&*stm, 0, 1, body))
                .expect("solo transaction commits"),
        );
    });

    // Each call leaves a deadline in the watchdog's heap until it fires,
    // so this row is capped by count, not by time.
    ledger.add_capped("asyncrt.timer.arm_ns", 16, move || {
        timer::wake_after(Duration::from_millis(50), waker.clone());
    });

    let costs = ledger.measure(total);
    let bare = costs.of(&format!("{REFERENCE_BACKEND}.txn_empty_ns"));
    let mut out: Vec<(String, f64)> = costs
        .rows
        .iter()
        .filter(|(n, _)| n.contains(".txn_"))
        .cloned()
        .collect();
    for name in LEDGER_SHARED_ROWS {
        let v = match name {
            "core.api.loop_ns" => costs.of(CORE_LOOP) - bare,
            "structs.ctx.loop_ns" => costs.of(CTX_LOOP) - bare,
            "asyncrt.poll_ready_ns" => costs.of(POLLED) - costs.of(SYNC_TWIN),
            "bench.clock_ns" => costs.clock_ns,
            row => costs.of(row),
        };
        out.push((name.to_string(), v));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::per_layer;

    #[test]
    fn ledger_reports_every_ledger_metric_once() {
        let rows = run(Duration::from_millis(200));
        let want: Vec<String> = per_layer()
            .into_iter()
            .map(|m| m.name)
            .filter(|n| n.contains(".txn_") || LEDGER_SHARED_ROWS.contains(&n.as_str()))
            .collect();
        let got: Vec<String> = rows.iter().map(|(n, _)| n.clone()).collect();
        assert_eq!(got, want);
        for (name, ns) in &rows {
            assert!(ns.is_finite(), "{name} = {ns}");
        }
    }

    #[test]
    fn slower_calls_cost_more_and_the_instrument_is_subtracted() {
        let spin = |n: u64| {
            move || {
                let mut acc = 0u64;
                for i in 0..n {
                    acc = black_box(acc.wrapping_add(i));
                }
                black_box(acc);
            }
        };
        let mut ledger = Ledger::new();
        ledger.add("short", spin(100));
        ledger.add("long", spin(1000));
        ledger.add("nothing", || {
            black_box(());
        });
        ledger.add_capped("capped", 3, spin(10));
        let batches =
            |l: &Ledger, name: &str| l.rows.iter().find(|r| r.name == name).unwrap().batches_left;
        assert_eq!(batches(&ledger, "capped"), 3);
        let costs = ledger.measure(Duration::from_millis(100));
        assert!(costs.clock_ns > 0.0);
        let (short, long) = (costs.of("short"), costs.of("long"));
        assert!(
            long > 3.0 * short,
            "1000 steps ({long} ns) vs 100 steps ({short} ns)"
        );
        let nothing = costs.of("nothing");
        assert!(
            nothing.abs() < 2.0,
            "empty call nets to ~0, got {nothing} ns"
        );
        assert!(
            costs.of("capped") > 0.0,
            "three batches are enough for a reading"
        );
    }
}
