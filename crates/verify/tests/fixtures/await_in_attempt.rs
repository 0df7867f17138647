//! Lint oracle: `.await` in a function that runs a word-STM attempt
//! must trip `await-in-attempt` (a live `WordTx` must never cross a
//! suspension point — the PR 5 poll-runs-whole-attempts invariant).

pub async fn bad_attempt_shares_a_fn_with_await(driver: &mut Driver<'_>, body: &mut Body) {
    let out = driver.attempt(body, None);
    yield_to_executor().await;
    drop(out);
}

pub fn good_poll_runs_attempt_synchronously(driver: &mut Driver<'_>, body: &mut Body) {
    let out = driver.attempt(body, None);
    drop(out);
}

pub async fn good_wrapper_only_awaits_the_future(f: TxFuture<'_, u64, Body>) -> u64 {
    f.await
}
