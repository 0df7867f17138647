//! Lint oracle: an engine that records its own TM events must trip
//! `tm-event`; a test module's events do not.

use oftm_histories::{TmOp, TmResp, TxId};

pub fn read(rec: &Recorder, id: TxId, x: TVarId) -> TxResult<Value> {
    rec.invoke(id, oftm_histories::TmOp::Read(x));
    let v = load(x);
    rec.respond(id, TmResp::Value(v));
    Ok(v)
}

// A mention in a comment records nothing: TmOp::TryCommit
pub fn commit(rec: &Recorder, id: TxId) {
    let _ = "TmResp::Committed";
    let _ = MyTmOp::TryCommit;
    rec.step(id.process(), Some(id), BaseObjId(0), Access::Modify);
}

#[cfg(test)]
mod tests {
    use oftm_histories::{TmOp, TmResp};

    #[test]
    fn recorded() {
        let _ = (TmOp::TryAbort, TmResp::Aborted);
    }
}
