//! The VM's live-memory contract, alone in its own test binary: it
//! asserts exact deltas on the process-wide tensor memory ledger, so no
//! sibling test may allocate in the same process while it runs.

use autograph::prelude::*;

#[path = "support/corpus.rs"]
mod corpus;

use corpus::programs;

#[test]
fn vm_live_memory_returns_to_baseline() {
    // the VM's arena recycles buffers within a run but owns nothing
    // beyond it: after the session drops, live bytes return to where
    // they started
    autograph::tensor::mem::track_begin();
    let p = &programs()[0];
    let mut rt = Runtime::load(p.src, true).expect("load");
    let args: Vec<GraphArg> = p
        .feeds
        .iter()
        .map(|(n, _)| GraphArg::Placeholder((*n).to_string()))
        .collect();
    let staged = rt.stage_to_graph("f", args).expect("stage");
    let live0 = autograph::tensor::mem::snapshot().live_bytes;
    {
        let mut sess = Session::new(staged.graph.clone());
        sess.set_exec_mode(ExecMode::Vm);
        sess.set_threads(1);
        for _ in 0..5 {
            sess.run(&p.feeds, &staged.outputs).expect("run");
        }
    }
    let live1 = autograph::tensor::mem::snapshot().live_bytes;
    assert_eq!(
        live0, live1,
        "live bytes did not return to baseline after VM session drop"
    );
}
