//! The output oracle, run outside the timed window. Campaign documents
//! are compared byte for byte with a reference computed afresh: plan the
//! exact source the daemon received, execute every unit with one
//! thread and without the content-addressed caches, and encode.

use nfi_core::{exec_spec, plan_campaign, ExecConfig};
use nfi_pylite::MachineConfig;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Threads the oracle computes references on (one per core of the
/// reference machine; each reference itself runs single-threaded).
pub const THREADS: usize = 2;

/// The document a fresh run of `source` under `program`
/// produces with the daemon's default seed and machine.
pub fn reference_document(program: &str, source: &str) -> Result<String, String> {
    let machine = MachineConfig::default();
    let spec = plan_campaign(program, source, machine.seed)?;
    let run = exec_spec(&spec, &machine, ExecConfig::sequential().cached(false))?;
    Ok(run.encode())
}

/// References for every distinct (program, source) pair.
pub fn reference_documents(
    wanted: &[(String, Arc<String>)],
) -> Result<HashMap<(String, Arc<String>), String>, String> {
    let mut distinct: Vec<(String, Arc<String>)> = Vec::new();
    for w in wanted {
        if !distinct.contains(w) {
            distinct.push(w.clone());
        }
    }
    let next = Mutex::new(0usize);
    let out = Mutex::new(HashMap::new());
    let failure = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| loop {
                let i = {
                    let mut n = next.lock().expect("oracle index lock");
                    *n += 1;
                    *n - 1
                };
                let Some((program, source)) = distinct.get(i) else {
                    return;
                };
                match reference_document(program, source) {
                    Ok(doc) => {
                        out.lock()
                            .expect("oracle map lock")
                            .insert((program.clone(), source.clone()), doc);
                    }
                    Err(e) => *failure.lock().expect("oracle failure lock") = Some(e),
                }
            });
        }
    });
    match failure.into_inner().expect("oracle failure lock") {
        Some(e) => Err(format!("reference run failed: {e}")),
        None => Ok(out.into_inner().expect("oracle map lock")),
    }
}
