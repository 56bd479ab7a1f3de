//! `store_edits`: the incremental campaign store in-process, through
//! the `Orchestrator` that both `nfi campaign run --state-dir` and the
//! lanes of `nfi serve` run jobs on. One client in a closed loop walks
//! the seeded request sequence of [`gen::store_requests`]: edits and
//! resubmits plan the submitted source and run it incrementally
//! (`plan_campaign` + `Orchestrator::run_spec`), fetches rebuild the
//! program's latest document from the store (`replay_full`). Each
//! document is written to a file outside the timed call (once while a
//! program's requests keep returning the same bytes) and compared
//! with a from-scratch reference after the window, and the
//! anchor-soundness probe runs on the same store.
//!
//! The traced run (`--trace 1`) is the traced run of `edit_campaigns`
//! (see [`crate::campaigns`]): it drives the edit inputs through
//! `nfi serve`, so the serving layers are measured as well as the store
//! below them.

use crate::campaigns::{self, units_in};
use crate::gen::{self, EditOp, EditRequest};
use crate::stats::{median, quantile, ratio, Metrics};
use crate::{oracle, Opts, Outcome};
use nfi_core::{exec_spec, plan_campaign, Orchestrator};
use nfi_sfi::CampaignSpec;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub const NAME: &str = "store_edits";

/// Latency limit of `slo_attainment`: about the 99th percentile on the
/// reference machine (7.5 to 9.3 ms), so a slowdown of the edits shows.
pub const LIMIT_MS: f64 = 10.0;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Requests of one pass over [`gen::STORE_CYCLE`] for every corpus program.
/// A run measures whole passes, so every run has the same request mix.
fn pass_len() -> usize {
    gen::STORE_CYCLE.len() * nfi_corpus::all().len()
}

/// Passes the generator is sized for, per second of `--seconds`: about
/// seven times what the reference machine completes (about 6 a second),
/// so the closed loop never runs out of inputs. They are generated as
/// the loop consumes them.
const PASSES_PER_S: f64 = 40.0;

/// Empties the process-wide content-addressed caches. Every set-up
/// starts cold, and every submit executes its misses with empty caches,
/// as the daemon's jobs do in their fresh `nfi campaign exec` workers;
/// so the process does not accumulate mutants across versions and
/// `peak_rss_mb` does not grow with the requests completed.
fn clear_caches() {
    nfi_inject::CodeCache::global().clear();
    nfi_inject::SuiteCache::global().clear();
    nfi_inject::ExperimentCache::global().clear();
    nfi_core::MutantCache::global().clear();
}

/// Each corpus program's latest stored version, as a fetch reads it.
type Latest = HashMap<&'static str, Arc<CampaignSpec>>;

/// One set-up: a fresh store at `dir` holding the 12 corpus programs,
/// with the caches emptied first.
fn setup(dir: &Path) -> Result<(Orchestrator, Latest, f64), String> {
    clear_caches();
    let t = Instant::now();
    let orch = Orchestrator::new(dir)?;
    let mut latest = HashMap::new();
    for p in nfi_corpus::all() {
        let spec = plan_campaign(p.name, p.source, orch.seed)?;
        orch.run_spec(&spec)?;
        latest.insert(p.name, Arc::new(spec));
    }
    Ok((orch, latest, t.elapsed().as_secs_f64()))
}

struct Record {
    base: &'static str,
    latency_ms: f64,
    /// Byte range of the document in the run's document file.
    document: Result<(usize, usize), String>,
}

/// One request; the latency covers the store call and the document's
/// encoding.
fn one(orch: &Orchestrator, latest: &mut Latest, req: &EditRequest) -> Result<String, String> {
    match req.op {
        EditOp::Fetch => {
            let spec = latest.get(req.base).ok_or("no version to fetch")?;
            // A version the store has since pruned rebuilds by full
            // re-execution, as the daemon's document endpoint does.
            match orch.replay_full(spec) {
                Some(doc) => Ok(doc),
                None => exec_spec(spec, &orch.machine, orch.config).map(|r| r.encode()),
            }
        }
        _ => {
            let spec = plan_campaign(req.base, &req.source, orch.seed)?;
            let run = orch.run_spec(&spec)?;
            latest.insert(req.base, Arc::new(spec));
            Ok(run.run.encode())
        }
    }
}

/// Closed loop over whole passes until `seconds` have gone by. Each
/// document is written to `docs` after its request is timed.
fn window(
    orch: &Orchestrator,
    latest: &mut Latest,
    mut reqs: impl Iterator<Item = EditRequest>,
    seconds: f64,
    docs: &Path,
) -> Result<(Vec<Record>, Vec<f64>, f64, f64), String> {
    let file = std::fs::File::create(docs)
        .map_err(|e| format!("cannot create {}: {e}", docs.display()))?;
    let mut file = std::io::BufWriter::new(file);
    let mut offset = 0;
    // Each program's last written document and its byte range. A
    // request whose document has the same bytes (a fetch or resubmit of
    // an unchanged version) points at that copy instead of writing
    // another, so the benchmark's own disk writes stay small beside the
    // store's.
    let mut last: HashMap<&'static str, (String, usize, usize)> = HashMap::new();
    let mut out = Vec::new();
    let mut passes = Vec::new();
    let cpu0 = crate::daemon::self_cpu_seconds();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        let started = Instant::now();
        let pass: Vec<EditRequest> = reqs.by_ref().take(pass_len()).collect();
        if pass.len() < pass_len() {
            return Err("the generated inputs ran out before the window ended".to_string());
        }
        for req in &pass {
            if req.op != EditOp::Fetch {
                clear_caches();
            }
            let t = Instant::now();
            let result = one(orch, latest, req);
            let latency_ms = t.elapsed().as_secs_f64() * 1e3;
            let document = match result {
                Ok(doc) => match last.get(req.base) {
                    Some((prev, start, len)) if *prev == doc => Ok((*start, *len)),
                    _ => {
                        file.write_all(doc.as_bytes())
                            .map_err(|e| format!("cannot write {}: {e}", docs.display()))?;
                        let (start, len) = (offset, doc.len());
                        offset += len;
                        last.insert(req.base, (doc, start, len));
                        Ok((start, len))
                    }
                },
                Err(e) => Err(e),
            };
            out.push(Record {
                base: req.base,
                latency_ms,
                document,
            });
        }
        passes.push(started.elapsed().as_secs_f64());
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let cpu_s = crate::daemon::self_cpu_seconds() - cpu0;
    file.flush()
        .map_err(|e| format!("cannot write {}: {e}", docs.display()))?;
    Ok((out, passes, elapsed, cpu_s))
}

/// The anchor-soundness probe on the window's store: each fixed
/// [`gen::probe_edits`] entry is submitted as the next version of its
/// program after the program's base version.
fn probe(orch: &Orchestrator) -> Result<Vec<(String, String, String)>, String> {
    let mut docs = Vec::new();
    for edit in gen::probe_edits() {
        let base = nfi_corpus::by_name(edit.base).expect("probe program is in the corpus");
        orch.run_program(edit.base, base.source)?;
        let doc = orch.run_program(edit.base, &edit.source)?.run.encode();
        docs.push((edit.label, edit.source, doc));
    }
    Ok(docs)
}

/// Byte-compares every document with a from-scratch reference of the
/// version its request left the program at (`reqs`, generated again).
fn check(
    records: &[Record],
    reqs: impl Iterator<Item = EditRequest>,
    docs: &str,
) -> Result<(Vec<bool>, Vec<String>), String> {
    let wanted: Vec<(String, Arc<String>)> = reqs
        .take(records.len())
        .map(|r| (r.base.to_string(), r.source))
        .collect();
    let references = oracle::reference_documents(&wanted)?;
    let mut ok = Vec::with_capacity(records.len());
    let mut problems = Vec::new();
    for (i, (r, key)) in records.iter().zip(&wanted).enumerate() {
        let verdict = match &r.document {
            Err(e) => Err(e.clone()),
            Ok((start, len)) => match references.get(key) {
                Some(reference) if reference.as_str() == &docs[*start..start + len] => Ok(()),
                Some(_) => Err("document differs from the reference".to_string()),
                None => Err("no reference".to_string()),
            },
        };
        if let Err(e) = &verdict {
            problems.push(format!("request {i} ({}): {e}", r.base));
        }
        ok.push(verdict.is_ok());
    }
    Ok((ok, problems))
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    if opts.trace {
        let mut out = campaigns::run(&campaigns::EDIT, opts)?;
        out.notes.insert(
            0,
            format!("{NAME} --trace 1 is the traced run of edit_campaigns, through nfi serve"),
        );
        return Ok(out);
    }
    let dir = crate::daemon::run_dir(NAME, opts.seed);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let result = run_in(opts, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(opts: &Opts, dir: &Path) -> Result<Outcome, String> {
    let passes = (PASSES_PER_S * opts.seconds).ceil() as usize + 1;
    let reqs = || gen::store_requests(opts.seed, passes * pass_len());
    let mut setups = Vec::new();
    let mut kept = None;
    for k in 0..SETUPS {
        // The previous set-up is dropped first, so only one store is
        // live at a time.
        drop(kept.take());
        let (orch, latest, secs) = setup(&dir.join(format!("setup{k}")))?;
        setups.push(secs);
        kept = Some((orch, latest));
    }
    let (orch, mut latest) = kept.expect("at least one set-up");
    let docs_path = dir.join("documents.jsonl");
    let (records, passes, elapsed, cpu_s) =
        window(&orch, &mut latest, reqs(), opts.seconds, &docs_path)?;
    let peak_rss_mb = crate::daemon::self_peak_rss_mb();
    let t = Instant::now();
    let probe_docs = probe(&orch)?;
    drop(orch);
    let probe_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let docs = std::fs::read_to_string(&docs_path)
        .map_err(|e| format!("cannot read {}: {e}", docs_path.display()))?;
    let (ok, problems) = check(&records, reqs(), &docs)?;
    let correct: Vec<&Record> = records
        .iter()
        .zip(&ok)
        .filter(|(_, &ok)| ok)
        .map(|(r, _)| r)
        .collect();
    let latencies: Vec<f64> = correct.iter().map(|r| r.latency_ms).collect();
    let units: usize = correct
        .iter()
        .filter_map(|r| r.document.as_ref().ok())
        .map(|(start, len)| units_in(&docs[*start..start + len]))
        .sum();
    let attempted = records.len();
    let failed = attempted - latencies.len();
    let within = latencies.iter().filter(|&&l| l <= LIMIT_MS).count();
    // Per pass: its latency quantiles over the correct requests and its
    // rate of correct requests. The result line reports their medians
    // over the run's passes, so a stretch of the run on a slowed host
    // moves a minority of passes, not the figure.
    let mut pass_p50 = Vec::new();
    let mut pass_p90 = Vec::new();
    let mut pass_rate = Vec::new();
    for ((pass, ok), secs) in records
        .chunks(pass_len())
        .zip(ok.chunks(pass_len()))
        .zip(&passes)
    {
        let l: Vec<f64> = pass
            .iter()
            .zip(ok)
            .filter(|(_, &ok)| ok)
            .map(|(r, _)| r.latency_ms)
            .collect();
        pass_p50.push(quantile(&l, 0.5));
        pass_p90.push(quantile(&l, 0.9));
        pass_rate.push(ratio(l.len() as f64, *secs));
    }
    let mut m = Metrics::default();
    m.put("setup_s", median(&setups), "s");
    m.put("latency_p50_ms", median(&pass_p50), "ms");
    m.put("latency_p90_ms", median(&pass_p90), "ms");
    m.put("requests_per_s", median(&pass_rate), "1/s");
    m.put("units_per_cpu_s", ratio(units as f64, cpu_s), "1/s");
    m.put(
        "slo_attainment",
        ratio(within as f64, attempted as f64),
        "ratio",
    );
    m.put("peak_rss_mb", peak_rss_mb, "MB");
    let mut extra = Metrics::default();
    extra.put(
        "error_rate",
        ratio(failed as f64, attempted as f64),
        "ratio",
    );
    if latencies.len() >= 1000 {
        extra.put("latency_p99_ms", quantile(&latencies, 0.99), "ms");
    }
    extra.put("latency_max_ms", quantile(&latencies, 1.0), "ms");
    extra.put("latency_run_p50_ms", quantile(&latencies, 0.5), "ms");
    extra.put("latency_run_p90_ms", quantile(&latencies, 0.9), "ms");
    extra.put(
        "requests_run_per_s",
        ratio(latencies.len() as f64, elapsed),
        "1/s",
    );
    extra.put("bench.passes", passes.len() as f64, "count");
    extra.put("bench.window_s", elapsed, "s");
    extra.put("bench.window_cpu_s", cpu_s, "s");
    let mut notes = vec![
        format!(
            "{NAME}: closed loop, 1 client, whole passes of {} requests for {} s, limit {LIMIT_MS} ms, in-process Orchestrator (1 worker, 1 thread); {} requests, {} latency samples (p99 needs 1000)",
            pass_len(),
            opts.seconds,
            attempted,
            latencies.len()
        ),
        format!(
            "phases: set-ups {setups:.3?} s, window {elapsed:.1} s, probe {probe_s:.1} s, oracle {:.1} s",
            t.elapsed().as_secs_f64()
        ),
    ];
    notes.extend(problems);
    let mut out = Outcome {
        attempted,
        failed,
        metrics: m,
        extra,
        notes,
    };
    campaigns::report_probe(&mut out, false, probe_docs)?;
    Ok(out)
}
