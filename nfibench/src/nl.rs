//! `nl_faults`: the paper's own interaction, in-process through the
//! public API (there is no HTTP route for it). One client in a closed
//! loop sends seeded NL fault descriptions to a fine-tuned
//! `NeuralFaultInjector::inject_module`; one request in
//! [`gen::SESSION_EVERY`] instead runs the RLHF review loop (`run_session` with a seeded simulated
//! tester). A request's latency is the call's; the faulty module it
//! returns is printed to a file outside the timed call and tested
//! against an uncached reference after the window.

use crate::gen::{self, NlRequest};
use crate::inproc::{CacheCounts, VmPass};
use crate::stats::{mean, median, quantile, ratio, Metrics};
use crate::trace::Recorder;
use crate::{Opts, Outcome};
use nfi_core::{run_session, NeuralFaultInjector, PipelineConfig};
use nfi_pylite::Module;
use nfi_rlhf::{SimulatedTester, TargetProfile};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Latency limit of `slo_attainment`.
pub const LIMIT_MS: f64 = 250.0;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;

/// Review rounds a session may take (the `nfi session` default).
const MAX_ROUNDS: usize = 6;

/// Faulty modules the VM pass re-runs for step counts.
const VM_SAMPLE: usize = 60;

struct Setup {
    injector: NeuralFaultInjector,
    modules: HashMap<&'static str, Module>,
    dataset_s: f64,
    fine_tune_s: f64,
}

/// Generates the SFI fine-tuning dataset and fine-tunes a fresh
/// injector on it.
fn setup() -> Result<Setup, String> {
    let t = Instant::now();
    let dataset = nfi_dataset::generate(nfi_corpus::all(), &nfi_dataset::DatasetConfig::default());
    let dataset_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut injector = NeuralFaultInjector::new(PipelineConfig::default());
    injector.fine_tune(dataset.to_training_records());
    let fine_tune_s = t.elapsed().as_secs_f64();
    let mut modules = HashMap::new();
    for p in nfi_corpus::all() {
        modules.insert(p.name, p.module().map_err(|e| e.to_string())?);
    }
    Ok(Setup {
        injector,
        modules,
        dataset_s,
        fine_tune_s,
    })
}

fn profile(k: usize) -> TargetProfile {
    match k {
        0 => TargetProfile::wants_retry(),
        1 => TargetProfile::wants_crashes(),
        2 => TargetProfile {
            wants_logging: true,
            ..TargetProfile::default()
        },
        _ => TargetProfile {
            wants_intermittent: true,
            ..TargetProfile::default()
        },
    }
}

/// What one request produced.
struct Done {
    /// Byte range of the printed faulty module in the run's module file
    /// (kept out of memory, so the benchmark's own heap does not grow
    /// with the requests completed and blur `peak_rss_mb`).
    faulty: (usize, usize),
    /// FNV-1a hash of the `Debug` rendering of the experiment report
    /// `inject_module` returned; `None` for a session, which tests
    /// nothing (the oracle runs the experiment on its final fault).
    experiment: Option<u64>,
    candidates: usize,
    stages: Option<[f64; 4]>,
    session: Option<(f64, usize, bool)>,
}

struct Record {
    base: &'static str,
    latency_ms: f64,
    result: Result<Done, String>,
}

/// Runs one request; the latency covers only the pipeline call.
fn one(
    s: &mut Setup,
    req: &NlRequest,
    rec: &Recorder,
    id: u64,
) -> Result<(Module, Done, f64), String> {
    let module = &s.modules[req.base];
    let root = rec.enter("bench.request", id, None);
    let started = Instant::now();
    let out = match req.session {
        None => {
            let report = s
                .injector
                .inject_module(&req.description, module)
                .map_err(|e| e.to_string());
            let latency_ms = started.elapsed().as_secs_f64() * 1e3;
            let report = report?;
            let t = report.timings;
            let us = |v: u128| std::time::Duration::from_micros(v as u64);
            rec.stages(
                id,
                root,
                started,
                &[
                    ("nlp.analyze", us(t.nlp_us)),
                    ("llm.generate", us(t.generate_us)),
                    ("inject.integrate", us(t.integrate_us)),
                    ("inject.test", us(t.test_us)),
                ],
            );
            let ms = |v: u128| v as f64 / 1e3;
            let done = Done {
                faulty: (0, 0),
                experiment: Some(report_hash(&report.experiment)),
                candidates: report.fault.n_candidates,
                stages: Some([
                    ms(t.nlp_us),
                    ms(t.generate_us),
                    ms(t.integrate_us),
                    ms(t.test_us),
                ]),
                session: None,
            };
            (report.faulty_module, done, latency_ms)
        }
        Some(k) => {
            let tester = SimulatedTester::new(profile(k), req.tester_seed);
            let result = rec
                .span("rlhf.session", id, root, |_| {
                    run_session(
                        &mut s.injector,
                        &req.description,
                        module,
                        &tester,
                        MAX_ROUNDS,
                    )
                })
                .map_err(|e| e.to_string());
            let latency_ms = started.elapsed().as_secs_f64() * 1e3;
            let result = result?;
            let last = result.rounds.last().ok_or("session produced no round")?;
            if result.rounds.len() > MAX_ROUNDS || last.feedback.accepted != result.accepted {
                return Err(format!(
                    "session ended after {} rounds, accepted {} but its last review says {}",
                    result.rounds.len(),
                    result.accepted,
                    last.feedback.accepted
                ));
            }
            let done = Done {
                faulty: (0, 0),
                experiment: None,
                candidates: last.fault.n_candidates,
                stages: None,
                session: Some((latency_ms, result.rounds.len(), result.accepted)),
            };
            (last.fault.module.clone(), done, latency_ms)
        }
    };
    rec.exit(root);
    Ok(out)
}

fn report_hash(report: &nfi_inject::ExperimentReport) -> u64 {
    nfi_pylite::fnv1a(format!("{report:?}").as_bytes())
}

/// Closed loop for `seconds`: one request at a time, each sent when
/// the previous one returned. Each faulty module is printed to
/// `modules` after its request is timed.
fn window(
    s: &mut Setup,
    reqs: &[NlRequest],
    seconds: f64,
    rec: &Recorder,
    modules: &Path,
) -> Result<(Vec<Record>, f64, f64), String> {
    let file = std::fs::File::create(modules)
        .map_err(|e| format!("cannot create {}: {e}", modules.display()))?;
    let mut file = std::io::BufWriter::new(file);
    let mut offset = 0;
    let mut out = Vec::new();
    let cpu0 = crate::daemon::self_cpu_seconds();
    let t0 = Instant::now();
    for (i, req) in reqs.iter().enumerate() {
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let (latency_ms, result) = match one(s, req, rec, i as u64) {
            Ok((faulty, mut done, latency_ms)) => {
                let text = nfi_pylite::print_module(&faulty);
                file.write_all(text.as_bytes())
                    .map_err(|e| format!("cannot write {}: {e}", modules.display()))?;
                done.faulty = (offset, text.len());
                offset += text.len();
                (latency_ms, Ok(done))
            }
            Err(e) => (0.0, Err(e)),
        };
        out.push(Record {
            base: req.base,
            latency_ms,
            result,
        });
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let cpu_s = crate::daemon::self_cpu_seconds() - cpu0;
    file.flush()
        .map_err(|e| format!("cannot write {}: {e}", modules.display()))?;
    Ok((out, elapsed, cpu_s))
}

/// The printed faulty module of a request, from the module file.
fn faulty_text<'a>(modules: &'a str, done: &Done) -> &'a str {
    let (start, len) = done.faulty;
    &modules[start..start + len]
}

/// Compares every experiment report `inject_module` returned with an
/// uncached `nfi_inject::run_experiment` of the same (pristine, faulty)
/// pair. A session's final fault must differ from the pristine module,
/// and its experiment through the injector's caches
/// (`run_experiment_cached`, as `inject_module` tests) must equal the
/// uncached one.
fn check(s: &Setup, records: &[Record], modules: &str) -> (Vec<bool>, Vec<String>) {
    let machine = PipelineConfig::default().machine;
    let verdict = |r: &Record| -> Result<(), String> {
        let done = r.result.as_ref().map_err(Clone::clone)?;
        let text = faulty_text(modules, done);
        let faulty =
            nfi_pylite::parse(text).map_err(|e| format!("faulty module does not reparse: {e}"))?;
        let pristine = &s.modules[r.base];
        let reference = report_hash(&nfi_inject::run_experiment(pristine, &faulty, &machine));
        let got = match done.experiment {
            Some(hash) => hash,
            None => {
                if text == nfi_pylite::print_module(pristine) {
                    return Err("the session's final fault changes nothing".to_string());
                }
                report_hash(&nfi_inject::run_experiment_cached(
                    pristine, &faulty, &machine,
                ))
            }
        };
        if got == reference {
            Ok(())
        } else {
            Err("experiment report differs from the uncached reference".to_string())
        }
    };
    let verdicts: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let chunk = records.len().div_ceil(crate::oracle::THREADS).max(1);
        let handles: Vec<_> = records
            .chunks(chunk)
            .map(|part| scope.spawn(|| part.iter().map(verdict).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    let mut problems = Vec::new();
    for (i, v) in verdicts.iter().enumerate() {
        if let Err(e) = v {
            problems.push(format!("request {i} ({}): {e}", records[i].base));
        }
    }
    (verdicts.iter().map(Result::is_ok).collect(), problems)
}

/// The module file of a window in `dir`, read back after the window.
fn read_modules(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let dir = crate::daemon::run_dir("nl_faults", opts.seed);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let result = run_in(opts, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(opts: &Opts, dir: &Path) -> Result<Outcome, String> {
    // Sized for well over the ~100 requests/s the reference machine
    // completes, so the closed loop never runs out of fresh inputs.
    let reqs = gen::nl_requests(opts.seed, (400.0 * opts.seconds) as usize + 100);
    let modules_path = dir.join("faulty.py");
    if !opts.trace {
        let mut setups = Vec::new();
        let mut kept = None;
        for _ in 0..SETUPS {
            // The previous set-up is dropped first, so the peak holds
            // one injector and one dataset.
            drop(kept.take());
            let t = Instant::now();
            let s = setup()?;
            setups.push(t.elapsed().as_secs_f64());
            kept = Some(s);
        }
        let mut s = kept.expect("at least one set-up");
        let (records, elapsed, cpu_s) = window(
            &mut s,
            &reqs,
            opts.seconds,
            &Recorder::new(false),
            &modules_path,
        )?;
        let peak_rss_mb = crate::daemon::self_peak_rss_mb();
        let (ok, problems) = check(&s, &records, &read_modules(&modules_path)?);
        let latencies: Vec<f64> = records
            .iter()
            .zip(&ok)
            .filter(|(_, &ok)| ok)
            .map(|(r, _)| r.latency_ms)
            .collect();
        let attempted = records.len();
        let failed = attempted - latencies.len();
        let within = latencies.iter().filter(|&&l| l <= LIMIT_MS).count();
        let mut m = Metrics::default();
        m.put("setup_s", median(&setups), "s");
        m.put("latency_p50_ms", quantile(&latencies, 0.5), "ms");
        m.put("latency_p90_ms", quantile(&latencies, 0.9), "ms");
        m.put(
            "requests_per_s",
            ratio(latencies.len() as f64, elapsed),
            "1/s",
        );
        m.put(
            "units_per_cpu_s",
            ratio(latencies.len() as f64, cpu_s),
            "1/s",
        );
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
        let mut notes = vec![
            format!(
                "nl_faults: closed loop, 1 client, {} s, limit {LIMIT_MS} ms, one session in {}; {} requests, {} latency samples (p99 needs 1000)",
                opts.seconds,
                gen::SESSION_EVERY,
                attempted,
                latencies.len()
            ),
            format!("set-ups {setups:.3?} s"),
        ];
        notes.extend(problems);
        return Ok(Outcome {
            attempted,
            failed,
            metrics: m,
            extra,
            notes,
        });
    }
    // Traced: an untraced baseline window and a traced window, each on
    // a fresh set-up.
    let mut base = setup()?;
    let (base_records, base_elapsed, _) = window(
        &mut base,
        &reqs,
        opts.seconds,
        &Recorder::new(false),
        &dir.join("baseline.py"),
    )?;
    drop(base);
    let mut s = setup()?;
    let rec = Recorder::new(true);
    let caches = CacheCounts::now();
    let (records, elapsed, _) = window(&mut s, &reqs, opts.seconds, &rec, &modules_path)?;
    let after = CacheCounts::now();
    let modules = read_modules(&modules_path)?;
    let (ok, problems) = check(&s, &records, &modules);
    let done: Vec<&Done> = records
        .iter()
        .filter_map(|r| r.result.as_ref().ok())
        .collect();
    let stage = |k: usize| -> Vec<f64> { done.iter().filter_map(|d| Some(d.stages?[k])).collect() };
    let sessions: Vec<(f64, usize, bool)> = done.iter().filter_map(|d| d.session).collect();
    let mut m = crate::layers::zeroed();
    after.apply_since(&caches, &mut m);
    m.set("nlp.analyze_ms", median(&stage(0)));
    m.set("llm.generate_ms", median(&stage(1)));
    m.set("inject.integrate_ms", median(&stage(2)));
    m.set("inject.test_ms", median(&stage(3)));
    m.set(
        "llm.candidates_per_request",
        mean(&done.iter().map(|d| d.candidates as f64).collect::<Vec<_>>()),
    );
    m.set(
        "rlhf.session_ms",
        median(&sessions.iter().map(|s| s.0).collect::<Vec<_>>()),
    );
    m.set(
        "rlhf.rounds_per_session",
        mean(&sessions.iter().map(|s| s.1 as f64).collect::<Vec<_>>()),
    );
    m.set(
        "rlhf.accept_ratio",
        ratio(
            sessions.iter().filter(|s| s.2).count() as f64,
            sessions.len() as f64,
        ),
    );
    m.set("dataset.generate_s", s.dataset_s);
    m.set("neural.fine_tune_s", s.fine_tune_s);
    let machine = PipelineConfig::default().machine;
    let mut vm = VmPass::default();
    let mut parse_ms = Vec::new();
    let sample = records
        .iter()
        .filter_map(|r| Some((r.base, r.result.as_ref().ok()?)))
        .take(VM_SAMPLE);
    for (base, d) in sample {
        let source = nfi_corpus::by_name(base).expect("corpus program").source;
        let t = Instant::now();
        nfi_pylite::parse(source).map_err(|e| e.to_string())?;
        parse_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let faulty = nfi_pylite::parse(faulty_text(&modules, d)).map_err(|e| e.to_string())?;
        vm.run(&faulty, &machine);
    }
    vm.apply(&mut m);
    m.set("pylite.parse_ms", mean(&parse_ms));
    let rps = |n: usize, secs: f64| ratio(n as f64, secs);
    m.set(
        "bench.tracing_overhead",
        ratio(
            rps(base_records.len(), base_elapsed),
            rps(records.len(), elapsed),
        ) - 1.0,
    );
    let p50 = |rs: &[Record]| median(&rs.iter().map(|r| r.latency_ms).collect::<Vec<_>>());
    m.set(
        "bench.tracing_overhead_p50",
        ratio(p50(&records), p50(&base_records)) - 1.0,
    );
    let spans_path =
        std::path::PathBuf::from(".bench_run").join(format!("spans-nl_faults-{}.jsonl", opts.seed));
    rec.write_jsonl(&spans_path)?;
    let mut notes = vec![format!("spans written to {}", spans_path.display())];
    notes.extend(crate::layers::self_time_table(&rec));
    notes.extend(problems);
    Ok(Outcome {
        attempted: records.len(),
        failed: ok.iter().filter(|&&o| !o).count(),
        metrics: m,
        extra: Metrics::default(),
        notes,
    })
}
