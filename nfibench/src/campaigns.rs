//! The served workloads, `cold_campaigns` and `edit_campaigns`: an open
//! loop against a deployed `nfi serve` daemon, driven by one sender
//! thread (sends each request when it is due) and one completer thread
//! (polls submitted jobs and fetches their documents), each on its own
//! keep-alive connection.

use crate::daemon::{Conn, Daemon};
use crate::gen::{self, EditOp};
use crate::json::Json;
use crate::stats::{mean, quantile, ratio, Metrics};
use crate::trace::{Recorder, SpanId};
use crate::{oracle, Opts, Outcome};
use nfi_sfi::jsontext::escape;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One served workload's fixed settings.
pub struct Served {
    pub name: &'static str,
    /// Open-loop arrival rate.
    pub rate: f64,
    /// Latency limit of `slo_attainment`.
    pub limit_ms: f64,
}

pub const COLD: Served = Served {
    name: "cold_campaigns",
    rate: 3.0,
    limit_ms: 5000.0,
};

pub const EDIT: Served = Served {
    name: "edit_campaigns",
    rate: 16.0,
    limit_ms: 1000.0,
};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The cold daemon's warm-up during set-up: this many jobs of this
/// corpus program, each under a fresh name and one after another. The
/// daemon notices a finished worker child on a 10 ms poll, so one job's
/// time is quantized; a sum over several is not.
const WARMUP: (&str, usize) = ("kvcache", 8);

/// Probe edits (labels of [`gen::probe_edits`]) whose documents the
/// daemon serves stale at the commit that defined the benchmark: the
/// known anchor-soundness gap. A stale probe document outside this set
/// fails the run; one inside it is counted in `core.store.stale_docs`.
pub const KNOWN_STALE: [&str; 8] = [
    "ecommerce:validate_order:early_return",
    "banking:record:early_return",
    "kvcache:touch:early_return",
    "kvcache:hit_rate:early_return",
    "banking:record:dead_assignment",
    "pipeline:push:dead_assignment",
    "ratelimiter:refill:TDL@now",
    "pipeline:push:TDL@m.acquire",
];

/// How long the completer waits for the backlog to drain after the
/// window before it counts what is left as failed.
const DRAIN: Duration = Duration::from_secs(60);

#[derive(Debug, Clone)]
enum Action {
    Submit {
        program: String,
        source: Arc<String>,
    },
    Fetch,
}

#[derive(Debug, Clone)]
struct Planned {
    due: Duration,
    base: &'static str,
    action: Action,
}

/// A submitted job.
#[derive(Debug, Clone)]
struct Job {
    id: u64,
    program: String,
    source: Arc<String>,
}

/// Jobs a set-up finished, by corpus program.
type SetupJobs = Vec<(&'static str, Job)>;

/// Everything observed about one request.
#[derive(Debug, Clone)]
struct Record {
    base: &'static str,
    fetch: bool,
    job: Option<Job>,
    due: Instant,
    sent: Option<Instant>,
    done: Option<Instant>,
    document: Option<String>,
    error: Option<String>,
    polls: usize,
    next_poll: Instant,
    root: SpanId,
}

struct Shared {
    records: Vec<Record>,
    outstanding: Vec<usize>,
    sending_done: bool,
    /// Each program's latest accepted job: what a fetch reads.
    latest: HashMap<&'static str, Job>,
    done: HashSet<u64>,
    /// Outstanding jobs sampled at each send, for the backlog check.
    backlog: Vec<(f64, usize)>,
    backlog_end: usize,
}

fn plan(served: &Served, seed: u64, seconds: f64) -> Vec<Planned> {
    let n = (served.rate * seconds).round().max(1.0) as usize;
    let due = |i: usize| Duration::from_secs_f64(i as f64 / served.rate);
    if served.name == COLD.name {
        gen::cold_requests(seed, n)
            .into_iter()
            .enumerate()
            .map(|(i, s)| Planned {
                due: due(i),
                base: s.base,
                action: Action::Submit {
                    program: s.program,
                    source: Arc::new(s.source),
                },
            })
            .collect()
    } else {
        gen::edit_requests(seed, n)
            .into_iter()
            .enumerate()
            .map(|(i, r)| Planned {
                due: due(i),
                base: r.base,
                action: match r.op {
                    EditOp::Fetch => Action::Fetch,
                    _ => Action::Submit {
                        program: r.base.to_string(),
                        source: r.source,
                    },
                },
            })
            .collect()
    }
}

fn submit_body(program: &str, source: &str) -> Vec<u8> {
    format!(
        "{{\"program\":\"{}\",\"source\":\"{}\"}}",
        escape(program),
        escape(source)
    )
    .into_bytes()
}

fn job_id(reply_text: &str) -> Option<u64> {
    Json::parse(reply_text)
        .ok()?
        .num_at(&["id"])
        .map(|v| v as u64)
}

/// Submits jobs outside the timed window (set-up and probes) and
/// waits until all of them are done.
fn run_jobs(conn: &mut Conn, jobs: &[(&str, &str)]) -> Result<Vec<u64>, String> {
    let mut ids = Vec::new();
    for (program, source) in jobs {
        let reply = conn.send("POST", "/v1/campaigns", Some(&submit_body(program, source)))?;
        ids.push(job_id(&reply.text()).ok_or_else(|| format!("submit refused: {}", reply.text()))?);
    }
    let deadline = Instant::now() + Duration::from_secs(120);
    for id in &ids {
        loop {
            let status = conn
                .send("GET", &format!("/v1/campaigns/{id}"), None)?
                .text();
            if status.contains("\"status\":\"done\"") {
                break;
            }
            if status.contains("\"status\":\"failed\"") || Instant::now() > deadline {
                return Err(format!("job {id} did not finish: {status}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    Ok(ids)
}

/// One set-up: start a daemon on a fresh state dir and bring it to the
/// state the workload starts from (cold: one warm-up job; edit: the
/// whole corpus in the store). Returns the daemon, the jobs the
/// set-up finished, and its duration.
fn setup(served: &Served, nfi: &Path, dir: &Path) -> Result<(Daemon, SetupJobs, f64), String> {
    let t = Instant::now();
    let daemon = Daemon::start(nfi, dir)?;
    let mut conn = Conn::new(&daemon.addr);
    let mut jobs = Vec::new();
    if served.name == COLD.name {
        let (name, count) = WARMUP;
        let p = nfi_corpus::by_name(name).expect("warm-up program is in the corpus");
        for k in 0..count {
            run_jobs(&mut conn, &[(&format!("warmup{k}"), p.source)])?;
        }
    } else {
        let programs = nfi_corpus::all();
        let bodies: Vec<(&str, &str)> = programs.iter().map(|p| (p.name, p.source)).collect();
        let ids = run_jobs(&mut conn, &bodies)?;
        for (p, id) in programs.iter().zip(ids) {
            let job = Job {
                id,
                program: p.name.to_string(),
                source: Arc::new(p.source.to_string()),
            };
            jobs.push((p.name, job));
        }
    }
    Ok((daemon, jobs, t.elapsed().as_secs_f64()))
}

/// Counters the daemon reports in `/v1/metrics` that the run reads as
/// before/after deltas.
const COUNTERS: [(&str, &str); 9] = [
    ("journal", "appended"),
    ("store", "units"),
    ("store", "replayed"),
    ("store", "executed"),
    ("store", "anchor_hits"),
    ("store", "anchor_misses"),
    ("retry", "retries"),
    ("queue", "completed"),
    ("queue", "failed"),
];

fn counters(m: &Json) -> HashMap<String, f64> {
    COUNTERS
        .iter()
        .map(|(s, k)| (format!("{s}.{k}"), m.num_at(&[s, k]).unwrap_or(0.0)))
        .collect()
}

/// Result of one timed window against one daemon.
struct Window {
    records: Vec<Record>,
    t0: Instant,
    cpu_s: f64,
    lag_ms: Vec<f64>,
    /// Mean outstanding jobs at the sends of the first and second half.
    backlog_halves: (f64, f64),
    backlog_end: usize,
    seconds: f64,
    deltas: HashMap<String, f64>,
    peak_rss_mb: f64,
}

fn window(
    daemon: &Daemon,
    planned: &[Planned],
    seed_jobs: SetupJobs,
    seconds: f64,
    rec: &Recorder,
) -> Result<Window, String> {
    let before = counters(&daemon.metrics()?);
    let start = Instant::now() + Duration::from_millis(20);
    let records = planned
        .iter()
        .map(|p| Record {
            base: p.base,
            fetch: matches!(p.action, Action::Fetch),
            job: None,
            due: start + p.due,
            sent: None,
            done: None,
            document: None,
            error: None,
            polls: 0,
            next_poll: start,
            root: None,
        })
        .collect();
    let done = seed_jobs.iter().map(|(_, job)| job.id).collect();
    let latest = seed_jobs.into_iter().collect();
    let shared = Mutex::new(Shared {
        records,
        outstanding: Vec::new(),
        sending_done: false,
        latest,
        done,
        backlog: Vec::new(),
        backlog_end: 0,
    });
    let cpu0 = daemon.cpu_seconds();
    let end_of_window = start + Duration::from_secs_f64(seconds);
    let wake = Condvar::new();
    std::thread::scope(|scope| {
        scope.spawn(|| send(daemon, planned, &shared, &wake, end_of_window, rec));
        scope.spawn(|| complete(daemon, &shared, &wake, end_of_window, rec));
    });
    let cpu_s = daemon.cpu_seconds() - cpu0;
    let after = counters(&daemon.metrics()?);
    let deltas = after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0)))
        .collect();
    let shared = shared.into_inner().expect("shared state lock poisoned");
    let lag_ms: Vec<f64> = shared
        .records
        .iter()
        .filter_map(|r| Some(r.sent?.saturating_duration_since(r.due).as_secs_f64() * 1e3))
        .collect();
    let half = seconds / 2.0;
    let (first, second): (Vec<_>, Vec<_>) = shared.backlog.iter().partition(|(t, _)| *t < half);
    let avg = |v: &[&(f64, usize)]| mean(&v.iter().map(|(_, n)| *n as f64).collect::<Vec<_>>());
    Ok(Window {
        records: shared.records,
        t0: start,
        cpu_s,
        lag_ms,
        backlog_halves: (avg(&first), avg(&second)),
        backlog_end: shared.backlog_end,
        seconds,
        deltas,
        peak_rss_mb: daemon.peak_rss_mb(),
    })
}

/// What a sent request came back with, applied under the lock.
enum Sent {
    Submitted(Result<nfi_serve::client::Reply, String>, Job),
    Fetched(
        Option<Result<nfi_serve::client::Reply, String>>,
        Option<Job>,
    ),
}

fn send(
    daemon: &Daemon,
    planned: &[Planned],
    shared: &Mutex<Shared>,
    wake: &Condvar,
    end_of_window: Instant,
    rec: &Recorder,
) {
    let mut conn = Conn::new(&daemon.addr);
    let first_due = shared.lock().expect("lock").records[0].due;
    for (i, p) in planned.iter().enumerate() {
        let due = shared.lock().expect("lock").records[i].due;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        let root = rec.enter("bench.request", i as u64, None);
        let result = match &p.action {
            Action::Submit { program, source } => {
                let body = submit_body(program, source);
                let reply = rec.span("serve.http.submit", i as u64, root, |_| {
                    conn.send("POST", "/v1/campaigns", Some(&body))
                });
                let job = Job {
                    id: 0,
                    program: program.clone(),
                    source: source.clone(),
                };
                Sent::Submitted(reply, job)
            }
            Action::Fetch => {
                let (target, finished) = {
                    let s = shared.lock().expect("lock");
                    let target = s.latest.get(p.base).cloned();
                    let finished = target.as_ref().is_some_and(|j| s.done.contains(&j.id));
                    (target, finished)
                };
                // The latest job's document: read it now if the job is
                // done, else the completer fetches it when it is.
                let reply = match &target {
                    Some(job) if finished => {
                        Some(rec.span("serve.http.document", i as u64, root, |_| {
                            conn.send("GET", &format!("/v1/campaigns/{}/document", job.id), None)
                        }))
                    }
                    Some(_) => None,
                    None => Some(Err("no job to fetch".to_string())),
                };
                Sent::Fetched(reply, target)
            }
        };
        let now = Instant::now();
        let mut s = shared.lock().expect("lock");
        s.records[i].sent = Some(sent);
        s.records[i].root = root;
        match result {
            Sent::Submitted(reply, mut job) => {
                match reply.map(|r| (r.status, job_id(&r.text()), r.text())) {
                    Ok((202, Some(id), _)) => {
                        job.id = id;
                        s.latest.insert(p.base, job.clone());
                        s.records[i].job = Some(job);
                        s.records[i].next_poll = now;
                        s.outstanding.push(i);
                    }
                    Ok((status, _, text)) => {
                        s.records[i].error = Some(format!("submit answered {status}: {text}"));
                    }
                    Err(e) => s.records[i].error = Some(format!("submit failed: {e}")),
                }
            }
            Sent::Fetched(reply, target) => {
                s.records[i].job = target;
                match reply {
                    Some(Ok(r)) if r.status == 200 => s.records[i].document = Some(r.text()),
                    Some(Ok(r)) => {
                        s.records[i].error =
                            Some(format!("fetch answered {}: {}", r.status, r.text()))
                    }
                    Some(Err(e)) => s.records[i].error = Some(format!("fetch failed: {e}")),
                    None => {
                        s.records[i].next_poll = now;
                        s.outstanding.push(i);
                    }
                }
                if !s.outstanding.contains(&i) {
                    s.records[i].done = Some(now);
                }
            }
        }
        if s.records[i].error.is_some() || s.records[i].done.is_some() {
            s.records[i].done = Some(now);
            rec.exit(root);
        }
        let at = sent.saturating_duration_since(first_due).as_secs_f64();
        let n = s.outstanding.len();
        s.backlog.push((at, n));
        drop(s);
        wake.notify_one();
    }
    if let Some(wait) = end_of_window.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
    let mut s = shared.lock().expect("lock");
    s.backlog_end = s.outstanding.len();
    s.sending_done = true;
}

fn complete(
    daemon: &Daemon,
    shared: &Mutex<Shared>,
    wake: &Condvar,
    end_of_window: Instant,
    rec: &Recorder,
) {
    let mut conn = Conn::new(&daemon.addr);
    loop {
        let now = Instant::now();
        let (due, next): (Vec<(usize, u64, SpanId)>, Option<Instant>) = {
            let s = shared.lock().expect("lock");
            if s.sending_done && s.outstanding.is_empty() {
                return;
            }
            if s.sending_done && now > end_of_window + DRAIN {
                drop(s);
                let mut s = shared.lock().expect("lock");
                for i in std::mem::take(&mut s.outstanding) {
                    s.records[i].error = Some("still outstanding after the drain".to_string());
                    s.records[i].done = Some(now);
                }
                return;
            }
            let due = s
                .outstanding
                .iter()
                .filter(|&&i| s.records[i].next_poll <= now)
                .map(|&i| {
                    (
                        i,
                        s.records[i].job.as_ref().map_or(0, |j| j.id),
                        s.records[i].root,
                    )
                })
                .collect();
            let next = s.outstanding.iter().map(|&i| s.records[i].next_poll).min();
            (due, next)
        };
        if due.is_empty() {
            // Sleep until the next poll is due or the sender submits.
            let wait = next
                .and_then(|t| t.checked_duration_since(now))
                .unwrap_or(Duration::from_millis(2))
                .min(Duration::from_millis(2));
            let guard = shared.lock().expect("lock");
            let _ = wake.wait_timeout(guard, wait).expect("lock");
            continue;
        }
        for (i, id, root) in due {
            let status = rec.span("serve.http.poll", i as u64, root, |_| {
                conn.send("GET", &format!("/v1/campaigns/{id}"), None)
            });
            let outcome = match status {
                Ok(r) if r.text().contains("\"status\":\"done\"") => {
                    let doc = rec.span("serve.http.document", i as u64, root, |_| {
                        conn.send("GET", &format!("/v1/campaigns/{id}/document"), None)
                    });
                    Some(match doc {
                        Ok(d) if d.status == 200 => Ok(d.text()),
                        Ok(d) => Err(format!("document answered {}: {}", d.status, d.text())),
                        Err(e) => Err(format!("document failed: {e}")),
                    })
                }
                Ok(r) if r.text().contains("\"status\":\"failed\"") => {
                    Some(Err(format!("job failed: {}", r.text())))
                }
                Ok(_) => None,
                Err(e) => Some(Err(format!("poll failed: {e}"))),
            };
            let now = Instant::now();
            let mut s = shared.lock().expect("lock");
            let r = &mut s.records[i];
            r.polls += 1;
            match outcome {
                None => {
                    // Poll again after 5% of the job's age, within
                    // [1 ms, 25 ms]: fine early, cheap for long jobs.
                    let age = now.saturating_duration_since(r.sent.unwrap_or(now));
                    r.next_poll =
                        now + (age / 20).clamp(Duration::from_millis(1), Duration::from_millis(25));
                }
                Some(result) => {
                    r.done = Some(now);
                    rec.exit(r.root);
                    match result {
                        Ok(doc) => r.document = Some(doc),
                        Err(e) => r.error = Some(e),
                    }
                    let id = r.job.as_ref().map(|j| j.id);
                    let ok = r.error.is_none();
                    s.outstanding.retain(|&o| o != i);
                    if let (true, Some(id)) = (ok, id) {
                        s.done.insert(id);
                    }
                }
            }
        }
    }
}

/// Per-job phase durations read from `GET /v1/campaigns/:id/trace`.
#[derive(Debug, Default, Clone)]
struct JobTrace {
    queue_start_ms: f64,
    queue_wait_ms: f64,
    plan_ms: f64,
    replay_self_ms: f64,
    /// `None` when the job's store replay consulted no previous segment.
    anchor_fallback_ms: Option<f64>,
    merge_ms: f64,
    persist_ms: f64,
    worker_ms: f64,
}

/// Daemon span names → the layer names the benchmark reports.
fn layer_of(daemon_span: &str) -> &'static str {
    match daemon_span {
        "accept" => "serve.accept",
        "plan" => "sfi.plan",
        "queue_wait" => "serve.queue.wait",
        "run" => "serve.lane.run",
        "store_replay" => "core.store.replay",
        "anchor_fallback" => "core.store.anchor_fallback",
        "execute" => "core.exec.execute",
        "worker_child" => "serve.worker.child",
        "exec" => "core.exec.child",
        "merge" => "core.store.merge",
        "persist" => "core.store.persist",
        _ => "serve.other",
    }
}

/// Walks a job's span tree: accumulates phase durations and imports
/// every span into the recorder under the request's root, anchored at
/// the client's send time.
fn walk(
    spans: &[Json],
    jt: &mut JobTrace,
    rec: &Recorder,
    request: u64,
    parent: SpanId,
    anchor: Instant,
) {
    for s in spans {
        let name = s.get("name").and_then(Json::str).unwrap_or("");
        let start = s.num_at(&["start_us"]).unwrap_or(0.0);
        let dur = s.num_at(&["dur_us"]).unwrap_or(0.0);
        let children = s.get("children").map(Json::arr).unwrap_or(&[]);
        let ms = dur / 1e3;
        match name {
            "queue_wait" => {
                jt.queue_start_ms = start / 1e3;
                jt.queue_wait_ms += ms;
            }
            "plan" => jt.plan_ms += ms,
            "store_replay" => {
                let covered: f64 = children.iter().filter_map(|c| c.num_at(&["dur_us"])).sum();
                jt.replay_self_ms += (dur - covered).max(0.0) / 1e3;
            }
            "anchor_fallback" => *jt.anchor_fallback_ms.get_or_insert(0.0) += ms,
            "merge" => jt.merge_ms += ms,
            "persist" => jt.persist_ms += ms,
            "worker_child" => jt.worker_ms += ms,
            _ => {}
        }
        let begin = anchor + Duration::from_secs_f64(start / 1e6);
        let id = rec.record(
            layer_of(name),
            request,
            parent,
            begin,
            begin + Duration::from_secs_f64(dur / 1e6),
        );
        walk(children, jt, rec, request, id, anchor);
    }
}

/// Largest number of jobs waiting in the queue at once, from the
/// queue-wait intervals (client clock, anchored at each send).
fn depth_max(intervals: &[(f64, f64)]) -> f64 {
    let mut events: Vec<(f64, i32)> = Vec::new();
    for &(a, b) in intervals {
        events.push((a, 1));
        events.push((b, -1));
    }
    events.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
    let (mut depth, mut max) = (0, 0);
    for (_, d) in events {
        depth += d;
        max = max.max(depth);
    }
    max as f64
}

pub fn units_in(document: &str) -> usize {
    document.matches("\"kind\":\"outcome\"").count()
}

/// Runs a served workload and reports its end-to-end (untraced) or
/// per-layer (traced) metrics.
pub fn run(served: &Served, opts: &Opts) -> Result<Outcome, String> {
    let served = &Served {
        rate: opts.rate.unwrap_or(served.rate),
        ..*served
    };
    let dir = crate::daemon::run_dir(served.name, opts.seed);
    let result = run_in(served, opts, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(served: &Served, opts: &Opts, dir: &Path) -> Result<Outcome, String> {
    let planned = plan(served, opts.seed, opts.seconds);
    if !opts.trace {
        let mut setups = Vec::new();
        let mut kept = None;
        for k in 0..SETUPS {
            let (daemon, jobs, secs) = setup(served, &opts.nfi, &dir.join(format!("setup{k}")))?;
            setups.push(secs);
            kept = Some((daemon, jobs));
        }
        let (daemon, jobs) = kept.expect("at least one set-up");
        let rec = Recorder::new(false);
        let t = Instant::now();
        let w = window(&daemon, &planned, jobs, opts.seconds, &rec)?;
        let window_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let probe = probe_documents(served, &daemon)?;
        drop(daemon);
        let probe_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let mut out = end_to_end(served, opts, &w, crate::stats::median(&setups))?;
        report_probe(&mut out, opts.trace, probe)?;
        out.notes.push(format!(
            "phases: set-ups {setups:.3?} s, window + drain {window_s:.1} s, probe {probe_s:.1} s, oracle {:.1} s",
            t.elapsed().as_secs_f64()
        ));
        return Ok(out);
    }
    // Traced: an untraced baseline window and a traced window, each on
    // a freshly set-up daemon, then the in-process layer replays.
    let (daemon, jobs, _) = setup(served, &opts.nfi, &dir.join("baseline"))?;
    let base = window(&daemon, &planned, jobs, opts.seconds, &Recorder::new(false))?;
    drop(daemon);
    let (daemon, jobs, _) = setup(served, &opts.nfi, &dir.join("traced"))?;
    let rec = Recorder::new(true);
    let w = window(&daemon, &planned, jobs, opts.seconds, &rec)?;
    let mut conn = Conn::new(&daemon.addr);
    let mut traces = Vec::new();
    for (i, r) in w.records.iter().enumerate() {
        if let (false, Some(job), Some(sent)) = (r.fetch, &r.job, r.sent) {
            let text = conn
                .send("GET", &format!("/v1/campaigns/{}/trace", job.id), None)?
                .text();
            let doc = Json::parse(&text)?;
            let mut jt = JobTrace::default();
            let spans = doc.get("spans").map(Json::arr).unwrap_or(&[]);
            walk(spans, &mut jt, &rec, i as u64, r.root, sent);
            traces.push((sent.saturating_duration_since(w.t0).as_secs_f64() * 1e3, jt));
        }
    }
    let probe = probe_documents(served, &daemon)?;
    drop(daemon);
    let mut out = per_layer(served, opts, &w, &base, &traces, &rec)?;
    report_probe(&mut out, opts.trace, probe)?;
    Ok(out)
}

/// The anchor-soundness probe (`edit_campaigns` only), run after the
/// timed window: for each of the fixed [`gen::probe_edits`] the program
/// is first resubmitted at its base source, then the edit, which the
/// program executes differently, is submitted and its document kept for
/// comparison with a fresh reference run. Anchors hash only the
/// enclosing function, so units elsewhere replay outcomes recorded
/// against the old version.
fn probe_documents(
    served: &Served,
    daemon: &Daemon,
) -> Result<Vec<(String, String, String)>, String> {
    if served.name != EDIT.name {
        return Ok(Vec::new());
    }
    let mut conn = Conn::new(&daemon.addr);
    let mut docs = Vec::new();
    for edit in gen::probe_edits() {
        let base = nfi_corpus::by_name(edit.base).expect("probe program is in the corpus");
        run_jobs(&mut conn, &[(edit.base, base.source)])?;
        let id = run_jobs(&mut conn, &[(edit.base, &edit.source)])?[0];
        let doc = conn
            .send("GET", &format!("/v1/campaigns/{id}/document"), None)?
            .text();
        docs.push((edit.label, edit.source, doc));
    }
    Ok(docs)
}

/// Compares the probe's documents with fresh references. Every probe
/// document counts as attempted; a stale one outside [`KNOWN_STALE`]
/// counts as failed.
pub fn report_probe(
    out: &mut Outcome,
    traced: bool,
    docs: Vec<(String, String, String)>,
) -> Result<(), String> {
    if docs.is_empty() {
        return Ok(());
    }
    let wanted: Vec<(String, Arc<String>)> = docs
        .iter()
        .map(|(label, source, _)| {
            let program = label.split(':').next().unwrap_or(label);
            (program.to_string(), Arc::new(source.clone()))
        })
        .collect();
    let references = oracle::reference_documents(&wanted)?;
    let mut stale = Vec::new();
    for ((label, _, doc), key) in docs.iter().zip(&wanted) {
        if references.get(key) != Some(doc) {
            stale.push(label.clone());
        }
    }
    let unexpected: Vec<&String> = stale
        .iter()
        .filter(|l| !KNOWN_STALE.contains(&l.as_str()))
        .collect();
    let fixed: Vec<&&str> = KNOWN_STALE
        .iter()
        .filter(|l| !stale.iter().any(|s| s == **l))
        .collect();
    out.notes.push(format!(
        "anchor-soundness probe: {}/{} edits the program executes differently served stale documents {:?}",
        stale.len(),
        docs.len(),
        stale
    ));
    for label in &unexpected {
        out.notes.push(format!(
            "probe {label}: stale document outside the known set"
        ));
    }
    if !fixed.is_empty() {
        out.notes.push(format!(
            "probe edits known stale but now served correctly: {fixed:?}"
        ));
    }
    out.attempted += docs.len();
    out.failed += unexpected.len();
    if traced {
        out.metrics.set("core.store.stale_docs", stale.len() as f64);
    } else {
        out.extra
            .put("core.store.stale_docs", stale.len() as f64, "count");
    }
    Ok(())
}

/// Checks every delivered document against a fresh reference
/// and returns, per record, whether it was correct.
fn check(records: &[Record]) -> Result<(Vec<bool>, Vec<String>), String> {
    let wanted: Vec<(String, Arc<String>)> = records
        .iter()
        .filter_map(|r| {
            Some((
                r.job.as_ref()?.program.clone(),
                r.job.as_ref()?.source.clone(),
            ))
        })
        .collect();
    let references = oracle::reference_documents(&wanted)?;
    let mut ok = Vec::with_capacity(records.len());
    let mut problems = Vec::new();
    for (i, r) in records.iter().enumerate() {
        let verdict = match (&r.error, &r.document, &r.job) {
            (Some(e), _, _) => Err(e.clone()),
            (None, Some(doc), Some(job)) => {
                match references.get(&(job.program.clone(), job.source.clone())) {
                    Some(reference) if reference == doc => Ok(()),
                    Some(_) => Err(format!(
                        "document of job {} differs from the reference",
                        job.id
                    )),
                    None => Err("no reference".to_string()),
                }
            }
            _ => Err("no document".to_string()),
        };
        if let Err(e) = &verdict {
            problems.push(format!("request {i} ({}): {e}", r.base));
        }
        ok.push(verdict.is_ok());
    }
    Ok((ok, problems))
}

fn validity(w: &Window) -> Result<(), String> {
    let lag_p99 = quantile(&w.lag_ms, 0.99);
    if lag_p99 > 100.0 {
        return Err(format!(
            "invalid run: the generator fell behind (lag p99 {lag_p99:.1} ms)"
        ));
    }
    let (first, second) = w.backlog_halves;
    if second > 2.0 * first + 2.0 {
        let end = w.t0 + Duration::from_secs_f64(w.seconds);
        let answered = w
            .records
            .iter()
            .filter(|r| r.done.is_some_and(|d| d <= end))
            .count();
        return Err(format!(
            "invalid run: the backlog grew during the window (mean outstanding {first:.1}, then {second:.1}; {:.2} requests/s answered in the window)",
            answered as f64 / w.seconds
        ));
    }
    Ok(())
}

fn end_to_end(served: &Served, opts: &Opts, w: &Window, setup_s: f64) -> Result<Outcome, String> {
    validity(w)?;
    let (ok, problems) = check(&w.records)?;
    let attempted = w.records.len();
    let latencies: Vec<f64> = w
        .records
        .iter()
        .zip(&ok)
        .filter(|(_, &ok)| ok)
        .filter_map(|(r, _)| Some(r.done?.saturating_duration_since(r.due).as_secs_f64() * 1e3))
        .collect();
    let within = latencies.iter().filter(|&&l| l <= served.limit_ms).count();
    let last_done = w
        .records
        .iter()
        .filter_map(|r| r.done)
        .max()
        .unwrap_or(w.t0);
    let elapsed = last_done.saturating_duration_since(w.t0).as_secs_f64();
    let units: usize = w
        .records
        .iter()
        .zip(&ok)
        .filter(|(_, &ok)| ok)
        .filter_map(|(r, _)| r.document.as_deref().map(units_in))
        .sum();
    let failed = attempted - latencies.len();
    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put("latency_p50_ms", quantile(&latencies, 0.5), "ms");
    m.put("latency_p90_ms", quantile(&latencies, 0.9), "ms");
    m.put(
        "requests_per_s",
        ratio(latencies.len() as f64, elapsed),
        "1/s",
    );
    m.put("units_per_cpu_s", ratio(units as f64, w.cpu_s), "1/s");
    m.put(
        "slo_attainment",
        ratio(within as f64, attempted as f64),
        "ratio",
    );
    m.put("peak_rss_mb", w.peak_rss_mb, "MB");
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
    extra.put("bench.generator_lag_p50_ms", quantile(&w.lag_ms, 0.5), "ms");
    extra.put("bench.generator_lag_max_ms", quantile(&w.lag_ms, 1.0), "ms");
    extra.put("bench.backlog_end", w.backlog_end as f64, "count");
    extra.put("bench.daemon_cpu_s", w.cpu_s, "s");
    let mut deltas: Vec<(&String, &f64)> = w.deltas.iter().collect();
    deltas.sort_by(|a, b| a.0.cmp(b.0));
    for (counter, delta) in deltas {
        extra.put(&format!("daemon.{counter}"), *delta, "count");
    }
    let mut notes = vec![format!(
        "{}: open loop at {}/s for {} s, limit {} ms, daemon `nfi serve {}`; {} requests, {} latency samples (p99 needs 1000)",
        served.name,
        served.rate,
        opts.seconds,
        served.limit_ms,
        crate::daemon::SERVE_FLAGS.join(" "),
        attempted,
        latencies.len()
    )];
    notes.extend(problems);
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
        extra,
        notes,
    })
}

fn per_layer(
    served: &Served,
    opts: &Opts,
    w: &Window,
    base: &Window,
    traces: &[(f64, JobTrace)],
    rec: &Recorder,
) -> Result<Outcome, String> {
    validity(w)?;
    let (ok, problems) = check(&w.records)?;
    let attempted = w.records.len();
    let failed = ok.iter().filter(|&&o| !o).count();
    let rps = |w: &Window| {
        let last = w
            .records
            .iter()
            .filter_map(|r| r.done)
            .max()
            .unwrap_or(w.t0);
        ratio(
            w.records.iter().filter(|r| r.error.is_none()).count() as f64,
            last.saturating_duration_since(w.t0).as_secs_f64(),
        )
    };
    let p50 = |w: &Window| {
        let l: Vec<f64> = w
            .records
            .iter()
            .filter_map(|r| Some(r.done?.saturating_duration_since(r.due).as_secs_f64() * 1e3))
            .collect();
        quantile(&l, 0.5)
    };
    let jobs = traces.len() as f64;
    let col = |f: fn(&JobTrace) -> f64| traces.iter().map(|(_, t)| f(t)).collect::<Vec<f64>>();
    let queue: Vec<(f64, f64)> = traces
        .iter()
        .map(|(sent, t)| {
            (
                sent + t.queue_start_ms,
                sent + t.queue_start_ms + t.queue_wait_ms,
            )
        })
        .collect();
    let d = |k: &str| w.deltas.get(k).copied().unwrap_or(0.0);
    let submit_spans: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s| s.name == "serve.http.submit")
        .map(|s| (s.end_us - s.start_us) / 1e3)
        .collect();
    let doc_spans: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s| s.name == "serve.http.document")
        .map(|s| (s.end_us - s.start_us) / 1e3)
        .collect();
    let polls: Vec<f64> = w
        .records
        .iter()
        .filter(|r| !r.fetch)
        .map(|r| r.polls as f64)
        .collect();
    let steps: Vec<crate::inproc::Step> = w
        .records
        .iter()
        .filter_map(|r| {
            let job = r.job.as_ref()?;
            Some(crate::inproc::Step {
                fetch: r.fetch,
                program: job.program.clone(),
                source: job.source.clone(),
            })
        })
        .collect();
    let mut m = crate::layers::zeroed();
    m.set("serve.http.submit_ms", quantile(&submit_spans, 0.5));
    m.set("serve.http.document_ms", quantile(&doc_spans, 0.5));
    m.set("serve.http.polls_per_job", mean(&polls));
    m.set(
        "serve.journal.appends_per_job",
        ratio(d("journal.appended"), jobs),
    );
    m.set(
        "serve.queue.wait_p50_ms",
        quantile(&col(|t| t.queue_wait_ms), 0.5),
    );
    m.set(
        "serve.queue.wait_p90_ms",
        quantile(&col(|t| t.queue_wait_ms), 0.9),
    );
    m.set("serve.queue.depth_max", depth_max(&queue));
    m.set(
        "serve.worker.dispatch_ms",
        quantile(&col(|t| t.worker_ms), 0.5),
    );
    m.set("serve.worker.retries", d("retry.retries"));
    m.set(
        "core.store.replay_ratio",
        ratio(d("store.replayed"), d("store.units")),
    );
    m.set(
        "core.store.anchor_hit_ratio",
        ratio(
            d("store.anchor_hits"),
            d("store.anchor_hits") + d("store.anchor_misses"),
        ),
    );
    m.set("core.store.executed_units", d("store.executed"));
    m.set(
        "core.store.replay_ms",
        quantile(&col(|t| t.replay_self_ms), 0.5),
    );
    let fallbacks: Vec<f64> = traces
        .iter()
        .filter_map(|(_, t)| t.anchor_fallback_ms)
        .collect();
    m.set("core.store.anchor_fallback_ms", quantile(&fallbacks, 0.5));
    m.set("core.store.merge_ms", quantile(&col(|t| t.merge_ms), 0.5));
    m.set(
        "core.store.persist_ms",
        quantile(&col(|t| t.persist_ms), 0.5),
    );
    m.set("sfi.plan_ms", quantile(&col(|t| t.plan_ms), 0.5));
    m.set("sfi.units_per_campaign", ratio(d("store.units"), jobs));
    crate::inproc::replay_campaigns(served.name == EDIT.name, &steps, rec, &mut m)?;
    m.set("bench.generator_lag_ms", quantile(&w.lag_ms, 0.99));
    m.set("bench.backlog_end", w.backlog_end as f64);
    m.set("bench.tracing_overhead", ratio(rps(base), rps(w)) - 1.0);
    m.set("bench.tracing_overhead_p50", ratio(p50(w), p50(base)) - 1.0);
    let spans_path = std::path::PathBuf::from(".bench_run")
        .join(format!("spans-{}-{}.jsonl", served.name, opts.seed));
    rec.write_jsonl(&spans_path)?;
    let mut notes = vec![format!("spans written to {}", spans_path.display())];
    notes.extend(crate::layers::self_time_table(rec));
    notes.extend(problems);
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
        extra: Metrics::default(),
        notes,
    })
}
