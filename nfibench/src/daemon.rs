//! The `nfi serve` daemon under test: start, probe through `/proc`,
//! scrape `/v1/metrics`, stop. Also the benchmark's own `/proc` probes.

use crate::json::Json;
use nfi_serve::client::{Client, Reply};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Daemon flags every serve workload uses: two scheduler lanes (one per
/// core of the reference machine) and the CLI's default worker tier,
/// one spawned `nfi campaign exec` child per job.
pub const SERVE_FLAGS: [&str; 4] = ["--lanes", "2", "--workers", "1"];

pub struct Daemon {
    child: Child,
    pub addr: String,
    pub pid: u32,
}

impl Daemon {
    /// Starts `nfi serve` on an ephemeral port over `state_dir` and
    /// waits until it answers `/healthz`.
    pub fn start(nfi: &Path, state_dir: &Path) -> Result<Daemon, String> {
        std::fs::create_dir_all(state_dir)
            .map_err(|e| format!("cannot create {}: {e}", state_dir.display()))?;
        let log_path = state_dir.with_extension("log");
        let log = std::fs::File::create(&log_path)
            .map_err(|e| format!("cannot create {}: {e}", log_path.display()))?;
        let child = Command::new(nfi)
            .arg("serve")
            .arg("--state-dir")
            .arg(state_dir)
            .args(["--addr", "127.0.0.1:0"])
            .args(SERVE_FLAGS)
            .stdout(log)
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", nfi.display()))?;
        let pid = child.id();
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            pid,
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        while daemon.addr.is_empty() {
            if Instant::now() > deadline {
                return Err("nfi serve did not print its address".to_string());
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("nfi serve exited early: {status}"));
            }
            let text = std::fs::read_to_string(&log_path).unwrap_or_default();
            if let Some(rest) = text.split("http://").nth(1) {
                if let Some(end) = rest.find(|c: char| c.is_whitespace()) {
                    daemon.addr = rest[..end].to_string();
                }
            }
            if daemon.addr.is_empty() {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let mut conn = Conn::new(&daemon.addr);
        loop {
            if matches!(conn.send("GET", "/healthz", None), Ok(r) if r.status == 200) {
                return Ok(daemon);
            }
            if Instant::now() > deadline {
                return Err("nfi serve never became healthy".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// CPU seconds of the daemon, counting the worker children it has
    /// reaped: utime + stime + cutime + cstime of `/proc/<pid>/stat`.
    pub fn cpu_seconds(&self) -> f64 {
        proc_cpu_seconds(&format!("/proc/{}/stat", self.pid), true)
    }

    /// Peak resident set of the daemon process itself (`VmHWM`).
    pub fn peak_rss_mb(&self) -> f64 {
        proc_hwm_mb(&format!("/proc/{}/status", self.pid))
    }

    /// `/v1/metrics` as JSON.
    pub fn metrics(&self) -> Result<Json, String> {
        let reply = Conn::new(&self.addr).send("GET", "/v1/metrics", None)?;
        Json::parse(&reply.text())
    }
}

impl Drop for Daemon {
    /// Kills the daemon's descendants and then the daemon, and waits
    /// until every one of them has exited.
    fn drop(&mut self) {
        let descendants = descendants(self.pid);
        for pid in &descendants {
            let _ = Command::new("kill").arg("-9").arg(pid.to_string()).status();
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        let deadline = Instant::now() + Duration::from_secs(10);
        while descendants
            .iter()
            .any(|pid| Path::new(&format!("/proc/{pid}")).exists())
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// Every live process below `root` in the process tree.
fn descendants(root: u32) -> Vec<u32> {
    let mut parent_of = Vec::new();
    if let Ok(entries) = std::fs::read_dir("/proc") {
        for entry in entries.flatten() {
            let Ok(pid) = entry.file_name().to_string_lossy().parse::<u32>() else {
                continue;
            };
            let stat = std::fs::read_to_string(entry.path().join("stat")).unwrap_or_default();
            if let Some(ppid) = stat_fields(&stat).and_then(|f| f.get(1)?.parse::<u32>().ok()) {
                parent_of.push((pid, ppid));
            }
        }
    }
    let mut out = Vec::new();
    let mut frontier = vec![root];
    while let Some(p) = frontier.pop() {
        for &(pid, ppid) in &parent_of {
            if ppid == p && !out.contains(&pid) {
                out.push(pid);
                frontier.push(pid);
            }
        }
    }
    out
}

/// The fields of a `/proc/<pid>/stat` line after the `(comm)` field,
/// so index 0 is field 3 (state).
fn stat_fields(stat: &str) -> Option<Vec<&str>> {
    let rest = &stat[stat.rfind(')')? + 1..];
    Some(rest.split_whitespace().collect())
}

fn clock_ticks() -> f64 {
    Command::new("getconf")
        .arg("CLK_TCK")
        .output()
        .ok()
        .and_then(|o| String::from_utf8_lossy(&o.stdout).trim().parse().ok())
        .unwrap_or(100.0)
}

fn proc_cpu_seconds(path: &str, with_children: bool) -> f64 {
    let stat = std::fs::read_to_string(path).unwrap_or_default();
    let Some(fields) = stat_fields(&stat) else {
        return 0.0;
    };
    // utime, stime, cutime, cstime are fields 14..=17.
    let take = if with_children { 4 } else { 2 };
    let ticks: f64 = fields
        .iter()
        .skip(11)
        .take(take)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / clock_ticks()
}

fn proc_hwm_mb(path: &str) -> f64 {
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds of this benchmark process (user + system).
pub fn self_cpu_seconds() -> f64 {
    proc_cpu_seconds("/proc/self/stat", false)
}

/// Peak resident set of this benchmark process.
pub fn self_peak_rss_mb() -> f64 {
    proc_hwm_mb("/proc/self/status")
}

/// A keep-alive connection that reconnects once after a transport
/// error (the daemon closes idle connections).
pub struct Conn {
    addr: String,
    client: Option<Client>,
}

impl Conn {
    pub fn new(addr: &str) -> Conn {
        Conn {
            addr: addr.to_string(),
            client: None,
        }
    }

    pub fn send(&mut self, method: &str, path: &str, body: Option<&[u8]>) -> Result<Reply, String> {
        for attempt in 0..2 {
            if self.client.is_none() {
                self.client = Some(Client::connect(self.addr.as_str())?);
            }
            let client = self.client.as_mut().expect("connected above");
            match client.send(method, path, body) {
                Ok(reply) => {
                    if reply.header("connection") == Some("close") {
                        self.client = None;
                    }
                    return Ok(reply);
                }
                Err(e) => {
                    self.client = None;
                    if attempt == 1 {
                        return Err(e);
                    }
                }
            }
        }
        unreachable!("the loop returns on its second attempt")
    }
}

/// The working directory of one run, inside the checkout.
pub fn run_dir(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(".bench_run").join(format!("{workload}-{seed}-{}", std::process::id()))
}
