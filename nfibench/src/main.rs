//! `nfibench` — the repository benchmark.
//!
//! ```text
//! nfibench --nfi <path to nfi> --workload <name> --seed <n> --seconds <s> --trace <0|1> [--rate <r>]
//! ```
//!
//! Workloads: `store_edits` drives the incremental campaign store
//! in-process in a closed loop; `nl_faults` drives the NL → fault
//! pipeline and the RLHF review loop in-process; `cold_campaigns` and
//! `edit_campaigns` drive a deployed `nfi serve` daemon over HTTP in an
//! open loop. Every output is checked against an independent reference
//! outside the timed window. With `--trace 0` the last line of standard output is
//! the end-to-end result, with `--trace 1` the per-layer one; the lines
//! before it are a readable report. `--rate` replaces an open-loop
//! workload's arrival rate, for capacity sweeps. See
//! `nfibench/DESIGN.md`.

mod campaigns;
mod daemon;
mod gen;
mod inproc;
mod json;
mod layers;
mod nl;
mod oracle;
mod stats;
mod store;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// Command-line options.
pub struct Opts {
    pub nfi: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Arrival rate replacing an open-loop workload's own.
    pub rate: Option<f64>,
}

/// What a workload run reports.
pub struct Outcome {
    pub attempted: usize,
    /// Requests that failed, were refused, or returned a wrong output.
    pub failed: usize,
    /// The metrics of the result line.
    pub metrics: stats::Metrics,
    /// Further metrics printed only in the readable report.
    pub extra: stats::Metrics,
    pub notes: Vec<String>,
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds expects a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let rate = match args.iter().position(|a| a == "--rate") {
        None => None,
        Some(_) => match get("--rate")?.parse::<f64>() {
            Ok(r) if r > 0.0 && r <= 1000.0 => Some(r),
            _ => return Err("--rate must be a number in (0, 1000]".to_string()),
        },
    };
    Ok(Opts {
        rate,
        nfi: PathBuf::from(get("--nfi")?),
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed expects an unsigned integer".to_string())?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
        },
    })
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|opts| {
        let outcome = match opts.workload.as_str() {
            "cold_campaigns" => campaigns::run(&campaigns::COLD, &opts),
            "edit_campaigns" => campaigns::run(&campaigns::EDIT, &opts),
            "nl_faults" => nl::run(&opts),
            store::NAME => store::run(&opts),
            other => Err(format!(
                "unknown workload `{other}` (store_edits, nl_faults, edit_campaigns, cold_campaigns)"
            )),
        };
        outcome
    });
    match result {
        Ok(out) => {
            for note in &out.notes {
                println!("# {note}");
            }
            for (name, value, unit) in out.metrics.0.iter().chain(&out.extra.0) {
                println!("{name:<36} {value:>14.4} {unit}");
            }
            println!(
                "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
                out.failed == 0,
                out.attempted,
                out.failed,
                out.metrics.json()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("nfibench: {e}");
            ExitCode::FAILURE
        }
    }
}
