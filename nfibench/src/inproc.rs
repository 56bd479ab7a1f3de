//! In-process replays of the generated inputs through the public entry
//! points of the layers below the daemon, for the traced run: the
//! daemon executes in spawned children, where the benchmark cannot
//! time individual calls.

use crate::stats::{mean, ratio, Metrics};
use crate::trace::Recorder;
use nfi_core::{exec_units, plan_campaign, Orchestrator};
use nfi_pylite::{HangKind, MachineConfig, Module, RunStatus};
use nfi_sfi::CampaignSpec;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Requests the in-process replay covers (the first ones of the run:
/// four rounds over the corpus).
const REPLAY_STEPS: usize = 48;

/// Dispatches whose executed units the VM pass re-runs for step
/// counts (the first of them, so every corpus program is covered once
/// in `cold_campaigns`).
const VM_SAMPLE: usize = 12;

/// Hits and misses of the four content-addressed caches.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCounts([(u64, u64); 4]);

impl CacheCounts {
    pub fn now() -> CacheCounts {
        let pair = |s: nfi_inject::CacheStats| (s.hits, s.misses);
        CacheCounts([
            pair(nfi_inject::CodeCache::global().stats()),
            pair(nfi_inject::SuiteCache::global().stats()),
            pair(nfi_inject::ExperimentCache::global().stats()),
            pair(nfi_core::MutantCache::global().stats()),
        ])
    }

    /// Hit ratios of the calls made since `earlier`, into `m`.
    pub fn apply_since(&self, earlier: &CacheCounts, m: &mut Metrics) {
        let names = [
            "inject.code_cache_hit_ratio",
            "inject.suite_cache_hit_ratio",
            "inject.experiment_cache_hit_ratio",
            "inject.mutant_cache_hit_ratio",
        ];
        for (k, name) in names.iter().enumerate() {
            let hits = self.0[k].0.saturating_sub(earlier.0[k].0) as f64;
            let misses = self.0[k].1.saturating_sub(earlier.0[k].1) as f64;
            m.set(name, ratio(hits, hits + misses));
        }
    }
}

/// Step counts of suites re-run on the VM.
#[derive(Debug, Default)]
pub struct VmPass {
    units: usize,
    steps: u64,
    exhausted: usize,
    secs: f64,
}

impl VmPass {
    /// Runs `module`'s suite under `machine`, uncached, and counts its
    /// steps and whether any test exhausted the step budget.
    pub fn run(&mut self, module: &Module, machine: &MachineConfig) {
        let t = Instant::now();
        let report = nfi_inject::run_suite_uncached(module, machine);
        self.secs += t.elapsed().as_secs_f64();
        self.units += 1;
        self.steps += report.tests.iter().map(|t| t.outcome.steps).sum::<u64>();
        if report
            .tests
            .iter()
            .any(|t| matches!(t.outcome.status, RunStatus::Hung(HangKind::StepBudget)))
        {
            self.exhausted += 1;
        }
    }

    pub fn apply(&self, m: &mut Metrics) {
        m.set(
            "pylite.vm_steps_per_unit",
            ratio(self.steps as f64, self.units as f64),
        );
        m.set("pylite.vm_steps_per_s", ratio(self.steps as f64, self.secs));
        m.set(
            "pylite.budget_exhausted_ratio",
            ratio(self.exhausted as f64, self.units as f64),
        );
    }
}

/// One request of a served workload, as replayed in-process: a submit
/// (plan + incremental run) or a fetch (full replay from the store).
pub struct Step {
    pub fetch: bool,
    pub program: String,
    pub source: Arc<String>,
}

/// Replays the served requests on an in-process orchestrator over a
/// fresh store (seeded with the corpus first for `edit_campaigns`),
/// timing `plan_campaign`, `Orchestrator::run_spec_with` and the
/// `service::exec_units` dispatch inside it, then re-runs a sample of
/// the executed units on the VM for step counts.
pub fn replay_campaigns(
    populate: bool,
    steps: &[Step],
    rec: &Recorder,
    m: &mut Metrics,
) -> Result<(), String> {
    let dir = std::path::PathBuf::from(".bench_run").join(format!("inproc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let result = replay_in(&dir, populate, steps, rec, m);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn replay_in(
    dir: &std::path::Path,
    populate: bool,
    steps: &[Step],
    rec: &Recorder,
    m: &mut Metrics,
) -> Result<(), String> {
    let orch = Orchestrator::new(dir)?;
    if populate {
        for p in nfi_corpus::all() {
            orch.run_program(p.name, p.source)?;
        }
    }
    let caches = CacheCounts::now();
    let mut parse_ms = Vec::new();
    let mut exec_s = 0.0;
    let mut executed = 0usize;
    let mut sample: Vec<(CampaignSpec, Vec<usize>)> = Vec::new();
    for (k, step) in steps.iter().take(REPLAY_STEPS).enumerate() {
        let request = 1_000_000 + k as u64;
        let root = rec.enter("inproc.request", request, None);
        let t = Instant::now();
        rec.span("pylite.parse", request, root, |_| {
            nfi_pylite::parse(&step.source)
        })
        .map_err(|e| e.to_string())?;
        parse_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let spec = rec.span("sfi.plan_campaign", request, root, |_| {
            plan_campaign(&step.program, &step.source, orch.seed)
        })?;
        if step.fetch {
            // A version the store has since pruned rebuilds by full
            // re-execution, as the daemon's document endpoint does.
            rec.span("core.store.replay_full", request, root, |_| {
                match orch.replay_full(&spec) {
                    Some(doc) => Ok(doc),
                    None => {
                        nfi_core::exec_spec(&spec, &orch.machine, orch.config).map(|r| r.encode())
                    }
                }
            })?;
        } else {
            let (machine, config) = (orch.machine.clone(), orch.config);
            let run = rec.span("core.store.run_spec_with", request, root, |parent| {
                orch.run_spec_with(&spec, |spec, missing| {
                    let t = Instant::now();
                    let wanted: HashSet<usize> = missing.iter().copied().collect();
                    let run = rec.span("core.exec.exec_units", request, parent, |_| {
                        exec_units(spec, &machine, config, |u| wanted.contains(&u.index))
                    });
                    exec_s += t.elapsed().as_secs_f64();
                    if sample.len() < VM_SAMPLE {
                        sample.push((spec.clone(), missing.to_vec()));
                    }
                    run.map(|r| vec![r])
                })
            })?;
            executed += run.executed;
        }
        rec.exit(root);
    }
    CacheCounts::now().apply_since(&caches, m);
    m.set("core.exec.unit_ms", ratio(exec_s * 1e3, executed as f64));
    m.set("pylite.parse_ms", mean(&parse_ms));
    let mut vm = VmPass::default();
    for (spec, indices) in &sample {
        let module = nfi_pylite::parse(&spec.source).map_err(|e| e.to_string())?;
        let wanted: HashSet<usize> = indices.iter().copied().collect();
        for unit in spec.units.iter().filter(|u| wanted.contains(&u.index)) {
            let plan = unit
                .to_plan()
                .ok_or_else(|| format!("unknown operator {}", unit.operator))?;
            if let Some(fault) = nfi_sfi::apply_plan(&module, &plan) {
                let machine = MachineConfig {
                    seed: unit.seed,
                    ..orch.machine.clone()
                };
                vm.run(&fault.module, &machine);
            }
        }
    }
    vm.apply(m);
    Ok(())
}
