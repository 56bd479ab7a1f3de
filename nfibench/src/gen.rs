//! Seeded input generators. Every input is a pure function of the
//! seed: the same seed gives byte-identical inputs, and the program
//! under test only ever sees the generated sources and descriptions.
//!
//! Each generator cycles round-robin over the 12 corpus programs, so a
//! seed changes *which* variant, function, edit or phrasing a request
//! carries but never how many requests each program receives. Per-
//! program cold cost is strongly bimodal (two programs have hang
//! mutants that burn the VM's step budget), and a mix that drifted
//! with the seed would move the tail from seed to seed.

use nfi_corpus::SeedProgram;
use nfi_pylite::analysis::ModuleIndex;
use nfi_sfi::FaultClass;
use std::collections::BTreeMap;
use std::sync::Arc;

/// SplitMix64: a tiny, well-distributed seeded generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A generator stream for one (seed, purpose) pair, so streams that
/// serve different purposes never share draws.
fn stream(seed: u64, purpose: u64) -> Rng {
    let mut rng = Rng::new(seed ^ purpose.wrapping_mul(0xA24B_AED4_963E_E407));
    rng.next_u64();
    rng
}

/// One `POST /v1/campaigns` body: a program name and its source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Submission {
    /// Corpus program the source derives from.
    pub base: &'static str,
    /// Program name sent to the daemon.
    pub program: String,
    /// Source text sent to the daemon.
    pub source: String,
}

/// Renames every occurrence of the given identifiers in `source` to
/// `<name>_<suffix>`, skipping comments, string literals and attribute
/// names (`obj.name`). Renaming every use of a name the program binds
/// is alpha-equivalent: same statements, same injection sites, same
/// behaviour, but different printed text, hence a different module
/// fingerprint and different anchors for the functions it touches.
pub fn rename_identifiers(source: &str, names: &[String], suffix: &str) -> String {
    let bytes = source.as_bytes();
    let mut out = String::with_capacity(source.len() + 64);
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if c == b'#' {
            let end = source[i..].find('\n').map_or(bytes.len(), |n| i + n);
            out.push_str(&source[i..end]);
            i = end;
        } else if c == b'"' || c == b'\'' {
            let mut j = i + 1;
            while j < bytes.len() && bytes[j] != c {
                j += if bytes[j] == b'\\' { 2 } else { 1 };
            }
            let end = (j + 1).min(bytes.len());
            out.push_str(&source[i..end]);
            i = end;
        } else if c.is_ascii_alphabetic() || c == b'_' {
            let mut j = i;
            while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                j += 1;
            }
            let ident = &source[i..j];
            let attribute = i > 0 && bytes[i - 1] == b'.';
            out.push_str(ident);
            if !attribute && names.iter().any(|n| n == ident) {
                out.push('_');
                out.push_str(suffix);
            }
            i = j;
        } else {
            let len = source[i..].chars().next().map_or(1, char::len_utf8);
            out.push_str(&source[i..i + len]);
            i += len;
        }
    }
    out
}

/// The order `cold_campaigns` cycles through the corpus: `pipeline`
/// (3 to 3.5 s in the daemon on the reference machine) first and
/// `ratelimiter` (about 0.8 s) three seconds later, so at most the light
/// request right after `ratelimiter` finds both lanes busy and the
/// median stays among light jobs that did not queue. In corpus order
/// `ratelimiter` arrives 2.0 s after `pipeline`, and how many light jobs
/// queued behind the pair depended on the host's speed that minute,
/// which made the median jump between runs.
pub const COLD_ORDER: [&str; 12] = [
    "pipeline",
    "ecommerce",
    "banking",
    "kvcache",
    "jobqueue",
    "inventory",
    "filestore",
    "sessions",
    "metrics",
    "ratelimiter",
    "orderbook",
    "textindex",
];

/// `cold_campaigns` inputs: request `i` submits a novel variant of
/// corpus program `COLD_ORDER[i % 12]` — a fresh program name and an
/// alpha-renamed source — so every unit misses the store, the anchors
/// and every content-addressed cache while costing what the base
/// program costs.
pub fn cold_requests(seed: u64, n: usize) -> Vec<Submission> {
    let mut rng = stream(seed, 1);
    (0..n)
        .map(|i| {
            let name = COLD_ORDER[i % COLD_ORDER.len()];
            let base = nfi_corpus::by_name(name).expect("cold program is in the corpus");
            let suffix = format!("v{:010x}", rng.next_u64() >> 24);
            Submission {
                base: base.name,
                program: format!("{}_{suffix}", base.name),
                source: rename_identifiers(base.source, &base.target_functions(), &suffix),
            }
        })
        .collect()
}

/// The pseudo-function name of a program's non-def top-level group.
pub const TOP_LEVEL: &str = "<top>";

/// Local names of each non-test function of `program` (parameters,
/// assigned names and loop variables that are not module-level names).
/// Renaming them is a true no-op: the function compiles to the same
/// instructions, so every task executes the same steps.
pub fn local_names(program: &SeedProgram) -> BTreeMap<String, Vec<String>> {
    let module = program.module().expect("corpus program parses");
    let index = ModuleIndex::build(&module);
    let module_level: Vec<&str> = index
        .globals
        .iter()
        .map(String::as_str)
        .chain(index.functions.iter().map(|f| f.name.as_str()))
        .collect();
    let mut out = BTreeMap::new();
    for f in index
        .functions
        .iter()
        .filter(|f| !f.name.starts_with("test_"))
    {
        let mut names = f.params.clone();
        let mut globals = Vec::new();
        for line in def_block(program.source, &f.name).lines().skip(1) {
            let t = line.trim_start();
            if let Some(rest) = t.strip_prefix("global ") {
                globals.extend(rest.split(',').map(|n| n.trim().to_string()));
            }
            let candidate = if let Some(rest) = t.strip_prefix("for ") {
                rest.split_whitespace().next().map(str::to_string)
            } else {
                let ident: String = t
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                let after = t[ident.len()..].trim_start();
                (after.starts_with('=') && !after.starts_with("==")).then_some(ident)
            };
            if let Some(name) = candidate {
                if !name.is_empty() && !names.contains(&name) {
                    names.push(name);
                }
            }
        }
        names.retain(|n| !globals.contains(n) && !module_level.contains(&n.as_str()));
        out.insert(f.name.clone(), names);
    }
    out
}

/// The lines of the top-level `def name(` block in `source`.
fn def_block<'a>(source: &'a str, name: &str) -> &'a str {
    let header = format!("def {name}(");
    let Some(start) = source.find(&header) else {
        return "";
    };
    let body = &source[start..];
    let end = body
        .match_indices('\n')
        .map(|(i, _)| i + 1)
        .find(|&i| body[i..].chars().next().is_some_and(|c| !c.is_whitespace()))
        .unwrap_or(body.len());
    &body[..end]
}

/// The behaviour-changing edit of each program in `edit_campaigns`, as
/// (program, index of a unit in the plan of the program's corpus
/// source): the SFI timing-delay mutant at that unit's site (`TDL`, a
/// `sleep(60.0)` inserted before a call — a slow dependency), applied to
/// the source. The edit changes what the function does, so the outcomes
/// of the function's own units change and a store that replayed them
/// without re-executing serves a wrong document. Each program's first
/// `TDL` unit whose edit the output oracle confirms the daemon serves
/// correctly; `ratelimiter` and `pipeline` have none (their delays move
/// outcomes of units in other functions), so they get no fault edits
/// and one of their `TDL` edits goes to the anchor-soundness probe.
pub const FAULT_EDITS: [(&str, usize); 10] = [
    ("ecommerce", 34),
    ("banking", 51),
    ("kvcache", 48),
    ("jobqueue", 44),
    ("inventory", 31),
    ("filestore", 30),
    ("sessions", 35),
    ("metrics", 26),
    ("orderbook", 49),
    ("textindex", 20),
];

/// A behaviour-changing edit of one function: its def replaced by the
/// printed def of an SFI mutant.
#[derive(Debug, Clone)]
pub struct FaultEdit {
    pub function: String,
    /// Printed def of the faulty function.
    pub def: String,
    /// `<program>:<function>:<operator>@<site detail>`.
    pub label: String,
}

/// The edit SFI unit `index` of `program`'s campaign plan makes.
pub fn mutant_edit(program: &SeedProgram, index: usize) -> Option<FaultEdit> {
    let module = program.module().expect("corpus program parses");
    let seed = nfi_pylite::MachineConfig::default().seed;
    let spec = nfi_core::plan_campaign(program.name, program.source, seed).ok()?;
    let unit = spec.units.get(index)?;
    let fault = nfi_sfi::apply_plan(&module, &unit.to_plan()?)?;
    let function = unit.site.function.clone()?;
    let def = fault.module.body.iter().find_map(|stmt| match &stmt.kind {
        nfi_pylite::StmtKind::Def { name, .. } if *name == function => {
            Some(nfi_pylite::print_block(std::slice::from_ref(stmt), 0))
        }
        _ => None,
    })?;
    Some(FaultEdit {
        label: format!(
            "{}:{function}:{}@{}",
            program.name, unit.operator, unit.site.detail
        ),
        function,
        def,
    })
}

/// `program`'s entry of [`FAULT_EDITS`], if it has one.
pub fn fault_edit(program: &SeedProgram) -> Option<FaultEdit> {
    let &(_, index) = FAULT_EDITS.iter().find(|(p, _)| *p == program.name)?;
    mutant_edit(program, index)
}

/// `source` with the def of `edit.function` replaced by the faulty one.
fn with_fault(source: &str, edit: &FaultEdit) -> String {
    let block = def_block(source, &edit.function);
    source.replacen(block, &format!("{}\n", edit.def), 1)
}

/// A program version: the base source, optionally with its fault edit
/// applied, with the locals of some functions renamed by a tag, and
/// optionally a dead top-level assignment. A renamed function's printed
/// text (hence its anchor) changes; nothing it executes does.
#[derive(Debug, Clone, Default)]
pub struct Version {
    tags: BTreeMap<String, u32>,
    faulty: bool,
}

impl Version {
    /// Renders this version of `base`.
    pub fn render(
        &self,
        base: &str,
        locals: &BTreeMap<String, Vec<String>>,
        fault: Option<&FaultEdit>,
    ) -> String {
        let mut out = match (self.faulty, fault) {
            (true, Some(edit)) => with_fault(base, edit),
            _ => base.to_string(),
        };
        for (target, tag) in &self.tags {
            if target == TOP_LEVEL {
                continue;
            }
            let block = def_block(&out, target).to_string();
            let renamed = rename_identifiers(&block, &locals[target], &format!("r{tag}"));
            out = out.replacen(&block, &renamed, 1);
        }
        if let Some(tag) = self.tags.get(TOP_LEVEL) {
            out.push_str(&format!("_bench_top = {tag}\n"));
        }
        out
    }
}

/// What one `edit_campaigns` request does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditOp {
    /// Resubmit the program's current version unchanged (pure replay).
    Resubmit,
    /// A behaviour-preserving body edit of one function (or of the
    /// top-level group); the edited source becomes the new version.
    Edit { target: String },
    /// Applies the program's [`FAULT_EDITS`] edit to `function`, or
    /// reverts it; the edited source becomes the new version.
    Fault { function: String },
    /// `GET …/document` of the program's latest finished job.
    Fetch,
}

/// One `edit_campaigns` request.
#[derive(Debug, Clone)]
pub struct EditRequest {
    pub base: &'static str,
    pub op: EditOp,
    /// Source of the program's version after this request (what a
    /// submit sends; what a fetch expects to read back).
    pub source: Arc<String>,
}

/// Edit targets of a program: its non-test functions that have local
/// names, plus the top-level group.
pub fn edit_targets(program: &SeedProgram) -> Vec<String> {
    let locals = local_names(program);
    let mut targets: Vec<String> = program
        .target_functions()
        .into_iter()
        .filter(|f| locals.get(f).is_some_and(|l| !l.is_empty()))
        .collect();
    targets.push(TOP_LEVEL.to_string());
    targets
}

/// The per-program request cycle of `edit_campaigns`: one edit, then
/// reads of the new version (resubmits replay it, fetches rebuild its
/// document from the store). Three fetches follow the edit: a fetch
/// waits for the edit's job without taking a scheduler lane, while a
/// resubmit takes a lane and then waits on the program's segment lock
/// until the edit is done. An edit of `pipeline` runs for up to 1.6 s,
/// and at 16 requests/s a program's requests are 0.75 s apart, so with
/// fewer fetches its resubmit held the second lane and every other
/// request queued behind the pair, on some runs and not others.
/// Fetches are the fastest kind and 3/8 of the mix, edits 1/8, so the
/// median falls inside the resubmits and the 90th percentile among the
/// faster edits.
pub const CYCLE: [Kind; 8] = [
    Kind::Edit,
    Kind::Fetch,
    Kind::Fetch,
    Kind::Fetch,
    Kind::Resubmit,
    Kind::Resubmit,
    Kind::Resubmit,
    Kind::Resubmit,
];

/// A request kind of [`CYCLE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Edit,
    Resubmit,
    Fetch,
}

/// `edit_campaigns` inputs. Request `i` addresses program `i % 12`;
/// each program walks the fixed cycle [`CYCLE`]. A program's edits in a
/// run are a fixed multiset and the seed only shuffles their order and
/// picks each rename's tag: how much an edit re-executes depends
/// strongly on its target, and a multiset that drifted with the seed
/// would move the daemon's CPU time from seed to seed. Every second edit
/// of a program with a [`FAULT_EDITS`] entry applies or reverts that
/// fault; the others cycle through its edit targets in source order,
/// each renaming the target's locals with a fresh tag or restoring their
/// names (for the top-level group: setting or removing a dead
/// assignment). Every edit changes exactly one anchor group.
pub fn edit_requests(seed: u64, n: usize) -> Vec<EditRequest> {
    edit_sequence(seed, n, &CYCLE, &[]).collect()
}

/// The per-program request cycle of `store_edits`: two edits and six
/// reads, so that edits (other than those of [`UNEDITED`]) are about a
/// fifth of the requests and the 90th percentile lies inside them, not
/// at their border with the reads.
pub const STORE_CYCLE: [Kind; 8] = [
    Kind::Edit,
    Kind::Fetch,
    Kind::Resubmit,
    Kind::Fetch,
    Kind::Edit,
    Kind::Resubmit,
    Kind::Fetch,
    Kind::Resubmit,
];

/// Programs `store_edits` resubmits and fetches but never edits: the
/// two whose hang mutants burn the VM's step budget. One edit of them
/// re-executes for 0.3 to 2 s, and its from-scratch reference costs
/// 0.6 s (`ratelimiter`) or 2.1 s (`pipeline`), so a closed loop that
/// edited them would spend its time, and the oracle most of its own, in
/// the VM instead of the store.
pub const UNEDITED: [&str; 2] = ["ratelimiter", "pipeline"];

/// `store_edits` inputs, generated as they are consumed:
/// [`edit_sequence`] over [`STORE_CYCLE`], with the edit slots of
/// [`UNEDITED`] programs turned into resubmits.
pub fn store_requests(seed: u64, n: usize) -> impl Iterator<Item = EditRequest> {
    edit_sequence(seed, n, &STORE_CYCLE, &UNEDITED)
}

/// Request `i` addresses program `i % 12` and is kind
/// `cycle[(i / 12) % cycle.len()]`, except that an edit slot of a
/// program in `unedited` is a resubmit. Requests that do not change a
/// program's version share its source. `n` fixes the edit multisets;
/// the requests are generated as the iterator is consumed.
pub fn edit_sequence(
    seed: u64,
    n: usize,
    cycle: &'static [Kind],
    unedited: &'static [&'static str],
) -> impl Iterator<Item = EditRequest> {
    let corpus = nfi_corpus::all();
    let mut rng = stream(seed, 2);
    let rounds = n.div_ceil(corpus.len());
    let slots = (0..rounds)
        .filter(|r| cycle[r % cycle.len()] == Kind::Edit)
        .count();
    let mut state: Vec<_> = corpus
        .iter()
        .map(|p| {
            let fault = fault_edit(p);
            let targets = edit_targets(p);
            let mut renames = targets.iter().cycle();
            // `None` is a fault toggle, `Some(target)` a rename.
            let mut edits: Vec<Option<String>> = (0..slots)
                .map(|k| {
                    if k % 2 == 1 && fault.is_some() {
                        None
                    } else {
                        renames.next().cloned()
                    }
                })
                .collect();
            rng.shuffle(&mut edits);
            let source = Arc::new(p.source.to_string());
            (
                Version::default(),
                edits.into_iter(),
                local_names(p),
                fault,
                source,
            )
        })
        .collect();
    (0..n).map(move |i| {
        let slot = i % corpus.len();
        let base = &corpus[slot];
        let (version, edits, locals, fault, source) = &mut state[slot];
        let kind = match cycle[(i / corpus.len()) % cycle.len()] {
            Kind::Edit if unedited.contains(&base.name) => Kind::Resubmit,
            kind => kind,
        };
        let op = match kind {
            Kind::Edit => match edits.next().expect("one edit per edit slot") {
                None => {
                    version.faulty = !version.faulty;
                    let function = fault.as_ref().expect("fault toggles need a fault");
                    EditOp::Fault {
                        function: function.function.clone(),
                    }
                }
                Some(target) => {
                    let remove = version.tags.contains_key(&target) && rng.below(2) == 0;
                    if remove {
                        version.tags.remove(&target);
                    } else {
                        let previous = version.tags.get(&target).copied();
                        let mut k = 1 + rng.below(9999) as u32;
                        if previous == Some(k) {
                            k += 1;
                        }
                        version.tags.insert(target.clone(), k);
                    }
                    EditOp::Edit { target }
                }
            },
            Kind::Resubmit => EditOp::Resubmit,
            Kind::Fetch => EditOp::Fetch,
        };
        if kind == Kind::Edit {
            *source = Arc::new(version.render(base.source, locals, fault.as_ref()));
        }
        EditRequest {
            base: base.name,
            op,
            source: Arc::clone(source),
        }
    })
}

/// An edit for the anchor-soundness probe that runs after the timed
/// window: one the program executes differently, submitted as the next
/// version of a program whose store holds the base version.
#[derive(Debug, Clone)]
pub struct ProbeEdit {
    pub base: &'static str,
    /// `<program>:<function>:<kind>`.
    pub label: String,
    pub source: String,
}

/// Each non-test function of `program` with the non-test functions it
/// calls, in source order.
fn call_graph(program: &SeedProgram) -> Vec<(String, Vec<String>)> {
    let module = program.module().expect("corpus program parses");
    let index = ModuleIndex::build(&module);
    let targets = program.target_functions();
    index
        .functions
        .iter()
        .filter(|f| targets.contains(&f.name))
        .map(|f| {
            let calls = f
                .calls
                .iter()
                .filter(|c| targets.contains(c) && **c != f.name)
                .cloned()
                .collect();
            (f.name.clone(), calls)
        })
        .collect()
}

/// Non-test functions of `program` that another non-test function calls.
pub fn callees(program: &SeedProgram) -> Vec<String> {
    let graph = call_graph(program);
    graph
        .iter()
        .map(|(name, _)| name)
        .filter(|name| graph.iter().any(|(_, calls)| calls.contains(name)))
        .cloned()
        .collect()
}

/// Non-test functions of `program` that call no other non-test function
/// and that no other non-test function calls.
pub fn isolated(program: &SeedProgram) -> Vec<String> {
    let callees = callees(program);
    call_graph(program)
        .into_iter()
        .filter(|(name, calls)| calls.is_empty() && !callees.contains(name))
        .map(|(name, _)| name)
        .collect()
}

/// Whether `program` spawns tasks (runs on the deterministic scheduler).
pub fn spawns_tasks(program: &SeedProgram) -> bool {
    program.source.contains("spawn(")
}

/// `source` with `stmt` inserted as the first statement of `function`.
fn with_first_statement(source: &str, function: &str, stmt: &str) -> String {
    let mut out = String::with_capacity(source.len() + stmt.len() + 8);
    for line in source.lines() {
        out.push_str(line);
        out.push('\n');
        if line.starts_with(&format!("def {function}(")) {
            out.push_str(&format!("    {stmt}\n"));
        }
    }
    out
}

/// Programs the probe makes a behaviour-changing callee edit in.
pub const CALLEE_PROBES: usize = 3;

/// `TDL` units (as in [`FAULT_EDITS`]) of the programs that have no
/// fault edit in the timed mix; the probe submits their edits.
pub const PROBE_FAULTS: [(&str, usize); 2] = [("ratelimiter", 31), ("pipeline", 57)];

/// The probe's inputs. Fixed, so the set of stale documents at one
/// commit is the same in every run:
/// * an early `return None` in the first function another function
///   calls, in each of the first [`CALLEE_PROBES`] programs that have
///   one;
/// * an early `return None` in the first function that neither calls
///   nor is called by another, in the first program that spawns no
///   tasks and has one (its tests still call it, so the pristine suite
///   the other units are compared against changes);
/// * a dead assignment in the first function of every program that
///   spawns tasks: it changes no value, but the extra instructions move
///   the deterministic scheduler's preemption points;
/// * the [`PROBE_FAULTS`] timing-delay edits.
pub fn probe_edits() -> Vec<ProbeEdit> {
    let corpus = nfi_corpus::all();
    let mut out = Vec::new();
    let early_return = |p: &SeedProgram, function: &str| ProbeEdit {
        base: p.name,
        label: format!("{}:{function}:early_return", p.name),
        source: with_first_statement(p.source, function, "return None"),
    };
    for p in corpus.iter() {
        if let Some(callee) = callees(p).first() {
            if out.len() < CALLEE_PROBES {
                out.push(early_return(p, callee));
            }
        }
    }
    if let Some((p, f)) = corpus
        .iter()
        .filter(|p| !spawns_tasks(p))
        .find_map(|p| Some((p, isolated(p).into_iter().next()?)))
    {
        out.push(early_return(p, &f));
    }
    for p in corpus.iter().filter(|p| spawns_tasks(p)) {
        let function = &p.target_functions()[0];
        out.push(ProbeEdit {
            base: p.name,
            label: format!("{}:{function}:dead_assignment", p.name),
            source: with_first_statement(p.source, function, "_bench_pad = 1"),
        });
    }
    for (name, index) in PROBE_FAULTS {
        let p = nfi_corpus::by_name(name).expect("probe program is in the corpus");
        let edit = mutant_edit(p, index).expect("probe unit is a mutant of one function");
        out.push(ProbeEdit {
            base: p.name,
            label: edit.label.clone(),
            source: with_fault(p.source, &edit),
        });
    }
    out
}

/// One `nl_faults` request.
#[derive(Debug, Clone, PartialEq)]
pub struct NlRequest {
    pub base: &'static str,
    pub function: String,
    pub class: FaultClass,
    pub description: String,
    /// `Some(profile index)` when the request runs a review session.
    pub session: Option<usize>,
    /// Seed of the session's simulated tester.
    pub tester_seed: u64,
}

/// One request in 23 runs the RLHF review loop instead of a one-shot
/// injection (23 and 12 are coprime, so each program gets its share).
/// Sessions take 8 to 160 ms and one-shot injections mostly 8 to 17 ms,
/// with about 4% (timing faults whose experiments hang) at 60 to 250 ms.
/// At one in 23 the sessions and those slow injections fill less than
/// the top 9% of latencies, so `latency_p90_ms` falls among ordinary
/// injections; at one in 5 it fell inside the wide session
/// distribution, where it moved by a third between seeds.
pub const SESSION_EVERY: usize = 23;

/// Number of simulated-tester profiles sessions draw from.
pub const PROFILES: usize = 4;

fn words(name: &str) -> String {
    name.replace('_', " ")
}

/// The description templates, one list per fault class. `{f}` is the
/// target function in words, `{c}` one of its callees (or the function
/// itself when it calls nothing).
fn templates(class: FaultClass) -> &'static [&'static str] {
    match class {
        FaultClass::Omission => &[
            "Simulate a missing call to {c} in the {f} function.",
            "Simulate a scenario where the {f} function skips a required step and never calls {c}.",
        ],
        FaultClass::WrongValue => &[
            "Simulate an off-by-one error in the {f} function that computes a wrong value.",
            "Simulate the {f} function using a wrong constant in its calculation.",
        ],
        FaultClass::ExceptionHandling => &[
            "Simulate an exception in the {f} function that is silently swallowed by an overly broad handler.",
            "Simulate the {f} function raising the wrong kind of exception on an error path.",
        ],
        FaultClass::Concurrency => &[
            "Simulate a race condition in the {f} function caused by a missing lock around shared state.",
            "Simulate concurrent updates in the {f} function without synchronization.",
        ],
        FaultClass::ResourceLeak => &[
            "Simulate a resource leak in the {f} function where an opened handle is never closed.",
            "Simulate the {f} function forgetting to release a resource it acquired.",
        ],
        FaultClass::BufferOverflow => &[
            "Simulate a buffer overflow in the {f} function that writes past the end of a fixed-size buffer.",
            "Simulate the {f} function writing more items than its buffer can hold.",
        ],
        FaultClass::Timing => &[
            "Simulate a database timeout causing an unhandled exception in the {f} function.",
            "Simulate a slow dependency that delays the {f} function until it times out.",
        ],
        FaultClass::Interface => &[
            "Simulate a wrong argument passed to {c} from the {f} function.",
            "Simulate the {f} function calling {c} with its parameters in the wrong order.",
        ],
    }
}

/// `nl_faults` inputs. Request `i` targets program `i % 12`. The `k`-th
/// request of a program targets fault class `k % 8` in function
/// `(k / 8) % functions`, so every 8 of its requests cover every class
/// and every `8 × functions` cover every (function, class) pair; every
/// [`SESSION_EVERY`]-th request overall is a review session, its tester profile
/// cycling through the [`PROFILES`]. That mix is fixed: the seed picks
/// the phrasing, the callee a description names and the tester's seed.
pub fn nl_requests(seed: u64, n: usize) -> Vec<NlRequest> {
    let corpus = nfi_corpus::all();
    let mut rng = stream(seed, 4);
    let functions: Vec<Vec<(String, Vec<String>)>> = corpus
        .iter()
        .map(|p| {
            let module = p.module().expect("corpus program parses");
            let index = ModuleIndex::build(&module);
            p.target_functions()
                .into_iter()
                .map(|name| {
                    let calls = index
                        .functions
                        .iter()
                        .find(|f| f.name == name)
                        .map(|f| f.calls.clone())
                        .unwrap_or_default();
                    (name, calls)
                })
                .collect()
        })
        .collect();
    (0..n)
        .map(|i| {
            let slot = i % corpus.len();
            let k = i / corpus.len();
            let class = FaultClass::ALL[k % FaultClass::ALL.len()];
            let fs = &functions[slot];
            let (function, calls) = &fs[(k / FaultClass::ALL.len()) % fs.len()];
            let callee = if calls.is_empty() {
                function.clone()
            } else {
                calls[rng.below(calls.len())].clone()
            };
            let options = templates(class);
            let description = options[rng.below(options.len())]
                .replace("{f}", &words(function))
                .replace("{c}", &words(&callee));
            let session =
                (i % SESSION_EVERY == SESSION_EVERY - 1).then_some((i / SESSION_EVERY) % PROFILES);
            NlRequest {
                base: corpus[slot].name,
                function: function.clone(),
                class,
                description,
                session,
                tester_seed: rng.next_u64(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, HashMap, HashSet};

    /// Printed text of each top-level def, plus the non-def top-level
    /// statements as one group: the units anchors are computed over.
    fn groups(source: &str) -> BTreeMap<String, String> {
        let module = nfi_pylite::parse(source).expect("parses");
        let mut out = BTreeMap::new();
        let mut top = String::new();
        for stmt in &module.body {
            let text = nfi_pylite::print_block(std::slice::from_ref(stmt), 0);
            match &stmt.kind {
                nfi_pylite::StmtKind::Def { name, .. } => {
                    out.insert(name.clone(), text);
                }
                _ => top.push_str(&text),
            }
        }
        out.insert(TOP_LEVEL.to_string(), top);
        out
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_inputs() {
        assert_eq!(cold_requests(7, 30), cold_requests(7, 30));
        assert_ne!(cold_requests(7, 30), cold_requests(8, 30));
        let sources = |s| -> Vec<String> {
            edit_requests(s, 60)
                .into_iter()
                .map(|r| format!("{:?}{}", r.op, r.source))
                .collect()
        };
        assert_eq!(sources(7), sources(7));
        assert_ne!(sources(7), sources(8));
        assert_eq!(nl_requests(7, 60), nl_requests(7, 60));
        assert_ne!(nl_requests(7, 60), nl_requests(8, 60));
    }

    #[test]
    fn per_program_mix_is_fixed_across_seeds() {
        let bases = |reqs: Vec<&'static str>| reqs;
        for seed in [1, 2, 3] {
            let cold = bases(cold_requests(seed, 48).iter().map(|r| r.base).collect());
            let edit = bases(edit_requests(seed, 48).iter().map(|r| r.base).collect());
            let nl = bases(nl_requests(seed, 48).iter().map(|r| r.base).collect());
            let cold_expected: Vec<&str> = (0..48).map(|i| COLD_ORDER[i % 12]).collect();
            assert_eq!(cold, cold_expected);
            let expected: Vec<&str> = (0..48).map(|i| nfi_corpus::all()[i % 12].name).collect();
            assert_eq!(edit, expected);
            assert_eq!(nl, expected);
            let mut kinds: HashMap<(&str, String), usize> = HashMap::new();
            for r in edit_requests(seed, 12 * CYCLE.len()) {
                let kind = match r.op {
                    EditOp::Edit { .. } | EditOp::Fault { .. } => Kind::Edit,
                    EditOp::Resubmit => Kind::Resubmit,
                    EditOp::Fetch => Kind::Fetch,
                };
                *kinds.entry((r.base, format!("{kind:?}"))).or_default() += 1;
            }
            for ((_, kind), count) in &kinds {
                let expected = CYCLE.iter().filter(|k| &format!("{k:?}") == kind).count();
                assert_eq!(*count, expected, "{kinds:?}");
            }
        }
        let targets = |seed| {
            let mut t: Vec<(&str, String)> = edit_requests(seed, 240)
                .into_iter()
                .filter_map(|r| match r.op {
                    EditOp::Edit { target } => Some((r.base, target)),
                    EditOp::Fault { function } => Some((r.base, format!("fault {function}"))),
                    _ => None,
                })
                .collect();
            t.sort();
            t
        };
        assert_eq!(targets(1), targets(2));
    }

    #[test]
    fn store_sequence_keeps_its_mix_and_never_edits_the_unedited() {
        let n = 12 * STORE_CYCLE.len() * 4;
        let render = |s| -> Vec<String> {
            store_requests(s, n)
                .map(|r| format!("{:?}{}", r.op, r.source))
                .collect()
        };
        assert_eq!(render(5), render(5));
        assert_ne!(render(5), render(6));
        for seed in [1, 2, 3] {
            let reqs: Vec<EditRequest> = store_requests(seed, n).collect();
            let mut current: HashMap<&str, Arc<String>> = nfi_corpus::all()
                .iter()
                .map(|p| (p.name, Arc::new(p.source.to_string())))
                .collect();
            for (i, r) in reqs.iter().enumerate() {
                assert_eq!(r.base, nfi_corpus::all()[i % 12].name);
                let slot = STORE_CYCLE[(i / 12) % STORE_CYCLE.len()];
                let edited = matches!(r.op, EditOp::Edit { .. } | EditOp::Fault { .. });
                let expected = slot == Kind::Edit && !UNEDITED.contains(&r.base);
                assert_eq!(edited, expected, "request {i} ({}): {:?}", r.base, r.op);
                if slot == Kind::Fetch {
                    assert_eq!(r.op, EditOp::Fetch);
                }
                let before = &current[r.base];
                if edited {
                    let (a, b) = (groups(before), groups(&r.source));
                    let changed = a.keys().filter(|k| a.get(*k) != b.get(*k)).count();
                    assert_eq!(changed, 1, "request {i} ({})", r.base);
                } else if i < 12 {
                    assert_eq!(**before, *r.source, "request {i}");
                } else {
                    // A request that changes no version shares its source.
                    assert!(Arc::ptr_eq(before, &r.source), "request {i}");
                }
                current.insert(r.base, Arc::clone(&r.source));
            }
        }
    }

    #[test]
    fn cold_order_is_the_corpus() {
        let mut order = COLD_ORDER.to_vec();
        order.sort_unstable();
        let mut corpus: Vec<&str> = nfi_corpus::all().iter().map(|p| p.name).collect();
        corpus.sort_unstable();
        assert_eq!(order, corpus);
    }

    #[test]
    fn cold_variants_parse_are_unique_and_keep_their_plans() {
        let reqs = cold_requests(11, 48);
        let names: HashSet<&str> = reqs.iter().map(|r| r.program.as_str()).collect();
        assert_eq!(names.len(), reqs.len());
        let mut fps = HashSet::new();
        for r in &reqs {
            let module = nfi_pylite::parse(&r.source).expect("variant parses");
            assert!(fps.insert(nfi_pylite::fingerprint(&module)));
            let base = nfi_corpus::by_name(r.base).expect("base");
            let base_spec = nfi_core::plan_campaign(r.base, base.source, 1).expect("plans");
            let spec = nfi_core::plan_campaign(&r.program, &r.source, 1).expect("plans");
            assert_eq!(spec.units.len(), base_spec.units.len(), "{}", r.program);
            let changed = groups(base.source)
                .iter()
                .zip(groups(&r.source).values())
                .filter(|((_, a), b)| a != b)
                .count();
            assert!(changed >= base.target_functions().len(), "{}", r.program);
        }
    }

    #[test]
    fn cold_variants_pass_their_suites() {
        for r in cold_requests(5, 12) {
            let module = nfi_pylite::parse(&r.source).expect("parses");
            let report = nfi_inject::run_suite_uncached(&module, &Default::default());
            assert!(report.all_passed(), "{} fails its own suite", r.program);
        }
    }

    #[test]
    fn each_edit_touches_exactly_one_group() {
        let reqs = edit_requests(3, 12 * 13);
        let mut current: HashMap<&str, String> = nfi_corpus::all()
            .iter()
            .map(|p| (p.name, p.source.to_string()))
            .collect();
        let mut faults = 0;
        for r in &reqs {
            let before = current[r.base].clone();
            match &r.op {
                EditOp::Edit { target } | EditOp::Fault { function: target } => {
                    let (a, b) = (groups(&before), groups(&r.source));
                    let changed: Vec<&String> =
                        a.keys().filter(|k| a.get(*k) != b.get(*k)).collect();
                    assert_eq!(changed, vec![target], "{}", r.base);
                    if let EditOp::Edit { .. } = r.op {
                        // Renames change nothing the program executes.
                        let module = nfi_pylite::parse(&r.source).expect("parses");
                        let report = nfi_inject::run_suite_uncached(&module, &Default::default());
                        assert!(report.all_passed(), "edit of {} broke {}", target, r.base);
                    } else {
                        faults += 1;
                    }
                }
                _ => assert_eq!(before, *r.source),
            }
            current.insert(r.base, r.source.to_string());
        }
        assert!(faults >= FAULT_EDITS.len(), "{faults} fault edits");
    }

    /// The output oracle's claim for the timed fault edits, checked
    /// in-process: served through the store's anchor fallback (from the
    /// base version and back), each document equals a fresh reference,
    /// and the edited function's outcome lines differ from the base
    /// version's, so a store that replayed them would serve a wrong
    /// document.
    #[test]
    fn fault_edits_are_served_correctly_and_change_their_function() {
        let dir = std::env::temp_dir().join(format!("nfibench-fault-{}", std::process::id()));
        for &(name, _) in &FAULT_EDITS {
            let p = nfi_corpus::by_name(name).expect("fault program is in the corpus");
            let edit = fault_edit(p).expect("fault edit applies");
            let faulty = with_fault(p.source, &edit);
            let _ = std::fs::remove_dir_all(&dir);
            let orch = nfi_core::Orchestrator::new(&dir).expect("store opens");
            let base_doc = orch.run_program(name, p.source).expect("runs").run.encode();
            let served = orch.run_program(name, &faulty).expect("runs");
            let reference = crate::oracle::reference_document(name, &faulty).expect("runs");
            assert_eq!(served.run.encode(), reference, "{}", edit.label);
            assert!(
                served.executed > 0 && served.anchor_replayed > 0,
                "{}",
                edit.label
            );
            let back = orch.run_program(name, p.source).expect("runs").run.encode();
            assert_eq!(back, base_doc, "{} reverted", edit.label);
            let seed = nfi_pylite::MachineConfig::default().seed;
            let old = nfi_core::plan_campaign(name, p.source, seed).expect("plans");
            let new = nfi_core::plan_campaign(name, &faulty, seed).expect("plans");
            let outcome = |doc: &str, index: usize| {
                let line = doc
                    .lines()
                    .nth(1 + index)
                    .expect("outcome line")
                    .to_string();
                line.split(",\"operator\"")
                    .nth(1)
                    .unwrap_or_default()
                    .to_string()
            };
            let mine = |u: &&nfi_sfi::WorkUnit| u.site.function.as_deref() == Some(&edit.function);
            let changed = new.units.iter().filter(mine).any(|u| {
                old.units.iter().filter(mine).any(|o| {
                    o.operator == u.operator
                        && o.ordinal == u.ordinal
                        && outcome(&base_doc, o.index) != outcome(&reference, u.index)
                })
            });
            assert!(
                changed,
                "{}: no outcome of the edited function changed",
                edit.label
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn probe_edits_change_exactly_one_function() {
        let edits = probe_edits();
        let labels: Vec<&str> = edits.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(
            labels
                .iter()
                .filter(|l| l.ends_with("early_return"))
                .count(),
            CALLEE_PROBES + 1
        );
        assert!(labels.iter().any(|l| l.ends_with("dead_assignment")));
        for e in &edits {
            let p = nfi_corpus::by_name(e.base).expect("base");
            let function = e.label.split(':').nth(1).expect("label names a function");
            let (a, b) = (groups(p.source), groups(&e.source));
            let changed: Vec<&String> = a.keys().filter(|k| a.get(*k) != b.get(*k)).collect();
            assert_eq!(changed, vec![function], "{}", e.label);
        }
        let early: Vec<&&str> = labels
            .iter()
            .filter(|l| l.ends_with("early_return"))
            .collect();
        for (label, is_callee) in early.iter().zip([true, true, true, false]) {
            let mut parts = label.split(':');
            let p = nfi_corpus::by_name(parts.next().expect("program")).expect("base");
            let function = parts.next().expect("function").to_string();
            assert_eq!(callees(p).contains(&function), is_callee, "{label}");
            assert_eq!(isolated(p).contains(&function), !is_callee, "{label}");
        }
        assert_eq!(probe_edits().len(), edits.len(), "the probe is fixed");
    }

    #[test]
    fn descriptions_cover_every_class_and_real_functions() {
        let reqs = nl_requests(13, 12 * 8 * 8);
        for p in nfi_corpus::all() {
            let mine: Vec<&NlRequest> = reqs.iter().filter(|r| r.base == p.name).collect();
            for block in mine.chunks(FaultClass::ALL.len()) {
                let classes: BTreeSet<&str> = block.iter().map(|r| r.class.key()).collect();
                assert_eq!(classes.len(), FaultClass::ALL.len(), "{}", p.name);
            }
            let targets = p.target_functions();
            let pairs: BTreeSet<(&str, &str)> = mine
                .iter()
                .map(|r| (r.function.as_str(), r.class.key()))
                .collect();
            assert_eq!(
                pairs.len(),
                targets.len() * FaultClass::ALL.len(),
                "{}",
                p.name
            );
            for r in &mine {
                assert!(targets.contains(&r.function));
                assert!(!r.function.starts_with("test_"));
                assert!(r.description.contains(&words(&r.function)));
            }
        }
        let reviewed: BTreeSet<&str> = reqs
            .iter()
            .filter(|r| r.session.is_some())
            .map(|r| r.base)
            .collect();
        assert_eq!(reviewed.len(), nfi_corpus::all().len());
        assert_eq!(
            reqs.iter().filter(|r| r.session.is_some()).count(),
            reqs.len() / SESSION_EVERY
        );
    }
}
