//! Determinism source-lint: the simulation core must stay bit-reproducible,
//! so its sources may not reach for nondeterminism — wall-clock time,
//! unordered hash-map iteration, OS-seeded randomness, threads, or
//! environment-selected behaviour. The packet/cycle goldens and the lint
//! golden all depend on this.
//!
//! The scan is deliberately dumb (substring match per line, comments
//! stripped) so a violation is obvious from the failure message; anything
//! intentional goes in [`ALLOWLIST`] with a reason.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Crates whose sources feed deterministic simulation results.
const SCANNED: &[&str] = &["crates/core/src", "crates/kernel/src", "crates/riscv/src"];

/// Patterns that smell like nondeterminism in a simulation core.
const HAZARDS: &[(&str, &str)] = &[
    (
        "std::time::Instant",
        "wall-clock time varies run to run; use simulated cycles",
    ),
    ("Instant::now", "wall-clock time; use simulated cycles"),
    ("SystemTime", "wall-clock time; use simulated cycles"),
    (
        "HashMap",
        "iteration order is seeded per-process; use BTreeMap",
    ),
    (
        "HashSet",
        "iteration order is seeded per-process; use BTreeSet",
    ),
    ("thread_rng", "OS-seeded randomness; use a seeded PRNG"),
    ("rand::random", "OS-seeded randomness; use a seeded PRNG"),
    (
        "std::thread",
        "thread scheduling varies run to run; the tick is one thread, one order",
    ),
    (
        "mpsc",
        "cross-thread channels; the tick is one thread, one order",
    ),
    (
        "std::env",
        "behaviour selected by the environment is invisible in the code under test",
    ),
];

/// Known-intentional uses: (path suffix, pattern, reason). The reason is
/// printed when an allowlist entry goes stale so it can be pruned. The
/// async/bench shell (`crates/bench`) is outside
/// [`SCANNED`] entirely — wall-clock timing is its whole job — so entries
/// here should stay rare: currently none.
const ALLOWLIST: &[(&str, &str, &str)] = &[];

fn allowed(path: &str, pattern: &str) -> bool {
    ALLOWLIST
        .iter()
        .any(|(suffix, pat, _)| path.ends_with(suffix) && *pat == pattern)
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("scanned directory exists") {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
}

#[test]
fn simulation_core_sources_are_deterministic() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut violations = String::new();
    let mut used_allowlist: Vec<(&str, &str)> = Vec::new();

    for dir in SCANNED {
        let mut files = Vec::new();
        rust_files(&root.join(dir), &mut files);
        assert!(!files.is_empty(), "{dir} has sources to scan");
        for file in files {
            let rel = file.strip_prefix(&root).unwrap().display().to_string();
            let text = std::fs::read_to_string(&file).unwrap();
            for (lineno, line) in text.lines().enumerate() {
                // Strip line comments so prose mentioning a hazard is fine.
                let code = line.split("//").next().unwrap_or("");
                for (pattern, why) in HAZARDS {
                    if !code.contains(pattern) {
                        continue;
                    }
                    if allowed(&rel, pattern) {
                        used_allowlist.push((pattern, why));
                        continue;
                    }
                    writeln!(violations, "{rel}:{}: `{pattern}` ({why})", lineno + 1).unwrap();
                }
            }
        }
    }

    assert!(
        violations.is_empty(),
        "nondeterminism hazards in the simulation core:\n{violations}\
         (intentional uses go in ALLOWLIST with a reason)"
    );

    // Stale allowlist entries hide future violations; prune them.
    for (suffix, pattern, reason) in ALLOWLIST {
        assert!(
            used_allowlist.iter().any(|(p, _)| p == pattern) && root.join(suffix).exists(),
            "stale ALLOWLIST entry ({suffix}, {pattern}): {reason}"
        );
    }
}

/// The occupancy words of `core::lanes` (DESIGN.md, "The tick"): the
/// invariant *word ⊇ truth* holds because every statement that fills a lane
/// queue sits next to the one that marks its word.
const OCCUPANCY_WORDS: &[&str] = &[
    "rin_busy",
    "awake",
    "tx_ready",
    "rout_busy",
    "dma_posted",
    "bcast_queued",
    "next_wake",
];

/// Fails unless every one of `words` is named by `home` and by no other
/// source file under `dir` — comments included, so the check is `rg -l` and
/// nothing cleverer. A renamed word must be renamed in the list too, or the
/// rule is void: `home` no longer naming one fails as well.
fn assert_named_only_in(dir: &str, home: &str, words: &[&str], instead: &str) {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join(dir), &mut files);
    let mut violations = String::new();
    let mut home_seen = false;
    for file in files {
        let rel = file.strip_prefix(&root).unwrap().display().to_string();
        let text = std::fs::read_to_string(&file).unwrap();
        if rel == home {
            home_seen = true;
            for word in words {
                assert!(text.contains(word), "{rel} no longer names `{word}`");
            }
            continue;
        }
        for (lineno, line) in text.lines().enumerate() {
            for word in words.iter().filter(|w| line.contains(**w)) {
                writeln!(violations, "{rel}:{}: `{word}`", lineno + 1).unwrap();
            }
        }
    }
    assert!(home_seen, "{home} is gone");
    assert!(
        violations.is_empty(),
        "named outside {home}:\n{violations}({instead})"
    );
}

/// No other file of the core may so much as name an occupancy word.
#[test]
fn occupancy_words_are_named_only_in_lanes_rs() {
    assert_named_only_in(
        "crates/core/src",
        "crates/core/src/lanes.rs",
        OCCUPANCY_WORDS,
        "reach a lane through `Lanes::wake`, `Lanes::rpu_mut` or `Lanes::rpus`",
    );
}

/// The protocol automata's state bits (DESIGN.md, "Static firmware
/// analysis"): only `analyze/protocol.rs` knows how a typestate is
/// represented, so only it may name a bit.
const TYPESTATE_BITS: &[&str] = &[
    "RX_UNPOLLED",
    "RX_POLLED",
    "RX_HELD",
    "TX_EMPTY",
    "TX_STAGED",
    "DMA_IDLE",
    "DMA_BUSY",
];

#[test]
fn typestate_bits_are_named_only_in_protocol_rs() {
    assert_named_only_in(
        "crates/riscv/src",
        "crates/riscv/src/analyze/protocol.rs",
        TYPESTATE_BITS,
        "ask `Typestate` instead: `load`, `store`, `halt`, `join_from`",
    );
}

/// The bus charges `PMEM_WAIT_CYCLES` and the analyzer's WCET bound assumes
/// it; a second definition is a second number that can drift.
#[test]
fn pmem_wait_cycles_is_defined_once() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("crates/core/src"), &mut files);
    let homes: Vec<String> = files
        .iter()
        .filter(|f| {
            std::fs::read_to_string(f)
                .unwrap()
                .contains("const PMEM_WAIT_CYCLES")
        })
        .map(|f| f.strip_prefix(&root).unwrap().display().to_string())
        .collect();
    assert_eq!(
        homes,
        ["crates/core/src/rpu.rs"],
        "`const PMEM_WAIT_CYCLES` must be defined in rpu.rs and nowhere else"
    );
}

/// Every source file under `dir`, as (path relative to the repo, text).
fn sources(dir: &str) -> Vec<(String, String)> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join(dir), &mut files);
    files
        .into_iter()
        .map(|file| {
            let rel = file.strip_prefix(&root).unwrap().display().to_string();
            (rel, std::fs::read_to_string(&file).unwrap())
        })
        .collect()
}

/// The host mutators that became arms of `HostOp` (DESIGN.md, "Sim core vs.
/// I/O shell"). A live session replays because nothing changes the core
/// behind the recorder's back; a `pub fn` by one of these names is a second
/// door.
const FOLDED_MUTATORS: &[&str] = &[
    "lb_host_write",
    "enable_rpu",
    "disable_rpu",
    "poke",
    "evict",
    "write_debug",
    "write_rpu_mem",
    "host_dram_mut",
    "inject_from_host",
    "reconfigure_rpu_gated",
    "force_reconfigure_rpu",
    "load_rpu_firmware",
    "inject_fault",
];

/// The side doors a chaos run took around `apply` — two fault queues and the
/// `&mut` handles to a box and to an RPU — deleted when a fault plan became
/// host ops (DESIGN.md, "Fault model & recovery"). A plan is applied through
/// `Device::apply`, a fleet forwards `HostOp::Box`, and the oracle's wake is
/// `wake_all`; a `pub fn` by one of these names would let a run change a
/// core where no `EventLog` sees it.
const SIDE_DOORS: &[&str] = &["install_fault_plan", "schedule_fault", "sys_mut", "rpu_mut"];

/// `Rosebud::apply` and `Shell::apply` exist, the core declares no public
/// mutator beside the first, and the shell lends out no `&mut Rosebud`
/// beside the second.
#[test]
fn a_live_core_has_one_door() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let door = "pub fn apply(&mut self, op: HostOp) -> Result<HostReply, String>";
    for home in ["crates/core/src/host.rs", "crates/shell/src/shell.rs"] {
        let text = std::fs::read_to_string(root.join(home)).unwrap();
        assert!(text.contains(door), "{home} no longer has `{door}`");
    }

    let mut violations = String::new();
    for (rel, text) in sources("crates/core/src") {
        for (lineno, line) in text.lines().enumerate() {
            for name in FOLDED_MUTATORS.iter().chain(SIDE_DOORS) {
                if line.contains(&format!("pub fn {name}(")) {
                    writeln!(violations, "{rel}:{}: `pub fn {name}`", lineno + 1).unwrap();
                }
            }
        }
    }
    for (rel, text) in sources("crates/shell/src") {
        for (lineno, line) in text.lines().enumerate() {
            if line.contains("sys_mut") {
                writeln!(violations, "{rel}:{}: `sys_mut`", lineno + 1).unwrap();
            }
        }
    }
    assert!(
        violations.is_empty(),
        "a second door into a live core:\n{violations}\
         (make it an arm of `HostOp`, or name it in DESIGN.md's table of what is not one)"
    );
}

/// What the recovery ladder senses and does through, at the rack scale
/// (`Fleet`): crate-private doors, so the one ladder in `supervisor.rs` is
/// the only thing that walks through them.
const LADDER_DOORS: &[&str] = &[
    "manageable_box",
    "box_quiesced",
    "probe_rtt",
    "ring_remove",
    "ring_restore",
    "begin_reload",
    "finish_reload",
];

/// The doors through which the ladder once wrote its notes into the devices
/// it watches — a box's recovery log and trace, a rack's failover log — and
/// read when a fault landed out of the injector's memory. Deleted: the host
/// monitor keeps its own notes (DESIGN.md, "The recovery ladder").
const DELETED_NOTE_DOORS: &[&str] = &[
    "log_step",
    "log_failover",
    "log_recovery",
    "trace_supervisor",
    "last_fault_at",
];

/// What the ladder notes down. Only `supervisor.rs` and the re-exports in
/// `lib.rs` may name one: a device that knows these types knows it has a
/// monitor, and then a supervised run no longer replays without one.
const MONITOR_NOTES: &[&str] = &[
    "RecoveryEvent",
    "FailoverRecord",
    "SupervisorStep",
    "FleetStep",
    "FleetLogEntry",
];

/// The recovery ladder (DESIGN.md, "The recovery ladder") is written once:
/// its rung enum, its watch struct and the `poll` that matches on rungs
/// live in `supervisor.rs` and nowhere else in the core or the shell, none
/// of [`LADDER_DOORS`] is public, none of [`DELETED_NOTE_DOORS`] is named
/// at all, and [`MONITOR_NOTES`] are named only where the ladder lives.
#[test]
fn one_recovery_ladder() {
    let home = "crates/core/src/supervisor.rs";
    let reexports = "crates/core/src/lib.rs";
    let mut violations = String::new();
    let mut home_seen = false;
    for (rel, text) in sources("crates/core/src")
        .into_iter()
        .chain(sources("crates/shell/src"))
    {
        if rel == home {
            home_seen = true;
            for decl in ["enum Rung {", "struct Watch {", "trait Scale {"] {
                assert!(text.contains(decl), "{home} no longer declares `{decl}`");
            }
        }
        // The one statement of `lib.rs` that may name the notes.
        let mut in_reexport = false;
        for (lineno, line) in text.lines().enumerate() {
            let code = line.split("//").next().unwrap_or("");
            let mut hit = |what: &str| {
                writeln!(violations, "{rel}:{}: {what}", lineno + 1).unwrap();
            };
            if rel != home {
                if code.contains("enum ") && code.contains("Rung") {
                    hit("a rung enum");
                }
                if code.contains("struct ") && code.contains("Watch") {
                    hit("a watch struct");
                }
                if code.contains("Rung::") {
                    hit("a match on rungs");
                }
                in_reexport |= rel == reexports && line.starts_with("pub use supervisor::");
                for name in MONITOR_NOTES.iter().filter(|n| line.contains(**n)) {
                    if !in_reexport {
                        hit(&format!("the monitor's note `{name}`"));
                    }
                }
                in_reexport &= !line.contains(';');
            }
            for name in LADDER_DOORS {
                if code.contains(&format!("pub fn {name}(")) {
                    hit(&format!("`pub fn {name}`"));
                }
            }
            for name in DELETED_NOTE_DOORS.iter().filter(|n| line.contains(**n)) {
                hit(&format!("the deleted door `{name}`"));
            }
        }
    }
    assert!(home_seen, "{home} is gone");
    assert!(
        violations.is_empty(),
        "a second recovery ladder, a public door into the first, or a device \
         that knows its monitor:\n{violations}\
         (give `Scale` what it needs in supervisor.rs, keep the door `pub(crate)`, \
         and keep the ladder's notes in the ladder)"
    );
}

/// The simulator's own counters and stage profile (DESIGN.md, "The
/// simulator's own counters"). An elided run and its `wake_all` oracle
/// differ in them by design.
const SIM_COUNTERS: &[&str] = &[
    "SimStats",
    "sim_stats",
    "StageProfile",
    "SimCounts",
    "profile_stages",
];

/// The diagnostics and the trace describe the device, and the elision
/// differentials compare them byte for byte, so neither may read what the
/// simulator did to run it.
#[test]
fn device_reports_do_not_read_the_simulators_counters() {
    let reports = ["crates/core/src/diag.rs", "crates/core/src/trace.rs"];
    let mut seen = 0;
    let mut violations = String::new();
    for (rel, text) in sources("crates/core/src") {
        if !reports.contains(&rel.as_str()) {
            continue;
        }
        seen += 1;
        for (lineno, line) in text.lines().enumerate() {
            for name in SIM_COUNTERS.iter().filter(|n| line.contains(**n)) {
                writeln!(violations, "{rel}:{}: `{name}`", lineno + 1).unwrap();
            }
        }
    }
    assert_eq!(seen, reports.len(), "{reports:?} moved: update the rule");
    assert!(
        violations.is_empty(),
        "a device report reads the simulator's counters:\n{violations}\
         (report them through `Rosebud::sim_stats` beside the device, not in it)"
    );
}
