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

/// `Rpu::tick` as declared: one plain argument, the cycle. Every other tick
/// in the core takes a reference (`Accelerator::tick`, `Firmware::tick`),
/// several arguments (the stage units) or none (`Rosebud::tick`), so a call
/// `.tick(x)` with one plain argument is an RPU's.
const RPU_TICK: &str = "pub(crate) fn tick(&mut self, now: u64) -> bool {";

/// A core is ticked by its box and by nothing else: outside the unit tests,
/// the one call of `Rpu::tick` is in `Lanes::run_cores`, whose wakes settle
/// a core parked in a poll loop before it ticks again. `Rpu::tick` carries
/// no catch-up for a driver that ticks an `Rpu` by hand; single-RPU
/// simulation is a one-RPU box (DESIGN.md, "Spin-loop elision").
#[test]
fn a_core_is_ticked_only_by_its_box() {
    let home = "crates/core/src/rpu.rs";
    let mut calls = Vec::new();
    for (rel, text) in sources("crates/core/src") {
        if rel == home {
            assert!(
                text.contains(RPU_TICK),
                "{home} no longer declares `{RPU_TICK}`"
            );
        }
        let code = text.split("\n#[cfg(test)]\nmod tests").next().unwrap();
        let mut within = "";
        for (lineno, line) in code.lines().enumerate() {
            let line = line.split("//").next().unwrap_or("");
            if let Some(at) = line.find("fn ") {
                within = line[at + 3..].split(['(', '<']).next().unwrap_or("");
            }
            for (at, _) in line.match_indices(".tick(") {
                let arg = line[at + 6..].split(')').next().unwrap_or("");
                if !arg.is_empty() && arg.chars().all(|c| c.is_alphanumeric() || c == '_') {
                    calls.push((rel.clone(), within.to_string(), lineno + 1));
                }
            }
        }
    }
    let sites: Vec<(&str, &str)> = calls
        .iter()
        .map(|(rel, within, _)| (rel.as_str(), within.as_str()))
        .collect();
    assert_eq!(
        sites,
        [("crates/core/src/lanes.rs", "run_cores")],
        "`Rpu::tick` called from {calls:?}: a core is ticked by `Lanes::run_cores` \
         alone (drive a one-RPU `Rosebud` instead of ticking an `Rpu` by hand)"
    );
}

/// Where `Rpu`'s sleep record may be written: construction, the one entry
/// and the one exit.
const SLEEP_WRITERS: [&str; 3] = ["fall_asleep", "new", "settle_through"];

/// A lane's sleep is written in one place each way: outside the unit tests,
/// `Rpu`'s `sleep` field is assigned only where the RPU is built
/// (`Rpu::new`), where the lane falls asleep (`Rpu::fall_asleep`, after an
/// inert tick in `Lanes::run_cores`) and where it wakes
/// (`Rpu::settle_through`, which a fault and a new engine go through too).
/// A fourth writer would be a door in or out that `Rpu::owed` and the
/// elision differentials know nothing of (DESIGN.md, "The tick, and
/// core-tick elision").
#[test]
fn a_lanes_sleep_is_written_in_one_place() {
    let home = "crates/core/src/rpu.rs";
    let (_, text) = sources("crates/core/src")
        .into_iter()
        .find(|(rel, _)| rel == home)
        .expect("rpu.rs");
    assert!(
        text.contains("    sleep: Option<Sleep>,"),
        "{home} no longer declares `Rpu::sleep`"
    );
    let code = text.split("\n#[cfg(test)]\nmod tests").next().unwrap();
    let mut within = "";
    let mut writes = Vec::new();
    for (lineno, line) in code.lines().enumerate() {
        let line = line.split("//").next().unwrap_or("");
        if let Some(at) = line.find("fn ") {
            within = line[at + 3..].split(['(', '<']).next().unwrap_or("");
        }
        let trimmed = line.trim_start();
        let init = trimmed.starts_with("sleep:") && !trimmed.contains("Option<");
        let assigned = line.match_indices(".sleep").any(|(at, _)| {
            let rest = line[at + ".sleep".len()..].trim_start();
            (rest.starts_with('=') && !rest.starts_with("=="))
                || [
                    ".take(",
                    ".replace(",
                    ".insert(",
                    ".get_or_insert",
                    ".as_mut(",
                ]
                .iter()
                .any(|m| rest.starts_with(m))
        });
        if init || assigned || line.contains("&mut self.sleep") {
            writes.push((within.to_string(), lineno + 1));
        }
    }
    let mut sites: Vec<&str> = writes.iter().map(|(within, _)| within.as_str()).collect();
    sites.sort_unstable();
    sites.dedup();
    assert_eq!(
        sites, SLEEP_WRITERS,
        "`Rpu::sleep` written at {writes:?}: a lane falls asleep in `fall_asleep` and wakes \
         in `settle_through` alone"
    );
}

/// The RV32IM base mnemonics (and the `subi` that `Instr` can express).
const BASE_MNEMONICS: &[&str] = &[
    "lui", "auipc", "jal", "jalr", "beq", "bne", "blt", "bge", "bltu", "bgeu", "lb", "lh", "lw",
    "lbu", "lhu", "sb", "sh", "sw", "addi", "subi", "slti", "sltiu", "xori", "ori", "andi", "slli",
    "srli", "srai", "add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and", "mul",
    "mulh", "mulhsu", "mulhu", "div", "divu", "rem", "remu", "fence", "ecall", "ebreak", "mret",
    "wfi", "csrrw", "csrrs", "csrrc", "csrrwi", "csrrsi", "csrrci",
];

/// The RV32 major opcodes, as binary literals.
const OPCODES: &[&str] = &[
    "0b0110111",
    "0b0010111",
    "0b1101111",
    "0b1100111",
    "0b1100011",
    "0b0000011",
    "0b0100011",
    "0b0010011",
    "0b0110011",
    "0b0001111",
    "0b1110011",
];

/// The ABI register names, with the `fp` alias.
const REG_NAMES: &[&str] = &[
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3", "a4",
    "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11", "t3", "t4",
    "t5", "t6", "fp",
];

/// The CSR names the assembler knows.
const CSR_NAMES: &[&str] = &[
    "mstatus", "mie", "mtvec", "mscratch", "mepc", "mcause", "mip", "mcycle", "mcycleh", "minstret",
];

/// RV32IM is written down once (DESIGN.md, "The instruction table"): a base
/// mnemonic, an opcode or a register name is spelled in `isa.rs`'s table, a
/// CSR name beside `cpu::csr`, and `decode`, `encode`, the assembler, the
/// disassembler and the analyzer read them from there. Outside test modules
/// and comments, no other source of the crate spells one as a literal.
#[test]
fn an_instruction_is_spelled_once() {
    let quoted =
        |words: &[&str]| -> Vec<String> { words.iter().map(|w| format!("\"{w}\"")).collect() };
    let isa = "crates/riscv/src/isa.rs";
    let rules = [
        (isa, quoted(BASE_MNEMONICS), "mnemonic"),
        (
            isa,
            OPCODES.iter().map(|o| o.to_string()).collect(),
            "opcode",
        ),
        (isa, quoted(REG_NAMES), "register name"),
        ("crates/riscv/src/cpu.rs", quoted(CSR_NAMES), "CSR name"),
    ];
    let mut violations = String::new();
    for (rel, text) in sources("crates/riscv/src") {
        let code = text.split("\n#[cfg(test)]\nmod tests").next().unwrap();
        for (home, spellings, what) in &rules {
            if rel == *home {
                for spelling in spellings {
                    assert!(
                        code.contains(spelling),
                        "{home} no longer spells {spelling}"
                    );
                }
                continue;
            }
            for (lineno, line) in code.lines().enumerate() {
                let line = line.split("//").next().unwrap_or("");
                for spelling in spellings.iter().filter(|s| line.contains(s.as_str())) {
                    writeln!(violations, "{rel}:{}: {what} {spelling}", lineno + 1).unwrap();
                }
            }
        }
    }
    assert!(
        violations.is_empty(),
        "spelled outside the instruction table:\n{violations}(read the name or the \
         encoding from `isa.rs`, a CSR from `cpu::csr`)"
    );
}

/// JSON is written once (DESIGN.md, "Observability: the trace/event
/// model"): every export goes through `rosebud_kernel::json::Json`, which
/// owns quoting, escaping and separators. Outside it and test code, no
/// string literal under `crates/`, `src/` or `examples/` writes a JSON key.
#[test]
fn json_is_written_once() {
    let home = "crates/kernel/src/json.rs";
    let mut violations = String::new();
    let mut home_seen = false;
    for dir in ["crates", "src", "examples"] {
        for (rel, text) in sources(dir) {
            if rel == home {
                home_seen = true;
                continue;
            }
            if rel.contains("/tests/") {
                continue;
            }
            let code = text.split("\n#[cfg(test)]\nmod tests").next().unwrap();
            for (lineno, line) in code.lines().enumerate() {
                let line = line.split("//").next().unwrap_or("");
                if line.contains("{\\\"") || line.contains("\\\":") {
                    writeln!(violations, "{rel}:{}: {}", lineno + 1, line.trim()).unwrap();
                }
            }
        }
    }
    assert!(home_seen, "{home} is gone");
    assert!(
        violations.is_empty(),
        "a JSON key written by hand:\n{violations}(write it through \
         `rosebud_kernel::json::Json`)"
    );
}

/// The library crates whose public surface `tests/golden/public_api.list`
/// pins (DESIGN.md, "The public surface and the hardware constants").
const LIBRARIES: &[&str] = &["kernel", "net", "riscv", "accel", "core", "apps", "shell"];

/// The item a declaration line opens or names: its kind and its name.
fn declared(code: &str) -> Option<(&'static str, String)> {
    const KINDS: &[(&str, &str)] = &[
        ("fn ", "fn"),
        ("const fn ", "fn"),
        ("struct ", "struct"),
        ("enum ", "enum"),
        ("trait ", "trait"),
        ("type ", "type"),
        ("const ", "const"),
        ("static ", "static"),
        ("mod ", "mod"),
    ];
    let rest = code.strip_prefix("pub ").unwrap_or(code);
    let rest = if rest.starts_with("pub(") {
        rest.split_once(") ")?.1
    } else {
        rest
    };
    KINDS.iter().find_map(|(prefix, kind)| {
        let name: String = rest
            .strip_prefix(prefix)?
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        (!name.is_empty()).then_some((*kind, name))
    })
}

/// The type an `impl` line is for: `impl<T> Trait for Foo<T> {` → `Foo`.
fn impl_target(code: &str) -> Option<String> {
    let rest = code.strip_prefix("impl")?;
    let mut rest = rest.trim_start();
    if rest.starts_with('<') {
        let mut depth = 0;
        let end = rest.char_indices().find_map(|(i, c)| {
            depth += match c {
                '<' => 1,
                '>' => -1,
                _ => 0,
            };
            (depth == 0).then_some(i)
        })?;
        rest = rest[end + 1..].trim_start();
    }
    if let Some((_, target)) = rest.split_once(" for ") {
        rest = target;
    }
    let name: String = rest
        .trim_start_matches(['&', '\''])
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

/// The names a `pub use` tree brings into scope: `a::{b, c::{d, e}}` → `b`,
/// `d`, `e`. (The libraries re-export no `self`, glob or alias.)
fn use_leaves(tree: &str) -> impl Iterator<Item = &str> {
    tree.split([',', '{', '}'])
        .map(str::trim)
        .filter(|piece| !piece.is_empty() && !piece.ends_with("::"))
        .map(|piece| piece.rsplit("::").next().unwrap())
}

/// One `crate file kind name` line for every `pub` item, field, `pub use`
/// and `pub mod` outside `#[cfg(test)]` items in `crates/{krate}/src`. A
/// method, an associated const or a field is named under its type, an item
/// of an inline module under the module. The scan reads rustfmt's layout:
/// an `impl`, type or module closes at the `}` with its opening line's
/// indent.
fn public_items(krate: &str) -> Vec<String> {
    let src = format!("crates/{krate}/src/");
    let files = sources(&src);
    let mut items = Vec::new();
    for (rel, text) in &files {
        let file = &rel[src.len()..];
        // Open scopes: (indent, name, whether its `pub` lines are fields).
        let mut scopes: Vec<(usize, String, bool)> = Vec::new();
        let mut test_item = false;
        let mut skip_to: Option<String> = None;
        let mut pending_use: Option<String> = None;
        for line in text.lines() {
            if let Some(end) = &skip_to {
                if line.starts_with(end.as_str()) {
                    skip_to = None;
                }
                continue;
            }
            let code = line.trim_start();
            let indent = line.len() - code.len();
            let path: String = scopes
                .iter()
                .filter(|(_, name, _)| !name.is_empty())
                .map(|(_, name, _)| format!("{name}::"))
                .collect();
            let mut push = |kind: &str, name: &str| {
                items.push(format!("{krate} {file} {kind} {path}{name}"));
            };
            if let Some(tree) = pending_use.as_mut() {
                tree.push_str(code);
            } else if let Some(tree) = code.strip_prefix("pub use ") {
                pending_use = Some(tree.to_string());
            }
            if let Some(tree) = pending_use.take() {
                if !code.ends_with(';') {
                    pending_use = Some(tree);
                    continue;
                }
                for name in use_leaves(tree.trim_end_matches(';')) {
                    push("use", name);
                }
                continue;
            }
            if code.starts_with("//") || code.is_empty() {
                continue;
            }
            if code.starts_with("#[cfg(test)]") {
                test_item = true;
                continue;
            }
            if code.starts_with("#[") {
                continue;
            }
            if std::mem::take(&mut test_item) {
                if !code.ends_with(';') {
                    skip_to = Some(format!("{}}}", &line[..indent]));
                }
                continue;
            }
            if code.starts_with('}') && scopes.last().is_some_and(|(at, ..)| *at == indent) {
                scopes.pop();
                continue;
            }
            if scopes.last().is_some_and(|(.., fields)| *fields) {
                if let Some(field) = code.strip_prefix("pub ") {
                    push("field", field.split(':').next().unwrap_or("").trim());
                }
                continue;
            }
            let opens = code.ends_with('{');
            match declared(code) {
                Some((kind, name)) => {
                    if code.starts_with("pub ") {
                        push(kind, &name);
                        let after = &code[code.find(&*name).unwrap() + name.len()..];
                        if let Some(tuple) = after.strip_prefix('(').filter(|_| kind == "struct") {
                            for (i, part) in tuple.split(',').enumerate() {
                                if part.trim_start().starts_with("pub ") {
                                    push("field", &format!("{name}::{i}"));
                                }
                            }
                        }
                    }
                    if opens && kind != "fn" {
                        let fields = kind == "struct";
                        scopes.push((indent, name, fields));
                    }
                }
                None if opens && code.starts_with("impl") => {
                    scopes.push((indent, impl_target(code).unwrap_or_default(), false));
                }
                None => {}
            }
        }
    }
    items.sort();
    items
}

/// `tests/golden/public_api.list`: a count per library crate, then every
/// line of [`public_items`], sorted.
fn public_api_ledger() -> String {
    let mut counts = String::new();
    let mut lines = String::new();
    let mut total = 0;
    for krate in LIBRARIES {
        let items = public_items(krate);
        total += items.len();
        writeln!(counts, "# {krate} {}", items.len()).unwrap();
        for item in items {
            writeln!(lines, "{item}").unwrap();
        }
    }
    format!(
        "# The public surface of the library crates: one `crate file kind name`\n\
         # line per `pub` item, field, `pub use` and `pub mod` outside test code.\n\
         # Refresh with UPDATE_GOLDEN=1 cargo test --test source_lint.\n\
         {counts}# total {total}\n{lines}"
    )
}

/// Every `pub` the library crates declare is in the ledger, so a new one
/// shows up in its diff (DESIGN.md, "The public surface and the hardware
/// constants"). `UPDATE_GOLDEN=1` rewrites the ledger instead.
#[test]
fn public_surface_matches_ledger() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/public_api.list");
    let actual = public_api_ledger();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    let want: Vec<&str> = expected.lines().collect();
    let got: Vec<&str> = actual.lines().collect();
    let gone: Vec<&&str> = want.iter().filter(|l| !got.contains(l)).collect();
    let new: Vec<&&str> = got.iter().filter(|l| !want.contains(l)).collect();
    assert!(
        expected == actual,
        "the public surface moved from tests/golden/public_api.list:\n\
         gone: {gone:#?}\nnew: {new:#?}\n\
         (refresh an intentional change with UPDATE_GOLDEN=1 cargo test --test source_lint)"
    );
}

/// The ledger lists what a library declares `pub`; rustc's `unreachable_pub`
/// keeps that equal to what a caller outside the crate can reach, so every
/// documented library root, the seven of the ledger among them, turns the
/// lint on.
#[test]
fn every_library_warns_on_unreachable_pub() {
    let mut roots = Vec::new();
    for (rel, text) in sources("crates") {
        if rel.ends_with("/src/lib.rs") && text.contains("#![warn(missing_docs)]") {
            assert!(
                text.contains("#![warn(missing_docs)]\n#![warn(unreachable_pub)]"),
                "{rel} lacks `#![warn(unreachable_pub)]` beside `#![warn(missing_docs)]`"
            );
            roots.push(rel);
        }
    }
    for krate in LIBRARIES {
        let root = format!("crates/{krate}/src/lib.rs");
        assert!(roots.contains(&root), "{root} warns on neither lint");
    }
}
