//! Static firmware lint — run the analyzer (CFG + abstract interpretation +
//! protocol/taint checks + WCET) over shipped firmware or your own `.s`
//! files, without simulating a single cycle.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example lint                 # lint every builtin
//! cargo run --release --example lint -- firewall     # one builtin
//! cargo run --release --example lint -- my_fw.s      # your own assembly
//! cargo run --release --example lint -- --strict ... # warnings fail too
//! cargo run --release --example lint -- --json ...   # machine-readable
//! ```
//!
//! The exit status is non-zero when any report contains *errors* (the same
//! findings `LoadPolicy::Deny` refuses at load time). `--strict`
//! additionally fails on warnings.
//! `--json` replaces the text reports with one JSON object per target
//! (check id, severity, PC, and witness path per diagnostic), for CI
//! artifacts and editor integration.

use rosebud::apps::shipped_firmware;
use rosebud::core::{machine_spec, RosebudConfig};
use rosebud::kernel::json::Json;
use rosebud::riscv::{assemble, Analyzer};

fn main() {
    let mut strict = false;
    let mut json = false;
    let mut targets: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--strict" => strict = true,
            "--json" => json = true,
            "--help" | "-h" => {
                eprintln!("usage: lint [--strict] [--json] [NAME|FILE.s ...]");
                eprintln!("builtins: {}", builtin_names().join(", "));
                return;
            }
            _ => targets.push(arg),
        }
    }

    // Source each target: a builtin name, or a path to an assembly file.
    let jobs: Vec<(String, String)> = if targets.is_empty() {
        shipped_firmware()
            .into_iter()
            .map(|(n, s)| (n.to_string(), s))
            .collect()
    } else {
        let mut jobs = Vec::new();
        for t in &targets {
            if let Some((name, src)) = shipped_firmware().into_iter().find(|(n, _)| n == t) {
                jobs.push((name.to_string(), src));
            } else {
                match std::fs::read_to_string(t) {
                    Ok(src) => jobs.push((t.clone(), src)),
                    Err(e) => {
                        eprintln!(
                            "{t}: not a builtin ({}) and not a readable file: {e}",
                            builtin_names().join(", ")
                        );
                        std::process::exit(2);
                    }
                }
            }
        }
        jobs
    };

    let analyzer = Analyzer::new(machine_spec(&RosebudConfig::with_rpus(1)));
    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut reports = Json::default();
    reports.array(|a| {
        for (name, src) in &jobs {
            let image = match assemble(src) {
                Ok(image) => image,
                Err(e) => {
                    // file:line:col: error: message — editor-clickable.
                    eprintln!("{name}:{}:{}: error: {}", e.line, e.col, e.message);
                    errors += 1;
                    continue;
                }
            };
            let report = analyzer.check(&image);
            if json {
                report.render_json(name, a);
            } else {
                print!("{}", report.render(name));
                println!();
            }
            errors += report.error_count();
            warnings += report.warning_count();
        }
    });

    if json {
        println!("{reports}");
    } else {
        println!(
            "lint: {} target(s), {errors} error(s), {warnings} warning(s)",
            jobs.len()
        );
    }
    // Errors (the findings LoadPolicy::Deny refuses) fail the run; --strict
    // also fails on warnings.
    if errors > 0 || (strict && warnings > 0) {
        std::process::exit(1);
    }
}

fn builtin_names() -> Vec<&'static str> {
    shipped_firmware().into_iter().map(|(n, _)| n).collect()
}
