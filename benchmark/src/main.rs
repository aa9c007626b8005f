//! The repo benchmark. Three ways in:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process and prints one JSON result line (the form
//!   `BENCHMARK.json`'s driver uses);
//! * `run [--seed n] [--seconds s] [--quick]` runs all five workloads, each
//!   untraced and traced in a child process of its own, prints every metric
//!   and writes `out/results.json` and `out/results-traced.json`;
//! * `compare <base.json> <new.json>` judges two result files.
//!
//! See `README.md` for what the metrics mean and how they interact.

#![deny(warnings)]
#![deny(unsafe_code)]

mod alloc;
mod compare;
mod dut;
mod harness;
mod json;
mod live;
mod outcome;
mod span;
mod stats;
mod sys;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use harness::Plan;
use json::Json;
use outcome::Outcome;
use workloads::{Workload, END_TO_END, PER_LAYER};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  rosebud-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
  rosebud-benchmark run [--seed <n>] [--seconds <s>] [--quick]
  rosebud-benchmark compare <base.json> <new.json>
  rosebud-benchmark describe";

/// Seconds of timed windows per child when `run` is not told otherwise: all
/// ten children together stay under 100 s on the reference host.
const RUN_SECONDS: f64 = 5.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_flags(&args[1..]).and_then(run_all),
        Some("compare") if args.len() == 3 => compare::compare_files(&args[1], &args[2]),
        Some("describe") => {
            print!("{}", describe().render_pretty());
            Ok(true)
        }
        Some(flag) if flag.starts_with("--") => parse_flags(&args).and_then(run_one),
        _ => Err(USAGE.to_owned()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

#[derive(Debug, Default)]
struct Flags {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    /// Internal: time the set-ups, print them as a JSON array, and exit.
    setups_only: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = Workload::from_name(name)
                    .ok_or_else(|| format!("unknown workload {name:?}"))?;
                flags.workload = Some(w);
            }
            "--seed" => {
                flags.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?);
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                flags.seconds = Some(s);
            }
            "--trace" => {
                flags.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--quick" => flags.quick = true,
            "--setups-only" => flags.setups_only = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(flags)
}

/// The workloads and metric tables in the shape `BENCHMARK.json` states them.
fn describe() -> Json {
    let metric = |def: &workloads::MetricDef, bound: bool| {
        assert!(json::valid_name(def.name), "{}", def.name);
        let mut fields = vec![
            ("name", Json::str(def.name)),
            ("unit", Json::str(def.unit)),
            ("better", Json::str(def.better.as_str())),
        ];
        if bound {
            fields.push(("bound", Json::Num(def.bound)));
        }
        Json::obj(fields)
    };
    let workloads = Workload::ALL
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))]));
    Json::obj([
        ("workloads", Json::Arr(workloads.collect())),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|d| metric(d, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|d| metric(d, false)).collect()),
        ),
    ])
}

/// Moves into the benchmark's own directory and makes `out/` there, so
/// every path the benchmark writes (results, traces, sockets) is short,
/// relative, and inside the checkout.
fn enter_home() -> Result<(), String> {
    let home = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .filter(|p| p.join("Cargo.toml").is_file())
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    std::env::set_current_dir(&home).map_err(|e| format!("{}: {e}", home.display()))?;
    std::fs::create_dir_all("out").map_err(|e| format!("out/: {e}"))
}

fn write_file(path: impl AsRef<Path>, doc: &Json) -> Result<(), String> {
    let path = path.as_ref();
    std::fs::write(path, doc.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

fn mode(traced: bool) -> &'static str {
    if traced {
        "traced"
    } else {
        "untraced"
    }
}

/// Runs one workload in this process and prints its result line.
fn run_one(flags: Flags) -> Result<bool, String> {
    let w = flags
        .workload
        .ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let plan = Plan {
        seed: flags.seed.unwrap_or(1),
        seconds: flags.seconds.unwrap_or(RUN_SECONDS),
        quick: flags.quick,
    };
    enter_home()?;
    dut::clear_kernel_env();
    if flags.setups_only {
        harness::prefault_memory(&plan);
        let secs = if w.is_live() {
            live::setup_times(&plan)
        } else {
            harness::setup_times(w, &plan)
        };
        println!(
            "{}",
            Json::Arr(secs.into_iter().map(Json::Num).collect()).render()
        );
        return Ok(true);
    }
    harness::assert_loop_is_allocation_free();

    let mut out = Outcome::new(w, plan.seed, flags.trace);
    if !flags.trace {
        out.set_median("setup_s", &setups_in_child(w, &plan)?);
    }
    match (w.is_live(), flags.trace) {
        (false, false) => harness::run_untraced(w, &plan, &mut out),
        (false, true) => harness::run_traced(w, &plan, &mut out),
        (true, false) => live::run_untraced(&plan, &mut out),
        (true, true) => live::run_traced(&plan, &mut out),
    }
    if !flags.trace {
        out.set("peak_rss_mb", sys::peak_rss_kb() as f64 / 1024.0);
    }
    for def in out.table() {
        // A metric that is NaN or missing is a broken measurement.
        let v = out.values.get(def.name).map(|v| v.value);
        let usable = v.map_or(flags.trace, f64::is_finite);
        out.check(usable, 1, || format!("metric {} is {v:?}", def.name));
    }

    write_file(
        format!("out/result-{}-{}.json", w.name(), mode(flags.trace)),
        &out.detail(),
    )?;
    if flags.trace {
        write_file(format!("out/trace-{}.json", w.name()), &out.trace_json())?;
    }
    for note in &out.notes {
        eprintln!("{}: FAILED CHECK: {note}", w.name());
    }
    println!("{}", out.result_line());
    // The result line carries `correct`; the exit code says the run finished.
    Ok(true)
}

/// This program again, for one workload: stdout piped, stderr passed on.
fn child(w: Workload, seed: u64, quick: bool) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name(), "--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if quick {
        cmd.arg("--quick");
    }
    Ok(cmd)
}

/// Times the workload's cold set-ups in a child process, so that holding
/// them all at once (see `harness::timed_setups`) does not show up in this
/// process's peak RSS. Waits for the child.
fn setups_in_child(w: Workload, plan: &Plan) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name(), "--setups-only"])
        .args(["--seed", &plan.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if plan.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("spawn set-up child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    match Json::parse(stdout.trim()) {
        Ok(Json::Arr(items)) if output.status.success() && !items.is_empty() => {
            Ok(items.iter().filter_map(Json::as_f64).collect())
        }
        _ => Err(format!("set-up child failed: {:?} {stdout}", output.status)),
    }
}

/// Runs every workload, untraced then traced, each in its own child process
/// so peak RSS and allocator state do not leak between them.
fn run_all(flags: Flags) -> Result<bool, String> {
    let seed = flags.seed.unwrap_or(1);
    let seconds = flags.seconds.unwrap_or(RUN_SECONDS);
    enter_home()?;
    let workloads: Vec<Workload> = match flags.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let fingerprint = sys::fingerprint();
    println!("host: {}", fingerprint.render());

    let mut all_correct = true;
    for traced in [false, true] {
        let mut results = Vec::new();
        for &w in &workloads {
            let mut cmd = child(w, seed, flags.quick)?;
            cmd.args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }]);
            // `output` waits for the child to end.
            let output = cmd.output().map_err(|e| format!("spawn {w:?}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let line = stdout.lines().last().unwrap_or_default();
            let parsed = Json::parse(line);
            let correct = output.status.success()
                && parsed
                    .as_ref()
                    .is_ok_and(|p| p.get("correct").and_then(Json::as_bool) == Some(true));
            all_correct &= correct;
            let path = format!("out/result-{}-{}.json", w.name(), mode(traced));
            let detail = std::fs::read_to_string(&path)
                .map_err(|e| format!("{path}: {e}"))
                .and_then(|t| Json::parse(&t))
                .unwrap_or(Json::Null);
            print_section(w, traced, correct, &detail);
            results.push((w.name(), detail));
        }
        let doc = Json::obj([
            ("benchmark", Json::str("rosebud")),
            ("seed", Json::Int(seed as i64)),
            ("seconds", Json::Num(seconds)),
            ("quick", Json::Bool(flags.quick)),
            ("traced", Json::Bool(traced)),
            ("fingerprint", fingerprint.clone()),
            ("workloads", Json::obj(results)),
        ]);
        let name = if traced {
            "out/results-traced.json"
        } else {
            "out/results.json"
        };
        write_file(name, &doc)?;
    }
    println!(
        "{}",
        if all_correct {
            "all checks passed"
        } else {
            "SOME CHECKS FAILED"
        }
    );
    Ok(all_correct)
}

fn print_section(w: Workload, traced: bool, correct: bool, detail: &Json) {
    let num = |k: &str| detail.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    println!(
        "\n== {} ({}) — {} — {} frames offered, {} failed",
        w.name(),
        mode(traced),
        if correct { "correct" } else { "INCORRECT" },
        num("attempted"),
        num("failed"),
    );
    let table = if traced { PER_LAYER } else { END_TO_END };
    for def in table {
        let Some(m) = detail.get("metrics").and_then(|m| m.get(def.name)) else {
            println!("  {:<34} missing", def.name);
            continue;
        };
        let f = |k: &str| m.get(k).and_then(Json::as_f64);
        let value = f("value").unwrap_or(f64::NAN);
        match (f("n"), f("q1"), f("q3")) {
            (Some(n), Some(q1), Some(q3)) => println!(
                "  {:<34} {:>16.4} {:<6} (n={n}, q1={q1:.4}, q3={q3:.4})",
                def.name, value, def.unit
            ),
            _ => println!("  {:<34} {:>16.4} {}", def.name, value, def.unit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the tables in `workloads.rs` say the same thing.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |k: &str| match doc.get(k) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{k}: {other:?}"),
        };
        let s = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap().to_owned();

        let workloads = list("workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (j, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(
                (s(j, "name"), s(j, "why")),
                (w.name().into(), w.why().into())
            );
            assert_eq!(j.fields().len(), 2);
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, def) in e2e.iter().zip(END_TO_END) {
            assert_eq!(s(j, "name"), def.name);
            assert_eq!(s(j, "unit"), def.unit);
            assert_eq!(s(j, "better"), def.better.as_str());
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(def.bound));
            assert_eq!(j.fields().len(), 4);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, def) in layers.iter().zip(PER_LAYER) {
            assert_eq!(s(j, "name"), def.name);
            assert_eq!(s(j, "unit"), def.unit);
            assert_eq!(s(j, "better"), def.better.as_str());
            assert_eq!(j.fields().len(), 3);
        }
        assert_eq!(list("paths"), [Json::str("benchmark")]);
    }

    #[test]
    fn flags_parse_and_reject() {
        let args = |s: &str| -> Vec<String> { s.split(' ').map(str::to_owned).collect() };
        let f = parse_flags(&args(
            "--workload ids800_attack --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(f.workload, Some(Workload::Ids800Attack));
        assert_eq!((f.seed, f.seconds, f.trace), (Some(7), Some(2.5), true));
        for bad in [
            "--workload nope",
            "--seed x",
            "--trace 2",
            "--seconds 0",
            "--seed",
            "--frobnicate",
        ] {
            assert!(parse_flags(&args(bad)).is_err(), "{bad}");
        }
    }
}
