//! End-to-end smoke test: `run --quick` drives every workload, untraced and
//! traced, through every output check and every timing wrapper, in child
//! processes exactly as a full run does.

use std::path::Path;
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_rosebud-benchmark");
const WORKLOADS: [&str; 5] = [
    "fwd64_sat",
    "fwd1500_sat",
    "duty256_light",
    "ids800_attack",
    "fw256_live_uds",
];

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// One test, two parts in sequence: both write under `out/`.
#[test]
fn smoke() {
    quick_run_exercises_every_workload_and_check();
    driver_form_prints_one_result_line_and_refuses_nonsense();
}

fn quick_run_exercises_every_workload_and_check() {
    let home = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = Command::new(EXE)
        .args(["run", "--quick", "--seed", "3"])
        .output()
        .expect("spawn the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success() && stdout.contains("all checks passed"),
        "stdout:\n{stdout}\nstderr:\n{stderr}"
    );

    let results = read(&home.join("out/results.json"));
    let traced = read(&home.join("out/results-traced.json"));
    for w in WORKLOADS {
        assert!(results.contains(&format!("\"{w}\"")), "{w} in results.json");
        assert!(traced.contains(&format!("\"{w}\"")), "{w} traced");
        let trace = read(&home.join(format!("out/trace-{w}.json")));
        // Every traced run has the window root and its top-level children.
        let top = if w == "fw256_live_uds" {
            "shell.step"
        } else {
            "core.tick"
        };
        for span in ["\"window\"", top, "core.replay"] {
            assert!(trace.contains(span), "{w}: span {span} in the trace file");
        }
    }
    // Every metric is printed by name.
    for name in ["setup_s", "dev_p99_cycles", "replay_events_per_s"] {
        assert_eq!(stdout.matches(name).count(), WORKLOADS.len(), "{name}");
    }
    for name in ["bench.trace_overhead_pct", "shell.ring_step_ns_per_cycle"] {
        assert_eq!(stdout.matches(name).count(), WORKLOADS.len(), "{name}");
    }
    for key in [
        "\"fingerprint\"",
        "\"nproc\"",
        "\"rustc\"",
        "\"q1\"",
        "\"q3\"",
    ] {
        assert!(results.contains(key), "{key} in results.json");
    }
    // Sockets live in a per-process directory that is gone afterwards.
    let leftovers: Vec<_> = std::fs::read_dir(home.join("out"))
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("sock-"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "socket directories left: {leftovers:?}"
    );

    // A file compared with itself: nothing regresses, nothing is unresolved
    // beyond what one quick window can resolve.
    let path = home.join("out/results.json");
    let cmp = Command::new(EXE)
        .arg("compare")
        .args([&path, &path])
        .output()
        .expect("spawn compare");
    let table = String::from_utf8_lossy(&cmp.stdout);
    assert!(cmp.status.success(), "{table}");
    assert!(table.contains("regressions 0"), "{table}");
}

fn driver_form_prints_one_result_line_and_refuses_nonsense() {
    let out = Command::new(EXE)
        .args(["--workload", "duty256_light", "--seed", "5"])
        .args(["--seconds", "1", "--trace", "0", "--quick"])
        .output()
        .expect("spawn the benchmark");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\":true,\"attempted\":"),
        "{last}"
    );
    assert!(last.contains("\"setup_s\":{\"value\":"), "{last}");

    for bad in [
        vec!["--workload", "no_such_workload"],
        vec!["compare", "only-one.json"],
        vec![],
    ] {
        let out = Command::new(EXE).args(&bad).output().unwrap();
        assert!(!out.status.success(), "{bad:?} must be refused");
        assert!(out.stdout.is_empty(), "{bad:?} must print no result");
    }
}
