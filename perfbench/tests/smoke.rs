//! Smoke runs of every workload, traced and untraced: the same code
//! paths as a full run on tiny inputs (`--smoke`), checked against the
//! metric names `BENCHMARK.json` declares.

use std::process::Command;

/// Names listed in the `section` array of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let bench = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = bench
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &bench[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

fn check(workload: &str) {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let line = run(workload, trace);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": ")
                && line.contains("\"failed\": 0,"),
            "{workload} trace {trace}: {line}"
        );
        let names = declared(section);
        assert!(!names.is_empty());
        for name in &names {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{workload} trace {trace}: {name} missing from {line}"
            );
        }
        assert_eq!(line.matches("{\"value\": ").count(), names.len(), "{line}");
        if trace == 0 {
            // End-to-end metrics are never 0.
            assert!(
                !line.contains("{\"value\": 0,"),
                "{workload}: a zero metric in {line}"
            );
        }
    }
}

#[test]
fn plan_lap200_smoke() {
    check("plan-lap200");
}

#[test]
fn serve_zipf_smoke() {
    check("serve-zipf");
}

#[test]
fn serve_mp_faults_smoke() {
    check("serve-mp-faults");
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload serve-zipf --seconds 1 --trace 0",
        "--workload serve-zipf --seed 1 --seconds 1 --trace 2",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args.split(' '))
            .output()
            .expect("benchmark binary runs");
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
