//! The `experiments` binary's argument contract, driven as a process.

use std::process::Command;

fn experiments(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments")
}

/// An unknown name used to be a filter that matched nothing: exit 0, no
/// output. It must fail, name the culprit and list what is valid — and do so
/// before any subcommand named beside it has run.
#[test]
fn unknown_subcommand_is_rejected_before_anything_runs() {
    let out = experiments(&["table2", "tabel1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "a subcommand ran before validation");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("`tabel1`"), "{err}");
    for name in ["table1", "bench", "fleet", "host"] {
        assert!(err.contains(name), "valid list lacks {name}: {err}");
    }
}

/// A bare `--json` is a usage error like an unknown name: exit 2 with a
/// message naming the flag, not a panic (exit 101), and nothing runs.
#[test]
fn bare_json_flag_is_rejected_before_anything_runs() {
    let out = experiments(&["table2", "--json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "a subcommand ran before validation");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("`--json`"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

/// The autotuner went with the kernels it chose between; its name is now
/// one more unknown subcommand, and the valid list no longer offers it.
#[test]
fn tune_is_no_longer_a_subcommand() {
    let out = experiments(&["tune"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown subcommand"), "{err}");
    let listed = err.rsplit("valid:").next().unwrap();
    assert!(
        listed.contains("bench") && !listed.contains("tune"),
        "{err}"
    );
}

/// The timings after `tags` on the line of `stdout` containing `key`.
fn times_on<const N: usize>(stdout: &str, key: &str, tags: [&str; N]) -> Vec<f64> {
    let line = stdout
        .lines()
        .find(|l| l.contains(key))
        .unwrap_or_else(|| panic!("no `{key}` line: {stdout}"));
    tags.iter()
        .map(|tag| {
            let rest = &line[line.find(tag).unwrap() + tag.len()..];
            rest.split(' ').next().unwrap().parse().unwrap()
        })
        .collect()
}

/// The AJPG-vs-RTIF decode gap, the full-vs-direct ingest table and the
/// weight load path EXPERIMENTS.md quotes are lines of `host`: two timings
/// a line are printed, on the main thread and on a spawned one, and the
/// load path's five against its floor; nothing is asserted about their
/// values (or the fault counts beside them).
#[test]
fn host_prints_the_format_gap_and_the_ingest_table() {
    let out = experiments(&["host"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let mut times = times_on(&stdout, "decode 224x224 RowCrop", ["AJPG ", "RTIF "]);
    for case in ["512->16", "128->96", "512->224"] {
        for thread in ["main", "spawned"] {
            times.extend(times_on(
                &stdout,
                &format!("ingest {case} RowCrop, {thread} thread:"),
                ["full ", "direct "],
            ));
        }
    }
    times.extend(times_on(
        &stdout,
        "weights load ResNet50",
        [
            "materialize ",
            "encode ",
            "decode ",
            "FNV-1a pass ",
            "memcpy ",
        ],
    ));
    assert!(times.iter().all(|&t| t > 0.0), "{times:?}");
}
