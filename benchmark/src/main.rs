//! The repo benchmark. See README.md.
//!
//! `--workload W --seed N --seconds S --trace 0|1` runs one workload in
//! this process and prints its result as the last line. Without
//! `--workload` it runs the suite: every workload, untraced then traced,
//! each run in a child process of its own.

mod host;
mod layers;
mod model;
mod offline;
mod report;
mod runs;
mod schema;
mod spec;
mod stats;
mod trace;
mod wire;

use report::{Outcome, ResultLine};
use runs::RunArgs;
use schema::Schema;
use spec::{workloads, Shape, Workload};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const USAGE: &str = "usage: harvest-benchmark [--workload NAME --trace 0|1] [--seed N] [--seconds S] [--selfcheck | --smoke]";

struct Args {
    workload: Option<String>,
    trace: bool,
    seed: u64,
    seconds: Option<f64>,
    selfcheck: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        trace: false,
        seed: 1,
        seconds: None,
        selfcheck: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--trace" => args.trace = value()? == "1",
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                args.seconds = Some(s);
            }
            "--selfcheck" => args.selfcheck = true,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn header(args: &Args, seconds: f64) -> String {
    // The variant an executor gets when nobody picks one, which is what
    // the server's workers and every rig here run.
    let graph = harvest_models::vit("header", &harvest_net::WireConfig::default().model);
    let kernel = harvest_engine::Executor::new(&graph, 0)
        .kernel_variant()
        .name();
    format!(
        "harvest-benchmark: nproc {} C {} kernel {kernel} features default seed {} seconds {seconds} commit {}",
        harvest_threads::hardware_threads(),
        spec::wire_width(),
        args.seed,
        host::git_commit(),
    )
}

fn run_one(w: &Workload, trace: bool, run: RunArgs) -> Result<Outcome, String> {
    match (w.shape, trace) {
        (Shape::Wire(s), false) => runs::wire_untraced(s, run),
        (Shape::Wire(s), true) => runs::wire_traced(w.name, s, run),
        (Shape::Offline(s), false) => runs::offline_untraced(s, run),
        (Shape::Offline(s), true) => runs::offline_traced(w.name, s, run),
    }
}

/// One child run of the suite: this executable, one workload. Like every
/// process of this program it drops `HARVEST_THREADS` and `HARVEST_TUNE`
/// first thing in `main`.
fn child(name: &str, trace: bool, run: RunArgs) -> Result<ResultLine, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--trace", if trace { "1" } else { "0" }])
        .args([
            "--seed",
            &run.seed.to_string(),
            "--seconds",
            &run.seconds.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if run.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let result = stdout
        .lines()
        .last()
        .and_then(ResultLine::parse)
        .ok_or_else(|| format!("{name}: the run printed no result line ({})", out.status))?;
    if !out.status.success() || !result.correct {
        return Err(format!(
            "{name}: {} of {} operations failed ({})",
            result.failed, result.attempted, out.status
        ));
    }
    Ok(result)
}

/// Does a result carry exactly the metrics `BENCHMARK.json` promises?
fn check_names(name: &str, result: &ResultLine, promised: &[schema::Entry]) -> Result<(), String> {
    let got: Vec<&str> = result.metrics.iter().map(|m| m.0.as_str()).collect();
    let want: Vec<&str> = promised.iter().map(|e| e.name.as_str()).collect();
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{name}: printed metrics {got:?}, BENCHMARK.json promises {want:?}"
        ))
    }
}

/// Every workload, untraced then traced; returns the untraced and traced
/// results per workload.
fn suite(schema: &Schema, run: RunArgs) -> Result<Vec<(String, ResultLine, ResultLine)>, String> {
    let names: Vec<&str> = workloads().iter().map(|w| w.name).collect();
    let promised: Vec<&str> = schema.workloads.iter().map(|e| e.name.as_str()).collect();
    if names != promised {
        return Err(format!(
            "workloads {names:?}, BENCHMARK.json promises {promised:?}"
        ));
    }
    let mut out = Vec::new();
    for name in names {
        let untraced = child(name, false, run)?;
        check_names(name, &untraced, &schema.end_to_end)?;
        let traced = child(name, true, run)?;
        check_names(name, &traced, &schema.per_layer)?;
        out.push((name.to_string(), untraced, traced));
    }
    Ok(out)
}

/// The suite twice; per workload × end-to-end metric both values, how much
/// worse the second is than the first, the bound, and the verdict. The two
/// sets run the same code, so a FAIL means the benchmark is too noisy at
/// its current size.
fn selfcheck(schema: &Schema, run: RunArgs) -> Result<bool, String> {
    let first = suite(schema, run)?;
    let second = suite(schema, run)?;
    let mut pass = true;
    println!("selfcheck: two sets of runs of the same code");
    println!(
        "{:<22} {:<14} {:>12} {:>12} {:>8} {:>7}  verdict",
        "workload", "metric", "first", "second", "worse", "bound"
    );
    for ((name, a, a_traced), (_, b, b_traced)) in first.iter().zip(&second) {
        for e in &schema.end_to_end {
            let (x, y) = (a.get(&e.name).unwrap_or(0.0), b.get(&e.name).unwrap_or(0.0));
            let worse = if e.lower_is_better {
                y / x - 1.0
            } else {
                1.0 - y / x
            };
            let bound = e.bound.unwrap_or(0.0);
            // Either set could have been the parent's: judge the gap both ways.
            let ok = worse.abs() <= bound;
            pass &= ok;
            println!(
                "{name:<22} {:<14} {x:>12.4} {y:>12.4} {:>7.2}% {:>6.0}%  {}",
                e.name,
                worse * 100.0,
                bound * 100.0,
                if ok { "PASS" } else { "FAIL" }
            );
        }
        for t in [a_traced, b_traced] {
            let slo = t.get("slo_ok_share").unwrap_or(0.0);
            let late = t.get("gen.late_max_ms").unwrap_or(0.0);
            let ok = slo >= 0.95 && late <= 5.0;
            pass &= ok;
            println!(
                "{name:<22} slo_ok_share {slo:.4} (>= 0.95)  gen.late_max_ms {late:.3} (<= 5)  {}",
                if ok { "PASS" } else { "FAIL" }
            );
        }
    }
    Ok(pass)
}

fn main() -> ExitCode {
    // Before any thread starts: the kernel pool reads these lazily, and a
    // stray setting would change what every workload measures.
    std::env::remove_var("HARVEST_THREADS");
    std::env::remove_var("HARVEST_TUNE");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    if let Some(name) = &args.workload {
        let Some(w) = workloads().into_iter().find(|w| w.name == name) else {
            eprintln!("unknown workload {name}");
            return ExitCode::from(2);
        };
        let Some(seconds) = args.seconds else {
            eprintln!("--workload needs --seconds\n{USAGE}");
            return ExitCode::from(2);
        };
        println!("{}", header(&args, seconds));
        println!("{} trace {}", w.name, args.trace as u8);
        let run = RunArgs {
            seed: args.seed,
            seconds,
            smoke: args.smoke,
        };
        return match run_one(&w, args.trace, run) {
            Ok(outcome) => {
                print!("{}", outcome.table());
                println!("{}", outcome.json_line());
                if outcome.correct() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(1)
                }
            }
            Err(e) => {
                eprintln!("{}: set-up failed: {e}", w.name);
                ExitCode::from(2)
            }
        };
    }

    let started = Instant::now();
    let verdict = Schema::load().and_then(|schema| {
        let seconds = args.seconds.unwrap_or(schema.run_seconds);
        let run = RunArgs {
            seed: args.seed,
            // A smoke run is one round of a tenth the length.
            seconds: if args.smoke { seconds / 10.0 } else { seconds },
            smoke: args.smoke,
        };
        if args.selfcheck {
            selfcheck(&schema, run)
        } else {
            suite(&schema, run).map(|_| true)
        }
    });
    println!("suite took {:.1} s", started.elapsed().as_secs_f64());
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("selfcheck: at least one row is outside its bound");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(1)
        }
    }
}
