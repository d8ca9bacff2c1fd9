//! `pmbench`: runs the workloads, checks their outputs and prints every
//! metric by name with its unit. `run.sh` builds and calls it.

use pingmesh_benchmark::compare::{self, Verdict};
use pingmesh_benchmark::metrics::{self, WORKLOADS};
use pingmesh_benchmark::report::{self, RunResult};
use pingmesh_benchmark::{env, sizes, stats, workloads, Ctx};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  run.sh [--workload NAME] [--seed N] [--seconds S] [--traced] [--repeats N] [--out FILE]
      run the workloads (all four by default), check their outputs, print every
      metric, and write a result set; --traced adds a traced run of each workload
  run.sh --workload NAME --seed N --seconds S --trace 0|1
      one run; the last line of output is the result object
  run.sh --compare A.json B.json
      compare two result sets against the bounds
workloads: sim_mesh ingest_durable query_dashboard query_churn";

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: u64,
    /// `--trace 0|1`: one run, result object on the last line.
    trace: Option<bool>,
    traced: bool,
    repeats: u64,
    out: Option<PathBuf>,
    /// Where a child run of the suite leaves its result for the parent.
    run_json: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.iter().map(|w| w.name).collect(),
        seed: 1,
        seconds: sizes::RUN_SECONDS,
        trace: None,
        traced: false,
        repeats: 1,
        out: None,
        run_json: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or(format!("{flag} needs a value"))
    };
    let number = |s: String, flag: &str| {
        s.parse::<u64>()
            .map_err(|_| format!("{flag} needs a whole number, got {s:?}"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => {
                let name = value(&mut it, "--workload")?;
                let known = WORKLOADS
                    .iter()
                    .find(|w| w.name == name)
                    .ok_or(format!("unknown workload {name:?}"))?;
                args.workloads = vec![known.name];
            }
            "--seed" => args.seed = number(value(&mut it, "--seed")?, "--seed")?,
            "--seconds" => {
                args.seconds = number(value(&mut it, "--seconds")?, "--seconds")?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value(&mut it, "--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                })
            }
            "--traced" => args.traced = true,
            "--print-contract" => {
                print!("{}", metrics::contract_json());
                std::process::exit(0);
            }
            "--repeats" => args.repeats = number(value(&mut it, "--repeats")?, "--repeats")?.max(1),
            "--out" => args.out = Some(PathBuf::from(value(&mut it, "--out")?)),
            "--run-json" => args.run_json = Some(PathBuf::from(value(&mut it, "--run-json")?)),
            "--compare" => {
                let a = PathBuf::from(value(&mut it, "--compare")?);
                let b = PathBuf::from(value(&mut it, "--compare")?);
                args.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.trace.is_some() && args.workloads.len() != 1 {
        return Err("--trace needs --workload".into());
    }
    Ok(args)
}

fn baseline_path(workload: &str) -> PathBuf {
    env::work_dir()
        .join("last_untraced")
        .join(format!("{workload}.txt"))
}

/// One run of one workload. An untraced run leaves its headline rate
/// behind; a traced run reads it (or makes an untraced run first) to
/// report `obs.trace_overhead_share`, and writes its spans out.
fn run_one(workload: &'static str, seed: u64, seconds: u64, traced: bool) -> RunResult {
    let path = baseline_path(workload);
    if traced && !path.exists() {
        run_one(workload, seed, seconds, false);
    }
    let mut ctx = Ctx::new(seed, seconds, traced);
    let mut res = workloads::run(workload, &mut ctx).expect("known workload");
    let rate = res
        .get("throughput_per_s")
        .expect("every workload reports its rate");
    if traced {
        let base: f64 = std::fs::read_to_string(&path)
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(rate);
        // Traced ÷ untraced time for the same work, less one.
        res.set("obs.trace_overhead_share", base / rate - 1.0);
        res.set("obs.spans_recorded", ctx.tracer.spans().len() as f64);
        let file = env::work_dir()
            .join("trace")
            .join(format!("{workload}.jsonl"));
        match ctx.tracer.write_jsonl(&file) {
            Ok(()) => println!(
                "trace: {} spans ({} dropped) -> {}",
                ctx.tracer.spans().len(),
                ctx.tracer.dropped(),
                file.display()
            ),
            Err(e) => eprintln!("could not write {}: {e}", file.display()),
        }
        println!(
            "  {:<34} {:>9} {:>14} {:>14}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, t) in ctx.tracer.totals() {
            println!(
                "  {name:<34} {:>9} {:>14.3} {:>14.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    } else {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let _ = std::fs::write(&path, format!("{rate}\n"));
    }
    res.print();
    res
}

/// Median and quartile spread of every gated metric over a set's runs.
fn print_spreads(set: &report::ResultSet) {
    println!("== spread over repeats (interquartile distance as a share of the median) ==");
    for ((workload, metric), values) in &set.values {
        let Some((def, bound)) = metrics::find(metric).and_then(|d| Some((d, d.bound?))) else {
            continue;
        };
        let (median, Some(spread)) = (stats::median(values), stats::spread(values)) else {
            continue;
        };
        let verdict = if spread > bound {
            "UNRESOLVED: above the bound"
        } else if spread > bound / 3.0 {
            "above a third of the bound"
        } else {
            "steady"
        };
        println!(
            "  {workload:<16} {metric:<26} median {median:>14.4} {:<5} spread {:>6.2} %  bound {:>3.0} %  {verdict}",
            def.unit,
            spread * 100.0,
            bound * 100.0
        );
    }
}

/// Runs one workload in a process of its own, so that peak RSS and every
/// process-wide counter belong to that run alone. Returns the run as
/// JSON and whether its checks passed.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<(String, bool), String> {
    let file = env::work_dir()
        .join("results")
        .join(format!("run-{}.json", std::process::id()));
    if let Some(dir) = file.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = std::process::Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }, "--run-json"])
        .arg(&file)
        .status()
        .map_err(|e| e.to_string())?;
    let json =
        std::fs::read_to_string(&file).map_err(|e| format!("{workload} left no result: {e}"))?;
    let _ = std::fs::remove_file(&file);
    Ok((json, status.success()))
}

fn compare(a: &PathBuf, b: &PathBuf) -> Result<bool, String> {
    let load = |p: &PathBuf| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        report::parse_set(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let lines = compare::compare(&load(a)?, &load(b)?);
    for l in &lines {
        let tag = match l.verdict {
            Verdict::Ok => "ok",
            Verdict::Fail => "FAIL",
            Verdict::Unresolved => "UNRESOLVED",
        };
        println!("{tag:<11}{}", l.text);
    }
    let count = |v| lines.iter().filter(|l| l.verdict == v).count();
    let ok = count(Verdict::Fail) == 0;
    println!(
        "{}: {} unresolved (spread above the bound)",
        if ok {
            "sets agree within the bounds"
        } else {
            "sets DISAGREE"
        },
        count(Verdict::Unresolved)
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match compare(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    let facts = env::describe();
    if let Some(traced) = args.trace {
        let res = run_one(args.workloads[0], args.seed, args.seconds, traced);
        if let Some(file) = &args.run_json {
            if let Err(e) = std::fs::write(file, res.to_json()) {
                eprintln!("could not write {}: {e}", file.display());
            }
        }
        println!("{}", res.contract_json());
        return if res.correct() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    for (k, v) in &facts {
        println!("{k}: {v}");
    }

    let mut runs = Vec::new();
    let mut all_correct = true;
    for rep in 0..args.repeats {
        for w in &args.workloads {
            for traced in [false, true] {
                if traced && !args.traced {
                    continue;
                }
                match run_child(w, args.seed + rep, args.seconds, traced) {
                    Ok((json, correct)) => {
                        runs.push(json);
                        all_correct &= correct;
                    }
                    Err(e) => {
                        eprintln!("FAILED: {e}");
                        all_correct = false;
                    }
                }
            }
        }
    }
    let text = report::set_json(&facts, args.seconds, &runs);
    if args.repeats > 1 {
        match report::parse_set(&text) {
            Ok(set) => print_spreads(&set),
            Err(e) => eprintln!("result set does not parse: {e}"),
        }
    }
    let out = args.out.unwrap_or_else(|| {
        let stamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        env::work_dir()
            .join("results")
            .join(format!("seed{}-{stamp}.json", args.seed))
    });
    if let Some(dir) = out.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&out, text) {
        Ok(()) => println!("result set written to {}", out.display()),
        Err(e) => eprintln!("could not write {}: {e}", out.display()),
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: at least one run failed its output checks");
        ExitCode::FAILURE
    }
}
