//! gmt-e2e: the pinned, six-workload end-to-end benchmark of the GMT
//! reproduction. See `README.md` beside this package; `run.sh` is the
//! entry point.
//!
//! The driver process pins itself to one CPU, then runs every workload
//! in a fresh child process of this same binary and gathers what the
//! children print.

#[cfg(feature = "internal-ceilings")]
mod adapters;
mod ceilings;
mod gen;
mod json;
mod layers;
mod measure;
mod procfs;
mod report;
mod stats;
mod trace;
mod workloads;

use gmt_metrics::json::{parse, Value};
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// A child that has not finished by then is killed; its un-run ops count
/// as failed.
const WORKLOAD_TIMEOUT: Duration = Duration::from_secs(120);
const CEILINGS_TIMEOUT: Duration = Duration::from_secs(60);
const DEFAULT_SEED: u64 = 1;

#[derive(Debug, Default)]
struct Args {
    /// `child`, `ceilings` or `spread`; none for the driver.
    mode: Option<String>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    check: bool,
    out_dir: Option<PathBuf>,
    /// The repository root: where `BENCHMARK.json` and the root manifest are.
    root: Option<PathBuf>,
    files: Vec<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value(arg)?),
            "--seed" => {
                args.seed = Some(value(arg)?.parse().map_err(|e| format!("--seed: {e}"))?);
            }
            "--seconds" => {
                let s: f64 = value(arg)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is not in (0, 600]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value(arg)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--check" => args.check = true,
            "--out-dir" => args.out_dir = Some(PathBuf::from(value(arg)?)),
            "--root" => args.root = Some(PathBuf::from(value(arg)?)),
            "child" | "ceilings" | "spread" if args.mode.is_none() => args.mode = Some(arg.clone()),
            file if args.mode.as_deref() == Some("spread") => args.files.push(PathBuf::from(file)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(run) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("gmt-e2e: {e}");
            ExitCode::from(2)
        }
    }
}

/// Returns whether everything that ran was correct.
fn run(args: Args) -> Result<bool, String> {
    let mut out_dir = args.out_dir.clone().unwrap_or_else(|| PathBuf::from("bench/e2e/out"));
    if args.check && args.mode.is_none() {
        // The smoke test must not overwrite a real run's results.
        out_dir.push("check");
    }
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    match args.mode.as_deref() {
        Some("child") => {
            let report = measure::run_child(&measure::ChildArgs {
                workload: args.workload.ok_or("child needs --workload")?,
                seed,
                seconds: args.seconds.unwrap_or(1.0),
                trace: args.trace,
                check: args.check,
                out_dir,
            })?;
            println!("{report}");
            Ok(true)
        }
        Some("ceilings") => {
            println!("{}", ceilings::run_ceilings(seed, args.check, &out_dir)?);
            Ok(true)
        }
        Some("spread") => {
            let root = args.root.ok_or("spread needs --root")?;
            report::spread(&report::Benchmark::load(&root)?, &args.files)
        }
        _ => drive(&args, seed, &out_dir),
    }
}

/// The driver: pins, runs children, reports.
fn drive(args: &Args, seed: u64, out_dir: &Path) -> Result<bool, String> {
    let root = args.root.clone().unwrap_or_else(|| PathBuf::from("."));
    let benchmark = report::Benchmark::load(&root)?;
    let allowed = procfs::allowed_cpus()?;
    let hardware_threads = std::thread::available_parallelism().map_or(0, usize::from) as u64;
    // Before any other thread exists: children and their threads inherit it.
    procfs::pin_to_cpu(allowed[0])?;
    eprintln!(
        "[gmt-e2e] pinned to cpu {} of allowed {allowed:?}; {hardware_threads} hardware thread(s)",
        allowed[0],
    );
    let seconds = args.seconds.unwrap_or(benchmark.run_seconds);

    if args.check {
        report::check_manifests(&root)?;
        benchmark.check_against_catalogue()?;
    }
    let selected: Vec<&workloads::Spec> =
        match &args.workload {
            Some(name) => vec![workloads::spec_by_name(name)
                .ok_or_else(|| format!("no workload named {name:?}"))?],
            None => workloads::SPECS.iter().collect(),
        };
    // One workload is the benchmark driver's protocol: it gets the pass
    // `--trace` names. Without `--workload` every workload gets both.
    let passes: &[bool] = match (&args.workload, args.check) {
        (_, true) => &[true],
        (Some(_), false) => &[args.trace],
        (None, false) => &[false, true],
    };

    let mut results = Vec::new();
    for spec in selected {
        let mut result = report::WorkloadResult::new(spec);
        for &trace in passes {
            let outcome = run_workload_child(spec.name, seed, seconds, trace, args.check, out_dir);
            result.absorb(trace, outcome);
        }
        results.push(result);
    }
    let ceilings = if passes.contains(&true) {
        match run_ceilings_child(seed, args.check, out_dir) {
            Ok(v) => Some(v),
            Err(e) => {
                eprintln!("[gmt-e2e] ceilings failed: {e}");
                None
            }
        }
    } else {
        None
    };

    let run =
        report::Run { seed, seconds, cpus_allowed: allowed, hardware_threads, results, ceilings };
    run.print_table();
    if args.workload.is_none() {
        let path = out_dir.join("result.json");
        std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {out_dir:?}: {e}"))?;
        std::fs::write(&path, format!("{}\n", run.to_json()))
            .map_err(|e| format!("writing {path:?}: {e}"))?;
        eprintln!("[gmt-e2e] wrote {}", path.display());
    }
    let correct = run.correct();
    if args.workload.is_some() && !args.check {
        if !run.results[0].completed(args.trace) {
            return Err("the workload's child did not complete: no result line".to_string());
        }
        // The benchmark driver reads this line, and it must be the last.
        // Its `correct` field carries the verdict, not the exit code.
        println!("{}", run.driver_line(args.trace));
        return Ok(true);
    } else if args.check {
        println!("check {}", if correct { "passed" } else { "FAILED" });
    }
    Ok(correct)
}

/// Output of a finished child: its parsed last stdout line, and how many
/// stuck-task warnings the runtime printed on its stderr.
pub struct ChildOutput {
    pub report: Value,
    pub stuck_warnings: u64,
}

fn run_workload_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    out_dir: &Path,
) -> Result<ChildOutput, String> {
    let mut cmd = self_command()?;
    cmd.arg("child")
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(out_dir);
    if check {
        cmd.arg("--check");
    }
    run_child_process(cmd, WORKLOAD_TIMEOUT).map_err(|e| format!("{workload}: {e}"))
}

fn run_ceilings_child(seed: u64, check: bool, out_dir: &Path) -> Result<Value, String> {
    let mut cmd = self_command()?;
    cmd.arg("ceilings").args(["--seed", &seed.to_string()]).arg("--out-dir").arg(out_dir);
    if check {
        cmd.arg("--check");
    }
    run_child_process(cmd, CEILINGS_TIMEOUT).map(|o| o.report)
}

fn self_command() -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    Ok(Command::new(exe))
}

/// Runs `cmd` to completion or `timeout`, whichever comes first, and
/// always reaps it. The child's stderr is passed through line by line.
fn run_child_process(mut cmd: Command, timeout: Duration) -> Result<ChildOutput, String> {
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("starting the child: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let stderr = child.stderr.take().expect("stderr is piped");
    // Both pipes are drained on their own threads so a chatty child
    // never blocks on a full pipe while the driver waits for it.
    let out_reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let err_reader = std::thread::spawn(move || {
        let mut stuck = 0u64;
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            if line.contains("[gmt] warn:") && line.contains("task stuck") {
                stuck += 1;
            }
            eprintln!("{line}");
        }
        stuck
    });
    let deadline = Instant::now() + timeout;
    let status = loop {
        match child.try_wait().map_err(|e| format!("waiting for the child: {e}"))? {
            Some(status) => break Some(status),
            None if Instant::now() >= deadline => {
                // Kill, then reap: the child must have ended before the
                // driver reports.
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            None => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    let stdout = out_reader.join().expect("the stdout reader does not panic");
    let stuck_warnings = err_reader.join().expect("the stderr reader does not panic");
    let status = status.ok_or(format!("timed out after {} s and was killed", timeout.as_secs()))?;
    if !status.success() {
        return Err(format!("child ended with {status}"));
    }
    let stdout = stdout.map_err(|e| format!("reading the child's output: {e}"))?;
    let last = stdout.lines().last().ok_or("the child printed nothing")?;
    let report = parse(last).map_err(|e| format!("the child's report is not JSON: {e}"))?;
    Ok(ChildOutput { report, stuck_warnings })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_benchmark_drivers_command_line_parses() {
        let a = parse_args(&argv("--workload chase_tcp --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("chase_tcp"));
        assert_eq!((a.seed, a.seconds, a.trace, a.check), (Some(7), Some(10.0), true, false));
        assert!(a.mode.is_none());
        let a = parse_args(&argv("spread --root . a.json b.json")).unwrap();
        assert_eq!(a.files.len(), 2);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in ["--trace 2", "--seconds 0", "--seconds -3", "--seed x", "--workload", "extra"] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_child_that_outlives_its_timeout_is_killed_and_reaped() {
        let mut cmd = Command::new("sleep");
        cmd.arg("30");
        let started = Instant::now();
        let err = run_child_process(cmd, Duration::from_millis(100)).err().unwrap();
        assert!(err.contains("timed out"), "{err}");
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn a_childs_last_line_is_its_report_and_stuck_warnings_are_counted() {
        let mut cmd = Command::new("sh");
        cmd.args([
            "-c",
            "echo noise; echo '[gmt] warn: node 0: task stuck for 1000 ms' >&2; echo '{\"a\": 1}'",
        ]);
        let out = run_child_process(cmd, Duration::from_secs(10)).unwrap();
        assert_eq!(out.report.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(out.stuck_warnings, 1);
        let mut failing = Command::new("sh");
        failing.args(["-c", "echo '{}'; exit 3"]);
        assert!(run_child_process(failing, Duration::from_secs(10)).is_err());
    }
}
