//! `treep-bench`: the TreeP reproduction's benchmark (see `README.md`).
//!
//! ```text
//! treep-bench [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!             [--repeat N] [--smoke] [--out FILE] [--trace-out FILE]
//! treep-bench --list
//! treep-bench --agree A.json B.json
//! ```

use std::process::ExitCode;
use treep_benchmark::host::CountingAlloc;
use treep_benchmark::report;
use treep_benchmark::run::{run, RunOptions};
use treep_benchmark::spec;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Cli {
    workloads: Vec<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: usize,
    smoke: bool,
    out: Option<String>,
    trace_out: Option<String>,
}

enum Command {
    List,
    Agree(String, String),
    Run(Cli),
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        seed: spec::DEFAULT_SEED,
        seconds: spec::DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
        smoke: false,
        out: None,
        trace_out: None,
    };
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |text: String, flag: &str| {
        text.parse::<u64>()
            .map_err(|_| format!("{flag} needs a whole number, got {text:?}"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => return Ok(Command::List),
            "--agree" => {
                return Ok(Command::Agree(
                    value(&mut it, "--agree")?,
                    value(&mut it, "--agree")?,
                ))
            }
            "--workload" => cli.workloads.push(value(&mut it, "--workload")?),
            "--seed" => cli.seed = number(value(&mut it, "--seed")?, "--seed")?,
            "--seconds" => {
                cli.seconds = number(value(&mut it, "--seconds")?, "--seconds")?.clamp(1, 60)
            }
            "--trace" => cli.trace = number(value(&mut it, "--trace")?, "--trace")? != 0,
            "--repeat" => {
                cli.repeat = number(value(&mut it, "--repeat")?, "--repeat")?.max(1) as usize
            }
            "--smoke" => cli.smoke = true,
            "--out" => cli.out = Some(value(&mut it, "--out")?),
            "--trace-out" => cli.trace_out = Some(value(&mut it, "--trace-out")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.workloads.is_empty() {
        cli.workloads = spec::WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    }
    Ok(Command::Run(cli))
}

/// Run one workload in this process and write its result file.
fn run_one(cli: &Cli, workload: &str, out: &std::path::Path) -> Result<bool, String> {
    let trace_out = if cli.trace {
        let default = format!("trace-{workload}.json");
        Some(
            report::output_path(cli.trace_out.as_deref(), &default)?
                .to_string_lossy()
                .into_owned(),
        )
    } else {
        None
    };
    let result = run(&RunOptions {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        smoke: cli.smoke,
        trace_out,
    })?;
    report::print_run(&result);
    let entry = report::run_entry(&result, cli.seconds);
    std::fs::write(out, report::result_file(&[entry]))
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("result file: {}", out.display());
    // The last line of standard output is the run's result object.
    println!("{}", result.final_line());
    Ok(result.correct)
}

/// Run one workload in a child process of this binary and return its entry
/// of the result file. A process per run, as the driver makes them: the two
/// memory metrics read the process's own resident set, and a second
/// workload in the same process would find the first one's freed pages
/// still resident.
fn run_child(cli: &Cli, workload: &str, part: &std::path::Path) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("no path to this binary: {e}"))?;
    let mut child = std::process::Command::new(exe);
    child
        .args(["--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if cli.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(part);
    if cli.smoke {
        child.arg("--smoke");
    }
    if let Some(path) = &cli.trace_out {
        child.args(["--trace-out", path]);
    }
    let status = child
        .status()
        .map_err(|e| format!("cannot start the run of {workload}: {e}"))?;
    let correct = match status.code() {
        Some(0) => true,
        Some(1) => false,
        _ => return Err(format!("the run of {workload} ended with {status}")),
    };
    let text = std::fs::read_to_string(part).map_err(|e| format!("{}: {e}", part.display()))?;
    let _ = std::fs::remove_file(part);
    let entry = report::entries_of(&text)
        .ok_or_else(|| format!("{} holds no run", part.display()))?
        .to_string();
    Ok((entry, correct))
}

fn run_all(cli: &Cli) -> Result<bool, String> {
    let out = report::output_path(cli.out.as_deref(), "result.json")?;
    if cli.repeat == 1 && cli.workloads.len() == 1 {
        return run_one(cli, &cli.workloads[0], &out);
    }
    let part = out.with_extension("part.json");
    let mut entries = Vec::new();
    let mut all_correct = true;
    for _ in 0..cli.repeat {
        for workload in &cli.workloads {
            let (entry, correct) = run_child(cli, workload, &part)?;
            entries.push(entry);
            all_correct &= correct;
        }
    }
    std::fs::write(&out, report::result_file(&entries))
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("result set of {} runs: {}", entries.len(), out.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse(&args) {
        Ok(Command::List) => {
            for line in spec::list_lines() {
                println!("{line}");
            }
            Ok(true)
        }
        Ok(Command::Agree(a, b)) => report::agree(&a, &b).map(|(text, ok)| {
            print!("{text}");
            ok
        }),
        Ok(Command::Run(cli)) => run_all(&cli),
        Err(e) => Err(e),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("treep-bench: {e}");
            ExitCode::from(2)
        }
    }
}
