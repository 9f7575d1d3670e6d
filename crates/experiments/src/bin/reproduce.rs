//! `reproduce` — regenerate every table and figure of the TreeP paper.
//!
//! `reproduce --help` prints the flag list, generated from its two tables:
//! the run flags (`FLAGS`) and the experiments (`EXPERIMENTS`), each
//! declared once with its flag, help line, profiles, run, artifacts and
//! gate.
//!
//! Without arguments it runs every figure on 800 nodes, each computed from
//! the churn runs of `--seeds K` consecutive seeds (one by default) with
//! its verdict against the paper's readings, writes every reading to
//! `BENCH_paper.json`, and prints the Section III.e routing-table report of
//! the overlays the runs built. Each experiment flag adds its table and
//! writes its artifacts. `--smoke` runs the bounded profiles, skips the
//! default figure suite, and exits 1 when an experiment's gate fails: the
//! CI smoke steps. A BENCH document that is not well-formed JSON is not
//! written (exit 1). An unknown flag prints the flag list and exits 2.

use analysis::Table;
use experiments::{
    compare_multicast, compare_overlays, compare_pubsub, maintenance_table, paper_table,
    routing_table_report, run_durability, run_read_storm, run_scale, run_trace_demo,
    sweep_multicast_loss, verdict, ChurnRunResult, DurabilityParams, ExperimentParams, Figure,
    LossSweepParams, MulticastParams, PubSubParams, ReadStormParams, ScaleParams, SeedRuns,
    TraceDemoParams, FIGURES,
};

struct Cli {
    figures: Vec<&'static Figure>,
    nodes: usize,
    seed: u64,
    seeds: u64,
    lookups: usize,
    smoke: bool,
    maintenance: bool,
    experiments: Vec<&'static Experiment>,
    trace_out: Option<String>,
    out: Option<String>,
}

/// Population cap of the experiments' full profiles.
const FULL_NODES: usize = 400;

impl Cli {
    /// The parameters of an experiment's profile: `smoke(seed)` under
    /// `--smoke`, else `full(nodes, seed)` on at most 400 nodes.
    fn pick<P>(&self, full: impl FnOnce(usize, u64) -> P, smoke: impl FnOnce(u64) -> P) -> P {
        if self.smoke {
            smoke(self.seed)
        } else {
            full(self.nodes.min(FULL_NODES), self.seed)
        }
    }
}

/// A gate's verdict: its summary line, or the check that failed.
type Gate = Result<String, String>;

/// An experiment beside the paper's figures: its flag and help line, the
/// names its table is written as (`BENCH_<bench>.json`; `<csv>.csv` under
/// `--out`), and its run: the profile's table and, if any, its gate.
struct Experiment {
    flag: &'static str,
    help: &'static str,
    bench: Option<&'static str>,
    csv: Option<&'static str>,
    run: fn(&Cli) -> (Table, Option<Gate>),
}

/// Every experiment, in the order they run.
static EXPERIMENTS: [Experiment; 7] = [
    Experiment {
        flag: "--baselines",
        help: "TreeP vs Chord vs flooding comparison",
        bench: None,
        csv: None,
        run: |cli| {
            let nodes = cli.nodes.min(FULL_NODES);
            let comparison = compare_overlays(nodes, cli.seed, &[0.0, 0.2, 0.4], cli.lookups);
            (comparison.to_table(), None)
        },
    },
    Experiment {
        flag: "--multicast",
        help: "scoped multicast vs flooding broadcast (Figure M)",
        bench: None,
        csv: None,
        run: |cli| {
            let quick = |seed| MulticastParams::quick(cli.nodes, seed);
            let comparison = compare_multicast(&cli.pick(MulticastParams::new, quick));
            (comparison.to_table(), None)
        },
    },
    Experiment {
        flag: "--lossy",
        help: "per-hop-loss sweep of multicast reliability (Figure L)",
        bench: None,
        csv: None,
        run: |cli| {
            let sweep =
                sweep_multicast_loss(&cli.pick(LossSweepParams::new, LossSweepParams::smoke));
            (sweep.to_table(), Some(sweep.gate()))
        },
    },
    Experiment {
        flag: "--durability",
        help: "DHT durability under churn, k = 1 vs k = 3 (Figure R)",
        bench: None,
        csv: Some("figure_r_durability"),
        run: |cli| {
            let report = run_durability(&cli.pick(DurabilityParams::new, DurabilityParams::smoke));
            (report.to_table(), Some(report.gate()))
        },
    },
    Experiment {
        flag: "--readpath",
        help: "Zipf read storm: hot-key cache off vs on (Figure S)",
        bench: Some("readpath"),
        csv: Some("figure_s_readpath"),
        run: |cli| {
            let report = run_read_storm(&cli.pick(ReadStormParams::new, ReadStormParams::smoke));
            (report.to_table(), Some(report.gate()))
        },
    },
    Experiment {
        flag: "--pubsub",
        help: "subscription-pruned publish vs flooding (Figure P)",
        bench: Some("pubsub"),
        csv: None,
        run: |cli| {
            let comparison = compare_pubsub(&cli.pick(PubSubParams::new, PubSubParams::smoke));
            (comparison.to_table(), Some(comparison.gate()))
        },
    },
    Experiment {
        flag: "--scale",
        help: "engine scale sweep up to n = 10^6",
        bench: Some("scale"),
        csv: None,
        run: |cli| {
            let params = cli.pick(|_, seed| ScaleParams::full(seed), ScaleParams::smoke);
            let report = run_scale(&params);
            (report.to_table(), Some(report.gate()))
        },
    },
];

/// How argument parsing can end without a runnable configuration: a help
/// request (exit 0) or an error (exit 2). An unknown flag prints the flag
/// list, so a typo never silently runs the wrong experiment suite.
enum CliError {
    Help,
    Bad(String),
}

/// A flag of `reproduce` that is not an experiment: its names, the value
/// it takes (empty for a switch, which is set to `true`), its help, and
/// what it sets.
struct Flag {
    names: &'static [&'static str],
    value: &'static str,
    help: &'static str,
    set: fn(&mut Cli, &str) -> Result<(), CliError>,
}

const FLAGS: [Flag; 10] = [
    Flag {
        names: &["--figure", "-f"],
        value: "A..I|all",
        help: "run one paper figure (repeatable) instead of the suite",
        set: |cli, v| {
            if v.eq_ignore_ascii_case("all") {
                cli.figures = FIGURES.iter().collect();
            } else {
                let figure = Figure::named(v).ok_or(format!("unknown figure '{v}'"));
                cli.figures.push(figure.map_err(CliError::Bad)?);
            }
            Ok(())
        },
    },
    Flag {
        names: &["--nodes", "-n"],
        value: "N",
        help: "initial population size (default 800)",
        set: |cli, v| parse(v).map(|n| cli.nodes = n),
    },
    Flag {
        names: &["--seed", "-s"],
        value: "S",
        help: "deterministic seed (default 2005)",
        set: |cli, v| parse(v).map(|s| cli.seed = s),
    },
    Flag {
        names: &["--seeds"],
        value: "K",
        help: "run the figures on K consecutive seeds from S\n\
               (default 1): a curve's median and quartiles per x,\n\
               a surface's histograms pooled; writes\n\
               BENCH_paper.json with a verdict per figure",
        set: |cli, v| parse(v).map(|k| cli.seeds = k),
    },
    Flag {
        names: &["--lookups", "-l"],
        value: "K",
        help: "lookups per churn step per algorithm (default 100)",
        set: |cli, v| parse(v).map(|k| cli.lookups = k),
    },
    Flag {
        names: &["--smoke"],
        value: "",
        help: "bounded smoke profile (at most 200 nodes, the quick\n\
               churn schedule); runs only what was asked for, and\n\
               exits non-zero when an experiment's gate fails",
        set: |cli, v| parse(v).map(|on| cli.smoke = on),
    },
    Flag {
        names: &["--maintenance"],
        value: "",
        help: "maintenance-overhead ablation (of the first seed)",
        set: |cli, v| parse(v).map(|on| cli.maintenance = on),
    },
    Flag {
        names: &["--trace-out"],
        value: "FILE",
        help: "capture causal traces of a seeded op mix and write\n\
               them as Chrome-trace / Perfetto JSON to FILE",
        set: |cli, v| parse(v).map(|file| cli.trace_out = Some(file)),
    },
    Flag {
        names: &["--out", "-o"],
        value: "DIR",
        help: "also write the CSVs of the figures and experiments\n\
               into DIR",
        set: |cli, v| parse(v).map(|dir| cli.out = Some(dir)),
    },
    Flag {
        names: &["--help", "-h"],
        value: "",
        help: "print this list and exit",
        set: |_, _| Err(CliError::Help),
    },
];

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, CliError> {
        let mut cli = Cli {
            figures: Vec::new(),
            nodes: 800,
            seed: 2005,
            seeds: 1,
            lookups: 100,
            smoke: false,
            maintenance: false,
            experiments: Vec::new(),
            trace_out: None,
            out: None,
        };
        let mut picked: Vec<&str> = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if EXPERIMENTS.iter().any(|e| e.flag == arg) {
                picked.push(arg);
                continue;
            }
            let Some(flag) = FLAGS.iter().find(|f| f.names.contains(&arg.as_str())) else {
                let unknown = format!("unknown argument '{arg}'\n\n{}", usage());
                return Err(CliError::Bad(unknown));
            };
            let value = match flag.value {
                "" => "true",
                _ => args
                    .next()
                    .ok_or_else(|| CliError::Bad(format!("{arg} expects a value")))?,
            };
            (flag.set)(&mut cli, value).map_err(|e| match e {
                CliError::Bad(why) => CliError::Bad(format!("{arg}: {why}")),
                help => help,
            })?;
        }
        cli.experiments = EXPERIMENTS
            .iter()
            .filter(|e| picked.contains(&e.flag))
            .collect();
        // A smoke run is bounded: only what was asked for. A bare
        // `--trace-out` likewise runs just the trace capture.
        if cli.figures.is_empty() && !cli.smoke && cli.trace_out.is_none() {
            cli.figures = FIGURES.iter().collect();
        }
        if cli.smoke {
            cli.nodes = cli.nodes.min(200);
            cli.lookups = cli.lookups.min(20);
        }
        if cli.seeds == 0 || cli.seed.checked_add(cli.seeds).is_none() {
            return Err(CliError::Bad(
                "--seeds must be at least 1, and --seed + --seeds must fit 64 bits".into(),
            ));
        }
        Ok(cli)
    }
}

/// `text`, the value of a flag, parsed.
fn parse<T: std::str::FromStr>(text: &str) -> Result<T, CliError>
where
    T::Err: std::fmt::Display,
{
    text.parse().map_err(|e| CliError::Bad(format!("{e}")))
}

/// The flag list: the run flags, then one flag per experiment.
fn usage() -> String {
    let line = |head: String, help: String| {
        let help = help.replace('\n', &format!("\n{:26}", ""));
        format!("\n  {head:<22}  {help}")
    };
    let mut text = String::from("usage: reproduce [flags]\n");
    for flag in &FLAGS {
        let mut head = [flag.names[0], flag.value].join(" ");
        if let Some(short) = flag.names.get(1) {
            head = format!("{head:<11} ({short})");
        }
        text += &line(head, flag.help.to_string());
    }
    text += "\n\nexperiments (each adds its table; under --smoke, its gate):";
    for e in &EXPERIMENTS {
        let writes = e
            .bench
            .map_or(String::new(), |b| format!("\n(writes BENCH_{b}.json)"));
        text += &line(e.flag.to_string(), format!("{}{writes}", e.help));
    }
    text
}

/// Report a failed gate (or an artifact that must not be written) and exit
/// non-zero.
fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1);
}

/// Write one rendered document and say so. Failing to is a warning: the
/// table it renders has been printed already.
fn write_artifact(path: &str, text: &str) {
    match analysis::write_document(path, text) {
        Ok(()) => eprintln!("#   wrote {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

/// Write `table` as `BENCH_<name>.json` into the `--out` directory (the
/// working directory without one). A document that is not well-formed JSON
/// is a bug of the writer, and no file is better than that one.
fn write_bench(cli: &Cli, name: &str, table: &Table) {
    let json = table.to_json();
    if let Err(e) = analysis::validate_json(&json) {
        fail(format!("BENCH_{name}.json is not well-formed JSON: {e}"));
    }
    let dir = cli.out.as_ref().map_or(String::new(), |d| format!("{d}/"));
    write_artifact(&format!("{dir}BENCH_{name}.json"), &json);
}

/// Write `table` as `<name>.csv` into the `--out` directory, if one was given.
fn write_csv(cli: &Cli, name: &str, table: &Table) {
    if let Some(dir) = &cli.out {
        write_artifact(&format!("{dir}/{name}.csv"), &table.to_csv());
    }
}

/// The churn runs of every seed in `seeds`, in seed order. The seeds are
/// split into one consecutive share per core, run at once: each run is
/// deterministic and shares nothing, so the result is the same as one seed
/// after another.
fn run_seeds(
    params: &ExperimentParams,
    seeds: std::ops::Range<u64>,
    variable_nc: bool,
) -> Vec<SeedRuns> {
    let seeds: Vec<u64> = seeds.collect();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let share = seeds.len().div_ceil(cores).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = seeds
            .chunks(share)
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&seed| {
                            SeedRuns::run(&ExperimentParams { seed, ..*params }, variable_nc)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| worker.join().expect("a seed's churn runs panicked"))
            .collect()
    })
}

/// How many of one policy's churn runs ended on a clean overlay
/// ([`treep::HierarchyAudit::is_clean`]), and the seeds that did not:
/// `nc=variable 18/20 (unclean: 2016, 2023)`.
fn settled_health(runs: &[&ChurnRunResult]) -> String {
    let unclean: Vec<String> = runs
        .iter()
        .filter(|r| !r.steady_state.is_clean())
        .map(|r| r.seed.to_string())
        .collect();
    let listed = if unclean.is_empty() {
        String::new()
    } else {
        format!(" (unclean: {})", unclean.join(", "))
    };
    let clean = runs.len() - unclean.len();
    format!("{} {clean}/{}{listed}", runs[0].policy_label, runs.len())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match Cli::parse(&args) {
        Ok(cli) => cli,
        Err(CliError::Help) => {
            println!("{}", usage());
            std::process::exit(0);
        }
        Err(CliError::Bad(msg)) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    let params = if cli.smoke {
        ExperimentParams::quick(cli.nodes, cli.seed)
    } else {
        ExperimentParams::paper_fixed(cli.nodes, cli.seed)
    }
    .with_lookups_per_step(cli.lookups);
    let variable_nc = cli.figures.iter().any(|f| f.variable_nc);

    eprintln!(
        "# TreeP reproduction — n = {}, seed = {}, {} lookups/step/algorithm",
        cli.nodes, cli.seed, cli.lookups
    );
    let runs: Vec<SeedRuns> = if !cli.figures.is_empty() || cli.maintenance {
        run_seeds(&params, cli.seed..cli.seed + cli.seeds, variable_nc)
    } else {
        Vec::new()
    };
    for seed_runs in &runs {
        let both = if variable_nc { " and variable-nc" } else { "" };
        let seed = seed_runs.fixed.seed;
        eprintln!("# seed {seed}: fixed-nc (nc = 4, h = 6){both} churn runs…");
        for run in std::iter::once(&seed_runs.fixed).chain(&seed_runs.variable) {
            eprintln!(
                "#   {} steady state: {:?}",
                run.policy_label, run.steady_state
            );
        }
    }
    // The churn runs of each policy, in seed order.
    let policies: Vec<Vec<&ChurnRunResult>> = [
        runs.iter().map(|r| &r.fixed).collect(),
        runs.iter().filter_map(|r| r.variable.as_ref()).collect(),
    ]
    .into_iter()
    .filter(|policy: &Vec<_>| !policy.is_empty())
    .collect();
    if !policies.is_empty() {
        let health: Vec<String> = policies.iter().map(|p| settled_health(p)).collect();
        eprintln!("#   settled clean: {}", health.join(", "));
    }

    let mut readings = Vec::new();
    for figure in &cli.figures {
        let table = figure.table(&runs);
        let compared = figure.compare(&runs);
        println!("{}", table.render());
        println!("  verdict: {}\n", verdict(&compared));
        let name = format!("figure_{}", figure.label.to_lowercase());
        write_csv(&cli, &name, &table);
        readings.extend(compared);
    }

    // Section III.e, read off the overlays the churn runs built.
    for built in &policies {
        let report = routing_table_report(built);
        println!("{}", report.to_table().render());
        println!("  verdict: {}\n", verdict(&report.readings));
        readings.extend(report.readings);
    }

    if !cli.figures.is_empty() {
        let table = paper_table(&readings)
            .meta("nodes", cli.nodes)
            .meta("first_seed", cli.seed)
            .meta("seeds", cli.seeds)
            .meta("lookups", cli.lookups);
        write_bench(&cli, "paper", &table);
    }

    if cli.maintenance {
        let first = &runs[0];
        let shown: Vec<&ChurnRunResult> = std::iter::once(&first.fixed)
            .chain(&first.variable)
            .collect();
        println!("{}", maintenance_table(&shown).render());
    }

    for experiment in &cli.experiments {
        eprintln!("# running {}…", experiment.help.replace('\n', " "));
        let (table, gate) = (experiment.run)(&cli);
        println!("{}", table.render());
        if let Some(name) = experiment.bench {
            write_bench(&cli, name, &table);
        }
        if let Some(name) = experiment.csv {
            write_csv(&cli, name, &table);
        }
        match gate {
            Some(Ok(summary)) if cli.smoke => eprintln!("#   {summary}"),
            Some(Err(check)) if cli.smoke => {
                fail(format!("{} smoke gate failed: {check}", experiment.flag))
            }
            _ => {}
        }
    }

    if let Some(path) = &cli.trace_out {
        eprintln!("# capturing causal traces (seeded op mix with telemetry enabled)…");
        let params = if cli.smoke {
            TraceDemoParams::smoke(cli.seed)
        } else {
            TraceDemoParams::new(cli.seed)
        };
        let report = run_trace_demo(&params);
        println!("{}", report.to_table().render());
        eprintln!(
            "#   {} traces, {} spans, {} notes, {} dispatch samples ({} spans dropped)",
            report.traces,
            report.spans,
            report.notes,
            report.dispatch_samples,
            report.dropped_spans
        );
        if let Err(e) = analysis::validate_json(&report.trace_json) {
            fail(format!("trace export is not well-formed JSON: {e}"));
        }
        match std::fs::write(path, &report.trace_json) {
            Ok(()) => eprintln!(
                "#   wrote {path} ({} bytes) — load it in Perfetto or chrome://tracing",
                report.trace_json.len()
            ),
            Err(e) => {
                fail(format!("could not write {path}: {e}"));
            }
        }
    }
}
