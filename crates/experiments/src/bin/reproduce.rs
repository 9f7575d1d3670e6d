//! `reproduce` — regenerate every table and figure of the TreeP paper.
//!
//! ```text
//! reproduce [--figure A|B|...|I|all] [--nodes N] [--seed S] [--seeds K]
//!           [--lookups K] [--baselines] [--maintenance] [--multicast]
//!           [--lossy] [--durability] [--readpath] [--pubsub] [--scale]
//!           [--smoke] [--out DIR]
//! ```
//!
//! Without arguments the binary runs every figure with a moderate
//! population (800 nodes). Every figure is computed from the churn runs of
//! `--seeds K` consecutive seeds from `--seed` (one by default): a curve as
//! the median and quartiles per x, a hop-count surface as every step's
//! histograms pooled. Under each figure it prints the verdict against the
//! paper's readings (`matches`, `deviates by d at x`, or `no numeric
//! reading`), and it writes every reading with its verdict to
//! `BENCH_paper.json`. Whenever churn runs ran, it prints the Section III.e
//! routing-table report of the overlays they built. `--durability` adds the
//! replication durability comparison (Figure R); `--multicast --lossy` adds
//! the coverage-vs-loss sweep of the multicast reliability layer (Figure L);
//! `--readpath` adds the Zipf read-storm comparison of the read-path
//! serving layer (Figure S) and writes `BENCH_readpath.json`; `--pubsub`
//! adds the subscription-pruned-publish vs flooding comparison (Figure P)
//! and writes `BENCH_pubsub.json`; `--scale` runs the engine scale sweep
//! (timer-wheel vs sharded, up to n = 10⁶) and writes `BENCH_scale.json`;
//! `--smoke` switches to a bounded smoke profile (figure runs use
//! `ExperimentParams::quick` on at most 200 nodes) and, unless figures
//! were requested explicitly, skips the default figure suite (so
//! `--durability --smoke` runs only the durability gate, `--multicast
//! --lossy --smoke` only the lossy-multicast gate and `--readpath --smoke`
//! only the read-path gate, which is what CI exercises); `--out DIR`
//! additionally writes one CSV per figure into `DIR`. Every BENCH document
//! is checked to be well-formed JSON before it is written (non-zero exit
//! otherwise). An unknown flag prints the full experiment flag list and
//! exits non-zero; `--help` prints it and exits zero.

use analysis::Table;
use experiments::{
    compare_multicast, compare_overlays, compare_pubsub, maintenance_table,
    measure_telemetry_overhead, paper_table, routing_table_report, run_durability, run_read_storm,
    run_scale, run_trace_demo, sweep_multicast_loss, verdict, ChurnRunResult, DurabilityParams,
    ExperimentParams, Figure, LossSweepParams, MulticastParams, PubSubParams, ReadStormParams,
    ScaleParams, SeedRuns, TraceDemoParams, FIGURES, TELEMETRY_OVERHEAD_BOUND_PCT,
};

struct Cli {
    figures: Vec<&'static Figure>,
    nodes: usize,
    seed: u64,
    seeds: u64,
    lookups: usize,
    baselines: bool,
    maintenance: bool,
    multicast: bool,
    lossy: bool,
    durability: bool,
    readpath: bool,
    pubsub: bool,
    scale: bool,
    smoke: bool,
    trace_out: Option<String>,
    out: Option<String>,
}

/// How argument parsing can end without a runnable configuration: a help
/// request (exit 0) or a genuine error (exit 2). Both print the full flag
/// list, so a typo never silently runs the wrong experiment suite.
enum CliError {
    Help,
    Bad(String),
}

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, CliError> {
        let mut cli = Cli {
            figures: FIGURES.iter().collect(),
            nodes: 800,
            seed: 2005,
            seeds: 1,
            lookups: 100,
            baselines: false,
            maintenance: false,
            multicast: false,
            lossy: false,
            durability: false,
            readpath: false,
            pubsub: false,
            scale: false,
            smoke: false,
            trace_out: None,
            out: None,
        };
        let mut explicit_figures: Vec<&'static Figure> = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let arg = args[i].clone();
            let mut value = |name: &str| -> Result<String, CliError> {
                i += 1;
                args.get(i)
                    .cloned()
                    .ok_or_else(|| CliError::Bad(format!("{name} expects a value")))
            };
            match arg.as_str() {
                "--figure" | "-f" => {
                    let v = value("--figure")?;
                    if v.eq_ignore_ascii_case("all") {
                        explicit_figures = FIGURES.iter().collect();
                    } else {
                        explicit_figures.push(
                            Figure::named(&v)
                                .ok_or_else(|| CliError::Bad(format!("unknown figure '{v}'")))?,
                        );
                    }
                }
                "--nodes" | "-n" => cli.nodes = number("--nodes", value("--nodes")?)?,
                "--seed" | "-s" => cli.seed = number("--seed", value("--seed")?)?,
                "--seeds" => cli.seeds = number("--seeds", value("--seeds")?)?,
                "--lookups" | "-l" => cli.lookups = number("--lookups", value("--lookups")?)?,
                "--out" | "-o" => cli.out = Some(value("--out")?),
                "--baselines" => cli.baselines = true,
                "--maintenance" => cli.maintenance = true,
                "--multicast" => cli.multicast = true,
                "--lossy" => cli.lossy = true,
                "--durability" => cli.durability = true,
                "--readpath" => cli.readpath = true,
                "--pubsub" => cli.pubsub = true,
                "--scale" => cli.scale = true,
                "--smoke" => cli.smoke = true,
                "--trace-out" => cli.trace_out = Some(value("--trace-out")?),
                "--help" | "-h" => return Err(CliError::Help),
                other => {
                    return Err(CliError::Bad(format!(
                        "unknown argument '{other}'\n\n{}",
                        usage()
                    )))
                }
            }
            i += 1;
        }
        if !explicit_figures.is_empty() {
            cli.figures = explicit_figures;
        } else if cli.smoke || cli.trace_out.is_some() {
            // Smoke runs are bounded: only what was asked for explicitly.
            // A bare `--trace-out` likewise runs just the trace capture.
            cli.figures = Vec::new();
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
        if cli.lossy && !cli.multicast {
            return Err(CliError::Bad(
                "--lossy is a mode of the multicast driver; pass --multicast too".into(),
            ));
        }
        Ok(cli)
    }
}

/// `text`, the value of flag `name`, as a number.
fn number<T: std::str::FromStr>(name: &str, text: String) -> Result<T, CliError>
where
    T::Err: std::fmt::Display,
{
    text.parse()
        .map_err(|e| CliError::Bad(format!("{name}: {e}")))
}

fn usage() -> String {
    "usage: reproduce [flags]

  --figure A..I|all     run one paper figure (repeatable) instead of the suite
  --nodes N   (-n)      initial population size (default 800)
  --seed S    (-s)      deterministic seed (default 2005)
  --seeds K             run the figures on K consecutive seeds from S
                        (default 1): a curve's median and quartiles per x,
                        a surface's histograms pooled; writes
                        BENCH_paper.json with a verdict per figure
  --lookups K (-l)      lookups per churn step per algorithm (default 100)
  --smoke               bounded smoke profile (at most 200 nodes, the quick
                        churn schedule); runs only the gates asked for
  --baselines           TreeP vs Chord vs flooding comparison
  --maintenance         maintenance-overhead ablation (of the first seed)
  --multicast           scoped multicast vs flooding broadcast
  --lossy               per-hop-loss sweep of multicast reliability (Figure L;
                        requires --multicast)
  --durability          DHT durability under churn, k = 1 vs k = 3 (Figure R)
  --readpath            Zipf read storm: hot-key cache off vs on (Figure S;
                        writes BENCH_readpath.json)
  --pubsub              subscription-pruned publish vs flooding across
                        fan-out tiers (Figure P; writes BENCH_pubsub.json)
  --scale               engine scale sweep, timer-wheel vs sharded up to
                        n = 10^6 (writes BENCH_scale.json)
  --trace-out FILE      capture causal traces of a seeded op mix and write
                        them as Chrome-trace / Perfetto JSON to FILE
  --out DIR   (-o)      also write one CSV per figure into DIR
  --help      (-h)      print this list and exit"
        .to_string()
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
    let mut runs: Vec<SeedRuns> = Vec::new();
    if !cli.figures.is_empty() || cli.maintenance {
        for seed in cli.seed..cli.seed + cli.seeds {
            let both = if variable_nc { " and variable-nc" } else { "" };
            eprintln!("# seed {seed}: fixed-nc (nc = 4, h = 6){both} churn runs…");
            let seed_runs = SeedRuns::run(&ExperimentParams { seed, ..params }, variable_nc);
            let audit = &seed_runs.fixed.steady_state;
            eprintln!(
                "#   steady state: height {}, {} orphans, avg {:.1} children/parent",
                audit.height, audit.orphans, audit.avg_children
            );
            runs.push(seed_runs);
        }
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
    let fixed: Vec<&ChurnRunResult> = runs.iter().map(|r| &r.fixed).collect();
    let variable: Vec<&ChurnRunResult> = runs.iter().filter_map(|r| r.variable.as_ref()).collect();
    for built in [fixed, variable] {
        if !built.is_empty() {
            let report = routing_table_report(&built);
            println!("{}", report.to_table().render());
            println!("  verdict: {}\n", verdict(&report.readings));
            readings.extend(report.readings);
        }
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

    if cli.baselines {
        eprintln!("# running overlay comparison (TreeP / Chord / Flooding)…");
        let comparison =
            compare_overlays(cli.nodes.min(400), cli.seed, &[0.0, 0.2, 0.4], cli.lookups);
        println!("{}", comparison.to_table().render());
    }

    if cli.multicast {
        if cli.smoke && !cli.lossy {
            // `--multicast --smoke` without the lossy sweep still measures
            // something: the bounded flooding comparison (never a silent
            // green no-op).
            eprintln!("# running bounded multicast comparison (smoke profile)…");
            let comparison = compare_multicast(&MulticastParams::quick(cli.nodes, cli.seed));
            println!("{}", comparison.to_table().render());
        } else if !cli.smoke {
            eprintln!("# running multicast comparison (scoped multicast vs flooding broadcast)…");
            let comparison = compare_multicast(&MulticastParams::new(cli.nodes.min(400), cli.seed));
            println!("{}", comparison.to_table().render());
        }
        if cli.lossy {
            eprintln!("# running multicast loss sweep (reliability off vs on under per-hop loss)…");
            let params = if cli.smoke {
                LossSweepParams::smoke(cli.seed)
            } else {
                LossSweepParams::new(cli.nodes.min(400), cli.seed)
            };
            let sweep = sweep_multicast_loss(&params);
            println!("{}", sweep.to_table().render());
            // The smoke profile doubles as the lossy-multicast regression
            // gate: at 10% per-hop loss the reliability layer must hold
            // >= 99% coverage at app-layer duplicate factor 1.0 with a
            // bounded retransmission overhead. Missing acceptance rows
            // fail hard so a loss-level edit cannot silently disable the
            // gate.
            if cli.smoke {
                let Some(reliable) = sweep.row(10.0, true) else {
                    fail("lossy smoke gate needs the 10% reliability-on row");
                };
                eprintln!(
                    "#   at 10% per-hop loss: reliability on {:.1}% coverage, dup factor {:.2}, \
                     {:.2} retx/msg ({} reroutes)",
                    reliable.tally.coverage_pct(),
                    reliable.tally.duplicate_factor(),
                    reliable.retransmit_overhead(),
                    reliable.reroutes
                );
                if reliable.tally.coverage_pct() < 99.0
                    || (reliable.tally.duplicate_factor() - 1.0).abs() > 1e-9
                    || reliable.retransmit_overhead() >= 1.0
                {
                    fail(format!("lossy multicast smoke gate failed: {reliable:?}"));
                }
            }
        }
    }

    if cli.durability {
        eprintln!("# running durability experiment (k = 1 vs k = 3 replication under churn)…");
        let params = if cli.smoke {
            DurabilityParams::smoke(cli.seed)
        } else {
            DurabilityParams::new(cli.nodes.min(400), cli.seed)
        };
        let report = run_durability(&params);
        let table = report.to_table();
        println!("{}", table.render());
        // The smoke profile doubles as a regression gate: replication must
        // demonstrably keep keys alive where single copies die. The gate
        // fails hard when its acceptance point is missing (a schedule or
        // factor-list edit must not silently disable it).
        let k1 = report.row_at(1, 0.3);
        let k3 = report.row_at(3, 0.3);
        if let (Some(k1), Some(k3)) = (k1, k3) {
            eprintln!(
                "#   at {:.0}% failed: k=1 {:.1}% available, k=3 {:.1}% available ({} repair windows, converged: {})",
                k3.failed_fraction * 100.0,
                k1.availability_pct(),
                k3.availability_pct(),
                k3.repair_windows,
                k3.converged
            );
            if cli.smoke {
                let at_acceptance_point = (k3.failed_fraction - 0.3).abs() < 1e-9;
                if !at_acceptance_point || k3.availability_pct() < 99.0 || !k3.converged {
                    fail(format!("durability smoke gate failed: {k3:?}"));
                }
            }
        } else if cli.smoke {
            fail("durability smoke gate needs k=1 and k=3 rows, got neither");
        }
        write_csv(&cli, "figure_r_durability", &table);
    }

    if cli.readpath {
        eprintln!("# running read-storm experiment (Zipf reads, hot-key cache off vs on)…");
        let params = if cli.smoke {
            ReadStormParams::smoke(cli.seed)
        } else {
            ReadStormParams::new(cli.nodes.min(400), cli.seed)
        };
        let report = run_read_storm(&params);
        let table = report.to_table();
        println!("{}", table.render());
        write_bench(&cli, "readpath", &table);
        write_csv(&cli, "figure_s_readpath", &table);
        // The smoke profile doubles as the read-path regression gate: at
        // equal completion the cache must exercise (hits > 0) and must not
        // lengthen the hop tail. Missing rows fail hard so a load-level
        // edit cannot silently disable the gate.
        if cli.smoke {
            let offered = *params.load_levels.first().expect("smoke has a load level");
            let (Some(off), Some(on)) =
                (report.row_at(false, offered), report.row_at(true, offered))
            else {
                fail("read-path smoke gate needs cached and uncached rows");
            };
            eprintln!(
                "#   at {} gets/round: uncached p99 {:.1} hops / max load {}, \
                 cached p99 {:.1} hops / max load {} ({} cache hits)",
                offered,
                off.p99_hops,
                off.max_node_load,
                on.p99_hops,
                on.max_node_load,
                on.cache_hits
            );
            if off.completion_pct() < 99.0
                || on.completion_pct() < 99.0
                || on.cache_hits == 0
                || on.p99_hops > off.p99_hops
            {
                fail(format!(
                    "read-path smoke gate failed: off {off:?} on {on:?}"
                ));
            }
        }
    }

    if cli.pubsub {
        eprintln!("# running pub/sub comparison (subscription-pruned publish vs flooding)…");
        let params = if cli.smoke {
            PubSubParams::smoke(cli.seed)
        } else {
            PubSubParams::new(cli.nodes.min(400), cli.seed)
        };
        let comparison = compare_pubsub(&params);
        let table = comparison.to_table();
        println!("{}", table.render());
        write_bench(&cli, "pubsub", &table);
        // The smoke profile doubles as the pub/sub regression gate: at every
        // fan-out tier the pruned publish must reach every subscriber exactly
        // once (100% coverage, duplicate factor 1.0) while spending strictly
        // fewer messages per delivery than the flooding baseline. Missing
        // rows fail hard so a tier-list edit cannot silently disable it.
        if cli.smoke {
            let treep = comparison.overlay_rows("TreeP");
            let flooding = comparison.overlay_rows("Flooding");
            if treep.is_empty() || treep.len() != flooding.len() {
                fail("pub/sub smoke gate needs paired TreeP/Flooding rows per tier");
            }
            for (t, f) in treep.iter().zip(&flooding) {
                eprintln!(
                    "#   fanout {}: coverage {:.1}%, dup factor {:.2}, \
                     {:.2} msgs/delivery vs flooding {:.2} ({} branches pruned)",
                    t.subscribers,
                    t.tally.coverage_pct(),
                    t.tally.duplicate_factor(),
                    t.messages_per_delivery(),
                    f.messages_per_delivery(),
                    t.branches_pruned
                );
                if (t.tally.coverage_pct() - 100.0).abs() > 1e-9
                    || (t.tally.duplicate_factor() - 1.0).abs() > 1e-9
                    || t.messages_per_delivery() >= f.messages_per_delivery()
                {
                    fail(format!(
                        "pub/sub smoke gate failed: treep {t:?} flooding {f:?}"
                    ));
                }
            }
        }
    }

    if cli.scale {
        eprintln!("# running engine scale sweep (timer-wheel vs sharded)…");
        let params = if cli.smoke {
            ScaleParams::smoke(cli.seed)
        } else {
            ScaleParams::full(cli.seed)
        };
        let report = run_scale(&params);
        let table = report.to_table();
        println!("{}", table.render());
        write_bench(&cli, "scale", &table);
        // The smoke profile doubles as the engine regression gate: every
        // leg must replay bit-identically under the same seed, and
        // single-thread throughput must hold a conservative steps/sec
        // floor. The digests themselves are pinned in tier-1
        // (`tests/engine_digests.rs`). A missing row fails hard so a
        // population-list edit cannot silently disable the gate.
        if cli.smoke {
            let gate_n = 10_000;
            let Some(wheel) = report.row(gate_n, "wheel") else {
                fail(format!(
                    "scale smoke gate needs a wheel row at n = {gate_n}"
                ));
            };
            eprintln!(
                "#   at n = {gate_n}: wheel {:.0} ksteps/s",
                wheel.steps_per_sec / 1e3
            );
            if report.rows.iter().any(|row| !row.deterministic) {
                fail("scale smoke gate failed: non-deterministic replay");
            }
            const STEPS_PER_SEC_FLOOR: f64 = 250_000.0;
            if wheel.steps_per_sec < STEPS_PER_SEC_FLOOR {
                fail(format!(
                    "scale smoke gate failed: wheel {:.0} steps/s below floor {:.0}",
                    wheel.steps_per_sec, STEPS_PER_SEC_FLOOR
                ));
            }
        }

        // The telemetry leg: measure the instrumentation's per-event cost
        // at the gate population and prove the trace exporter emits
        // loadable JSON. Under `--smoke` this is the telemetry regression
        // gate: overhead bounded, profilers sampling, export well-formed.
        let gate_n = 10_000.min(*params.populations.last().expect("populations"));
        eprintln!("#   scale: n = {gate_n}, telemetry overhead leg…");
        let overhead = measure_telemetry_overhead(&params, gate_n);
        eprintln!(
            "#   telemetry at n = {gate_n}: {:+.2}% steps/s overhead \
             ({:.0} off vs {:.0} on ksteps/s), {} dispatch samples \
             (mean {:.0} ns, p99 {} ns), {} barrier-stall samples \
             (mean {:.0} ns), digests match: {}",
            overhead.overhead_pct(),
            overhead.steps_per_sec_off / 1e3,
            overhead.steps_per_sec_on / 1e3,
            overhead.dispatch_samples,
            overhead.mean_dispatch_ns,
            overhead.p99_dispatch_ns,
            overhead.barrier_stall_samples,
            overhead.mean_barrier_stall_ns,
            overhead.digests_match
        );
        if cli.smoke {
            let trace = run_trace_demo(&{
                let mut p = TraceDemoParams::new(cli.seed);
                p.nodes = 96;
                p.ops_per_class = 4;
                p
            });
            let json_ok = analysis::validate_json(&trace.trace_json);
            eprintln!(
                "#   trace capture: {} traces, {} spans, export {} bytes, valid JSON: {}",
                trace.traces,
                trace.spans,
                trace.trace_json.len(),
                json_ok.is_ok()
            );
            if !overhead.digests_match {
                fail("telemetry smoke gate failed: telemetry-on digest diverged");
            }
            if overhead.overhead_pct() > TELEMETRY_OVERHEAD_BOUND_PCT {
                fail(format!(
                    "telemetry smoke gate failed: {:.2}% overhead exceeds {TELEMETRY_OVERHEAD_BOUND_PCT}%",
                    overhead.overhead_pct()
                ));
            }
            if overhead.dispatch_samples == 0 || overhead.barrier_stall_samples == 0 {
                fail(format!(
                    "telemetry smoke gate failed: profilers collected no samples \
                     ({} dispatch, {} barrier)",
                    overhead.dispatch_samples, overhead.barrier_stall_samples
                ));
            }
            if let Err(e) = json_ok {
                fail(format!("telemetry smoke gate failed: trace export: {e}"));
            }
            if trace.spans == 0 {
                fail("telemetry smoke gate failed: trace capture produced no spans");
            }
        }
    }

    if let Some(path) = &cli.trace_out {
        eprintln!("# capturing causal traces (seeded op mix with telemetry enabled)…");
        let mut params = TraceDemoParams::new(cli.seed);
        if cli.smoke {
            params.nodes = 96;
            params.ops_per_class = 4;
        }
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
