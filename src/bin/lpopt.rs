//! `lpopt` — command-line driver for the low-power optimization passes.
//!
//! ```text
//! lpopt [flags] gen <adder|ksadder|multiplier|wallace|comparator|alu|parity> <width> <out.blif>
//! lpopt [flags] stats <in.blif>
//! lpopt [flags] power <in.blif> [cycles]
//! lpopt [flags] balance <in.blif> <out.blif> [threshold]
//! lpopt [flags] dontcare <in.blif> <out.blif>
//! lpopt [flags] rewrite <in.blif> <out.blif> [cycles]
//! lpopt [flags] map <in.blif> <area|delay|power>
//! lpopt [flags] fsm <in.kiss> [out.blif]
//! lpopt [flags] fault <in.blif> [cycles] [--seu N]
//! lpopt [flags] serve <socket> [--batch-dir D] [--snapshot-dir D] [--queue N] [--checkpoint-every N] [--fault-injection]
//! lpopt [flags] submit <socket> <kind> <payload-file> [cycles]
//! lpopt [flags] metrics <socket>
//! ```
//!
//! `--jobs N` shards simulation-heavy commands over up to `N` worker
//! threads (`0` or omitted = all cores, also settable via `LPOPT_JOBS`).
//! Results are bit-identical for every thread count.
//!
//! `--budget-nodes`, `--budget-steps`, `--budget-queue` and `--deadline-ms`
//! bound the resources any command may consume. Estimation commands
//! degrade gracefully (exact BDD → probability propagation → sampled
//! simulation, reporting the tier that answered); everything else fails
//! with a one-line typed diagnostic instead of running away.
//!
//! `--trace <file>` writes a JSONL span/counter trace, `--metrics-json
//! <file>` an aggregate `metrics.json`, and `--report` appends a
//! human-readable span tree and counter summary to the command output.
//! Setting the `LPOPT_OBS_FAKE_CLOCK` environment variable pins all span
//! timings to zero (golden-file runs byte-compare outputs).
//!
//! Netlists use the BLIF-like text format of `netlist::blif`; state
//! machines use KISS2 (`seqopt::kiss`).

use std::process::ExitCode;

use lowpower::budget::ResourceBudget;
use lowpower::obs;
use lowpower::logicopt::balance::balance_paths;
use lowpower::logicopt::dontcare::{try_optimize_dontcares, Mode};
use lowpower::logicopt::mapping::{map, standard_library, MapObjective};
use lowpower::logicopt::rewrite::{try_rewrite_sim, RewriteConfig};
use lowpower::netlist::blif::{parse_text, write_text};
use lowpower::netlist::{gen, Netlist, NetlistStats};
use lowpower::power::chain::{estimate_power, estimate_power_pair, ChainConfig, ChainEstimate};
use lowpower::power::exact::CircuitBddCache;
use lowpower::power::model::{PowerParams, PowerReport};
use lowpower::sim::event::{DelayModel, EventSim};
use lowpower::sim::fault::{all_stuck_at_faults, CampaignReport, FaultSim};
use lowpower::sim::stimulus::Stimulus;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(CliError::Usage(message)) => {
            eprintln!("lpopt: {message}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
        Err(CliError::Fail(message)) => {
            eprintln!("lpopt: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  lpopt [flags] gen <adder|ksadder|multiplier|wallace|comparator|alu|parity> <width> <out.blif>
  lpopt [flags] stats <in.blif>
  lpopt [flags] power <in.blif> [cycles]
  lpopt [flags] balance <in.blif> <out.blif> [threshold]
  lpopt [flags] dontcare <in.blif> <out.blif>
  lpopt [flags] rewrite <in.blif> <out.blif> [cycles]
  lpopt [flags] map <in.blif> <area|delay|power>
  lpopt [flags] fsm <in.kiss> [out.blif]
  lpopt [flags] fault <in.blif> [cycles] [--seu N]
  lpopt [flags] serve <socket> [--batch-dir D] [--snapshot-dir D] [--queue N]
                      [--checkpoint-every N] [--fault-injection]
  lpopt [flags] submit <socket> <power|stats|dontcare|fsm> <payload-file> [cycles]
  lpopt [flags] metrics <socket>
flags:
  --jobs N          worker threads (0 or omitted = all cores; LPOPT_JOBS env)
  --budget-nodes N  give up on exact BDD estimation past N manager nodes
  --budget-steps N  cap total simulation work (cycles x nets, events)
  --budget-queue N  cap the timing simulator's event-queue length
  --deadline-ms N   wall-clock budget for the whole command
  --reorder SPEC    BDD variable-ordering policy for exact estimation:
                    static seed (natural|dfs|force) and/or dynamic schedule
                    (off|always|threshold[:N]|timeslice[:MS]), joined by
                    '+' (e.g. dfs+threshold:512); default natural+off
  --trace FILE      write a JSONL span/counter trace
  --metrics-json FILE  write aggregate metrics (schema lpopt-metrics-v1)
  --report          append a span tree and counter summary to the output";

/// CLI failure: `Usage` mistakes get the usage text, runtime `Fail`ures a
/// single diagnostic line — a bad netlist should not scroll the screen.
enum CliError {
    Usage(String),
    Fail(String),
}

fn usage(message: impl Into<String>) -> CliError {
    CliError::Usage(message.into())
}

fn fail(message: impl Into<String>) -> CliError {
    CliError::Fail(message.into())
}

/// Global options stripped off the front of the argument list.
struct Opts {
    jobs: usize,
    budget: ResourceBudget,
    reorder: lowpower::power::order::ReorderConfig,
    obs: obs::Obs,
    trace: Option<String>,
    metrics_json: Option<String>,
    report: bool,
}

/// Strip leading `--flag value` / `--flag=value` pairs, returning the
/// options and the remaining (command) arguments.
fn parse_flags(args: &[String]) -> Result<(Opts, &[String]), CliError> {
    let mut jobs: Option<usize> = None;
    let mut budget = ResourceBudget::unlimited();
    let mut reorder = lowpower::power::order::ReorderConfig::default();
    let mut trace: Option<String> = None;
    let mut metrics_json: Option<String> = None;
    let mut report = false;
    let mut rest = args;
    while let Some(flag) = rest.first() {
        if !flag.starts_with("--") {
            break;
        }
        let (name, inline) = match flag.split_once('=') {
            Some((n, v)) => (n, Some(v.to_string())),
            None => (flag.as_str(), None),
        };
        if name == "--report" {
            if inline.is_some() {
                return Err(usage("--report takes no value"));
            }
            report = true;
            rest = &rest[1..];
            continue;
        }
        let (value, consumed) = match inline {
            Some(v) => (v, 1),
            None => match rest.get(1) {
                Some(v) => (v.clone(), 2),
                None => return Err(usage(format!("{name}: missing value"))),
            },
        };
        match name {
            "--jobs" => {
                jobs = Some(
                    value
                        .parse()
                        .map_err(|e| usage(format!("--jobs: bad thread count: {e}")))?,
                )
            }
            "--budget-nodes" => budget = budget.with_max_bdd_nodes(parse_u64(name, &value)?),
            "--budget-steps" => budget = budget.with_max_sim_steps(parse_u64(name, &value)?),
            "--budget-queue" => budget = budget.with_max_event_queue(parse_u64(name, &value)?),
            "--deadline-ms" => budget = budget.with_deadline_ms(parse_u64(name, &value)?),
            "--reorder" => {
                reorder = lowpower::power::order::ReorderConfig::parse(&value)
                    .map_err(|e| usage(format!("--reorder: {e}")))?
            }
            "--trace" => trace = Some(value),
            "--metrics-json" => metrics_json = Some(value),
            other => return Err(usage(format!("unknown flag {other:?}"))),
        }
        rest = &rest[consumed..];
    }
    let jobs = jobs.unwrap_or_else(lowpower::par::jobs_from_env);
    // Instrumentation is paid for only when some sink will consume it.
    let obs = if trace.is_some() || metrics_json.is_some() || report {
        if std::env::var_os("LPOPT_OBS_FAKE_CLOCK").is_some() {
            obs::Obs::with_clock(obs::clock::ManualClock::new())
        } else {
            obs::Obs::enabled()
        }
    } else {
        obs::Obs::disabled()
    };
    Ok((
        Opts {
            jobs,
            budget,
            reorder,
            obs,
            trace,
            metrics_json,
            report,
        },
        rest,
    ))
}

fn parse_u64(flag: &str, value: &str) -> Result<u64, CliError> {
    value
        .parse()
        .map_err(|e| usage(format!("{flag}: bad value {value:?}: {e}")))
}

/// One `estimator:` block: the tier that answered plus every tier that was
/// abandoned on the way down, so a degraded number is never silent.
fn describe_estimate(est: &ChainEstimate) -> String {
    let mut out = format!("estimator: {}\n", est.tier.name());
    for attempt in &est.attempts {
        if let Some(e) = attempt.outcome.abandoned() {
            out.push_str(&format!("  abandoned {}: {e}\n", attempt.tier.name()));
        }
    }
    out
}

fn run(args: &[String]) -> Result<String, CliError> {
    let (opts, args) = parse_flags(args)?;
    let command = args.first().ok_or_else(|| usage("missing command"))?;
    let root = opts.obs.span(format!("cmd.{command}"));
    let result = run_command(&opts, command, args);
    root.close();
    let mut output = result?;
    write_obs_outputs(&opts, &mut output)?;
    Ok(output)
}

/// Write the requested sinks and append the `--report` tree. Runs only on
/// command success; a failing command keeps its one-line diagnostic.
fn write_obs_outputs(opts: &Opts, output: &mut String) -> Result<(), CliError> {
    if !opts.obs.is_enabled() {
        return Ok(());
    }
    let snap = opts.obs.snapshot();
    if let Some(path) = &opts.trace {
        std::fs::write(path, obs::sink::jsonl(&snap))
            .map_err(|e| fail(format!("cannot write {path}: {e}")))?;
    }
    if let Some(path) = &opts.metrics_json {
        std::fs::write(path, obs::sink::metrics_json(&snap))
            .map_err(|e| fail(format!("cannot write {path}: {e}")))?;
    }
    if opts.report {
        output.push_str("-- observability --\n");
        output.push_str(&obs::sink::tree(&snap));
    }
    Ok(())
}

fn run_command(opts: &Opts, command: &str, args: &[String]) -> Result<String, CliError> {
    match command {
        "gen" => {
            let kind = args.get(1).ok_or_else(|| usage("gen: missing kind"))?;
            let width: usize = args
                .get(2)
                .ok_or_else(|| usage("gen: missing width"))?
                .parse()
                .map_err(|e| usage(format!("gen: bad width: {e}")))?;
            let out = args.get(3).ok_or_else(|| usage("gen: missing output path"))?;
            let nl = generate(kind, width)?;
            save(&nl, out)?;
            Ok(format!("wrote {out}: {nl}\n"))
        }
        "stats" => {
            let nl = load(args.get(1).ok_or_else(|| usage("stats: missing input"))?)?;
            Ok(format!("{nl}\n{}\n", NetlistStats::of(&nl)))
        }
        "power" => {
            let nl = load(args.get(1).ok_or_else(|| usage("power: missing input"))?)?;
            let cycles: usize = args
                .get(2)
                .map(|s| s.parse().map_err(|e| fail(format!("power: bad cycles: {e}"))))
                .transpose()?
                .unwrap_or(512);
            if cycles == 0 {
                return Err(fail("power: need at least one stimulus cycle"));
            }
            let params = PowerParams::default();
            // First choice for combinational circuits: the event-driven
            // engine, which also sees glitches. If the budget kills it,
            // fall through to the degradation chain.
            let mut abandoned = String::new();
            if nl.is_combinational() {
                let patterns = Stimulus::uniform(nl.num_inputs()).patterns(cycles, 42);
                let sim = EventSim::new(&nl, &DelayModel::Unit).with_obs(opts.obs.clone());
                match sim.try_activity_jobs(&patterns, opts.jobs, &opts.budget) {
                    Ok(timing) => {
                        let report =
                            PowerReport::from_activity(&nl, &timing.total, &params);
                        return Ok(format!(
                            "{report}\nglitch fraction: {:.1}%\nestimator: event-driven\n",
                            100.0 * timing.glitch_fraction()
                        ));
                    }
                    Err(e) => {
                        abandoned = format!("  abandoned event-driven: {e}\n");
                    }
                }
            }
            let cfg = ChainConfig {
                sample_cycles: cycles,
                jobs: opts.jobs,
                reorder: opts.reorder,
                obs: opts.obs.clone(),
                ..ChainConfig::default()
            };
            let (report, est) = estimate_power(&nl, &opts.budget, &cfg, &params)
                .map_err(|e| fail(format!("power: {e}")))?;
            Ok(format!("{report}\n{}{abandoned}", describe_estimate(&est)))
        }
        "balance" => {
            let input = args.get(1).ok_or_else(|| usage("balance: missing input"))?;
            let nl = load_combinational("balance", input)?;
            let out = args.get(2).ok_or_else(|| usage("balance: missing output path"))?;
            let threshold: usize = args
                .get(3)
                .map(|s| {
                    s.parse()
                        .map_err(|e| fail(format!("balance: bad threshold: {e}")))
                })
                .transpose()?
                .unwrap_or(0);
            let (balanced, report) = balance_paths(&nl, threshold);
            // Not-worse guard: path balancing trades buffer capacitance for
            // glitch power, so check the trade under the timing engine and
            // keep the original if it lost. One `EventSim` run times each
            // side on the same patterns.
            let mut chosen = &balanced;
            let mut verdict = String::new();
            if report.buffers_added > 0 {
                let patterns = Stimulus::uniform(nl.num_inputs()).patterns(256, 42);
                let params = PowerParams::default();
                let power = |n: &Netlist| {
                    EventSim::new(n, &DelayModel::Unit)
                        .with_obs(opts.obs.clone())
                        .try_activity(&patterns, &opts.budget)
                        .map(|timing| PowerReport::from_activity(n, &timing.total, &params).total())
                };
                let check = power(&nl).and_then(|before| Ok((before, power(&balanced)?)));
                match check {
                    Ok((before, after)) if after > before => {
                        chosen = &nl;
                        verdict = format!(
                            "reverted: balanced power {after:.4e} > original {before:.4e} mW (netlist unchanged)\n"
                        );
                    }
                    Ok((before, after)) => {
                        verdict = format!("power check: {before:.4e} -> {after:.4e} mW\n");
                    }
                    Err(e) => {
                        verdict = format!("power check skipped: {e}\n");
                    }
                }
            }
            save(chosen, out)?;
            Ok(format!(
                "wrote {out}: {} buffers added, depth {} -> {}\n{verdict}",
                report.buffers_added, report.depth_before, report.depth_after
            ))
        }
        "dontcare" => {
            let input = args.get(1).ok_or_else(|| usage("dontcare: missing input"))?;
            let nl = load_combinational("dontcare", input)?;
            let out = args.get(2).ok_or_else(|| usage("dontcare: missing output path"))?;
            if nl.num_inputs() > 18 {
                return Err(fail("dontcare: BDD pass limited to 18 inputs"));
            }
            let probs = vec![0.5; nl.num_inputs()];
            // One BDD cache across the whole command: the optimization
            // pass seeds it with the original and final netlists, so the
            // not-worse guard below re-reads both builds for free.
            let mut bdd_cache = CircuitBddCache::new();
            let (optimized, report) = try_optimize_dontcares(
                &nl,
                &probs,
                Mode::FanoutAware,
                6,
                &mut bdd_cache,
                &opts.budget,
            )
            .map_err(|e| fail(format!("dontcare: {e}")))?;
            report.candidates.publish(&opts.obs);
            // Not-worse guard: re-estimate both sides on the one tier the
            // budget affords both and keep the original on a regression.
            let params = PowerParams::default();
            let cfg = ChainConfig {
                jobs: opts.jobs,
                reorder: opts.reorder,
                obs: opts.obs.clone(),
                ..ChainConfig::default()
            };
            let mut chosen = &optimized;
            let verdict = match estimate_power_pair(
                &nl,
                &optimized,
                &opts.budget,
                &cfg,
                &params,
                &mut bdd_cache,
            ) {
                Ok((before, after, tier)) if after.total() > before.total() => {
                    chosen = &nl;
                    format!(
                        "reverted ({}): optimized power {:.4e} > original {:.4e} mW (netlist unchanged)\n",
                        tier.name(),
                        after.total(),
                        before.total()
                    )
                }
                Ok((before, after, tier)) => format!(
                    "power check ({}): {:.4e} -> {:.4e} mW\n",
                    tier.name(),
                    before.total(),
                    after.total()
                ),
                Err(e) => format!("power check skipped: {e}\n"),
            };
            save(chosen, out)?;
            let exhausted = if report.budget_exhausted {
                " (budget exhausted: last accepted netlist kept)"
            } else {
                ""
            };
            Ok(format!(
                "wrote {out}: {} nodes rewritten, estimated switched cap {:.1} -> {:.1} \
                 fF/cycle{exhausted}\n{verdict}",
                report.nodes_changed, report.cap_before, report.cap_after
            ))
        }
        "rewrite" => {
            let input = args.get(1).ok_or_else(|| usage("rewrite: missing input"))?;
            let nl = load_combinational("rewrite", input)?;
            let out = args.get(2).ok_or_else(|| usage("rewrite: missing output path"))?;
            let cycles = match args.get(3) {
                Some(c) => c
                    .parse::<usize>()
                    .map_err(|_| usage(format!("rewrite: bad cycle count {c:?}")))?,
                None => 512,
            };
            if nl.num_inputs() > 18 {
                return Err(fail("rewrite: BDD-guided search limited to 18 inputs"));
            }
            let probs = vec![0.5; nl.num_inputs()];
            let packed = Stimulus::uniform(nl.num_inputs()).packed(cycles, 42);
            let cfg = RewriteConfig {
                obs: opts.obs.clone(),
                ..RewriteConfig::default()
            };
            let (optimized, report) = try_rewrite_sim(&nl, &probs, &packed, &opts.budget, &cfg)
                .map_err(|e| fail(format!("rewrite: {e}")))?;
            save(&optimized, out)?;
            let exhausted = if report.budget_exhausted {
                " (budget exhausted: last committed state kept)"
            } else {
                ""
            };
            Ok(format!(
                "wrote {out}: {} chains accepted ({} resub, {} extract, {} dontcare of {} moves tried)\n\
                 switched cap {:.1} -> {:.1} fF/cycle, unit critical path {:.2} -> {:.2}{exhausted}\n",
                report.chains_accepted,
                report.accepted.resub,
                report.accepted.extract,
                report.accepted.dontcare,
                report.tried.total(),
                report.cap_before,
                report.cap_after,
                report.crit_before,
                report.crit_after,
            ))
        }
        "map" => {
            let input = args.get(1).ok_or_else(|| usage("map: missing input"))?;
            let nl = load_combinational("map", input)?;
            let objective = match args.get(2).map(String::as_str) {
                Some("area") => MapObjective::Area,
                Some("delay") => MapObjective::Delay,
                Some("power") => MapObjective::Power,
                other => return Err(usage(format!("map: bad objective {other:?}"))),
            };
            let library = standard_library();
            let probs = vec![0.5; nl.num_inputs()];
            let mapping = map(&nl, &library, objective, &probs);
            let mut counts = std::collections::BTreeMap::new();
            for m in &mapping.cover {
                *counts.entry(library[m.cell].name).or_insert(0usize) += 1;
            }
            let mut out = format!(
                "cover: {} cells, area {:.1}, delay {:.1}, power {:.1} fF/cycle\n",
                mapping.cover.len(),
                mapping.area,
                mapping.delay,
                mapping.power
            );
            for (name, count) in counts {
                out.push_str(&format!("  {name:<8} x{count}\n"));
            }
            Ok(out)
        }
        "fsm" => {
            let path = args.get(1).ok_or_else(|| usage("fsm: missing input"))?;
            let text = std::fs::read_to_string(path)
                .map_err(|e| fail(format!("cannot read {path}: {e}")))?;
            let stg = lowpower::seqopt::kiss::parse_kiss(&text)
                .map_err(|e| fail(format!("cannot parse {path}: {e}")))?;
            let minimized = lowpower::seqopt::minimize::minimize(&stg);
            let symbols = 1usize << minimized.stg.input_bits;
            let probs = vec![1.0 / symbols as f64; symbols];
            let codes =
                lowpower::seqopt::encoding::encode_low_power(&minimized.stg, &probs);
            let bits = lowpower::seqopt::encoding::min_bits(minimized.stg.num_states());
            let weights = minimized.stg.edge_weights(&probs, 300);
            let base = lowpower::seqopt::stg::weighted_switching(
                &weights,
                &lowpower::seqopt::encoding::encode_sequential(minimized.stg.num_states()),
            );
            let lp = lowpower::seqopt::stg::weighted_switching(&weights, &codes);
            let mut report = format!(
                "{} states -> {} after minimization; {} code bits
                 weighted FF switching: binary {:.3} -> low-power {:.3} ({:.1}% less)
",
                stg.num_states(),
                minimized.stg.num_states(),
                bits,
                base,
                lp,
                100.0 * (1.0 - lp / base.max(1e-12)),
            );
            if let Some(out) = args.get(2) {
                let nl = minimized.stg.synthesize_minimized(&codes, bits, "fsm");
                save(&nl, out)?;
                report.push_str(&format!("wrote {out}: {nl}
"));
            }
            Ok(report)
        }
        "fault" => {
            let path = args.get(1).ok_or_else(|| usage("fault: missing input"))?;
            let nl = load(path)?;
            let mut cycles = 256usize;
            let mut seu: Option<usize> = None;
            let mut rest = &args[2..];
            while let Some(arg) = rest.first() {
                if arg == "--seu" {
                    let v = rest.get(1).ok_or_else(|| usage("--seu: missing count"))?;
                    seu = Some(
                        v.parse()
                            .map_err(|e| usage(format!("--seu: bad count: {e}")))?,
                    );
                    rest = &rest[2..];
                } else if let Some(v) = arg.strip_prefix("--seu=") {
                    seu = Some(
                        v.parse()
                            .map_err(|e| usage(format!("--seu: bad count: {e}")))?,
                    );
                    rest = &rest[1..];
                } else {
                    cycles = arg
                        .parse()
                        .map_err(|e| fail(format!("fault: bad cycles: {e}")))?;
                    rest = &rest[1..];
                }
            }
            if cycles == 0 {
                return Err(fail("fault: need at least one stimulus cycle"));
            }
            let patterns = Stimulus::uniform(nl.num_inputs()).patterns(cycles, 42);
            let sim = FaultSim::new(&nl);
            match seu {
                Some(count) => {
                    let report = sim
                        .seu_sweep(&patterns, count, 42, opts.jobs, &opts.budget)
                        .map_err(|e| fail(format!("fault: {e}")))?;
                    Ok(format!(
                        "SEU sweep: {count} upsets over {cycles} cycles\n{}",
                        campaign_summary(&report, "propagated")
                    ))
                }
                None => {
                    let faults = all_stuck_at_faults(&nl);
                    let report = sim
                        .campaign(&patterns, &faults, opts.jobs, &opts.budget)
                        .map_err(|e| fail(format!("fault: {e}")))?;
                    Ok(format!(
                        "stuck-at campaign: {} faults over {cycles} cycles\n{}",
                        faults.len(),
                        campaign_summary(&report, "detected")
                    ))
                }
            }
        }
        #[cfg(unix)]
        "serve" => run_serve(opts, args),
        #[cfg(unix)]
        "submit" => run_submit(opts, args),
        #[cfg(unix)]
        "metrics" => {
            use lowpower::serve::protocol::{Request, Response};
            use lowpower::serve::socket::Client;
            let socket = args.get(1).ok_or_else(|| usage("metrics: missing socket path"))?;
            let mut client = Client::connect(std::path::Path::new(socket))
                .map_err(|e| fail(format!("cannot connect to {socket}: {e}")))?;
            match client.request(&Request::Metrics) {
                Ok(Response::Ok { payload, .. }) => Ok(payload),
                Ok(other) => Err(fail(format!("metrics: unexpected response {other:?}"))),
                Err(e) => Err(fail(format!("metrics: {e}"))),
            }
        }
        other => Err(usage(format!("unknown command {other:?}"))),
    }
}

/// `lpopt serve <socket>`: run the resident daemon until SIGTERM/SIGINT or
/// a `SHUTDOWN` request, then drain, checkpoint and report.
#[cfg(unix)]
fn run_serve(opts: &Opts, args: &[String]) -> Result<String, CliError> {
    use lowpower::serve::batch::watch_batch_dir;
    use lowpower::serve::signal;
    use lowpower::serve::socket::serve_socket;
    use lowpower::serve::{ServeConfig, Server};
    use std::path::{Path, PathBuf};

    let socket = args.get(1).ok_or_else(|| usage("serve: missing socket path"))?;
    let mut batch_dir: Option<String> = None;
    let mut snapshot_dir: Option<String> = None;
    let mut queue_capacity = 64usize;
    let mut checkpoint_every = 32u64;
    let mut fault_injection = false;
    let mut rest = &args[2..];
    while let Some(arg) = rest.first() {
        let (name, inline) = match arg.split_once('=') {
            Some((n, v)) => (n, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        if name == "--fault-injection" {
            fault_injection = true;
            rest = &rest[1..];
            continue;
        }
        let (value, consumed) = match inline {
            Some(v) => (v, 1),
            None => match rest.get(1) {
                Some(v) => (v.clone(), 2),
                None => return Err(usage(format!("serve: {name}: missing value"))),
            },
        };
        match name {
            "--batch-dir" => batch_dir = Some(value),
            "--snapshot-dir" => snapshot_dir = Some(value),
            "--queue" => {
                queue_capacity = value
                    .parse()
                    .map_err(|e| usage(format!("serve: --queue: {e}")))?
            }
            "--checkpoint-every" => {
                checkpoint_every = value
                    .parse()
                    .map_err(|e| usage(format!("serve: --checkpoint-every: {e}")))?
            }
            other => return Err(usage(format!("serve: unknown flag {other:?}"))),
        }
        rest = &rest[consumed..];
    }

    signal::install_termination_handler();
    let stop = signal::termination_flag();
    let server = Server::start(ServeConfig {
        workers: opts.jobs,
        queue_capacity,
        snapshot_dir: snapshot_dir.map(PathBuf::from),
        checkpoint_every,
        fault_injection,
        reorder: opts.reorder,
        obs: opts.obs.clone(),
        ..ServeConfig::default()
    });
    let scan = server.snapshot_scan();
    let served = std::thread::scope(|scope| {
        let batch = batch_dir.as_ref().map(|dir| {
            let server = &server;
            scope.spawn(move || watch_batch_dir(server, Path::new(dir), stop, 50))
        });
        let served = serve_socket(&server, Path::new(socket), stop);
        let batch_report = batch.map(|handle| handle.join());
        (served, batch_report)
    });
    let (served, batch_report) = served;
    let served = served.map_err(|e| fail(format!("serve: {e}")))?;
    let mut out = format!(
        "warm start: {} snapshot file(s) loaded, {} rejected\n",
        scan.files_valid, scan.files_rejected
    );
    out.push_str(&format!("socket requests served: {served}\n"));
    if let Some(joined) = batch_report {
        match joined {
            Ok(Ok(report)) => out.push_str(&format!(
                "batch jobs: {} processed, {} deferred, {} malformed\n",
                report.processed, report.deferred, report.malformed
            )),
            Ok(Err(e)) => out.push_str(&format!("batch watcher failed: {e}\n")),
            Err(_) => out.push_str("batch watcher panicked\n"),
        }
    }
    let stats = server.shutdown_drain();
    out.push_str(&stats.to_text());
    Ok(out)
}

/// `lpopt submit <socket> <kind> <file>`: one synchronous job against a
/// running daemon, with the global budget flags as per-job limits.
#[cfg(unix)]
fn run_submit(opts: &Opts, args: &[String]) -> Result<String, CliError> {
    use lowpower::serve::protocol::{Request, Response};
    use lowpower::serve::socket::Client;
    use lowpower::serve::{JobKind, JobSpec};

    let socket = args.get(1).ok_or_else(|| usage("submit: missing socket path"))?;
    let kind_name = args.get(2).ok_or_else(|| usage("submit: missing job kind"))?;
    let kind = JobKind::from_name(kind_name)
        .ok_or_else(|| usage(format!("submit: unknown kind {kind_name:?}")))?;
    let path = args.get(3).ok_or_else(|| usage("submit: missing payload file"))?;
    let payload = std::fs::read_to_string(path)
        .map_err(|e| fail(format!("cannot read {path}: {e}")))?;
    let mut spec = JobSpec::new(kind, payload);
    if let Some(cycles) = args.get(4) {
        spec.cycles = cycles
            .parse()
            .map_err(|e| fail(format!("submit: bad cycles: {e}")))?;
    }
    spec.deadline_ms = opts.budget.deadline.map(|d| d.total_millis());
    spec.max_bdd_nodes = opts.budget.max_bdd_nodes;
    spec.max_sim_steps = opts.budget.max_sim_steps;
    let mut client = Client::connect(std::path::Path::new(socket))
        .map_err(|e| fail(format!("cannot connect to {socket}: {e}")))?;
    match client.request(&Request::Job(spec)) {
        Ok(Response::Ok {
            id,
            attempts,
            tier,
            payload,
        }) => {
            let tier = tier.map(|t| format!(" via {t}")).unwrap_or_default();
            Ok(format!("job {id} ok in {attempts} attempt(s){tier}\n{payload}"))
        }
        Ok(Response::Err {
            id,
            class,
            attempts,
            message,
        }) => Err(fail(format!(
            "job {id} failed [{class}] after {attempts} attempt(s): {message}"
        ))),
        Ok(Response::Pong) => Err(fail("submit: unexpected PONG")),
        Err(e) => Err(fail(format!("submit: {e}"))),
    }
}

fn campaign_summary(report: &CampaignReport, verb: &str) -> String {
    format!(
        "{verb} {}/{} ({:.1}%), {} latent state corruptions\n",
        report.detected(),
        report.reports.len(),
        100.0 * report.coverage(),
        report.latent()
    )
}

fn generate(kind: &str, width: usize) -> Result<Netlist, CliError> {
    Ok(match kind {
        "adder" => gen::ripple_adder(width).0,
        "ksadder" => gen::kogge_stone_adder(width).0,
        "multiplier" => gen::array_multiplier(width).0,
        "wallace" => gen::wallace_multiplier(width).0,
        "comparator" => gen::comparator_gt(width).0,
        "alu" => gen::alu4(width),
        "parity" => gen::parity_tree(width),
        other => return Err(fail(format!("gen: unknown kind {other:?}"))),
    })
}

fn load(path: &str) -> Result<Netlist, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| fail(format!("cannot read {path}: {e}")))?;
    parse_text(&text).map_err(|e| fail(format!("cannot parse {path}: {e}")))
}

/// [`load`] for the commands whose passes take combinational logic only:
/// a sequential netlist fails with one line, before any work or output.
fn load_combinational(command: &str, path: &str) -> Result<Netlist, CliError> {
    let nl = load(path)?;
    if !nl.is_combinational() {
        return Err(fail(format!("{command}: needs a combinational netlist")));
    }
    Ok(nl)
}

/// Write atomically: temp file in the target directory, then rename. A
/// failure partway (full disk, bad path) never leaves a truncated netlist
/// where the output should be.
fn save(nl: &Netlist, path: &str) -> Result<(), CliError> {
    let tmp = format!("{path}.tmp.{}", std::process::id());
    std::fs::write(&tmp, write_text(nl)).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        fail(format!("cannot write {path}: {e}"))
    })?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        fail(format!("cannot write {path}: {e}"))
    })
}
