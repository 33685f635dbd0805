//! `bfvr` — command-line front end for the Boolean-functional-vector
//! reachability toolkit.
//!
//! ```text
//! bfvr gen <family:param>             emit a generated circuit as .bench
//! bfvr stats <file>                   parse and summarize a circuit
//! bfvr convert <file> --to FORMAT     convert between bench and blif
//! bfvr reach <file> [options]         reachability analysis
//! bfvr resume --from <ckpt>           continue from a durable checkpoint
//! bfvr serve --dir <dir>              supervised worker pool over a job dir
//! bfvr submit <file> --dir <dir>      journal a job for bfvr serve
//! bfvr audit <file> [options]         audit engines' intermediate sets
//! bfvr lint <file> [options]          static netlist analysis (bfvr-nlint)
//! bfvr check <file> --bad CUBE        invariant check (+ counterexample)
//! bfvr trace <file> --to CUBE         minimal input trace to a state cube
//! bfvr report <trace.jsonl>           render a --trace-out telemetry trace
//! ```
//!
//! Run `bfvr help` for the full option list.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::cell::{Cell, RefCell};
use std::ops::RangeInclusive;
use std::path::PathBuf;
use std::process::ExitCode;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bfvr::audit::{run_mutations, run_passes, AuditTargets, Report, Severity};
use bfvr::bdd::BddManager;
use bfvr::bfv::StateSet;
use bfvr::netlist::{bench, blif, generators, Netlist};
use bfvr::obs::diag::{self, MutationOutcome, PassId};
use bfvr::obs::json::{obj, Value};
use bfvr::obs::{Counters, Format, JsonlSink, SpanKind, Tracer};
use bfvr::reach::portfolio::{run_racing, Lane};
use bfvr::reach::telemetry::trace_handle;
use bfvr::reach::TraceHandle;
use bfvr::reach::{
    audit_iteration, check_invariant, find_trace, run as run_engine, CheckResult, Checkpoint,
    EngineKind, IterationObserver, Outcome, ReachOptions, ReachResult,
};
use bfvr::serve::{
    fnv1a64, level_map_of, read_checkpoint, read_meta, replay, signal, write_checkpoint, CkptMeta,
    JobSpec, Journal, ProcessRunner, Supervisor, SupervisorConfig, EXIT_CHECKPOINTED,
};
use bfvr::sim::{EncodedFsm, OrderHeuristic};

/// `print!` that ends the process quietly when stdout closes early
/// (`bfvr gen shift:4000 | head -1`), where `print!` would panic.
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` with the closed-stdout behaviour of [`out!`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes to stdout. A reader that stopped reading ends the process with
/// status 0 and no message, as if the output had been read; any other
/// write failure is an error.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: writing stdout: {e}");
        std::process::exit(1);
    }
}

const USAGE: &str = "\
bfvr — symbolic reachability with Boolean functional vectors

USAGE:
  bfvr gen <family:param>                 counter:8, modk:4:10, gray:6, lfsr:10,
                                          shift:16, johnson:12, pair:8, queue:4,
                                          rot:12, traffic:4, load:12, mask:10, s27
  bfvr stats <file>
  bfvr convert <file> --to bench|blif|verilog
  bfvr reach <file> [--engine bfv|cbm|mono|iwls95|cdec|all]
                    [--order s1|decl|d|coi|force|o:<seed>|all]
                                         static variable order: s1 fan-in
                                         DFS (default), decl declaration
                                         (alias s2), d reversed, coi
                                         cone-of-influence interleaving,
                                         force FORCE placement, o:<seed>
                                         random; all crosses every lane
                                         with s1/decl/coi/force
                    [--time-limit <sec>] [--node-limit <nodes>]
                    [--cache-limit <slots>]  cap each op cache's computed
                                         table at this many slots (rounded
                                         to a power of two; bounds resident
                                         cache memory, trades hit rate)
                    [--sift]             dynamic variable reordering: when
                                         live nodes grow past the trigger
                                         multiple since the last reorder,
                                         pause the traversal and sift each
                                         level to its locally best position
                                         (Rudell). χ lanes only — BFV/CDEC
                                         representations are
                                         structurally tied to their order
                                         (see docs/ordering.md); sifting
                                         lanes print as LANE~S
                    [--sift-maxgrowth <f>]  abort one variable's sift when
                                         the table grows past f× its size
                                         at the start of that variable's
                                         pass (default 1.2)
                    [--sift-trigger <f>] live-node growth multiple that
                                         fires a reorder pass (default 2)
                    [--race]             run the selected engines (default:
                                         all) concurrently, one manager per
                                         thread; first fixed point wins and
                                         cancels the rest
                    [--jobs <n>]         with --race: cap racing worker
                                         threads (default: one per engine)
                    [--dump-reached]     print the reached set as cubes
                    [--trace-out <file>] write a structured JSONL telemetry
                                         trace (spans, per-iteration counter
                                         snapshots; render with bfvr report)
                    [--trace-sample <n>] record every n-th iteration in the
                                         trace (default 1 = every iteration;
                                         the first is always recorded)
                    [--checkpoint-out <file>]  write a durable, resumable
                                         checkpoint (atomic rename) when the
                                         run is interrupted by SIGINT/SIGTERM
                                         or trips a resource limit — and
                                         periodically while running; exit
                                         code 75 means \"interrupted but
                                         checkpointed\" (resume with
                                         bfvr resume --from <file>).
                                         Needs exactly one lane
                    [--checkpoint-every <n>]   durable-checkpoint period in
                                         iterations (default 1)
                    [--result-out <file>]      write a one-line JSON summary
                                         of the final outcome (job runner
                                         protocol; single lane only)
  bfvr resume --from <ckpt>  continue an interrupted reach run from its
                    durable checkpoint file: rebuilds the circuit recorded in
                    the header (fingerprint-checked), re-interns the saved
                    sets, and iterates to the same fixed point. Accepts the
                    same limit/trace/checkpoint/result flags as reach
                    (--checkpoint-out defaults to the --from file); pass a
                    larger --node-limit/--time-limit to continue a T.O./M.O.
                    run past the budget it stopped on
  bfvr serve --dir <dir>     run every journaled job in <dir> to a terminal
                    state with a supervised pool of child processes: crashes
                    retry with exponential backoff, repeat offenders are
                    quarantined, SIGTERM'd children checkpoint and resume,
                    and a job that checkpoints without progress fails
                    [--workers <n>] [--max-attempts <n>] [--job-timeout <sec>]
  bfvr submit <file> --dir <dir>  append a job to <dir>'s journal
                    [--id <id>] [--engine E] [--order O]
                    [--priority <n>]     higher runs first; lowest shed first
                    [--checkpoint-every <n>] [--node-limit <n>]
                    [--time-limit <sec>]
                    [--fault kill@K]     fault injection: crash the child at
                                         iteration K on its first attempt
  bfvr audit <file> [--engine bfv|cbm|mono|iwls95|cdec|all]  (default all)
                    [--order s1|decl|d|coi|force|o:<seed>]
                    [--sift] [--sift-maxgrowth <f>] [--sift-trigger <f>]
                    [--time-limit <sec>] [--node-limit <nodes>]
                    [--selftest]         also run the mutation harness:
                                         seed deliberate corruptions and
                                         prove every pass detects its own
          runs every analysis pass over every engine's intermediate sets;
          prints compiler-style diagnostics, sorted by severity then pass;
          exits nonzero on any error-severity finding or on a lane that
          ends short of its fixed point (T.O., M.O., ERR)
  bfvr lint <file>  static netlist analysis (bfvr-nlint): combinational
                    cycles, undriven/unread signals, ternary constant
                    propagation (stuck-at gates, constant latches), dead
                    latches, duplicate gates, per-latch support stats;
                    prints compiler-style diagnostics and exits nonzero
                    iff any error-severity finding
                    [--fix <out>]        write a lint-gated simplification
                                         (constant folding, buffer collapse,
                                         duplicate merging) as .bench; the
                                         rewrite preserves the reached-state
                                         count exactly
                    [--prune]            with --fix: also drop latches
                                         outside every output cone (projects
                                         the state space — counts may shrink)
                    [--selftest]         run the netlist mutation harness:
                                         nine seeded corruptions, each must
                                         be caught by its intended pass
  bfvr check <file> --bad <cube>          cube over latches in file order,
                                          e.g. 1x0x (x = don't care)
                    [--time-limit <sec>] [--node-limit <nodes>]
                    [--cache-limit <slots>]  exits 1 without a verdict when
                                         a limit trips
  bfvr trace <file> --to <cube>
                    [--time-limit <sec>] [--node-limit <nodes>]
                    [--cache-limit <slots>]
  bfvr report <trace.jsonl> [--format text|md]
          render a --trace-out trace as per-engine timeline tables;
          exits nonzero on schema violations (doubles as a validator)

Files ending in .blif parse as BLIF; everything else as ISCAS89 bench.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    // `reach` and `resume` have a third exit state — EXIT_CHECKPOINTED,
    // "interrupted but resumable" — so they return their code directly;
    // everything else is plain success/failure.
    let simple = |r: Result<(), String>| r.map(|()| ExitCode::SUCCESS);
    match args.first().map(String::as_str) {
        Some("gen") => simple(cmd_gen(args)),
        Some("stats") => simple(cmd_stats(args)),
        Some("convert") => simple(cmd_convert(args)),
        Some("reach") => cmd_reach(args),
        Some("resume") => cmd_resume(args),
        Some("serve") => simple(cmd_serve(args)),
        Some("submit") => simple(cmd_submit(args)),
        Some("audit") => simple(cmd_audit(args)),
        Some("lint") => simple(cmd_lint(args)),
        Some("check") => simple(cmd_check(args)),
        Some("trace") => simple(cmd_trace(args)),
        Some("report") => simple(cmd_report(args)),
        Some("help") | None => {
            out!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

fn generate(spec: &str) -> Result<Netlist, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let family = parts[0];
    // Parameter `i`, refused unless the generator accepts it.
    let p = |i: usize, accepted: RangeInclusive<u64>| -> Result<u64, String> {
        let v: u64 = parts
            .get(i)
            .ok_or_else(|| format!("`{spec}` needs a parameter"))?
            .parse()
            .map_err(|e| format!("bad parameter in `{spec}`: {e}"))?;
        if accepted.contains(&v) {
            return Ok(v);
        }
        let (lo, hi) = accepted.into_inner();
        let range = if hi >= u32::MAX.into() {
            format!("{lo} or more")
        } else {
            format!("{lo} to {hi}")
        };
        Err(format!("`{spec}`: {family} parameter {i} takes {range}"))
    };
    // The first parameter, within a `u32` range and so a `u32`.
    let n = |accepted: RangeInclusive<u32>| {
        let (lo, hi) = accepted.into_inner();
        p(1, lo.into()..=hi.into()).map(|v| v as u32)
    };
    Ok(match family {
        "s27" => bfvr::netlist::circuits::s27(),
        "counter" => generators::counter(n(generators::COUNTER_BITS)?),
        "modk" => {
            let bits = n(generators::COUNTER_BITS)?;
            generators::counter_modk(bits, p(2, generators::modk_moduli(bits))?)
        }
        "gray" => generators::gray(n(generators::COUNTER_BITS)?),
        "lfsr" => generators::lfsr(n(generators::LFSR_STAGES)?),
        "shift" => generators::shift_register(n(generators::SHIFT_STAGES)?),
        "johnson" => generators::johnson(n(generators::JOHNSON_STAGES)?),
        "pair" => generators::paired_registers(n(generators::PAIRS)?),
        "queue" => generators::queue_controller(n(generators::QUEUE_POINTER_BITS)?),
        "rot" => generators::rotator(n(generators::ROTATOR_STATIONS)?),
        "traffic" => generators::traffic_chain(n(generators::TRAFFIC_STAGES)?),
        "load" => generators::loadable_register(n(generators::LOAD_BITS)?),
        "mask" => generators::masked_accumulator(n(generators::MASK_BITS)?),
        other => return Err(format!("unknown family `{other}`")),
    })
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    reject_unknown_flags("gen", args, &[])?;
    let net = generate(args.get(1).ok_or("gen needs a family spec")?)?;
    out!("{}", bench::write(&net).map_err(|e| e.to_string())?);
    Ok(())
}

fn load(path: &str) -> Result<Netlist, String> {
    if let Some(spec) = path.strip_prefix("gen:") {
        return generate(spec);
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if path.ends_with(".blif") {
        blif::parse(&text).map_err(|e| format!("{path}: {e}"))
    } else {
        bench::parse_named(&text, path).map_err(|e| format!("{path}: {e}"))
    }
}

/// Encodes `net` for state traversal under `order`; a latch-free
/// netlist is refused with [`bfvr::sim::EncodeError::NoLatches`].
fn encode(net: &Netlist, order: OrderHeuristic) -> Result<(BddManager, EncodedFsm), String> {
    EncodedFsm::encode(net, order).map_err(|e| e.to_string())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    reject_unknown_flags("stats", args, &[])?;
    let net = &load(args.get(1).ok_or("stats needs a file")?)?;
    outln!("{}: {}", net.name(), net.stats());
    let levels = bfvr::netlist::topo::levels(net).map_err(|e| e.to_string())?;
    outln!("logic depth: {}", levels.iter().max().copied().unwrap_or(0));
    let (latches, inputs) = bfvr::netlist::topo::cone_of_influence(net, net.outputs());
    outln!(
        "cone of influence of the outputs: {} of {} latches, {} of {} inputs",
        latches.len(),
        net.latches().len(),
        inputs.len(),
        net.inputs().len()
    );
    Ok(())
}

fn cmd_convert(args: &[String]) -> Result<(), String> {
    reject_unknown_flags("convert", args, &[&["--to"]])?;
    let net = load(args.get(1).ok_or("convert needs a file")?)?;
    let to = flag_value(args, "--to").ok_or("convert needs --to bench|blif")?;
    match to.as_str() {
        "bench" => out!("{}", bench::write(&net).map_err(|e| e.to_string())?),
        "blif" => out!("{}", blif::write(&net)),
        "verilog" | "v" => out!("{}", bfvr::netlist::verilog::write(&net)),
        other => return Err(format!("unknown format `{other}`")),
    }
    Ok(())
}

fn parse_order(args: &[String]) -> Result<OrderHeuristic, String> {
    match flag_value(args, "--order") {
        None => Ok(OrderHeuristic::DfsFanin),
        Some(tok) => parse_order_token(&tok),
    }
}

/// Parses one `--order` token (`s1`/`decl`/`d`/`coi`/`force`/`o:SEED`,
/// with `s2` kept as a legacy alias for `decl`) — also the format
/// durable checkpoint headers and job specs record an order in.
fn parse_order_token(tok: &str) -> Result<OrderHeuristic, String> {
    OrderHeuristic::parse_token(tok).ok_or_else(|| format!("unknown order `{tok}`"))
}

/// Parses `reach`'s `--order` into the selected order list: one token
/// selects that order, `all` crosses every lane with the static
/// portfolio (fan-in, declaration, COI, FORCE), no flag selects the
/// fan-in default.
fn parse_order_list(args: &[String]) -> Result<Vec<OrderHeuristic>, String> {
    match flag_value(args, "--order").as_deref() {
        None => Ok(vec![OrderHeuristic::DfsFanin]),
        Some("all") => Ok(vec![
            OrderHeuristic::DfsFanin,
            OrderHeuristic::Declaration,
            OrderHeuristic::Coi,
            OrderHeuristic::Force,
        ]),
        Some(tok) => Ok(vec![parse_order_token(tok)?]),
    }
}

fn parse_opts(args: &[String]) -> Result<ReachOptions, String> {
    let mut opts = ReachOptions::default();
    if let Some(s) = flag_value(args, "--time-limit") {
        let secs: u64 = s.parse().map_err(|e| format!("bad --time-limit: {e}"))?;
        opts.time_limit = Some(Duration::from_secs(secs));
    }
    if let Some(s) = flag_value(args, "--node-limit") {
        opts.node_limit = Some(s.parse().map_err(|e| format!("bad --node-limit: {e}"))?);
    }
    if let Some(s) = flag_value(args, "--cache-limit") {
        let slots: usize = s.parse().map_err(|e| format!("bad --cache-limit: {e}"))?;
        if slots == 0 {
            return Err("--cache-limit must be at least 1".into());
        }
        opts.cache_limit = Some(slots);
    }
    opts.sift = args.iter().any(|a| a == "--sift");
    if let Some(s) = flag_value(args, "--sift-maxgrowth") {
        if !opts.sift {
            return Err("--sift-maxgrowth requires --sift".into());
        }
        opts.sift_max_growth = s
            .parse()
            .map_err(|e| format!("bad --sift-maxgrowth: {e}"))?;
        if opts.sift_max_growth <= 1.0 {
            return Err("--sift-maxgrowth must be > 1".into());
        }
    }
    if let Some(s) = flag_value(args, "--sift-trigger") {
        if !opts.sift {
            return Err("--sift-trigger requires --sift".into());
        }
        opts.sift_trigger = s.parse().map_err(|e| format!("bad --sift-trigger: {e}"))?;
        if opts.sift_trigger < 1.0 {
            return Err("--sift-trigger must be >= 1".into());
        }
    }
    Ok(opts)
}

/// The resource-limit flags [`parse_opts`] reads.
const LIMIT_FLAGS: &[&str] = &["--time-limit", "--node-limit", "--cache-limit"];

/// The dynamic-sifting flags [`parse_opts`] reads.
const SIFT_FLAGS: &[&str] = &["--sift", "--sift-maxgrowth", "--sift-trigger"];

/// The single-lane run flags `reach` and `resume` share: tracing
/// ([`parse_trace`]), durable checkpoints ([`parse_durable`]) and the
/// job-runner result file.
const RUN_FLAGS: &[&str] = &[
    "--trace-out",
    "--trace-sample",
    "--checkpoint-out",
    "--checkpoint-every",
    "--result-out",
];

/// Rejects any `--flag` of `bfvr <cmd>` that is in none of the `known`
/// lists, so a misspelled or retired option is a usage error instead of
/// being dropped without a word.
fn reject_unknown_flags(cmd: &str, args: &[String], known: &[&[&str]]) -> Result<(), String> {
    let unknown = args
        .iter()
        .find(|a| a.starts_with("--") && !known.iter().any(|k| k.contains(&a.as_str())));
    match unknown {
        Some(flag) => Err(format!(
            "unknown flag `{flag}` for `bfvr {cmd}` (run `bfvr help` for the option list)"
        )),
        None => Ok(()),
    }
}

/// Parses `--engine` into the selected engine list; `all` expands to
/// every engine, no flag selects `default`.
fn parse_engines(args: &[String], default: &[EngineKind]) -> Result<Vec<EngineKind>, String> {
    // Case-insensitive: job specs carry the benchmark-table labels
    // (`BFV`, `MONO`, …) and feed them straight back to this flag.
    Ok(
        match flag_value(args, "--engine")
            .map(|s| s.to_ascii_lowercase())
            .as_deref()
        {
            None => default.to_vec(),
            Some("all") => EngineKind::all().to_vec(),
            Some(s) => match EngineKind::parse(s) {
                Some(e) => vec![e],
                None => return Err(format!("unknown engine `{s}`")),
            },
        },
    )
}

/// Parses `--trace-out`/`--trace-sample` into a JSONL-backed tracer
/// handle with the stream header already written (`None` without
/// `--trace-out`).
fn parse_trace(args: &[String], label: &str) -> Result<Option<TraceHandle>, String> {
    let sample = match flag_value(args, "--trace-sample") {
        None => 1,
        Some(s) => {
            let n: u64 = s.parse().map_err(|e| format!("bad --trace-sample: {e}"))?;
            if n == 0 {
                return Err("--trace-sample must be at least 1".into());
            }
            n
        }
    };
    let Some(path) = flag_value(args, "--trace-out") else {
        if sample != 1 {
            return Err("--trace-sample requires --trace-out".into());
        }
        return Ok(None);
    };
    let file = std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?;
    let sink = JsonlSink::new(std::io::BufWriter::new(file));
    let mut tracer = Tracer::with_sampling(Box::new(sink), sample);
    tracer.meta(label);
    Ok(Some(trace_handle(tracer)))
}

/// Everything needed to write durable checkpoint files for a single-lane
/// run: the output path, the header context (`bfvr resume` rebuilds the
/// circuit and manager from it), and latches recording what happened —
/// a failed periodic write must never abort the in-memory traversal, so
/// errors are held here and surfaced after the run.
struct Durable {
    path: PathBuf,
    every: usize,
    order: String,
    circuit: String,
    fingerprint: u64,
    /// Latched first write failure (reported, not fatal).
    error: RefCell<Option<String>>,
    /// Whether at least one durable checkpoint reached disk.
    wrote: Cell<bool>,
}

impl Durable {
    fn new(
        path: PathBuf,
        every: usize,
        order: String,
        circuit: String,
        net: &Netlist,
    ) -> Result<Rc<Durable>, String> {
        // Fingerprint the canonical bench text, not the on-disk bytes:
        // resume re-derives it from the rebuilt circuit the same way.
        let text = bench::write(net).map_err(|e| e.to_string())?;
        Ok(Rc::new(Durable {
            path,
            every,
            order,
            circuit,
            fingerprint: fnv1a64(text.as_bytes()),
            error: RefCell::new(None),
            wrote: Cell::new(false),
        }))
    }

    /// Arms `opts` to write a checkpoint every `every` growing
    /// iterations, through the driver's periodic hook.
    fn arm(self: &Rc<Self>, opts: &mut ReachOptions) {
        let d = Rc::clone(self);
        opts.checkpoint_every = Some(self.every);
        opts.checkpoint_hook = Some(Rc::new(move |m, cp| d.write(m, cp)));
    }

    /// Writes `cp` to the checkpoint file, latching the first failure —
    /// the one writer of the periodic hook and the final checkpoint.
    fn write(&self, m: &BddManager, cp: &Checkpoint) {
        let meta = CkptMeta {
            engine: cp.engine,
            order: self.order.clone(),
            circuit: self.circuit.clone(),
            fingerprint: self.fingerprint,
            num_vars: m.num_vars(),
            level2var: level_map_of(m),
            iterations: cp.iterations,
        };
        match write_checkpoint(&self.path, m, &meta, cp.state()) {
            Ok(()) => self.wrote.set(true),
            Err(e) => {
                let mut latch = self.error.borrow_mut();
                if latch.is_none() {
                    *latch = Some(e.to_string());
                }
            }
        }
    }
}

/// Parses the durable-checkpoint / job-runner flags shared by `reach`
/// and `resume`. `default_out` supplies `resume`'s fallback (its own
/// `--from` file).
fn parse_durable(
    args: &[String],
    net: &Netlist,
    order: OrderHeuristic,
    circuit: &str,
    default_out: Option<PathBuf>,
) -> Result<Option<Rc<Durable>>, String> {
    let out = flag_value(args, "--checkpoint-out")
        .map(PathBuf::from)
        .or(default_out);
    let every = match flag_value(args, "--checkpoint-every") {
        None => 1,
        Some(s) => {
            let n: usize = s
                .parse()
                .map_err(|e| format!("bad --checkpoint-every: {e}"))?;
            if n == 0 {
                return Err("--checkpoint-every must be at least 1".into());
            }
            n
        }
    };
    let Some(path) = out else {
        if flag_value(args, "--checkpoint-every").is_some() {
            return Err("--checkpoint-every requires --checkpoint-out".into());
        }
        return Ok(None);
    };
    Durable::new(path, every, order.token(), circuit.to_string(), net).map(Some)
}

/// Runs `body` with SIGINT/SIGTERM bridged into a cooperative cancel
/// token: the handler latches an atomic, a bridge thread copies the
/// latch into the token the BDD manager polls, and the traversal unwinds
/// as a clean time-out with a checkpoint instead of dying mid-update.
fn with_interrupt_token<T>(body: impl FnOnce(&Arc<AtomicBool>) -> T) -> T {
    signal::install_handlers();
    let token = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let bridge = {
        let token = Arc::clone(&token);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if signal::interrupted() {
                    token.store(true, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };
    let r = body(&token);
    stop.store(true, Ordering::Relaxed);
    let _ = bridge.join();
    r
}

/// Writes the `--result-out` summary: one canonical-JSON line with the
/// outcome label, counts and lane — the contract the supervised job
/// runner parses.
fn write_result_file(path: &str, r: &ReachResult) -> Result<(), String> {
    let mut pairs = vec![
        ("outcome", Value::Str(r.outcome.label().to_string())),
        ("lane", Value::Str(r.engine.label().to_string())),
        ("iterations", Value::Num(r.iterations as f64)),
    ];
    if let Some(s) = r.reached_states {
        pairs.push(("states", Value::Num(s)));
    }
    let line = format!("{}\n", obj(pairs).encode());
    std::fs::write(path, line).map_err(|e| format!("{path}: {e}"))
}

/// Settles a (single-lane) run under the durable-checkpoint protocol:
/// writes the final checkpoint / result file, surfaces latched periodic
/// write failures, and picks the exit code. With `--checkpoint-out` a
/// run exits 0 at a fixed point, [`EXIT_CHECKPOINTED`] when it stopped
/// early but left a durable checkpoint to resume from, and 1 when it
/// stopped early with none. Without it, only an interrupt is an error.
fn settle_durable(
    m: &BddManager,
    r: &ReachResult,
    durable: Option<&Durable>,
    result_out: Option<&str>,
    interrupted: bool,
) -> Result<ExitCode, String> {
    if let Some(d) = durable {
        if r.outcome == Outcome::FixedPoint {
            // Done: a stale checkpoint would only invite a pointless
            // resume after the fact.
            let _ = std::fs::remove_file(&d.path);
        } else if let Some(cp) = &r.checkpoint {
            d.write(m, cp);
        }
        if let Some(e) = d.error.borrow().as_ref() {
            eprintln!("warning: durable checkpoint write failed: {e}");
        }
    }
    if let Some(path) = result_out {
        write_result_file(path, r)?;
    }
    if r.outcome == Outcome::FixedPoint {
        return Ok(ExitCode::SUCCESS);
    }
    match durable {
        Some(d) if d.wrote.get() && r.outcome != Outcome::Error => {
            eprintln!(
                "checkpointed at iteration {} -> {} (resume with: bfvr resume --from {})",
                r.iterations,
                d.path.display(),
                d.path.display()
            );
            Ok(ExitCode::from(
                u8::try_from(EXIT_CHECKPOINTED).unwrap_or(u8::MAX),
            ))
        }
        // Stopped short with nothing to resume from: a caller scripting
        // on the exit status must not read success.
        Some(d) => Err(format!(
            "{} ended {} after {} iteration(s); {}",
            r.engine.label(),
            r.outcome.label(),
            r.iterations,
            if r.outcome == Outcome::Error {
                "an internal error is not resumable".to_string()
            } else {
                format!("no checkpoint was written to {}", d.path.display())
            }
        )),
        None if interrupted => {
            Err("interrupted before reaching a fixed point (no durable checkpoint written)".into())
        }
        None => Ok(ExitCode::SUCCESS),
    }
}

/// Runs the body of `reach` or `resume` inside the trace's run span.
/// The span closes and the trace flushes even when the body failed: a
/// trace of a timed-out run is exactly what the telemetry is for. A sink
/// that swallowed a write error reports it now — a "successful" run
/// whose trace silently went nowhere must not exit 0.
fn in_run_span(
    trace: Option<&TraceHandle>,
    name: &str,
    body: impl FnOnce() -> Result<ExitCode, String>,
) -> Result<ExitCode, String> {
    let span = trace.map(|t| {
        t.borrow_mut()
            .open_span(SpanKind::Run, name, Counters::new())
    });
    let result = body();
    let Some(t) = trace else {
        return result;
    };
    let mut t = t.borrow_mut();
    if let Some(id) = span {
        t.close_span(id, &Counters::new());
    }
    t.finish();
    let trace_error = t.take_error();
    let code = result?;
    match trace_error {
        Some(e) => Err(format!("--trace-out: trace write failed: {e}")),
        None => Ok(code),
    }
}

/// Prints the column header of the lane table of `reach` and `resume`.
fn print_lane_header() {
    outln!(
        "{:10} {:>6} {:>14} {:>7} {:>10} {:>11}",
        "lane",
        "status",
        "states",
        "iters",
        "time(ms)",
        "peak nodes"
    );
}

/// Prints `r`'s row of that table under `label`, then its sift line
/// when the driver reordered.
fn print_lane_row(label: &str, r: &ReachResult) {
    outln!(
        "{:10} {:>6} {:>14} {:>7} {:>10.1} {:>11}",
        label,
        r.outcome.label(),
        states_cell(r.reached_states),
        r.iterations,
        r.elapsed.as_secs_f64() * 1e3,
        r.peak_nodes
    );
    if r.reorders > 0 {
        let (before, after) = r.reorder_nodes;
        outln!(
            "  dynamic reorder: {} sift pass(es), {before} -> {after} live nodes",
            r.reorders
        );
    }
}

fn cmd_reach(args: &[String]) -> Result<ExitCode, String> {
    reject_unknown_flags(
        "reach",
        args,
        &[
            LIMIT_FLAGS,
            SIFT_FLAGS,
            RUN_FLAGS,
            &[
                "--engine",
                "--order",
                "--race",
                "--jobs",
                "--dump-reached",
                "--stats",
                "--kill-at-iter",
            ],
        ],
    )?;
    let circuit = args.get(1).ok_or("reach needs a file")?.clone();
    let net = load(&circuit)?;
    // Checked up front: the race lanes encode inside their own threads.
    EncodedFsm::require_latches(&net).map_err(|e| e.to_string())?;
    let orders = parse_order_list(args)?;
    let order = orders[0];
    let mut opts = parse_opts(args)?;
    let race = args.iter().any(|a| a == "--race");
    // A race defaults to the full portfolio — one engine has nothing to
    // race against; a plain run defaults to the paper's BFV flow.
    let default_engines: &[EngineKind] = if race {
        &EngineKind::all()
    } else {
        &[EngineKind::Bfv]
    };
    let engines = parse_engines(args, default_engines)?;
    let mut lanes: Vec<Lane> = engines.iter().map(|&e| Lane::native(e)).collect();
    if orders.len() > 1 {
        // `--order all`: the ordering becomes a second portfolio axis —
        // every engine lane is crossed with every static order.
        lanes = lanes
            .iter()
            .flat_map(|&l| orders.iter().map(move |&o| l.with_order(o)))
            .collect();
    }
    if !race && args.iter().any(|a| a == "--jobs") {
        return Err("--jobs requires --race".into());
    }
    let result_out = flag_value(args, "--result-out");
    let kill_at = match flag_value(args, "--kill-at-iter") {
        None => None,
        Some(s) => Some(
            s.parse::<usize>()
                .map_err(|e| format!("bad --kill-at-iter: {e}"))?,
        ),
    };
    if race
        && (flag_value(args, "--checkpoint-out").is_some()
            || result_out.is_some()
            || kill_at.is_some())
    {
        return Err(
            "--checkpoint-out/--result-out/--kill-at-iter are not available with --race".into(),
        );
    }
    let durable = parse_durable(args, &net, order, &circuit, None)?;
    if (durable.is_some() || result_out.is_some()) && lanes.len() != 1 {
        return Err("--checkpoint-out/--result-out need exactly one lane".into());
    }
    // The meta header records the chosen ordering and a lint summary
    // (`Ne/Nw/Ni` finding counts), so a trace identifies both the
    // variable-order axis and the structural health of its input.
    let order_label = if orders.len() > 1 {
        "all".to_string()
    } else {
        order.token()
    };
    let lint = bfvr::nlint::run_passes(&net).summary();
    // Sifting provenance: the meta header records that dynamic
    // reordering was armed and with what knobs; whether it *fired* is in
    // the per-lane reorder events.
    let sift_label = if opts.sift {
        format!(
            " sift=on maxgrowth={} trigger={}",
            opts.sift_max_growth, opts.sift_trigger
        )
    } else {
        String::new()
    };
    let trace = parse_trace(
        args,
        &format!(
            "bfvr reach {} order={order_label} lint={lint}{sift_label}",
            net.name()
        ),
    )?;
    opts.trace.clone_from(&trace);
    in_run_span(trace.as_ref(), net.name(), || {
        if race {
            cmd_reach_race(args, &net, order, &opts, &lanes).map(|()| ExitCode::SUCCESS)
        } else {
            reach_plain(
                args,
                &net,
                order,
                &opts,
                &lanes,
                durable.as_ref(),
                result_out.as_deref(),
                kill_at,
            )
        }
    })
}

/// The non-racing `bfvr reach` path: run each selected lane in its own
/// fresh manager and print one summary row per lane.
///
/// SIGINT/SIGTERM are bridged into each manager's cooperative cancel
/// token; an interrupted single-lane run with `--checkpoint-out` settles
/// through the durable-checkpoint exit protocol (see [`settle_durable`]).
#[allow(clippy::too_many_arguments)]
fn reach_plain(
    args: &[String],
    net: &Netlist,
    order: OrderHeuristic,
    opts: &ReachOptions,
    lanes: &[Lane],
    durable: Option<&Rc<Durable>>,
    result_out: Option<&str>,
    kill_at: Option<usize>,
) -> Result<ExitCode, String> {
    print_lane_header();
    let dump = args.iter().any(|a| a == "--dump-reached");
    let show_stats = args.iter().any(|a| a == "--stats");
    with_interrupt_token(|cancel| {
        let mut exit = ExitCode::SUCCESS;
        for &lane in lanes {
            if cancel.load(Ordering::Relaxed) {
                return Err("interrupted before completion (remaining lanes skipped)".into());
            }
            let lane_order = lane.order.unwrap_or(order);
            let (mut m, fsm) = encode(net, lane_order)?;
            m.set_cancel_token(Some(Arc::clone(cancel)));
            let mut lane_opts = opts.clone();
            if let Some(d) = durable {
                d.arm(&mut lane_opts);
            }
            if let Some(k) = kill_at {
                // Fault injection for the supervisor's crash-recovery tests:
                // die the way a real crash does — by signal, mid-run, after
                // the previous iteration's durable checkpoint hit disk.
                lane_opts.observer = Some(Rc::new(move |_, _, view| {
                    if view.iteration >= k {
                        eprintln!("fault injection: aborting at iteration {}", view.iteration);
                        std::process::abort();
                    }
                }));
            }
            let r = run_engine(lane.engine, &mut m, &fsm, &lane_opts);
            print_lane_row(&lane_cell(lane, opts), &r);
            if show_stats {
                let s = m.stats();
                outln!(
                    "  tables: {} KiB computed caches + {} KiB unique table resident; \
                 {} mk calls, {} GCs",
                    s.cache_bytes / 1024,
                    s.unique_bytes / 1024,
                    s.mk_calls,
                    s.gc_runs
                );
                for c in m.cache_stats() {
                    if c.lookups == 0 {
                        continue;
                    }
                    outln!(
                        "  cache {:10} {:>10} lookups {:>6.1}% hit  {:>8} / {:>8} slots  {:>6} KiB",
                        c.name,
                        c.lookups,
                        c.hits as f64 / c.lookups as f64 * 100.0,
                        c.entries,
                        c.capacity,
                        c.bytes / 1024
                    );
                }
            }
            if dump {
                if let Some(chi) = &r.reached_chi {
                    let cubes = m.isop(chi.bdd()).map_err(|e| e.to_string())?;
                    // Column per latch, in declaration order.
                    let mut comp_of_var = std::collections::HashMap::new();
                    for c in 0..fsm.num_latches() {
                        let l = fsm.latch_of_component(c);
                        comp_of_var.insert(fsm.state_vars(l).0, l);
                    }
                    outln!("reached set, one cube per line (latch order):");
                    for cube in &cubes {
                        let mut row = vec!['-'; fsm.num_latches()];
                        for &(v, pol) in cube {
                            let l = comp_of_var[&v];
                            row[l] = if pol { '1' } else { '0' };
                        }
                        outln!("  {}", row.iter().collect::<String>());
                    }
                }
            }
            exit = settle_durable(
                &m,
                &r,
                durable.map(Rc::as_ref),
                result_out,
                cancel.load(Ordering::Relaxed),
            )?;
        }
        Ok(exit)
    })
}

/// The lane column: [`Lane::display`], tagged `~S` when dynamic sifting
/// is armed for it. The tag applies only where sifting actually engages
/// — a BFV/CDEC lane under `--sift` keeps its static order (its
/// representation is tied to it) — so the table shows what each lane
/// really ran, e.g. `MONO@FORCE~S`.
fn lane_cell(lane: Lane, opts: &ReachOptions) -> String {
    let mut cell = lane.display();
    if opts.sift && lane.engine.supports_reorder() {
        cell.push_str("~S");
    }
    cell
}

/// The reached-states column: `-` when the lane has no count.
fn states_cell(states: Option<f64>) -> String {
    states.map_or_else(|| "-".into(), |s| format!("{s}"))
}

/// `bfvr reach --race`: race the selected lanes, each in its own
/// worker thread with a private manager, and report every lane plus the
/// winner. `--dump-reached` is rejected: the winning lane's manager (and
/// the reached set rooted in it) does not outlive its thread.
fn cmd_reach_race(
    args: &[String],
    net: &Netlist,
    order: OrderHeuristic,
    opts: &ReachOptions,
    lanes: &[Lane],
) -> Result<(), String> {
    if args.iter().any(|a| a == "--dump-reached") {
        return Err("--dump-reached is not available with --race (the winning \
                    lane's manager dies with its thread); rerun the winning \
                    engine alone to dump the reached set"
            .into());
    }
    let jobs = match flag_value(args, "--jobs") {
        None => 0,
        Some(s) => {
            let n: usize = s.parse().map_err(|e| format!("bad --jobs: {e}"))?;
            if n == 0 {
                return Err("--jobs must be at least 1".into());
            }
            n
        }
    };
    let report = run_racing(lanes, net, order, opts, jobs);
    outln!(
        "{:16} {:>9} {:>14} {:>7} {:>10} {:>11}",
        "lane",
        "status",
        "states",
        "iters",
        "time(ms)",
        "peak nodes"
    );
    for (i, lane) in report.lanes.iter().enumerate() {
        let status = match (lane.outcome, lane.cancelled) {
            (None, _) => "skipped".to_string(),
            (Some(o), true) => format!("{}*", o.label()),
            (Some(o), false) => o.label().to_string(),
        };
        let won = if report.winner == Some(i) {
            " <- winner"
        } else {
            ""
        };
        // Reorder provenance: how many sift passes actually fired on
        // this lane (0 suppresses the tag — an armed lane that never
        // crossed the trigger ran its static order end to end).
        let sifted = if lane.reorders > 0 {
            format!(" S×{}", lane.reorders)
        } else {
            String::new()
        };
        outln!(
            "{:16} {:>9} {:>14} {:>7} {:>10.1} {:>11}{}{}",
            lane_cell(lanes[i], opts),
            status,
            states_cell(lane.reached_states),
            lane.iterations,
            lane.elapsed.as_secs_f64() * 1e3,
            lane.peak_nodes,
            sifted,
            won,
        );
    }
    outln!(
        "race over {} lane(s) finished in {:.1} ms (* = cancelled by the winner)",
        report.lanes.len(),
        report.elapsed.as_secs_f64() * 1e3
    );
    match report.winner.map(|i| &report.lanes[i]) {
        Some(w) if w.outcome == Some(Outcome::FixedPoint) => Ok(()),
        Some(w) => Err(format!(
            "no lane reached a fixed point (best: {} {})",
            w.engine.label(),
            w.outcome.unwrap_or(Outcome::Error).label()
        )),
        None => Err("race had no engines".into()),
    }
}

/// `bfvr resume`: continue an interrupted traversal from its durable
/// checkpoint file. The header records everything needed to rebuild the
/// run's context — circuit spec, variable order, manager width and a
/// circuit fingerprint — so resume takes no positional circuit argument
/// and refuses a checkpoint whose circuit no longer matches.
fn cmd_resume(args: &[String]) -> Result<ExitCode, String> {
    reject_unknown_flags(
        "resume",
        args,
        &[LIMIT_FLAGS, SIFT_FLAGS, RUN_FLAGS, &["--from"]],
    )?;
    let from = flag_value(args, "--from").ok_or("resume needs --from <checkpoint>")?;
    let from_path = PathBuf::from(&from);
    let meta = read_meta(&from_path).map_err(|e| format!("{from}: {e}"))?;
    let net = load(&meta.circuit)?;
    let text = bench::write(&net).map_err(|e| e.to_string())?;
    let have = fnv1a64(text.as_bytes());
    if have != meta.fingerprint {
        return Err(format!(
            "{from}: circuit `{}` does not match the checkpoint \
             (fingerprint {have:#018x}, checkpoint records {:#018x}) — \
             was the netlist edited or replaced?",
            meta.circuit, meta.fingerprint
        ));
    }
    let order = parse_order_token(&meta.order)?;
    let mut opts = parse_opts(args)?;
    let result_out = flag_value(args, "--result-out");
    // An interrupted resume checkpoints over its own input by default,
    // so repeated kill/resume cycles keep converging on one file.
    let durable = parse_durable(args, &net, order, &meta.circuit, Some(from_path.clone()))?;
    let trace = parse_trace(args, &format!("bfvr resume {}", net.name()))?;
    opts.trace.clone_from(&trace);
    let (mut m, fsm) = encode(&net, order)?;
    let (_, cp) = read_checkpoint(&from_path, &mut m).map_err(|e| format!("{from}: {e}"))?;
    outln!(
        "resuming {} on {} from iteration {}",
        cp.engine.label(),
        net.name(),
        cp.iterations
    );
    print_lane_header();
    in_run_span(trace.as_ref(), net.name(), || {
        with_interrupt_token(|cancel| {
            m.set_cancel_token(Some(Arc::clone(cancel)));
            if let Some(d) = &durable {
                d.arm(&mut opts);
            }
            let r = bfvr::reach::resume(&mut m, &fsm, &opts, cp);
            print_lane_row(r.engine.label(), &r);
            settle_durable(
                &m,
                &r,
                durable.as_deref(),
                result_out.as_deref(),
                cancel.load(Ordering::Relaxed),
            )
        })
    })
}

/// `bfvr serve`: replay the job directory's journal, then run every
/// non-terminal job to a terminal state under the supervised worker
/// pool (drain mode). Restart-safe by construction: killing the daemon
/// and rerunning `bfvr serve` picks up exactly where the journal ends.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    reject_unknown_flags(
        "serve",
        args,
        &[&["--dir", "--workers", "--max-attempts", "--job-timeout"]],
    )?;
    let dir = PathBuf::from(flag_value(args, "--dir").ok_or("serve needs --dir <dir>")?);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut cfg = SupervisorConfig::default();
    if let Some(s) = flag_value(args, "--workers") {
        cfg.workers = s.parse().map_err(|e| format!("bad --workers: {e}"))?;
        if cfg.workers == 0 {
            return Err("--workers must be at least 1".into());
        }
    }
    if let Some(s) = flag_value(args, "--max-attempts") {
        cfg.max_attempts = s.parse().map_err(|e| format!("bad --max-attempts: {e}"))?;
        if cfg.max_attempts == 0 {
            return Err("--max-attempts must be at least 1".into());
        }
    }
    let job_timeout = match flag_value(args, "--job-timeout") {
        None => None,
        Some(s) => Some(Duration::from_secs(
            s.parse().map_err(|e| format!("bad --job-timeout: {e}"))?,
        )),
    };
    let bfvr_bin =
        std::env::current_exe().map_err(|e| format!("cannot locate the bfvr binary: {e}"))?;
    let runner = ProcessRunner {
        bfvr_bin,
        dir: dir.clone(),
        job_timeout,
        term_grace: Duration::from_secs(5),
    };
    let sup = Supervisor::new(&dir, cfg, runner).map_err(|e| e.to_string())?;
    sup.drain().map_err(|e| e.to_string())?;
    // The supervisor owns its journal; re-replay the file for the
    // summary — which doubles as a standing test that the journal a
    // drain leaves behind is replayable.
    let ledger = replay(&dir.join("journal.jsonl")).map_err(|e| e.to_string())?;
    outln!(
        "{:12} {:>11} {:>8} {:>14} {:>7}",
        "job",
        "phase",
        "attempts",
        "states",
        "iters"
    );
    for id in ledger.job_ids() {
        let Some(j) = ledger.get(id) else { continue };
        outln!(
            "{:12} {:>11} {:>8} {:>14} {:>7}",
            id,
            j.phase.label(),
            j.attempts,
            j.states.map_or_else(|| "-".to_string(), |s| format!("{s}")),
            j.iterations
                .map_or_else(|| "-".to_string(), |i| i.to_string()),
        );
        if let Some(reason) = &j.reason {
            outln!("  {id}: {reason}");
        }
    }
    Ok(())
}

/// `bfvr submit`: validate and journal one job for `bfvr serve`.
/// Submission is append-only and first-wins per id, so re-running a
/// submit script after a crash is harmless. Every flag is validated
/// before the directory or its journal is created, so a rejected submit
/// leaves nothing behind.
fn cmd_submit(args: &[String]) -> Result<(), String> {
    reject_unknown_flags(
        "submit",
        args,
        &[&[
            "--dir",
            "--id",
            "--engine",
            "--order",
            "--priority",
            "--node-limit",
            "--time-limit",
            "--checkpoint-every",
            "--fault",
        ]],
    )?;
    let circuit = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .ok_or("submit needs a circuit (file or gen:SPEC) before the flags")?
        .clone();
    // Fail bad circuits here, not in a worker three retries deep.
    let _ = load(&circuit)?;
    let dir = PathBuf::from(flag_value(args, "--dir").ok_or("submit needs --dir <dir>")?);
    // The id is assigned once the journal is open.
    let mut spec = JobSpec::new("", &circuit);
    if let Some(e) = flag_value(args, "--engine") {
        spec.engine = e.to_ascii_lowercase();
    }
    let engine = EngineKind::parse(&spec.engine)
        .ok_or_else(|| format!("unknown engine `{}`", spec.engine))?;
    if let Some(o) = flag_value(args, "--order") {
        parse_order_token(&o)?;
        spec.order = o;
    }
    if let Some(p) = flag_value(args, "--priority") {
        spec.priority = p.parse().map_err(|e| format!("bad --priority: {e}"))?;
    }
    if let Some(n) = flag_value(args, "--node-limit") {
        spec.node_limit = Some(n.parse().map_err(|e| format!("bad --node-limit: {e}"))?);
    }
    if let Some(t) = flag_value(args, "--time-limit") {
        spec.time_limit_secs = Some(t.parse().map_err(|e| format!("bad --time-limit: {e}"))?);
    }
    if let Some(n) = flag_value(args, "--checkpoint-every") {
        spec.checkpoint_every = n
            .parse()
            .map_err(|e| format!("bad --checkpoint-every: {e}"))?;
        if spec.checkpoint_every == 0 {
            return Err("--checkpoint-every must be at least 1".into());
        }
    }
    if let Some(f) = flag_value(args, "--fault") {
        spec.fault = Some(f);
        if spec.kill_at_iteration().is_none() {
            return Err("bad --fault (expected kill@K)".into());
        }
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut journal = Journal::open(&dir.join("journal.jsonl")).map_err(|e| e.to_string())?;
    let id = match flag_value(args, "--id") {
        Some(id) => id,
        None => format!("job{}", journal.ledger().job_ids().len() + 1),
    };
    if journal.ledger().get(&id).is_some() {
        outln!("job {id} is already journaled (ids are first-wins)");
        return Ok(());
    }
    spec.id.clone_from(&id);
    journal
        .append(&id, "submitted", vec![("spec", spec.to_json())])
        .map_err(|e| e.to_string())?;
    outln!(
        "submitted job {id}: {} ({}, order {}, priority {})",
        circuit,
        engine.label(),
        spec.order,
        spec.priority
    );
    Ok(())
}

/// `bfvr audit`: run the selected engines with a per-iteration observer
/// that feeds every intermediate set — and each engine's final reached
/// set — through the full `bfvr-audit` pass battery, then print the
/// findings compiler-style, sorted by severity then pass. Exits nonzero
/// on any error-severity finding, or when a lane ended short of its
/// fixed point.
fn cmd_audit(args: &[String]) -> Result<(), String> {
    reject_unknown_flags(
        "audit",
        args,
        &[
            LIMIT_FLAGS,
            SIFT_FLAGS,
            &["--engine", "--order", "--selftest"],
        ],
    )?;
    let net = load(args.get(1).ok_or("audit needs a file")?)?;
    let order = parse_order(args)?;
    let base_opts = parse_opts(args)?;
    let engines = parse_engines(args, &EngineKind::all())?;
    let report = Rc::new(RefCell::new(Report::new()));
    let inconclusive = Rc::new(Cell::new(0usize));
    // Lanes that ended before their fixed point: their audit covers only
    // the iterations they reached.
    let mut stopped = Vec::new();

    for lane in engines.into_iter().map(Lane::native) {
        let (mut m, fsm) = encode(&net, order)?;
        let mut opts = base_opts.clone();
        opts.observer = Some(iteration_auditor(&report, &inconclusive));
        let r = run_engine(lane.engine, &mut m, &fsm, &opts);
        // Final audit of the engine's end state, through the χ the result
        // carries (also exercising the χ→BFV converter one more time).
        if let Some(chi) = &r.reached_chi {
            let space = fsm.space();
            let scope = format!("{}/final", lane.label());
            run_passes(
                &mut m,
                &AuditTargets::for_chi(&space, chi.bdd()),
                &scope,
                &mut report.borrow_mut(),
            )
            .map_err(|e| format!("{scope}: audit aborted: {e}"))?;
        }
        outln!(
            "{:10} {:>6} {:>5} iteration(s), {} state(s), audited",
            lane_cell(lane, &base_opts),
            r.outcome.label(),
            r.iterations,
            states_cell(r.reached_states),
        );
        if r.outcome != Outcome::FixedPoint {
            stopped.push(format!(
                "{} ended {} after {} iteration(s)",
                lane.label(),
                r.outcome.label(),
                r.iterations
            ));
        }
    }

    if args.iter().any(|a| a == "--selftest") {
        // The mutation harness, seeded with the circuit's own reached set
        // (converted to a canonical vector) so the corruptions act on
        // realistic structure.
        let (mut m, fsm) = encode(&net, order)?;
        let r = run_engine(EngineKind::Bfv, &mut m, &fsm, &ReachOptions::default());
        let chi = r
            .reached_chi
            .as_ref()
            .ok_or("self-test: reachability produced no reached set")?;
        let space = fsm.space();
        let clean = bfvr::bfv::convert::from_characteristic(&mut m, &space, chi.bdd())
            .map_err(|e| e.to_string())?
            .ok_or("self-test: empty reached set")?;
        let outcomes = run_mutations(&mut m, &space, &clean).map_err(|e| e.to_string())?;
        let heading = format!("mutation self-test over {}'s reached set:", net.name());
        print_selftest(&heading, 22, "self-test", &outcomes)?;
    }

    let report = report.borrow();
    for f in report.sorted() {
        outln!("{f}");
    }
    if let Some(note) = inconclusive_note(inconclusive.get()) {
        outln!("{note}");
    }
    print_tally("audit", &report);
    if report.has_errors() {
        return Err("audit found error-severity findings".into());
    }
    if !stopped.is_empty() {
        return Err(format!(
            "audit incomplete: {}; it audited only the iterations reached",
            stopped.join(", ")
        ));
    }
    Ok(())
}

/// `bfvr audit`'s per-iteration observer: [`audit_iteration`] into
/// `report`, counting in `inconclusive` each audit a BDD error cut short
/// (possible only under injected faults) instead of failing it.
fn iteration_auditor(
    report: &Rc<RefCell<Report>>,
    inconclusive: &Rc<Cell<usize>>,
) -> IterationObserver {
    let (report, inconclusive) = (Rc::clone(report), Rc::clone(inconclusive));
    Rc::new(move |m, fsm, view| {
        if audit_iteration(m, fsm, view, &mut report.borrow_mut()).is_err() {
            inconclusive.set(inconclusive.get() + 1);
        }
    })
}

/// The note `bfvr audit` prints under its findings when `n` iteration
/// audits were inconclusive.
fn inconclusive_note(n: usize) -> Option<String> {
    (n > 0).then(|| format!("note: {n} iteration audit(s) were inconclusive (resource-limited)"))
}

/// Prints the closing `<tool>: N finding(s) — …` tally of a report.
fn print_tally<P: PassId, W>(tool: &str, report: &diag::Report<P, W>) {
    outln!(
        "{tool}: {} finding(s) — {} error(s), {} warning(s), {} note(s)",
        report.len(),
        report.count_at(Severity::Error),
        report.count_at(Severity::Warning),
        report.count_at(Severity::Info),
    );
}

/// Prints a mutation self-test table (`--selftest` of `bfvr audit` and
/// `bfvr lint`) with labels padded to `width`, and fails with
/// `err_prefix` unless every seeded corruption was detected.
fn print_selftest<P: PassId>(
    heading: &str,
    width: usize,
    err_prefix: &str,
    outcomes: &[MutationOutcome<P>],
) -> Result<(), String> {
    outln!("{heading}");
    for o in outcomes {
        outln!(
            "  {:width$} -> {} by {}{} ({} finding(s))",
            o.label,
            if o.fired { "detected" } else { "NOT DETECTED" },
            o.expected.id(),
            if o.with_witness { ", with witness" } else { "" },
            o.findings,
        );
    }
    let undetected = outcomes.iter().filter(|o| !o.fired).count();
    if undetected > 0 {
        return Err(format!(
            "{err_prefix}: {undetected} corruption(s) went undetected"
        ));
    }
    Ok(())
}

/// `bfvr lint`: run the `bfvr-nlint` pass battery over the netlist and
/// print the findings compiler-style, sorted by severity then pass.
/// `--fix` writes the lint-gated simplification as `.bench`; `--selftest`
/// runs the netlist mutation harness. Exits nonzero iff any
/// error-severity finding (mirroring `bfvr audit`).
fn cmd_lint(args: &[String]) -> Result<(), String> {
    reject_unknown_flags("lint", args, &[&["--fix", "--prune", "--selftest"]])?;
    let net = load(args.get(1).ok_or("lint needs a file")?)?;
    let report = bfvr::nlint::run_passes(&net);
    for f in report.sorted() {
        outln!("{f}");
    }
    print_tally("lint", &report);
    let prune = args.iter().any(|a| a == "--prune");
    match flag_value(args, "--fix") {
        None if prune => return Err("--prune requires --fix".into()),
        None => {}
        Some(out) => {
            let s = bfvr::nlint::simplify_with(
                &net,
                bfvr::nlint::SimplifyOptions { prune_dead: prune },
            )
            .map_err(|e| e.to_string())?;
            let before = net.stats();
            let after = s.netlist.stats();
            outln!(
                "fix: {} -> {} ({} latch(es) folded, {} dead latch(es) dropped, \
                 {} duplicate gate(s) merged, {} gate(s) pruned)",
                before,
                after,
                s.folded_latches.len(),
                s.dead_latches.len(),
                s.merged_gates,
                s.pruned_gates,
            );
            if !s.dead_latches.is_empty() {
                outln!(
                    "note: dead-latch pruning projects the state space — reached-state \
                     counts are no longer comparable to the original"
                );
            }
            let text = bench::write(&s.netlist).map_err(|e| e.to_string())?;
            std::fs::write(&out, text).map_err(|e| format!("{out}: {e}"))?;
            outln!("fix: wrote {out}");
        }
    }
    if args.iter().any(|a| a == "--selftest") {
        let outcomes = bfvr::nlint::run_mutations(&net).map_err(|e| e.to_string())?;
        let heading = format!("netlist mutation self-test on {}:", net.name());
        print_selftest(&heading, 16, "lint self-test", &outcomes)?;
    }
    if report.has_errors() {
        return Err("lint found error-severity findings".into());
    }
    Ok(())
}

/// Parses a latch-order cube string (`1`, `0`, `x`/`-`) into component
/// order for the given encoding, as the set of states it matches.
fn cube_set(cube: &str, m: &BddManager, fsm: &EncodedFsm) -> Result<StateSet, String> {
    let bits: Vec<Option<bool>> = cube
        .chars()
        .map(|c| match c {
            '1' => Ok(Some(true)),
            '0' => Ok(Some(false)),
            'x' | 'X' | '-' => Ok(None),
            other => Err(format!("bad cube character `{other}`")),
        })
        .collect::<Result<_, _>>()?;
    if bits.len() != fsm.num_latches() {
        return Err(format!(
            "cube has {} bits but the circuit has {} latches",
            bits.len(),
            fsm.num_latches()
        ));
    }
    let pattern: Vec<_> = (0..bits.len())
        .map(|c| bits[fsm.latch_of_component(c)])
        .collect();
    StateSet::from_cube(m, &fsm.space(), &pattern).map_err(|e| e.to_string())
}

fn cmd_check(args: &[String]) -> Result<(), String> {
    reject_unknown_flags("check", args, &[LIMIT_FLAGS, &["--bad"]])?;
    let net = load(args.get(1).ok_or("check needs a file")?)?;
    let cube = flag_value(args, "--bad").ok_or("check needs --bad <cube>")?;
    let opts = parse_opts(args)?;
    let (mut m, fsm) = encode(&net, OrderHeuristic::DfsFanin)?;
    let bad = cube_set(&cube, &m, &fsm)?;
    match check_invariant(&mut m, &fsm, &bad, &opts).map_err(|e| e.to_string())? {
        CheckResult::Holds { iterations } => {
            outln!("HOLDS: no state matching {cube} is reachable ({iterations} images)");
        }
        CheckResult::Violated { depth, witness } => {
            let latch_bits = to_latch_order(&fsm, &witness);
            outln!("VIOLATED at depth {depth}: state {}", bits_str(&latch_bits));
            return Err("invariant violated".into());
        }
    }
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    reject_unknown_flags("trace", args, &[LIMIT_FLAGS, &["--to"]])?;
    let net = load(args.get(1).ok_or("trace needs a file")?)?;
    let cube = flag_value(args, "--to").ok_or("trace needs --to <cube>")?;
    let opts = parse_opts(args)?;
    let (mut m, fsm) = encode(&net, OrderHeuristic::DfsFanin)?;
    let target = cube_set(&cube, &m, &fsm)?;
    match find_trace(&mut m, &fsm, &target, &opts).map_err(|e| e.to_string())? {
        None => {
            outln!("UNREACHABLE: no state matching {cube} is reachable");
        }
        Some(trace) => {
            outln!("reached {cube} in {} steps:", trace.depth());
            let input_names: Vec<&str> = net.inputs().iter().map(|&s| net.signal_name(s)).collect();
            outln!(
                "  state {}",
                bits_str(&to_latch_order(&fsm, &trace.states[0]))
            );
            for (i, inp) in trace.inputs.iter().enumerate() {
                let pairs: Vec<String> = input_names
                    .iter()
                    .zip(inp)
                    .map(|(n, &b)| format!("{n}={}", u8::from(b)))
                    .collect();
                outln!("  step {:3}: {}", i + 1, pairs.join(" "));
                outln!(
                    "  state {}",
                    bits_str(&to_latch_order(&fsm, &trace.states[i + 1]))
                );
            }
        }
    }
    Ok(())
}

/// `bfvr report`: render a `--trace-out` JSONL trace as per-engine
/// timeline tables. Any schema violation (bad line, missing or
/// unsupported `meta` header) exits nonzero, so CI can use the command
/// as a trace validator.
fn cmd_report(args: &[String]) -> Result<(), String> {
    reject_unknown_flags("report", args, &[&["--format"]])?;
    let path = args.get(1).ok_or("report needs a trace file")?;
    let format = match flag_value(args, "--format").as_deref() {
        None | Some("text") => Format::Text,
        Some("md" | "markdown") => Format::Markdown,
        Some(other) => return Err(format!("unknown format `{other}` (expected text|md)")),
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let events = bfvr::obs::parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
    // Reports get piped into pagers and `head`; a closed pipe is not an
    // error worth panicking over.
    out!("{}", bfvr::obs::render(&events, format));
    Ok(())
}

fn to_latch_order(fsm: &EncodedFsm, comp_state: &[bool]) -> Vec<bool> {
    let mut latch = vec![false; comp_state.len()];
    for (c, &b) in comp_state.iter().enumerate() {
        latch[fsm.latch_of_component(c)] = b;
    }
    latch
}

fn bits_str(bits: &[bool]) -> String {
    bits.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use bfvr::bdd::FaultPlan;

    /// An iteration audit that a fault cuts short is counted, not
    /// failed, and `bfvr audit` notes the count under its findings.
    #[test]
    fn a_faulted_iteration_audit_is_noted_as_inconclusive() {
        let (mut m, fsm) = encode(&generators::counter(4), OrderHeuristic::DfsFanin).unwrap();
        let report = Rc::new(RefCell::new(Report::new()));
        let inconclusive = Rc::new(Cell::new(0));
        let audit = iteration_auditor(&report, &inconclusive);
        let opts = ReachOptions {
            observer: Some(Rc::new(move |m, fsm, view| {
                if view.iteration == 2 {
                    m.set_fault_plan(FaultPlan::node_limit_at(1));
                }
                audit(m, fsm, view);
            })),
            ..ReachOptions::default()
        };
        let r = run_engine(EngineKind::Bfv, &mut m, &fsm, &opts);
        assert_eq!(r.outcome, Outcome::MemOut);
        assert_eq!(inconclusive.get(), 1);
        assert!(!report.borrow().has_errors());
        assert_eq!(
            inconclusive_note(inconclusive.get()).as_deref(),
            Some("note: 1 iteration audit(s) were inconclusive (resource-limited)")
        );
        assert_eq!(inconclusive_note(0), None);
    }
}
