//! The pqe benchmark: one workload per process.
//!
//! ```text
//! pqebench --workload cq-batch|rpq-batch|serve-live --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics. With
//! `--trace 1` it splits the time between untraced and traced work
//! (alternating rounds in the batches; an untraced, a traced and an
//! untraced third in serve-live) and
//! prints the per-layer metrics plus the tracing overhead. The last line
//! of standard output is the result object; the line before it counts
//! the failed operations by kind.

mod common;
mod cq_batch;
mod gen;
mod layers;
mod reference;
mod rpq_batch;
mod serve_live;
mod trace;

use common::{mean, median, ms, peak_rss_mb, print_result, quantile, Metrics, Ops};
use layers::Layers;
use std::time::Instant;
use trace::Tracer;

/// The `ε` of every FPRAS answer the benchmark asks for.
pub const EPSILON: f64 = 0.2;

/// A set-up burst: at least [`BURST_MIN_REPEATS`] set-ups, and more
/// until [`BURST_MIN_SECONDS`] have passed, at most [`BURST_MAX_REPEATS`].
const BURST_MIN_REPEATS: usize = 3;
const BURST_MIN_SECONDS: f64 = 0.15;
const BURST_MAX_REPEATS: usize = 100;

/// The set-up times of a workload. A run takes them in bursts spread over
/// its whole length (one before the window, one after each round or part
/// of it), so that a slow or fast phase of the host, which lasts a few
/// seconds, moves only a share of them; `setup_s` is their median.
#[derive(Default)]
pub struct Setup {
    times: Vec<f64>,
}

impl Setup {
    /// Runs `f` in a burst and returns its last result; `discard` takes
    /// the others, outside the timed part.
    pub fn burst<T>(&mut self, mut f: impl FnMut() -> T, mut discard: impl FnMut(T)) -> T {
        let start = Instant::now();
        let mut n = 0;
        loop {
            let t0 = Instant::now();
            let last = f();
            self.times.push(t0.elapsed().as_secs_f64());
            n += 1;
            if n >= BURST_MAX_REPEATS
                || (n >= BURST_MIN_REPEATS && start.elapsed().as_secs_f64() >= BURST_MIN_SECONDS)
            {
                return last;
            }
            discard(last);
        }
    }

    pub fn median_s(&self) -> f64 {
        median(&self.times)
    }
}

/// What one measured window of a batch workload produced.
#[derive(Default)]
pub struct BatchRun {
    pub ops: Ops,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub fpras_ms: Vec<f64>,
    pub exact_ms: Vec<f64>,
    /// Answer latencies by input class, for the stderr summary.
    pub by_class: std::collections::BTreeMap<String, Vec<f64>>,
    /// Largest relative error of an FPRAS answer, as a share of `ε`.
    pub worst_err: f64,
    /// NFTA counter increments over the traced FPRAS answers (see
    /// [`layers::FPRAS_COUNTERS`]).
    pub counters: [u64; 4],
    /// Automaton sizes of the traced FPRAS plans, and their metric name.
    pub states: Vec<f64>,
    pub states_metric: &'static str,
}

impl BatchRun {
    /// Prints the median latency of each input class to stderr.
    pub fn summarize(&self) {
        eprintln!("  worst FPRAS error: {:.3} of epsilon", self.worst_err);
        for (class, v) in &self.by_class {
            eprintln!(
                "  {class:14} {:5} answers, median {:9.3} ms",
                v.len(),
                median(v)
            );
        }
    }

    pub fn merge(&mut self, other: BatchRun) {
        self.ops.merge(other.ops);
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
        self.fpras_ms.extend(other.fpras_ms);
        self.exact_ms.extend(other.exact_ms);
        for (class, v) in other.by_class {
            self.by_class.entry(class).or_default().extend(v);
        }
        self.worst_err = self.worst_err.max(other.worst_err);
        for (a, b) in self.counters.iter_mut().zip(other.counters) {
            *a += b;
        }
        self.states.extend(other.states);
        self.states_metric = other.states_metric;
    }

    /// The counter- and size-based layer metrics of a traced run.
    fn layers(&self) -> Layers {
        let mut layers = Layers::default();
        let answers = self.fpras_ms.len() as f64;
        if answers > 0.0 {
            for ((name, _), c) in layers::FPRAS_COUNTERS.iter().zip(self.counters) {
                layers.set(name, c as f64 / answers);
            }
        }
        layers.derive_yield();
        layers.set(self.states_metric, mean(&self.states));
        layers
    }

    pub fn answers_per_s(&self) -> f64 {
        (self.ops.attempted - self.ops.failed()) as f64 / self.wall_s
    }

    /// The end-to-end metrics every workload reports.
    pub fn end_to_end(&self, setup: &Setup) -> Metrics {
        let mut m = Metrics::default();
        m.put("setup_s", setup.median_s(), "s");
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
        m.put("answers_per_s", self.answers_per_s(), "1/s");
        m.put("fpras_p50_ms", quantile(&self.fpras_ms, 0.5), "ms");
        m.put("fpras_p90_ms", quantile(&self.fpras_ms, 0.9), "ms");
        m.put("exact_p50_ms", quantile(&self.exact_ms, 0.5), "ms");
        m
    }
}

/// A prepared batch workload.
pub struct Prepared {
    /// Loads the inputs from their text form once more: one set-up.
    pub load: Box<dyn FnMut(&mut Tracer)>,
    /// Answers one round of the workload's operations.
    pub round: Box<dyn FnMut(&mut Tracer) -> BatchRun>,
}

/// Runs a batch workload in whole rounds until `seconds` of answering
/// have passed. Untraced, a set-up burst follows each round, outside the
/// answering time. Traced, untraced and traced rounds alternate, so that
/// the tracing overhead is measured on interleaved rounds and drift of
/// the host cancels out.
fn run_batch(
    prepare: impl FnOnce(u64, &mut Setup, &mut Tracer) -> Prepared,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> (Ops, Metrics) {
    let mut tr = Tracer::new(trace);
    let mut setup = Setup::default();
    let Prepared { mut load, mut round } = prepare(seed, &mut setup, &mut tr);
    if !trace {
        let mut run = BatchRun::default();
        let mut quiet = Tracer::new(false);
        while run.wall_s < seconds {
            run.merge(round(&mut quiet));
            setup.burst(|| load(&mut quiet), drop);
        }
        run.summarize();
        let m = run.end_to_end(&setup);
        return (run.ops, m);
    }
    let mut plain = BatchRun::default();
    let mut traced = BatchRun::default();
    while plain.wall_s + traced.wall_s < seconds {
        plain.merge(round(&mut Tracer::new(false)));
        traced.merge(round(&mut tr));
    }
    let st = tr.self_times_ms();
    let mut layers = traced.layers();
    for (name, span) in [
        ("db.load_ms", "db.load"),
        ("graph.load_ms", "graph.load"),
        ("core.compile_ms", "core.compile"),
        ("core.lifted_ms", "core.lifted"),
        ("automata.count_nfta_ms", "automata.count_nfta"),
        ("graph.compile_ms", "graph.compile"),
        ("automata.count_nfa_ms", "automata.count_nfa"),
        ("graph.enum_ms", "graph.enum"),
    ] {
        layers.span_median(name, &st, span);
    }
    layers.set("par.cpu_per_wall", traced.cpu_s / traced.wall_s);
    layers.set(
        "obs.trace_overhead_pct",
        (plain.answers_per_s() / traced.answers_per_s() - 1.0) * 100.0,
    );
    let mut ops = plain.ops;
    ops.merge(traced.ops);
    (ops, layers.into_metrics())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == key)
            .ok_or_else(|| format!("missing {key}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{key} needs a value"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must lie in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: get("--workload")?.to_owned(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pqebench: {e}\nusage: pqebench --workload cq-batch|rpq-batch|serve-live --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let t0 = Instant::now();
    let steal0 = common::steal_ticks();
    let (ops, metrics) = match args.workload.as_str() {
        "cq-batch" => run_batch(cq_batch::prepare, args.seed, args.seconds, args.trace),
        "rpq-batch" => run_batch(rpq_batch::prepare, args.seed, args.seconds, args.trace),
        "serve-live" => serve_live::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("pqebench: unknown workload {other:?} (cq-batch, rpq-batch, serve-live)");
            std::process::exit(2);
        }
    };
    let steal1 = common::steal_ticks();
    let steal = (steal1.0 - steal0.0) as f64 / (steal1.1 - steal0.1).max(1) as f64;
    eprintln!(
        "pqebench: {} finished in {:.1} ms; host steal {:.1}% of CPU time",
        args.workload,
        ms(t0.elapsed()),
        steal * 100.0
    );
    print_result(&ops, &metrics);
}
