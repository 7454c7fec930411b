//! Shared plumbing: the seeded generator, order statistics, process
//! resource readings, operation accounting and the result line.

use std::collections::BTreeMap;
use std::time::Duration;

/// SplitMix64: the benchmark's own seeded generator, so the inputs do not
/// depend on the random-number crate under test.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of a seed.
    pub fn stream(seed: u64, tag: u64) -> Rng {
        let mut r = Rng(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A probability `w/d` with `d ∈ {2, 3, 4}` and `0 < w < d`: the
    /// denominators stay small so exact references fit in `u128`.
    pub fn prob(&mut self) -> (u64, u64) {
        let d = 2 + self.below(3);
        (1 + self.below(d - 1), d)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics (0 for an empty sample).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn proc_status_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Peak resident set size of this process, MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") / 1024.0
}

/// User + system CPU time of this process (all threads), seconds.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (100 Hz on Linux).
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

/// Machine-wide `(steal, total)` CPU ticks from `/proc/stat`: on a
/// virtual machine, steal is time the host gave this machine's CPUs to
/// other tenants, which slows every wall-clock figure.
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpu: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (cpu.get(7).copied().unwrap_or(0), cpu.iter().sum())
}

/// Why an operation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fail {
    Overloaded,
    Timeout,
    EvalError,
    WrongAnswer,
}

impl Fail {
    pub const ALL: [Fail; 4] = [
        Fail::Overloaded,
        Fail::Timeout,
        Fail::EvalError,
        Fail::WrongAnswer,
    ];

    pub fn tag(self) -> &'static str {
        match self {
            Fail::Overloaded => "overloaded",
            Fail::Timeout => "timeout",
            Fail::EvalError => "eval_error",
            Fail::WrongAnswer => "wrong_answer",
        }
    }

    /// The kind of a structured serve error tag.
    pub fn from_wire(tag: &str) -> Fail {
        match tag {
            "overloaded" => Fail::Overloaded,
            "timeout" => Fail::Timeout,
            _ => Fail::EvalError,
        }
    }
}

/// Operations attempted and failed, by kind; the first few failure
/// messages go to stderr so a miss can be diagnosed.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    failed: BTreeMap<Fail, u64>,
    reported: usize,
}

impl Ops {
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, kind: Fail, what: impl FnOnce() -> String) {
        *self.failed.entry(kind).or_default() += 1;
        if self.reported < 5 {
            self.reported += 1;
            eprintln!("failed ({}): {}", kind.tag(), what());
        }
    }

    pub fn failed(&self) -> u64 {
        self.failed.values().sum()
    }

    pub fn count(&self, kind: Fail) -> u64 {
        self.failed.get(&kind).copied().unwrap_or(0)
    }

    pub fn merge(&mut self, other: Ops) {
        self.attempted += other.attempted;
        for (k, v) in other.failed {
            *self.failed.entry(k).or_default() += v;
        }
    }
}

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_owned(), value, unit));
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Prints the per-kind operation line, then the result object as the
/// last line of standard output.
pub fn print_result(ops: &Ops, metrics: &Metrics) {
    let kinds: Vec<String> = Fail::ALL
        .iter()
        .map(|k| format!("\"{}\": {}", k.tag(), ops.count(*k)))
        .collect();
    println!(
        "ops {{\"attempted\": {}, {}}}",
        ops.attempted,
        kinds.join(", ")
    );
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                json_escape(n),
                json_escape(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.count(Fail::WrongAnswer) == 0,
        ops.attempted,
        ops.failed(),
        body.join(", ")
    );
}

/// Relative error of an estimate against a nonzero reference.
pub fn rel_err(estimate: f64, reference: f64) -> f64 {
    (estimate / reference - 1.0).abs()
}

/// Whether an FPRAS estimate within `(1 ± ε)` of `reference` may lie
/// above 1. The estimators do not clamp their answers to [0, 1], so on
/// such an input some seeds give an answer that is no probability; the
/// workloads leave these inputs out of their FPRAS mix, so that the share
/// of failed operations does not depend on the seed.
pub fn band_exceeds_one(reference: f64) -> bool {
    reference * (1.0 + crate::EPSILON) > 1.0
}

/// Whether an FPRAS estimate is a probability within `(1 ± ε)` of its
/// reference (and exactly 0 where the reference is 0).
pub fn in_band(estimate: f64, reference: f64) -> bool {
    (0.0..=1.0).contains(&estimate)
        && if reference == 0.0 {
            estimate == 0.0
        } else {
            rel_err(estimate, reference) <= crate::EPSILON
        }
}
