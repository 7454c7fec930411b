//! `cq-batch`: one-shot answers, each a parse + compile + execute the way
//! `pqe estimate` runs them, over a seeded mix of unsafe CQs (FPRAS
//! route) and safe hierarchical CQs (lifted route).

use crate::common::{band_exceeds_one, cpu_seconds, in_band, ms, rel_err, Fail, Ops, Rng};
use crate::gen::{cq_instance, CqInstance, Shape};
use crate::layers::fpras_counters;
use crate::reference::{cq_world_enum, nested_closed_form, star_closed_form};
use crate::trace::Tracer;
use crate::{BatchRun, Prepared, Setup, EPSILON};
use pqe_automata::FprasConfig;
use pqe_core::{Method, Route, RoutedAnswer, RoutedPlan};
use pqe_db::ProbDatabase;
use std::time::Instant;

/// Instances per unsafe shape and per safe shape in one round.
const UNSAFE_PER_SHAPE: u64 = 48;
const SAFE_PER_SHAPE: u64 = 16;

enum Reference {
    /// `Pr(Q)` of an FPRAS-route instance.
    Approx(f64),
    /// The exact answer of a lifted-route instance, as `Rational` prints it.
    Exact(String),
}

struct Op {
    inst: CqInstance,
    query: String,
    seed: u64,
    reference: Reference,
}

/// Exact `Pr(Q)`: own world enumeration where the lineage is small, the
/// library's lineage + model counting baseline otherwise.
fn unsafe_reference(inst: &CqInstance, h: &ProbDatabase) -> f64 {
    if let Some(f) = cq_world_enum(&inst.cq, &inst.facts) {
        return f.to_f64();
    }
    let q = pqe_query::parse(&inst.query_text("")).expect("benchmark query parses");
    let lineage = pqe_core::baselines::Lineage::build(&q, h.database(), 1 << 20);
    assert!(!lineage.truncated(), "reference lineage truncated");
    pqe_core::baselines::dnf_probability(lineage.clauses(), h).to_f64()
}

fn safe_reference(inst: &CqInstance) -> String {
    match inst.shape {
        Shape::Star2 => star_closed_form(&inst.facts, Some("A"), &["B"]),
        Shape::Star3 => star_closed_form(&inst.facts, Some("A"), &["B", "C"]),
        Shape::Nested => nested_closed_form(&inst.facts),
        _ => unreachable!("unsafe shape"),
    }
    .to_string()
}

fn pool(seed: u64) -> Vec<(CqInstance, u64)> {
    let mut probs = Rng::stream(seed, 1);
    let mut seeds = Rng::stream(seed, 2);
    let mut out = Vec::new();
    for shape in Shape::UNSAFE {
        for idx in 0..UNSAFE_PER_SHAPE {
            out.push((
                cq_instance(shape, shape.relations(), idx, &mut probs),
                seeds.next_u64(),
            ));
        }
    }
    for shape in Shape::SAFE {
        for idx in 0..SAFE_PER_SHAPE {
            out.push((
                cq_instance(shape, shape.relations(), idx, &mut probs),
                seeds.next_u64(),
            ));
        }
    }
    out
}

/// Loads every instance's database text.
fn load_all(texts: &[String], tr: &mut Tracer) -> Vec<ProbDatabase> {
    texts
        .iter()
        .map(|t| {
            let s = tr.enter("db.load");
            let h = pqe_db::io::load_str(t).expect("generated database parses");
            tr.exit(s);
            h
        })
        .collect()
}

pub fn prepare(seed: u64, setup: &mut Setup, tr: &mut Tracer) -> Prepared {
    let entries = pool(seed);
    let texts: Vec<String> = entries.iter().map(|(i, _)| i.db_text()).collect();
    let dbs = setup.burst(|| load_all(&texts, tr), drop);
    let total = entries.len();
    let mut ops: Vec<(Op, ProbDatabase)> = entries
        .into_iter()
        .zip(dbs)
        .map(|((inst, fseed), h)| {
            let reference = if inst.shape.is_safe() {
                Reference::Exact(safe_reference(&inst))
            } else {
                Reference::Approx(unsafe_reference(&inst, &h))
            };
            (
                Op {
                    query: inst.query_text(""),
                    inst,
                    seed: fseed,
                    reference,
                },
                h,
            )
        })
        .filter(|(op, _)| !matches!(op.reference, Reference::Approx(p) if band_exceeds_one(p)))
        .collect();
    eprintln!(
        "  left out {} of {total} inputs whose FPRAS band reaches above 1",
        total - ops.len()
    );
    Rng::stream(seed, 3).shuffle(&mut ops);
    Prepared {
        load: Box::new(move |tr| drop(load_all(&texts, tr))),
        round: Box::new(move |tr| round(&ops, tr)),
    }
}

/// Answers one round: every operation once, in the seeded order.
fn round(ops: &[(Op, ProbDatabase)], tr: &mut Tracer) -> BatchRun {
    let mut run = BatchRun {
        states_metric: "core.automaton_states",
        ..Default::default()
    };
    let cpu0 = cpu_seconds();
    let start = Instant::now();
        for (op, h) in ops {
            run.ops.attempt();
            let t0 = Instant::now();
            let answer = answer(op, h, tr, &mut run.counters, &mut run.states);
            let took = ms(t0.elapsed());
            run.by_class
                .entry(op.inst.shape.name().to_owned())
                .or_default()
                .push(took);
            match answer {
                Err((kind, msg)) => run.ops.fail(kind, || {
                    format!("{} {}: {msg}", op.inst.shape.name(), op.query)
                }),
                Ok(RoutedAnswer::Estimate(r)) => {
                    run.fpras_ms.push(took);
                    let est = r.probability.to_f64();
                    if let Reference::Approx(p) = op.reference {
                        run.worst_err = run.worst_err.max(rel_err(est, p) / EPSILON);
                    }
                    check_estimate(&mut run.ops, op, est);
                }
                Ok(RoutedAnswer::Exact(p)) => {
                    run.exact_ms.push(took);
                    match &op.reference {
                        Reference::Exact(want) if *want == p.to_string() => {}
                        _ => run.ops.fail(Fail::WrongAnswer, || {
                            format!("{}: exact {p} differs from the reference", op.query)
                        }),
                    }
                }
            }
        }
    run.wall_s = start.elapsed().as_secs_f64();
    run.cpu_s = cpu_seconds() - cpu0;
    run
}

fn check_estimate(ops: &mut Ops, op: &Op, est: f64) {
    match op.reference {
        Reference::Approx(p) if in_band(est, p) => {}
        Reference::Approx(p) => ops.fail(Fail::WrongAnswer, || {
            format!("{}: estimate {est} outside (1±{EPSILON})·{p} or [0, 1]", op.query)
        }),
        Reference::Exact(_) => ops.fail(Fail::WrongAnswer, || {
            format!("{}: safe query took the FPRAS route", op.query)
        }),
    }
}

fn answer(
    op: &Op,
    h: &ProbDatabase,
    tr: &mut Tracer,
    counters: &mut [u64; 4],
    states: &mut Vec<f64>,
) -> Result<RoutedAnswer, (Fail, String)> {
    let q = pqe_query::parse(&op.query).map_err(|e| (Fail::EvalError, e.to_string()))?;
    let span = tr.enter("core.compile");
    let plan =
        RoutedPlan::compile(&q, h, Method::Auto).map_err(|e| (Fail::EvalError, e.to_string()));
    tr.exit(span);
    let plan = plan?;
    let cfg = FprasConfig::with_epsilon(EPSILON)
        .with_seed(op.seed)
        .with_threads(0);
    match plan.decision.route {
        Route::Lifted => {
            tr.rename_last("core.lifted");
            Ok(plan.execute(&cfg))
        }
        Route::Fpras => {
            if !tr.is_on() {
                return Ok(plan.execute(&cfg));
            }
            states.push(plan.automaton_states() as f64);
            let before = fpras_counters();
            let span = tr.enter("automata.count_nfta");
            let a = plan.execute(&cfg);
            tr.exit(span);
            let after = fpras_counters();
            for i in 0..4 {
                counters[i] += after[i] - before[i];
            }
            Ok(a)
        }
    }
}
