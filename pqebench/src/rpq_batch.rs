//! `rpq-batch`: one-shot `GraphPlan` answers (parse + compile + execute,
//! as `pqe graph-estimate` runs them) over seeded road grids,
//! preferential-attachment DAGs and series-parallel DAGs. Graphs above
//! the enumeration bound take the FPRAS on the product NFA; the others
//! are enumerated.

use crate::common::{band_exceeds_one, in_band, ms, rel_err, Fail, Rng};
use crate::gen::{pref_attachment, road_grid, series_parallel, GraphInstance};
use crate::reference::{reach_frontier_dp, reach_world_enum, Frac};
use crate::trace::Tracer;
use crate::{BatchRun, Prepared, Setup, EPSILON};
use pqe_automata::FprasConfig;
use pqe_core::{GraphAnswer, GraphMethod, GraphPlan, GraphRoute};
use pqe_graph::ProbGraph;
use std::time::Instant;

/// Instances per family and size in one round.
const FPRAS_EACH: u64 = 12;
const ENUM_EACH: u64 = 10;

struct Op {
    inst: GraphInstance,
    rpq: String,
    seed: u64,
    reference: Frac,
}

/// Exact reliability: the closed form for series-parallel graphs, own
/// world enumeration for small graphs, the frontier program otherwise.
fn reference(g: &GraphInstance) -> Frac {
    let nv = g.names.len();
    match &g.sp {
        Some(sp) => sp.reliability(),
        None if g.edges.len() <= pqe_graph::MAX_ENUM_EDGES => {
            reach_world_enum(nv, &g.edges, g.s, g.t)
        }
        None => reach_frontier_dp(nv, &g.edges, g.s, g.t),
    }
}

fn pool(seed: u64) -> Vec<(GraphInstance, u64)> {
    let mut probs = Rng::stream(seed, 11);
    let mut seeds = Rng::stream(seed, 12);
    let mut out = Vec::new();
    let mut push = |g: GraphInstance, seeds: &mut Rng| out.push((g, seeds.next_u64()));
    for i in 0..FPRAS_EACH {
        push(road_grid(3, 4, &mut probs), &mut seeds);
        push(road_grid(3, 5, &mut probs), &mut seeds);
        push(road_grid(4, 4, &mut probs), &mut seeds);
        push(pref_attachment(12, 2, i, &mut probs), &mut seeds);
        push(series_parallel(20, i, &mut probs), &mut seeds);
        push(series_parallel(24, i, &mut probs), &mut seeds);
    }
    // Most enumerated graphs have 11 edges, so the median sits inside
    // one cost class; a few grids of 10 and 12 edges flank it.
    for i in 0..ENUM_EACH {
        push(pref_attachment(7, 2, 100 + i, &mut probs), &mut seeds);
        push(series_parallel(11, i, &mut probs), &mut seeds);
        if i % 2 == 0 {
            push(road_grid(3, 3, &mut probs), &mut seeds);
            push(road_grid(2, 4, &mut probs), &mut seeds);
        }
    }
    out
}

fn load_all(texts: &[String], tr: &mut Tracer) -> Vec<ProbGraph> {
    texts
        .iter()
        .map(|t| {
            let s = tr.enter("graph.load");
            let g = pqe_graph::load_str(t).expect("generated graph parses");
            tr.exit(s);
            g
        })
        .collect()
}

pub fn prepare(seed: u64, setup: &mut Setup, tr: &mut Tracer) -> Prepared {
    let entries = pool(seed);
    let texts: Vec<String> = entries.iter().map(|(g, _)| g.text()).collect();
    let graphs = setup.burst(|| load_all(&texts, tr), drop);
    let total = entries.len();
    let mut ops: Vec<(Op, ProbGraph)> = entries
        .into_iter()
        .zip(graphs)
        .map(|((inst, fseed), g)| {
            let reference = reference(&inst);
            (
                Op {
                    rpq: inst.rpq(),
                    inst,
                    seed: fseed,
                    reference,
                },
                g,
            )
        })
        .filter(|(op, _)| {
            op.inst.edges.len() <= pqe_graph::MAX_ENUM_EDGES
                || !band_exceeds_one(op.reference.to_f64())
        })
        .collect();
    eprintln!(
        "  left out {} of {total} inputs whose FPRAS band reaches above 1",
        total - ops.len()
    );
    Rng::stream(seed, 13).shuffle(&mut ops);
    Prepared {
        load: Box::new(move |tr| drop(load_all(&texts, tr))),
        round: Box::new(move |tr| round(&ops, tr)),
    }
}

/// Answers one round: every operation once, in the seeded order.
fn round(ops: &[(Op, ProbGraph)], tr: &mut Tracer) -> BatchRun {
    let mut run = BatchRun {
        states_metric: "graph.product_states",
        ..Default::default()
    };
    let cpu0 = crate::common::cpu_seconds();
    let start = Instant::now();
        for (op, g) in ops {
            run.ops.attempt();
            let t0 = Instant::now();
            let answer = answer(op, g, tr, &mut run.states);
            let took = ms(t0.elapsed());
            let class = format!("{}-{}", op.inst.family, op.inst.edges.len());
            run.by_class.entry(class).or_default().push(took);
            let what = || {
                format!(
                    "{} ({} edges) {}",
                    op.inst.family,
                    op.inst.edges.len(),
                    op.rpq
                )
            };
            match answer {
                Err(msg) => run
                    .ops
                    .fail(Fail::EvalError, || format!("{}: {msg}", what())),
                Ok(GraphAnswer::Estimate { probability, .. }) => {
                    run.fpras_ms.push(took);
                    let (est, p) = (probability.to_f64(), op.reference.to_f64());
                    let small = op.inst.edges.len() <= pqe_graph::MAX_ENUM_EDGES;
                    run.worst_err = run.worst_err.max(rel_err(est, p) / EPSILON);
                    if small || !in_band(est, p) {
                        run.ops.fail(Fail::WrongAnswer, || {
                            format!(
                                "{}: estimate {est} against {p} (small graph: {small})",
                                what()
                            )
                        });
                    }
                }
                Ok(GraphAnswer::Exact(p)) => {
                    run.exact_ms.push(took);
                    let want = op.reference.to_rational_string();
                    if p.to_string() != want {
                        run.ops.fail(Fail::WrongAnswer, || {
                            format!("{}: exact {p}, reference {want}", what())
                        });
                    }
                }
            }
        }
    run.wall_s = start.elapsed().as_secs_f64();
    run.cpu_s = crate::common::cpu_seconds() - cpu0;
    run
}

fn answer(
    op: &Op,
    g: &ProbGraph,
    tr: &mut Tracer,
    states: &mut Vec<f64>,
) -> Result<GraphAnswer, String> {
    let rpq = pqe_graph::parse(&op.rpq).map_err(|e| e.to_string())?;
    let span = tr.enter("graph.compile");
    let plan = GraphPlan::compile(g, &rpq, GraphMethod::Auto).map_err(|e| e.to_string());
    tr.exit(span);
    let plan = plan?;
    let cfg = FprasConfig::with_epsilon(EPSILON)
        .with_seed(op.seed)
        .with_threads(0);
    match plan.decision.route {
        // Enumeration runs inside compile: the exact value is the plan.
        GraphRoute::Enum => {
            tr.rename_last("graph.enum");
            Ok(plan.execute(&cfg))
        }
        GraphRoute::Fpras => {
            if tr.is_on() {
                states.push(plan.automaton_states() as f64);
            }
            let span = tr.enter("automata.count_nfa");
            let a = plan.execute(&cfg);
            tr.exit(span);
            Ok(a)
        }
    }
}
