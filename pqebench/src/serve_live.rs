//! `serve-live`: an in-process `pqe serve` with `ServeConfig::default()`,
//! started over a database and a graph, driven over two connections.
//!
//! * The batch connection keeps [`WINDOW`] cold FPRAS estimates
//!   outstanding (more than the workers, fewer than the queue depth).
//! * The interactive connection sends one request at a time: repeats of
//!   a hot estimate, cold safe queries, small-graph `graph_estimate`
//!   calls and `update` batches that touch only the hot query's
//!   relations.
//!
//! Answers are checked after the window, against in-process plans on a
//! mirror of the database state the updates built and against the
//! benchmark's own references.

use crate::common::{
    band_exceeds_one, cpu_seconds, in_band, mean, ms, peak_rss_mb, quantile, rel_err, Fail, Metrics, Ops, Rng,
};
use crate::gen::{
    cq_instance, cq_instance_sized, facts_text, road_grid, CqInstance, GraphInstance, Shape,
};
use crate::layers::{Layers, FPRAS_COUNTERS};
use crate::reference::{cq_world_enum, reach_world_enum, star_closed_form, PFact};
use crate::trace::Tracer;
use crate::{Setup, EPSILON};
use pqe_automata::FprasConfig;
use pqe_core::{GraphMethod, GraphPlan, Method, RoutedPlan};
use pqe_db::ProbDatabase;
use pqe_delta::{Delta, VersionedDb};
use pqe_graph::ProbGraph;
use pqe_serve::{Json, ServeConfig, Server};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Outstanding batch requests.
const WINDOW: usize = 8;
/// Parts of the untraced window; a set-up burst follows each.
const PARTS: u32 = 6;
/// Batch queries; a batch round asks each once, in a seeded order.
const BATCH_QUERIES: u64 = 48;

/// The interactive round: `H` hot estimate, `S` cold safe query, `G`
/// graph estimate, `U` probability update, `I` insert, `D` delete (of the
/// fact the round inserted).
const INTERACTIVE_ROUND: &str = "HSGHSGUHSGIHSGDHSGUH";

struct Inputs {
    db_text: String,
    graph_text: String,
    hot: CqInstance,
    hot_seed: u64,
    batch: Vec<(CqInstance, u64)>,
    safe: Vec<(CqInstance, String)>,
    /// `(rpq, exact reference)` in request order.
    graph_keys: Vec<(String, String)>,
    seed: u64,
}

fn inputs(seed: u64) -> Inputs {
    let mut probs = Rng::stream(seed, 21);
    // Wire seeds stay below 2^53: JSON numbers are doubles.
    let mut seed_rng = Rng::stream(seed, 22);
    let mut seeds = std::iter::repeat_with(move || seed_rng.next_u64() >> 11);
    // A small hot query: every worker recounts it after an update, so a
    // costly one would swamp the batch load with one seed's draw.
    let hot = cq_instance_sized(Shape::Path, &["H1", "H2", "H3"], 0, 3, &mut probs);
    // Batch queries are triangles, each over relations of its own (T3_1,
    // T3_2, T3_3, ...). One shape keeps their costs alike: with mixed
    // shapes, a slow estimate holds the connection's in-order replies and
    // the queue, and with it every latency, swings from run to run.
    let mut batch: Vec<(CqInstance, u64)> = (0..BATCH_QUERIES)
        .map(|i| {
            let rels: Vec<String> = (1..=3).map(|k| format!("T{i}_{k}")).collect();
            let rels: Vec<&str> = rels.iter().map(String::as_str).collect();
            let inst = cq_instance(Shape::Triangle, &rels, i, &mut probs);
            (inst, seeds.next().expect("endless"))
        })
        .collect();
    Rng::stream(seed, 25).shuffle(&mut batch);
    let star3 = cq_instance(Shape::Star3, Shape::Star3.relations(), 0, &mut probs);
    // The two-arm star reads the same A and B facts.
    let mut star2 = star3.clone();
    star2.shape = Shape::Star2;
    star2.cq.atoms.truncate(2);
    let safe = vec![
        (
            star2.clone(),
            star_closed_form(&star3.facts, Some("A"), &["B"]).to_string(),
        ),
        (
            star3.clone(),
            star_closed_form(&star3.facts, Some("A"), &["B", "C"]).to_string(),
        ),
    ];
    let mut db_text = facts_text(&hot.facts);
    for (b, _) in &batch {
        db_text.push_str(&facts_text(&b.facts));
    }
    db_text.push_str(&facts_text(&star3.facts));
    // The database keeps every batch query's facts; the queries whose
    // FPRAS band reaches above 1 are not asked (see `band_exceeds_one`).
    let total = batch.len();
    batch.retain(|(inst, _)| {
        let exact = cq_world_enum(&inst.cq, &inst.facts).expect("batch lineage is enumerable");
        !band_exceeds_one(exact.to_f64())
    });
    eprintln!(
        "  left out {} of {total} batch queries whose FPRAS band reaches above 1",
        total - batch.len()
    );
    let graph = road_grid(2, 3, &mut probs);
    let graph_keys = graph_keys(&graph, seed);
    Inputs {
        db_text,
        graph_text: graph.text(),
        hot,
        hot_seed: seeds.next().expect("endless"),
        batch,
        safe,
        graph_keys,
        seed,
    }
}

/// Spellings of one language: up to four of `road*`, `road?` and
/// `road`, with at least one `road*` and at most one `road`. Between two
/// distinct vertices each matches exactly the paths `road*` matches.
fn spellings() -> Vec<String> {
    const TOKENS: [&str; 3] = ["road*", "road?", "road"];
    let mut out = Vec::new();
    let mut seqs: Vec<Vec<&str>> = vec![vec![]];
    for _ in 0..4 {
        seqs = seqs
            .iter()
            .flat_map(|s| TOKENS.iter().map(move |t| [s.as_slice(), &[*t]].concat()))
            .collect();
        out.extend(
            seqs.iter()
                .filter(|s| s.contains(&"road*") && s.iter().filter(|t| **t == "road").count() <= 1)
                .map(|s| s.join(" ")),
        );
    }
    out
}

/// Every reachable vertex pair of the served grid under every spelling
/// (each spelling is its own plan-cache key), in seeded order, with its
/// exact reliability.
fn graph_keys(g: &GraphInstance, seed: u64) -> Vec<(String, String)> {
    let spellings = spellings();
    let nv = g.names.len();
    let mut keys = Vec::new();
    for s in 0..nv {
        for t in 0..nv {
            let reach = reach_world_enum(nv, &g.edges, s, t);
            if s == t || reach.num == 0 {
                continue;
            }
            for sp in &spellings {
                keys.push((
                    format!("{} -> {sp} -> {}", g.names[s], g.names[t]),
                    reach.to_rational_string(),
                ));
            }
        }
    }
    Rng::stream(seed, 23).shuffle(&mut keys);
    keys
}

/// One NDJSON client connection.
struct Conn {
    w: TcpStream,
    r: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let w = TcpStream::connect(addr).expect("connect to the served port");
        w.set_nodelay(true).expect("set TCP_NODELAY");
        let r = BufReader::new(w.try_clone().expect("clone the client socket"));
        Conn { w, r }
    }

    fn send(&mut self, line: &str) {
        self.w
            .write_all(format!("{line}\n").as_bytes())
            .expect("send a request");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.r.read_line(&mut line).expect("read a response");
        assert!(n > 0, "server closed the connection");
        line.trim_end().to_owned()
    }

    fn call(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }
}

fn estimate_line(query: &str, seed: u64) -> String {
    Json::obj([
        ("op", Json::str("estimate")),
        ("query", Json::str(query)),
        ("epsilon", Json::from(EPSILON)),
        ("seed", Json::from(seed)),
    ])
    .to_string()
}

fn field(resp: &Json, key: &str) -> String {
    match resp.get(key) {
        Some(Json::Str(s)) => s.clone(),
        Some(v) => v.to_string(),
        None => String::new(),
    }
}

/// The interactive stream's own model: the hot relations' facts after
/// each acknowledged update, and the update texts themselves.
struct InterState {
    /// `snapshots[k]`: the hot facts after `k` updates.
    snapshots: Vec<Vec<PFact>>,
    deltas: Vec<String>,
    graph_next: usize,
    safe_tag: u64,
    upd: Rng,
    inserted: Option<PFact>,
}

/// A running server and its two client connections.
struct Live {
    handle: JoinHandle<std::io::Result<()>>,
    batch: Conn,
    inter: Conn,
    batch_tag: u64,
    st: InterState,
}

/// Loads the inputs from their text form, binds, connects and waits for
/// the first answer: the set-up that `setup_s` times.
fn start(inp: &Inputs, tr: &mut Tracer) -> (Live, ProbDatabase) {
    let s = tr.enter("db.load");
    let h = pqe_db::io::load_str(&inp.db_text).expect("generated database parses");
    tr.exit(s);
    let s = tr.enter("graph.load");
    let g: ProbGraph = pqe_graph::load_str(&inp.graph_text).expect("generated graph parses");
    tr.exit(s);
    let server = Server::bind_with_graph(ServeConfig::default(), h.clone(), Some(g))
        .expect("bind the server");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    let batch = Conn::open(addr);
    let mut inter = Conn::open(addr);
    // The first answer: a classification, answered without counting, so
    // the set-up time is the service's and not one estimate's.
    let classify = Json::obj([
        ("op", Json::str("classify")),
        ("query", Json::str(inp.hot.query_text(""))),
    ]);
    let first = inter.call(&classify.to_string());
    assert!(
        first.contains("\"ok\":true"),
        "first answer failed: {first}"
    );
    let st = InterState {
        snapshots: vec![inp.hot.facts.clone()],
        deltas: Vec::new(),
        graph_next: 0,
        safe_tag: 0,
        upd: Rng::stream(inp.seed, 24),
        inserted: None,
    };
    (
        Live {
            handle,
            batch,
            inter,
            batch_tag: 0,
            st,
        },
        h,
    )
}

impl Live {
    /// Shuts the server down, waits for it, and hands back the stream's
    /// state.
    fn stop(mut self) -> InterState {
        let ack = self.inter.call("{\"op\":\"shutdown\"}");
        assert!(ack.contains("\"ok\":true"), "shutdown refused: {ack}");
        drop(self.batch);
        drop(self.inter);
        self.handle
            .join()
            .expect("server thread")
            .expect("server run");
        self.st
    }
}

/// What a request was, for checking and timing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Batch(usize),
    Hot,
    Safe(usize),
    Graph(usize),
    Update,
}

struct Resp {
    kind: Kind,
    rtt_ms: f64,
    body: String,
    /// Updates acknowledged before the request was sent.
    state: usize,
}

#[derive(Default)]
struct WindowRun {
    resps: Vec<Resp>,
    wall_s: f64,
    cpu_s: f64,
}

impl WindowRun {
    fn merge(&mut self, other: WindowRun) {
        self.resps.extend(other.resps);
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
    }
}

fn window(inp: &Inputs, live: &mut Live, seconds: f64) -> WindowRun {
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let Live {
        batch,
        inter,
        batch_tag,
        st,
        ..
    } = live;
    let resps = std::thread::scope(|sc| {
        let b = sc.spawn(|| batch_stream(inp, batch, batch_tag, start, seconds));
        let mut r = interactive_stream(inp, inter, st, start, seconds);
        r.extend(b.join().expect("batch stream"));
        r
    });
    let wall_s = start.elapsed().as_secs_f64();
    WindowRun {
        resps,
        wall_s,
        cpu_s: cpu_seconds() - cpu0,
    }
}

/// Keeps [`WINDOW`] cold FPRAS estimates outstanding, in whole rounds.
fn batch_stream(
    inp: &Inputs,
    conn: &mut Conn,
    tag: &mut u64,
    start: Instant,
    seconds: f64,
) -> Vec<Resp> {
    let mut out = Vec::new();
    let mut pending: VecDeque<(Instant, Kind)> = VecDeque::new();
    let mut sent = 0;
    let mut stop = false;
    loop {
        while !stop && pending.len() < WINDOW {
            if sent == inp.batch.len() {
                sent = 0;
                if start.elapsed().as_secs_f64() >= seconds {
                    stop = true;
                    break;
                }
            }
            let b = sent;
            *tag += 1;
            let (inst, seed) = &inp.batch[b];
            conn.send(&estimate_line(&inst.query_text(&format!("_b{tag}")), *seed));
            pending.push_back((Instant::now(), Kind::Batch(b)));
            sent += 1;
        }
        let Some((t0, kind)) = pending.pop_front() else {
            break;
        };
        let body = conn.recv();
        out.push(Resp {
            kind,
            rtt_ms: ms(t0.elapsed()),
            body,
            state: 0,
        });
    }
    out
}

fn update_line(delta: &str) -> String {
    Json::obj([("op", Json::str("update")), ("delta", Json::str(delta))]).to_string()
}

fn fact_atom(f: &PFact) -> String {
    format!("{}({})", f.rel, f.args.join(","))
}

/// Sends whole interactive rounds, one request at a time.
fn interactive_stream(
    inp: &Inputs,
    conn: &mut Conn,
    st: &mut InterState,
    start: Instant,
    seconds: f64,
) -> Vec<Resp> {
    let mut out = Vec::new();
    let hot_line = estimate_line(&inp.hot.query_text(""), inp.hot_seed);
    while start.elapsed().as_secs_f64() < seconds {
        for c in INTERACTIVE_ROUND.chars() {
            let mut facts = st.snapshots.last().expect("initial snapshot").clone();
            let (kind, line, next) = match c {
                'H' => (Kind::Hot, hot_line.clone(), None),
                'S' => {
                    st.safe_tag += 1;
                    let i = (st.safe_tag % inp.safe.len() as u64) as usize;
                    let q = inp.safe[i].0.query_text(&format!("_s{}", st.safe_tag));
                    (Kind::Safe(i), estimate_line(&q, 0), None)
                }
                'G' => {
                    let i = st.graph_next % inp.graph_keys.len();
                    st.graph_next += 1;
                    let line = Json::obj([
                        ("op", Json::str("graph_estimate")),
                        ("rpq", Json::str(inp.graph_keys[i].0.clone())),
                        ("epsilon", Json::from(EPSILON)),
                    ])
                    .to_string();
                    (Kind::Graph(i), line, None)
                }
                'U' => {
                    let i = st.upd.below(facts.len() as u64) as usize;
                    let (n, d) = st.upd.prob();
                    (facts[i].n, facts[i].d) = (n, d);
                    let delta = format!("~ {n}/{d} {}", fact_atom(&facts[i]));
                    (Kind::Update, update_line(&delta), Some((delta, facts)))
                }
                'I' => {
                    // A new H2 edge between existing layer-1 and layer-2
                    // constants, so the hot answer moves.
                    let f = loop {
                        let args = vec![
                            format!("l1_{}", st.upd.below(4)),
                            format!("l2_{}", st.upd.below(4)),
                        ];
                        if !facts.iter().any(|f| f.rel == "H2" && f.args == args) {
                            let (n, d) = st.upd.prob();
                            break PFact {
                                rel: "H2".into(),
                                args,
                                n,
                                d,
                            };
                        }
                    };
                    let delta = format!("+ {}/{} {}", f.n, f.d, fact_atom(&f));
                    facts.push(f.clone());
                    st.inserted = Some(f);
                    (Kind::Update, update_line(&delta), Some((delta, facts)))
                }
                'D' => {
                    let f = st.inserted.take().expect("the round inserted a fact first");
                    facts.retain(|g| !(g.rel == f.rel && g.args == f.args));
                    let delta = format!("- {}", fact_atom(&f));
                    (Kind::Update, update_line(&delta), Some((delta, facts)))
                }
                other => unreachable!("round letter {other}"),
            };
            let state = st.deltas.len();
            let t0 = Instant::now();
            let body = conn.call(&line);
            let rtt_ms = ms(t0.elapsed());
            if let Some((delta, facts)) = next {
                if body.contains("\"ok\":true") {
                    st.deltas.push(delta);
                    st.snapshots.push(facts);
                }
            }
            out.push(Resp {
                kind,
                rtt_ms,
                body,
                state,
            });
        }
    }
    out
}

/// Latencies of the checked, successful answers.
#[derive(Default)]
struct Latencies {
    /// Round trips by request class, for the stderr summary.
    by_class: std::collections::BTreeMap<&'static str, Vec<f64>>,
    answers: u64,
    fpras: Vec<f64>,
    exact: Vec<f64>,
    hit: Vec<f64>,
    refresh: Vec<f64>,
    update: Vec<f64>,
    batch_states: Vec<f64>,
}

/// The in-process answer of a routed plan, as the server prints it.
fn digits(plan: &RoutedPlan, seed: u64) -> (String, f64) {
    let cfg = FprasConfig::with_epsilon(EPSILON)
        .with_seed(seed)
        .with_threads(0);
    let v = plan.execute(&cfg).to_f64();
    (format!("{v:.6}"), v)
}

fn compile(q: &str, h: &ProbDatabase, epochs: &pqe_delta::Epochs) -> RoutedPlan {
    let q = pqe_query::parse(q).expect("benchmark query parses");
    RoutedPlan::compile_at(&q, h, Method::Auto, epochs).expect("benchmark query compiles")
}

/// Checks every response and collects the latencies of the good ones.
fn verify(
    inp: &Inputs,
    resps: &[Resp],
    h0: &ProbDatabase,
    st: &InterState,
    ops: &mut Ops,
    tr: &mut Tracer,
) -> Latencies {
    let mut lat = Latencies::default();
    // Batch references: in-process digits on the initial database (the
    // updates never touch the batch relations) and a band check of the
    // in-process value against the own enumeration.
    let empty = pqe_delta::Epochs::new();
    let mut worst: f64 = 0.0;
    let batch_ref: Vec<(String, bool)> = inp
        .batch
        .iter()
        .map(|(inst, seed)| {
            let plan = compile(&inst.query_text(""), h0, &empty);
            let (d, v) = digits(&plan, *seed);
            let exact = cq_world_enum(&inst.cq, &inst.facts)
                .expect("batch lineage is enumerable")
                .to_f64();
            worst = worst.max(rel_err(v, exact) / EPSILON);
            (d, in_band(v, exact))
        })
        .collect();
    // Hot references at every state the stream reached: a fresh compile on
    // the mirrored database, the own enumeration, and (traced) a plan kept
    // from state 0 and revalidated update by update.
    let mut mirror = VersionedDb::new(h0.clone());
    let hot_q = inp.hot.query_text("");
    let mut kept = tr
        .is_on()
        .then(|| compile(&hot_q, mirror.current(), mirror.epochs()));
    let needed_max = resps
        .iter()
        .filter(|r| r.kind == Kind::Hot)
        .map(|r| r.state)
        .max()
        .unwrap_or(0);
    let mut hot_ref: Vec<(String, bool)> = Vec::new();
    for k in 0..=needed_max {
        if k > 0 {
            let delta = Delta::parse_str(&st.deltas[k - 1]).expect("acknowledged delta parses");
            let s = tr.enter("delta.apply");
            mirror.apply(&delta).expect("acknowledged delta applies");
            tr.exit(s);
        }
        let fresh = compile(&hot_q, mirror.current(), mirror.epochs());
        let (d, v) = digits(&fresh, inp.hot_seed);
        let exact = cq_world_enum(&inp.hot.cq, &st.snapshots[k])
            .expect("hot lineage is enumerable")
            .to_f64();
        worst = worst.max(rel_err(v, exact) / EPSILON);
        let mut good = in_band(v, exact);
        if let Some(plan) = kept.as_mut() {
            let s = tr.enter("core.revalidate");
            plan.revalidate(mirror.current(), mirror.epochs())
                .expect("revalidate");
            tr.exit(s);
            good &= digits(plan, inp.hot_seed).0 == d;
        }
        hot_ref.push((d, good));
    }
    eprintln!("  worst FPRAS error: {worst:.3} of epsilon");
    for r in resps {
        ops.attempt();
        let v = match Json::parse(&r.body) {
            Ok(v) => v,
            Err(e) => {
                ops.fail(Fail::EvalError, || {
                    format!("unparsable response {e}: {}", r.body)
                });
                continue;
            }
        };
        if v.get("ok").and_then(Json::as_bool) != Some(true) {
            ops.fail(Fail::from_wire(&field(&v, "error")), || {
                format!("{:?}: {}", r.kind, r.body)
            });
            continue;
        }
        let cold = field(&v, "cache") == "miss";
        let class = match r.kind {
            Kind::Batch(_) => "batch",
            Kind::Hot if field(&v, "memo") == "hit" => "hot-hit",
            Kind::Hot if field(&v, "cache") == "invalidated" => "hot-refresh",
            Kind::Hot => "hot-miss",
            Kind::Safe(_) => "safe",
            Kind::Graph(_) => "graph",
            Kind::Update => "update",
        };
        lat.by_class.entry(class).or_default().push(r.rtt_ms);
        let good = match r.kind {
            Kind::Batch(b) => {
                lat.fpras.push(r.rtt_ms);
                lat.batch_states
                    .push(v.get("states").and_then(Json::as_f64).unwrap_or(0.0));
                cold && batch_ref[b].1 && field(&v, "probability") == batch_ref[b].0
            }
            Kind::Hot => {
                if field(&v, "memo") == "hit" {
                    lat.hit.push(r.rtt_ms);
                }
                if field(&v, "cache") == "invalidated" {
                    lat.refresh.push(r.rtt_ms);
                }
                let (d, ok) = &hot_ref[r.state];
                *ok && field(&v, "probability") == *d
            }
            Kind::Safe(i) => {
                if cold {
                    lat.exact.push(r.rtt_ms);
                }
                field(&v, "route") == "lifted" && field(&v, "exact") == inp.safe[i].1
            }
            Kind::Graph(i) => {
                if cold {
                    lat.exact.push(r.rtt_ms);
                }
                if tr.is_on() {
                    time_graph_enum(inp, i, tr);
                }
                field(&v, "route") == "enum" && field(&v, "exact") == inp.graph_keys[i].1
            }
            Kind::Update => {
                lat.update.push(r.rtt_ms);
                v.get("generation").and_then(Json::as_u64) == Some(r.state as u64 + 1)
            }
        };
        if good {
            lat.answers += 1;
        } else {
            ops.fail(Fail::WrongAnswer, || {
                format!("{:?} at state {}: {}", r.kind, r.state, r.body)
            });
        }
    }
    for (class, v) in &lat.by_class {
        eprintln!(
            "  {class:12} {:5} answers, p10 {:8.2} ms, p50 {:8.2} ms, p90 {:8.2} ms",
            v.len(),
            quantile(v, 0.1),
            quantile(v, 0.5),
            quantile(v, 0.9)
        );
    }
    lat
}

/// Times the in-process enumeration of one served graph key (traced runs
/// only; the served answer is checked against the own reference).
fn time_graph_enum(inp: &Inputs, i: usize, tr: &mut Tracer) {
    let g = pqe_graph::load_str(&inp.graph_text).expect("generated graph parses");
    let rpq = pqe_graph::parse(&inp.graph_keys[i].0).expect("key parses");
    let s = tr.enter("graph.enum");
    let plan = GraphPlan::compile(&g, &rpq, GraphMethod::Auto);
    tr.exit(s);
    plan.expect("small graph compiles");
}

/// Reads the layer numbers the server keeps, through its `metrics` op.
/// Every figure covers the same window: the one since the registry was
/// last reset.
fn served_layers(live: &mut Live, layers: &mut Layers) {
    let body = live.inter.call("{\"op\":\"metrics\"}");
    let v = Json::parse(&body).expect("metrics response parses");
    let counter = |name: &str| {
        v.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let hist = |name: &str, f: &str| {
        v.get("histograms")
            .and_then(|h| h.get(name))
            .and_then(|h| h.get(f))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let executions = counter("serve.executions");
    for (name, c) in FPRAS_COUNTERS {
        layers.set(
            name,
            if executions > 0.0 {
                counter(c) / executions
            } else {
                0.0
            },
        );
    }
    layers.derive_yield();
    layers.set(
        "serve.queue_wait_p50_ms",
        hist("serve.queue_wait_us", "p50") / 1e3,
    );
    layers.set(
        "serve.queue_wait_p95_ms",
        hist("serve.queue_wait_us", "p95") / 1e3,
    );
    // Request histograms run from receipt to reply and include the queue
    // wait; their total minus the total wait is the evaluation time.
    let jobs = hist("serve.queue_wait_us", "count");
    let request_total: f64 = [
        "serve.request_us.estimate",
        "serve.request_us.graph_estimate",
    ]
    .iter()
    .map(|h| hist(h, "mean") * hist(h, "count"))
    .sum();
    if jobs > 0.0 {
        let eval = (request_total - hist("serve.queue_wait_us", "mean") * jobs) / jobs;
        layers.set("serve.eval_mean_ms", eval / 1e3);
    }
    // The shards' registry mirrors (`serve.shard<k>.hits`, ...), not the
    // server's own totals: only the registry was reset before the window.
    let shard_sum = |suffix: &str| -> f64 {
        match v.get("counters") {
            Some(Json::Obj(cs)) => cs
                .iter()
                .filter(|(name, _)| name.starts_with("serve.shard") && name.ends_with(suffix))
                .filter_map(|(_, c)| c.as_f64())
                .sum(),
            _ => 0.0,
        }
    };
    let (hits, misses) = (shard_sum(".hits"), shard_sum(".misses"));
    layers.set(
        "serve.plan_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    layers.set("serve.memo_hits", shard_sum(".memo_hits"));
    layers.set("serve.executions", executions);
    layers.set("serve.coalesced", counter("serve.singleflight_coalesced"));
    layers.set(
        "serve.queue_rejected",
        v.get("queue")
            .and_then(|q| q.get("rejected"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
    );
    layers.set("delta.kept_plans", counter("serve.delta.kept_plans"));
    layers.set(
        "delta.invalidated_plans",
        counter("serve.delta.invalidated_plans"),
    );
    layers.set(
        "core.refresh_incremental",
        counter("router.refresh.incremental"),
    );
    layers.set(
        "core.refresh_recompiled",
        counter("router.refresh.recompiled"),
    );
}

/// Mean time per call of the server's own spans: `compile` and `execute`
/// under `serve.eval`, each with the library spans nested in it.
fn served_spans(layers: &mut Layers) {
    let roots = pqe_obs::span::snapshot();
    let Some(eval) = roots.iter().find(|n| n.name == "serve.eval") else {
        return;
    };
    for (name, span) in [
        ("core.compile_ms", "compile"),
        ("automata.count_nfta_ms", "execute"),
    ] {
        if let Some(n) = eval.children.iter().find(|n| n.name == span && n.count > 0) {
            layers.set(name, n.total_ns as f64 / n.count as f64 / 1e6);
        }
    }
}

/// Workers mirror their cache counters into the registry just after each
/// reply; give them time to finish before the registry is reset or read.
fn settle() {
    std::thread::sleep(Duration::from_millis(50));
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> (Ops, Metrics) {
    let inp = inputs(seed);
    let mut tr = Tracer::new(trace);
    let mut setup = Setup::default();
    let (mut live, h0) = setup.burst(|| start(&inp, &mut tr), |(l, _)| drop(l.stop()));
    if trace {
        return run_traced(&inp, live, &h0, seconds, tr);
    }
    let mut quiet = Tracer::new(false);
    let mut w = WindowRun::default();
    for _ in 0..PARTS {
        w.merge(window(&inp, &mut live, seconds / f64::from(PARTS)));
        let (extra, _) = setup.burst(|| start(&inp, &mut quiet), |(l, _)| drop(l.stop()));
        extra.stop();
    }
    let rss = peak_rss_mb();
    let st = live.stop();
    let mut ops = Ops::default();
    let lat = verify(&inp, &w.resps, &h0, &st, &mut ops, &mut quiet);
    let mut m = Metrics::default();
    m.put("setup_s", setup.median_s(), "s");
    m.put("peak_rss_mb", rss, "MB");
    m.put("answers_per_s", lat.answers as f64 / w.wall_s, "1/s");
    m.put("fpras_p50_ms", quantile(&lat.fpras, 0.5), "ms");
    m.put("fpras_p90_ms", quantile(&lat.fpras, 0.9), "ms");
    m.put("exact_p50_ms", quantile(&lat.exact, 0.5), "ms");
    (ops, m)
}

/// The traced run: an untraced, a traced and an untraced third on one
/// server, so that a steady drift of the host cancels out of the
/// overhead. In the traced third the library's own spans are on, in the
/// server's workers too, and the registry counts that third alone.
fn run_traced(
    inp: &Inputs,
    mut live: Live,
    h0: &ProbDatabase,
    seconds: f64,
    mut tr: Tracer,
) -> (Ops, Metrics) {
    let third = seconds / 3.0;
    let mut plain = window(inp, &mut live, third);
    settle();
    pqe_obs::metrics::reset();
    pqe_obs::span::reset();
    pqe_obs::span::set_enabled(true);
    let traced = window(inp, &mut live, third);
    pqe_obs::span::set_enabled(false);
    settle();
    let mut layers = Layers::default();
    served_layers(&mut live, &mut layers);
    served_spans(&mut layers);
    plain.merge(window(inp, &mut live, third));
    let st = live.stop();
    let mut ops = Ops::default();
    let lat_plain = verify(inp, &plain.resps, h0, &st, &mut ops, &mut Tracer::new(false));
    let lat = verify(inp, &traced.resps, h0, &st, &mut ops, &mut tr);
    let selft = tr.self_times_ms();
    for (name, span) in [
        ("db.load_ms", "db.load"),
        ("graph.load_ms", "graph.load"),
        ("graph.enum_ms", "graph.enum"),
        ("delta.apply_ms", "delta.apply"),
        ("core.revalidate_ms", "core.revalidate"),
    ] {
        layers.span_median(name, &selft, span);
    }
    layers.set("core.automaton_states", mean(&lat.batch_states));
    layers.set("par.cpu_per_wall", traced.cpu_s / traced.wall_s);
    layers.set("hit_p50_ms", quantile(&lat.hit, 0.5));
    layers.set("hit_p90_ms", quantile(&lat.hit, 0.9));
    layers.set("refresh_p50_ms", quantile(&lat.refresh, 0.5));
    layers.set("update_p50_ms", quantile(&lat.update, 0.5));
    let aps = |l: &Latencies, w: &WindowRun| l.answers as f64 / w.wall_s;
    layers.set(
        "obs.trace_overhead_pct",
        (aps(&lat_plain, &plain) / aps(&lat, &traced) - 1.0) * 100.0,
    );
    (ops, layers.into_metrics())
}
