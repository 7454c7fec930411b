//! Seeded inputs. Every instance has a *structure* (which facts or edges
//! exist) drawn from a fixed structural seed, and *probabilities* drawn
//! from the workload seed. Fixing the structure keeps the cost of each
//! pool entry the same from seed to seed, so a run's medians move with
//! the code, not with the draw; the seed still changes every probability,
//! every FPRAS seed and the order of operations.
//!
//! Each instance carries its text form (what the benchmark loads through
//! the layers under test) and the benchmark's own model of it (what the
//! references are computed from).

use crate::common::Rng;
use crate::reference::{Cq, PEdge, PFact, Sp};
use std::collections::BTreeSet;

/// Seed of the structural draws. Not a workload seed.
const STRUCTURE_SEED: u64 = 0x5eed_57ac;

/// Constants per layer of the layered CQ instances.
const LAYER: u64 = 4;

/// An unsafe CQ shape (FPRAS route) or a safe one (lifted route).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `R1(x,y), R2(y,z), R3(z,w)`.
    Path,
    /// `R1(x,y), R2(y,z), R3(z,x)`.
    Triangle,
    /// A star with one joined arm: `R1(x,y), R2(x,z), R3(x,u), R4(u,v)`.
    StarJoin,
    /// `A(x), B(x,y)`.
    Star2,
    /// `A(x), B(x,y), C(x,z)`.
    Star3,
    /// `B(x,y), C(x,y,z)`.
    Nested,
}

impl Shape {
    pub const UNSAFE: [Shape; 3] = [Shape::Path, Shape::Triangle, Shape::StarJoin];
    pub const SAFE: [Shape; 3] = [Shape::Star2, Shape::Star3, Shape::Nested];

    pub fn name(self) -> &'static str {
        match self {
            Shape::Path => "path",
            Shape::Triangle => "triangle",
            Shape::StarJoin => "star_join",
            Shape::Star2 => "star2",
            Shape::Star3 => "star3",
            Shape::Nested => "nested",
        }
    }

    pub fn is_safe(self) -> bool {
        Shape::SAFE.contains(&self)
    }

    /// Atoms over variable indices, with relation slots `0..k`.
    fn atoms(self) -> (Vec<Vec<usize>>, usize) {
        match self {
            Shape::Path => (vec![vec![0, 1], vec![1, 2], vec![2, 3]], 4),
            Shape::Triangle => (vec![vec![0, 1], vec![1, 2], vec![2, 0]], 3),
            Shape::StarJoin => (vec![vec![0, 1], vec![0, 2], vec![0, 3], vec![3, 4]], 5),
            Shape::Star2 => (vec![vec![0], vec![0, 1]], 2),
            Shape::Star3 => (vec![vec![0], vec![0, 1], vec![0, 2]], 3),
            Shape::Nested => (vec![vec![0, 1], vec![0, 1, 2]], 3),
        }
    }

    /// The layer of each variable (constants of layer `l` are `l{l}_{i}`).
    fn var_layers(self) -> &'static [usize] {
        match self {
            Shape::Path => &[0, 1, 2, 3],
            Shape::Triangle => &[0, 1, 2],
            Shape::StarJoin => &[0, 1, 2, 3, 4],
            _ => &[],
        }
    }

    /// Default relation names.
    pub fn relations(self) -> &'static [&'static str] {
        match self {
            Shape::Path | Shape::Triangle => &["R1", "R2", "R3"],
            Shape::StarJoin => &["R1", "R2", "R3", "R4"],
            Shape::Star2 => &["A", "B"],
            Shape::Star3 => &["A", "B", "C"],
            Shape::Nested => &["B", "C"],
        }
    }

    /// Facts per relation of the unsafe shapes: sized so one FPRAS
    /// answer costs milliseconds and the lineage stays enumerable.
    pub fn facts_per_relation(self) -> usize {
        match self {
            Shape::Path => 4,
            Shape::Triangle => 7,
            Shape::StarJoin => 4,
            _ => 0,
        }
    }

    /// Root constants of the safe shapes: sized so one lifted answer
    /// takes a few milliseconds.
    pub fn roots(self) -> u64 {
        match self {
            Shape::Star2 => 100,
            Shape::Star3 => 60,
            Shape::Nested => 40,
            _ => 0,
        }
    }
}

/// A CQ instance: query text, database text, and the own model of both.
#[derive(Clone, Debug)]
pub struct CqInstance {
    pub shape: Shape,
    pub cq: Cq,
    pub facts: Vec<PFact>,
}

impl CqInstance {
    /// Query text with variables suffixed by `tag` (a fresh suffix makes
    /// the same query a new plan-cache key).
    pub fn query_text(&self, tag: &str) -> String {
        const NAMES: [&str; 5] = ["x", "y", "z", "u", "v"];
        self.cq
            .atoms
            .iter()
            .map(|(rel, vars)| {
                let args: Vec<String> =
                    vars.iter().map(|&v| format!("{}{tag}", NAMES[v])).collect();
                format!("{rel}({})", args.join(","))
            })
            .collect::<Vec<_>>()
            .join(", ")
    }

    pub fn db_text(&self) -> String {
        facts_text(&self.facts)
    }
}

pub fn facts_text(facts: &[PFact]) -> String {
    let mut s = String::new();
    for f in facts {
        s.push_str(&format!(
            "{}/{} {}({})\n",
            f.n,
            f.d,
            f.rel,
            f.args.join(",")
        ));
    }
    s
}

fn cq_of(shape: Shape, rels: &[&str]) -> Cq {
    let (atoms, nvars) = shape.atoms();
    Cq {
        atoms: atoms
            .into_iter()
            .zip(rels)
            .map(|(vars, r)| (r.to_string(), vars))
            .collect(),
        nvars,
    }
}

/// Structure of unsafe instance `idx` of `shape`: `m` distinct constant
/// pairs per relation between the layers of the atom's variables. Draws
/// are repeated until the query has a witness and its lineage stays
/// within the enumeration bound (deterministic: the structural seed is
/// fixed).
fn unsafe_structure(
    shape: Shape,
    rels: &[&str],
    idx: u64,
    per_relation: usize,
) -> Vec<(String, Vec<String>)> {
    let cq = cq_of(shape, rels);
    let layers = shape.var_layers();
    for attempt in 0.. {
        let mut r = Rng::stream(STRUCTURE_SEED, (shape as u64) << 40 | idx << 16 | attempt);
        let mut facts = Vec::new();
        for (rel, vars) in &cq.atoms {
            let mut seen = BTreeSet::new();
            while seen.len() < per_relation {
                seen.insert((r.below(LAYER), r.below(LAYER)));
            }
            for (a, b) in seen {
                let args = vec![
                    format!("l{}_{a}", layers[vars[0]]),
                    format!("l{}_{b}", layers[vars[1]]),
                ];
                facts.push((rel.clone(), args));
            }
        }
        let probe: Vec<PFact> = facts
            .iter()
            .map(|(rel, args)| PFact {
                rel: rel.clone(),
                args: args.clone(),
                n: 1,
                d: 2,
            })
            .collect();
        let clauses = crate::reference::witness_clauses(&cq, &probe);
        let involved = clauses.iter().fold(0u64, |m, c| m | c).count_ones() as usize;
        if !clauses.is_empty() && involved <= 20 {
            return facts;
        }
    }
    unreachable!()
}

/// Structure of safe instance `idx` of `shape`: fan-outs drawn per root
/// constant, sized so one lifted answer takes at least a millisecond.
fn safe_structure(shape: Shape, idx: u64, roots: u64) -> Vec<(String, Vec<String>)> {
    let mut r = Rng::stream(STRUCTURE_SEED, (shape as u64) << 40 | idx << 16);
    let mut facts = Vec::new();
    let fanout = |r: &mut Rng| 1 + r.below(4);
    match shape {
        Shape::Star2 | Shape::Star3 => {
            let arms: &[&str] = if shape == Shape::Star2 {
                &["B"]
            } else {
                &["B", "C"]
            };
            for x in 0..roots {
                facts.push(("A".to_owned(), vec![format!("a{x}")]));
                for arm in arms {
                    for y in 0..fanout(&mut r) {
                        facts.push((
                            arm.to_string(),
                            vec![format!("a{x}"), format!("{}{y}", arm.to_lowercase())],
                        ));
                    }
                }
            }
        }
        Shape::Nested => {
            for x in 0..roots {
                for y in 0..fanout(&mut r) {
                    facts.push(("B".to_owned(), vec![format!("a{x}"), format!("b{y}")]));
                    for z in 0..fanout(&mut r) {
                        facts.push((
                            "C".to_owned(),
                            vec![format!("a{x}"), format!("b{y}"), format!("c{z}")],
                        ));
                    }
                }
            }
        }
        _ => unreachable!("unsafe shape"),
    }
    facts
}

/// Instance `idx` of `shape` over relations `rels`, with probabilities
/// from `probs`.
pub fn cq_instance(shape: Shape, rels: &[&str], idx: u64, probs: &mut Rng) -> CqInstance {
    let size = if shape.is_safe() {
        shape.roots() as usize
    } else {
        shape.facts_per_relation()
    };
    cq_instance_sized(shape, rels, idx, size, probs)
}

/// [`cq_instance`] with `size` facts per relation (unsafe shapes) or
/// root constants (safe shapes).
pub fn cq_instance_sized(
    shape: Shape,
    rels: &[&str],
    idx: u64,
    size: usize,
    probs: &mut Rng,
) -> CqInstance {
    let structure = if shape.is_safe() {
        safe_structure(shape, idx, size as u64)
    } else {
        unsafe_structure(shape, rels, idx, size)
    };
    let facts = structure
        .into_iter()
        .map(|(rel, args)| {
            let (n, d) = probs.prob();
            PFact { rel, args, n, d }
        })
        .collect();
    CqInstance {
        shape,
        cq: cq_of(shape, rels),
        facts,
    }
}

/// A graph instance with an `s → label* → t` reachability RPQ.
#[derive(Clone, Debug)]
pub struct GraphInstance {
    pub family: &'static str,
    pub names: Vec<String>,
    pub edges: Vec<PEdge>,
    pub label: &'static str,
    pub s: usize,
    pub t: usize,
    /// The decomposition, for series-parallel instances.
    pub sp: Option<Sp>,
}

impl GraphInstance {
    pub fn text(&self) -> String {
        let mut s = String::new();
        for e in &self.edges {
            s.push_str(&format!(
                "{}/{} {} -{}-> {}\n",
                e.n, e.d, self.names[e.src], self.label, self.names[e.dst]
            ));
        }
        s
    }

    pub fn rpq(&self) -> String {
        format!(
            "{} -> {}* -> {}",
            self.names[self.s], self.label, self.names[self.t]
        )
    }
}

fn edge(src: usize, dst: usize, probs: &mut Rng) -> PEdge {
    let (n, d) = probs.prob();
    PEdge { src, dst, n, d }
}

/// A `rows × cols` road grid, edges right and down, corner to corner.
pub fn road_grid(rows: usize, cols: usize, probs: &mut Rng) -> GraphInstance {
    let id = |r: usize, c: usize| r * cols + c;
    let mut names = Vec::new();
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            names.push(format!("v{r}_{c}"));
            if c + 1 < cols {
                edges.push(edge(id(r, c), id(r, c + 1), probs));
            }
            if r + 1 < rows {
                edges.push(edge(id(r, c), id(r + 1, c), probs));
            }
        }
    }
    GraphInstance {
        family: "grid",
        names,
        edges,
        label: "road",
        s: 0,
        t: rows * cols - 1,
        sp: None,
    }
}

/// A preferential-attachment DAG (`u_i → u_j`, `j < i`, targets drawn by
/// degree from structure draw `idx`), from the newest vertex to `u0`.
pub fn pref_attachment(n: usize, attach: usize, idx: u64, probs: &mut Rng) -> GraphInstance {
    let mut r = Rng::stream(STRUCTURE_SEED, 0xa77ac4 << 16 | idx);
    let names = (0..n).map(|i| format!("u{i}")).collect();
    let mut weight = vec![1u64];
    let mut edges = Vec::new();
    for i in 1..n {
        let total: u64 = weight.iter().sum();
        for _ in 0..attach.min(i) {
            let mut pick = r.below(total);
            let mut j = 0;
            while pick >= weight[j] {
                pick -= weight[j];
                j += 1;
            }
            edges.push(edge(i, j, probs));
            weight[j] += 1;
        }
        weight.push(1 + attach.min(i) as u64);
    }
    GraphInstance {
        family: "pa",
        names,
        edges,
        label: "follows",
        s: n - 1,
        t: 0,
        sp: None,
    }
}

/// A random two-terminal series-parallel DAG with `m` edges (structure
/// draw `idx`).
pub fn series_parallel(m: usize, idx: u64, probs: &mut Rng) -> GraphInstance {
    fn shape(m: usize, r: &mut Rng) -> Sp {
        if m == 1 {
            return Sp::Edge { n: 0, d: 0 };
        }
        let k = 1 + r.below(m as u64 - 1) as usize;
        let (a, b) = (Box::new(shape(k, r)), Box::new(shape(m - k, r)));
        if r.below(2) == 0 {
            Sp::Series(a, b)
        } else {
            Sp::Parallel(a, b)
        }
    }
    fn lay(
        sp: &mut Sp,
        s: usize,
        t: usize,
        nv: &mut usize,
        edges: &mut Vec<PEdge>,
        probs: &mut Rng,
    ) {
        match sp {
            Sp::Edge { n, d } => {
                let e = edge(s, t, probs);
                (*n, *d) = (e.n, e.d);
                edges.push(e);
            }
            Sp::Series(a, b) => {
                let mid = *nv;
                *nv += 1;
                lay(a, s, mid, nv, edges, probs);
                lay(b, mid, t, nv, edges, probs);
            }
            Sp::Parallel(a, b) => {
                lay(a, s, t, nv, edges, probs);
                lay(b, s, t, nv, edges, probs);
            }
        }
    }
    let mut r = Rng::stream(STRUCTURE_SEED, 0x5e41a1 << 16 | (m as u64) << 8 | idx);
    let mut sp = shape(m, &mut r);
    let (mut nv, mut edges) = (2, Vec::new());
    lay(&mut sp, 0, 1, &mut nv, &mut edges, probs);
    let names = (0..nv)
        .map(|i| {
            if i == 0 {
                "s".into()
            } else if i == 1 {
                "t".into()
            } else {
                format!("n{i}")
            }
        })
        .collect();
    GraphInstance {
        family: "sp",
        names,
        edges,
        label: "link",
        s: 0,
        t: 1,
        sp: Some(sp),
    }
}
