//! Reference answers computed by the benchmark itself, apart from the
//! inference code under test: its own world enumeration, a frontier
//! dynamic program for graph reachability, and closed forms for
//! series-parallel graphs and safe star queries. Exact values are `u128`
//! fractions over the product of the fact denominators; the closed forms
//! of large safe instances use `pqe_arith::Rational` for big-number
//! arithmetic only.

use pqe_arith::Rational;
use std::collections::{BTreeMap, HashMap};

/// An exact, unreduced fraction.
#[derive(Clone, Copy, Debug)]
pub struct Frac {
    pub num: u128,
    pub den: u128,
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

fn mul(a: u128, b: u128) -> u128 {
    a.checked_mul(b).expect("reference fraction overflows u128")
}

impl Frac {
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Lowest terms, printed the way `pqe_arith::Rational` prints.
    pub fn to_rational_string(self) -> String {
        let g = gcd(self.num, self.den).max(1);
        let (n, d) = (self.num / g, self.den / g);
        if d == 1 {
            n.to_string()
        } else {
            format!("{n}/{d}")
        }
    }
}

/// A fact of the benchmark's own model: relation, constants, and its
/// probability `n/d`.
#[derive(Clone, Debug)]
pub struct PFact {
    pub rel: String,
    pub args: Vec<String>,
    pub n: u64,
    pub d: u64,
}

/// A conjunctive query of the benchmark's own model: atoms over variable
/// indices.
#[derive(Clone, Debug)]
pub struct Cq {
    pub atoms: Vec<(String, Vec<usize>)>,
    pub nvars: usize,
}

/// Every homomorphism of `q` into the facts, as a bitmask of the facts
/// it uses (the lineage clauses). Facts are indexed by position (< 64).
pub fn witness_clauses(q: &Cq, facts: &[PFact]) -> Vec<u64> {
    assert!(facts.len() <= 64, "witness masks hold at most 64 facts");
    fn go(
        q: &Cq,
        facts: &[PFact],
        i: usize,
        asg: &mut Vec<Option<String>>,
        used: u64,
        out: &mut Vec<u64>,
    ) {
        if i == q.atoms.len() {
            out.push(used);
            return;
        }
        let (rel, vars) = &q.atoms[i];
        for (fi, f) in facts.iter().enumerate() {
            if &f.rel != rel {
                continue;
            }
            let saved = asg.clone();
            let ok = vars.iter().zip(&f.args).all(|(&v, c)| match &asg[v] {
                Some(b) => b == c,
                None => {
                    asg[v] = Some(c.clone());
                    true
                }
            });
            if ok {
                go(q, facts, i + 1, asg, used | (1 << fi), out);
            }
            *asg = saved;
        }
    }
    let mut out = Vec::new();
    go(q, facts, 0, &mut vec![None; q.nvars], 0, &mut out);
    out.sort_unstable();
    out.dedup();
    out
}

/// Largest number of lineage facts the world enumeration takes on.
pub const MAX_ENUM_FACTS: usize = 22;

/// Exact `Pr(q)` by enumerating every world of the facts that occur in a
/// witness (the others cannot change the answer). `None` when more than
/// [`MAX_ENUM_FACTS`] facts are involved.
pub fn cq_world_enum(q: &Cq, facts: &[PFact]) -> Option<Frac> {
    let clauses = witness_clauses(q, facts);
    let involved: Vec<usize> = (0..facts.len())
        .filter(|&i| clauses.iter().any(|c| c & (1 << i) != 0))
        .collect();
    if involved.len() > MAX_ENUM_FACTS {
        return None;
    }
    let remap = |c: u64| -> u32 {
        involved
            .iter()
            .enumerate()
            .filter(|(_, &f)| c & (1 << f) != 0)
            .fold(0u32, |m, (j, _)| m | (1 << j))
    };
    let clauses: Vec<u32> = clauses.into_iter().map(remap).collect();
    let weights: Vec<(u64, u64)> = involved.iter().map(|&i| (facts[i].n, facts[i].d)).collect();
    Some(enumerate_worlds(&weights, |w| {
        clauses.iter().any(|&c| c & !w == 0)
    }))
}

/// `Σ_{worlds w with holds(w)} Pr(w)` over independent events with
/// probabilities `n/d`, exactly. The world weight is split into a low and
/// a high half, each tabulated once.
fn enumerate_worlds(weights: &[(u64, u64)], holds: impl Fn(u32) -> bool) -> Frac {
    let k = weights.len();
    assert!(k <= 26, "world enumeration over {k} events");
    let k1 = k / 2;
    let table = |ws: &[(u64, u64)]| -> Vec<u128> {
        (0..1u32 << ws.len())
            .map(|w| {
                ws.iter().enumerate().fold(1u128, |acc, (j, &(n, d))| {
                    mul(
                        acc,
                        if w & (1 << j) != 0 {
                            n as u128
                        } else {
                            (d - n) as u128
                        },
                    )
                })
            })
            .collect()
    };
    let lo = table(&weights[..k1]);
    let hi = table(&weights[k1..]);
    let mask = (1u32 << k1) - 1;
    let mut num = 0u128;
    for w in 0..1u32 << k {
        if holds(w) {
            num += mul(lo[(w & mask) as usize], hi[(w >> k1) as usize]);
        }
    }
    let den = weights
        .iter()
        .fold(1u128, |acc, &(_, d)| mul(acc, d as u128));
    Frac { num, den }
}

/// A probabilistic edge of the benchmark's own graph model.
#[derive(Clone, Copy, Debug)]
pub struct PEdge {
    pub src: usize,
    pub dst: usize,
    pub n: u64,
    pub d: u64,
}

/// Topological order of a DAG on `nv` vertices (panics on a cycle).
fn topo_order(nv: usize, edges: &[PEdge]) -> Vec<usize> {
    let mut indeg = vec![0usize; nv];
    for e in edges {
        indeg[e.dst] += 1;
    }
    let mut ready: Vec<usize> = (0..nv).filter(|&v| indeg[v] == 0).rev().collect();
    let mut order = Vec::with_capacity(nv);
    while let Some(v) = ready.pop() {
        order.push(v);
        for e in edges.iter().filter(|e| e.src == v) {
            indeg[e.dst] -= 1;
            if indeg[e.dst] == 0 {
                ready.push(e.dst);
            }
        }
    }
    assert_eq!(order.len(), nv, "graph reference needs a DAG");
    order
}

/// Edges sorted by the topological position of their source.
fn edges_in_topo_order(nv: usize, edges: &[PEdge]) -> Vec<PEdge> {
    let order = topo_order(nv, edges);
    let mut pos = vec![0; nv];
    for (i, &v) in order.iter().enumerate() {
        pos[v] = i;
    }
    let mut es = edges.to_vec();
    es.sort_by_key(|e| pos[e.src]);
    es
}

/// Exact `Pr(s reaches t)` by enumerating all `2^m` edge worlds.
pub fn reach_world_enum(nv: usize, edges: &[PEdge], s: usize, t: usize) -> Frac {
    assert!(nv <= 64);
    let es = edges_in_topo_order(nv, edges);
    let weights: Vec<(u64, u64)> = es.iter().map(|e| (e.n, e.d)).collect();
    enumerate_worlds(&weights, |w| {
        // One pass suffices: sources come in topological order.
        let mut reach = 1u64 << s;
        for (j, e) in es.iter().enumerate() {
            if w & (1 << j) != 0 && reach & (1 << e.src) != 0 {
                reach |= 1 << e.dst;
            }
        }
        reach & (1 << t) != 0
    })
}

/// Exact `Pr(s reaches t)` by a frontier dynamic program: edges are taken
/// in topological order of their source, the state is the set of reached
/// vertices that still matter (they can reach `t` and have edges left),
/// and equal states merge.
pub fn reach_frontier_dp(nv: usize, edges: &[PEdge], s: usize, t: usize) -> Frac {
    assert!(nv <= 64);
    let es = edges_in_topo_order(nv, edges);
    let den = es.iter().fold(1u128, |acc, e| mul(acc, e.d as u128));
    // Vertices that can reach t at all.
    let mut coreach = 1u64 << t;
    for e in es.iter().rev() {
        if coreach & (1 << e.dst) != 0 {
            coreach |= 1 << e.src;
        }
    }
    if coreach & (1 << s) == 0 {
        return Frac { num: 0, den };
    }
    let mut last_out = vec![usize::MAX; nv];
    for (j, e) in es.iter().enumerate() {
        last_out[e.src] = j;
    }
    let mut states: HashMap<u64, u128> = HashMap::from([(1u64 << s, 1u128)]);
    for (j, e) in es.iter().enumerate() {
        let mut next: HashMap<u64, u128> = HashMap::with_capacity(states.len() * 2);
        for (&st, &w) in &states {
            if st & (1 << e.src) == 0 || coreach & (1 << e.dst) == 0 {
                *next.entry(st).or_default() += mul(w, e.d as u128);
            } else {
                *next.entry(st | (1 << e.dst)).or_default() += mul(w, e.n as u128);
                *next.entry(st).or_default() += mul(w, (e.d - e.n) as u128);
            }
        }
        if last_out[e.src] == j && e.src != t {
            let clear = !(1u64 << e.src);
            let mut merged: HashMap<u64, u128> = HashMap::with_capacity(next.len());
            for (st, w) in next {
                *merged.entry(st & clear).or_default() += w;
            }
            next = merged;
        }
        states = next;
    }
    let num = states
        .iter()
        .filter(|(st, _)| *st & (1 << t) != 0)
        .map(|(_, w)| *w)
        .sum();
    Frac { num, den }
}

/// A two-terminal series-parallel graph.
#[derive(Clone, Debug)]
pub enum Sp {
    Edge { n: u64, d: u64 },
    Series(Box<Sp>, Box<Sp>),
    Parallel(Box<Sp>, Box<Sp>),
}

impl Sp {
    /// Closed-form source-to-sink reliability: a product in series, a
    /// complemented product in parallel.
    pub fn reliability(&self) -> Frac {
        match self {
            Sp::Edge { n, d } => Frac {
                num: *n as u128,
                den: *d as u128,
            },
            Sp::Series(a, b) => {
                let (a, b) = (a.reliability(), b.reliability());
                Frac {
                    num: mul(a.num, b.num),
                    den: mul(a.den, b.den),
                }
            }
            Sp::Parallel(a, b) => {
                let (a, b) = (a.reliability(), b.reliability());
                let den = mul(a.den, b.den);
                let fail = mul(a.den - a.num, b.den - b.num);
                Frac {
                    num: den - fail,
                    den,
                }
            }
        }
    }
}

fn prob(f: &PFact) -> Rational {
    Rational::from_ratio(f.n as i64, f.d)
}

/// `1 − ∏ (1 − p)` over `ps`: the probability that at least one of
/// independent events happens.
fn any_of(ps: impl IntoIterator<Item = Rational>) -> Rational {
    let none = ps
        .into_iter()
        .fold(Rational::one(), |acc, p| acc * p.complement());
    none.complement()
}

/// Closed form of a safe star query `A(x), B1(x,y1), …, Bk(x,yk)`
/// (`root = Some("A")`) or `B1(x,y1), …, Bk(x,yk)` (`root = None`):
/// independent per root constant, independent per arm.
pub fn star_closed_form(facts: &[PFact], root: Option<&str>, arms: &[&str]) -> Rational {
    let mut by_x: BTreeMap<&str, (Option<Rational>, Vec<Vec<Rational>>)> = BTreeMap::new();
    for f in facts {
        let x = f.args[0].as_str();
        let e = by_x
            .entry(x)
            .or_insert_with(|| (None, vec![Vec::new(); arms.len()]));
        if Some(f.rel.as_str()) == root {
            e.0 = Some(prob(f));
        } else if let Some(k) = arms.iter().position(|a| *a == f.rel) {
            e.1[k].push(prob(f));
        }
    }
    any_of(by_x.into_values().filter_map(|(a, arms_p)| {
        let head = match (root, a) {
            (Some(_), Some(p)) => p,
            (Some(_), None) => return None,
            (None, _) => Rational::one(),
        };
        Some(arms_p.into_iter().fold(head, |acc, ps| acc * any_of(ps)))
    }))
}

/// Per `(x, y)`: the probability of `B(x,y)` and those of its `C(x,y,_)`.
type NestedGroups<'a> = BTreeMap<(&'a str, &'a str), (Option<Rational>, Vec<Rational>)>;

/// Closed form of the safe nested query `B(x,y), C(x,y,z)`.
pub fn nested_closed_form(facts: &[PFact]) -> Rational {
    let mut by_xy: NestedGroups = BTreeMap::new();
    for f in facts {
        let key = (f.args[0].as_str(), f.args[1].as_str());
        let e = by_xy.entry(key).or_insert((None, Vec::new()));
        match f.rel.as_str() {
            "B" => e.0 = Some(prob(f)),
            _ => e.1.push(prob(f)),
        }
    }
    any_of(
        by_xy
            .into_values()
            .filter_map(|(b, cs)| b.map(|pb| pb * any_of(cs))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(rel: &str, args: &[&str], n: u64, d: u64) -> PFact {
        PFact {
            rel: rel.into(),
            args: args.iter().map(|s| s.to_string()).collect(),
            n,
            d,
        }
    }

    #[test]
    fn frontier_dp_agrees_with_world_enumeration() {
        // A 3x3 grid with mixed probabilities.
        let id = |r: usize, c: usize| r * 3 + c;
        let mut edges = Vec::new();
        let mut k = 0u64;
        for r in 0..3 {
            for c in 0..3 {
                let mut p = || {
                    k += 1;
                    let d = 2 + k % 3;
                    (1 + k % (d - 1), d)
                };
                if c + 1 < 3 {
                    let (n, d) = p();
                    edges.push(PEdge {
                        src: id(r, c),
                        dst: id(r, c + 1),
                        n,
                        d,
                    });
                }
                if r + 1 < 3 {
                    let (n, d) = p();
                    edges.push(PEdge {
                        src: id(r, c),
                        dst: id(r + 1, c),
                        n,
                        d,
                    });
                }
            }
        }
        let a = reach_world_enum(9, &edges, 0, 8);
        let b = reach_frontier_dp(9, &edges, 0, 8);
        assert_eq!(a.to_rational_string(), b.to_rational_string());
    }

    #[test]
    fn series_parallel_matches_enumeration() {
        // s -a-> m -b-> t in parallel with s -c-> t.
        let sp = Sp::Parallel(
            Box::new(Sp::Series(
                Box::new(Sp::Edge { n: 1, d: 2 }),
                Box::new(Sp::Edge { n: 2, d: 3 }),
            )),
            Box::new(Sp::Edge { n: 1, d: 4 }),
        );
        let edges = [
            PEdge {
                src: 0,
                dst: 1,
                n: 1,
                d: 2,
            },
            PEdge {
                src: 1,
                dst: 2,
                n: 2,
                d: 3,
            },
            PEdge {
                src: 0,
                dst: 2,
                n: 1,
                d: 4,
            },
        ];
        assert_eq!(
            sp.reliability().to_rational_string(),
            reach_world_enum(3, &edges, 0, 2).to_rational_string()
        );
        // 1 − (1 − 1/3)(1 − 1/4) = 1/2
        assert_eq!(sp.reliability().to_rational_string(), "1/2");
    }

    #[test]
    fn cq_enumeration_of_a_two_atom_join() {
        // R(x,y), S(y): witnesses {R(a,b),S(b)} and {R(c,b),S(b)}.
        let q = Cq {
            atoms: vec![("R".into(), vec![0, 1]), ("S".into(), vec![1])],
            nvars: 2,
        };
        let facts = [
            f("R", &["a", "b"], 1, 2),
            f("R", &["c", "b"], 1, 2),
            f("S", &["b"], 1, 3),
        ];
        // Pr = 1/3 · (1 − 1/4) = 1/4
        assert_eq!(
            cq_world_enum(&q, &facts).unwrap().to_rational_string(),
            "1/4"
        );
    }

    #[test]
    fn star_closed_form_matches_enumeration() {
        let facts = [
            f("A", &["1"], 1, 2),
            f("B", &["1", "p"], 2, 3),
            f("B", &["1", "q"], 1, 4),
            f("A", &["2"], 3, 4),
            f("B", &["2", "p"], 1, 3),
        ];
        let q = Cq {
            atoms: vec![("A".into(), vec![0]), ("B".into(), vec![0, 1])],
            nvars: 2,
        };
        let exact = cq_world_enum(&q, &facts).unwrap().to_rational_string();
        assert_eq!(
            star_closed_form(&facts, Some("A"), &["B"]).to_string(),
            exact
        );
    }
}
