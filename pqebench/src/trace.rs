//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans live in memory and are read once the run ends. A span's self
//! time is its duration minus the part of it that its child spans cover;
//! per-layer figures are built from self times, so nested layers are not
//! counted twice. A disabled tracer records nothing.

use std::collections::BTreeMap;
use std::time::Instant;

struct Rec {
    name: &'static str,
    start: Instant,
    end: Option<Instant>,
    parent: Option<usize>,
}

pub struct Tracer {
    on: bool,
    spans: Vec<Rec>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` when tracing is off).
#[must_use]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Rec {
            name,
            start: Instant::now(),
            end: None,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn exit(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end = Some(Instant::now());
            let top = self.open.pop();
            debug_assert_eq!(top, Some(i), "spans close in stack order");
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Renames the most recently opened span once its layer is known (a
    /// compile that turned out to take the lifted route, say).
    pub fn rename_last(&mut self, name: &'static str) {
        if let Some(s) = self.spans.last_mut() {
            s.name = name;
        }
    }

    /// Closed spans' self times in milliseconds, grouped by name.
    pub fn self_times_ms(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let Some(end) = s.end else { continue };
            // Union of the child intervals, clipped to this span.
            let mut iv: Vec<(Instant, Instant)> = children[i]
                .iter()
                .filter_map(|&c| {
                    let c = &self.spans[c];
                    c.end.map(|e| (c.start.max(s.start), e.min(end)))
                })
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort();
            let mut covered = 0.0;
            let mut cur: Option<(Instant, Instant)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    _ => {
                        if let Some((ca, cb)) = cur {
                            covered += (cb - ca).as_secs_f64();
                        }
                        cur = Some((a, b));
                    }
                }
            }
            if let Some((ca, cb)) = cur {
                covered += (cb - ca).as_secs_f64();
            }
            let total = (end - s.start).as_secs_f64();
            out.entry(s.name)
                .or_default()
                .push((total - covered).max(0.0) * 1e3);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer");
        std::thread::sleep(Duration::from_millis(2));
        let inner = t.enter("inner");
        std::thread::sleep(Duration::from_millis(30));
        t.exit(inner);
        t.exit(outer);
        let st = t.self_times_ms();
        let outer_self = st["outer"][0];
        let inner_self = st["inner"][0];
        assert!(inner_self >= 30.0);
        assert!(
            outer_self >= 2.0 && outer_self < inner_self,
            "outer self {outer_self}"
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.enter("x");
        t.exit(s);
        assert!(t.self_times_ms().is_empty());
    }
}
