//! In-memory spans recorded around calls into each layer's public
//! functions. Spans are kept in a vector and written out once, when the
//! run ends; a layer's self time is its span's duration minus the part of
//! that interval its child spans cover.

use privim_rt::json::Value;
use std::time::Instant;

/// One timed call: name, start and end (seconds since the trace began)
/// and the index of the span that was open when it started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

pub struct Trace {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Run `f` inside a span named `name`; spans `f` opens are its
    /// children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> R) -> R {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        out
    }

    /// A span with no children.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span(name, |_| f())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time of every span named `name`, in seconds.
    pub fn self_total(&self, name: &str) -> f64 {
        let selfs = self_times(&self.spans);
        self.spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .sum()
    }

    /// For each span named `group` that has descendants named `name`, the
    /// summed self time of those descendants (seconds), in span order.
    pub fn per_group(&self, group: &str, name: &str) -> Vec<f64> {
        let selfs = self_times(&self.spans);
        // group span index -> (total, seen)
        let mut totals: Vec<(usize, f64, bool)> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == group)
            .map(|(i, _)| (i, 0.0, false))
            .collect();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != name {
                continue;
            }
            let mut up = s.parent;
            while let Some(p) = up {
                if self.spans[p].name == group {
                    if let Ok(slot) = totals.binary_search_by_key(&p, |t| t.0) {
                        totals[slot].1 += selfs[i];
                        totals[slot].2 = true;
                    }
                    break;
                }
                up = self.spans[p].parent;
            }
        }
        totals.into_iter().filter(|t| t.2).map(|t| t.1).collect()
    }

    /// Duration of every span named `name` (seconds), in span order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// `{"spans": [{"name", "start_s", "end_s", "self_s", "parent"}]}`.
    pub fn to_json(&self) -> Value {
        let selfs = self_times(&self.spans);
        let spans = self
            .spans
            .iter()
            .zip(&selfs)
            .map(|(s, own)| {
                Value::obj(vec![
                    ("name", Value::Str(s.name.to_string())),
                    ("start_s", Value::Num(s.start)),
                    ("end_s", Value::Num(s.end)),
                    ("self_s", Value::Num(*own)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                ])
            })
            .collect();
        Value::obj(vec![("spans", Value::Arr(spans))])
    }
}

/// Self time of each span: its duration minus the union of its direct
/// children's intervals (clipped to the span), so overlapping or
/// out-of-bounds children are never subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start - covered).max(0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("run", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            // overlaps `a`: only 4..5 is new coverage
            span("b", 3.0, 5.0, Some(0)),
            // grandchild: subtracted from `b`, not from `run`
            span("c", 3.5, 4.5, Some(2)),
            // sticks out of the parent: clipped at 10
            span("d", 9.0, 12.0, Some(0)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![10.0 - 4.0 - 1.0, 3.0, 1.0, 1.0, 3.0]);
    }

    #[test]
    fn recorded_spans_nest_and_group() {
        let mut t = Trace::new();
        t.span("step", |t| {
            t.span("sample", |t| {
                t.time("forward", || std::hint::black_box(1 + 1));
            });
            t.time("sum", || ());
        });
        t.span("step", |t| t.time("sum", || ()));
        let s = t.spans();
        assert_eq!(s.len(), 6);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[5].parent, Some(4));
        // only the first step ran a forward pass
        assert_eq!(t.per_group("step", "forward").len(), 1);
        assert_eq!(t.per_group("step", "sum").len(), 2);
        assert_eq!(t.durations("step").len(), 2);
        // self times over a tree add up to the roots' durations
        let total: f64 = self_times(s).iter().sum();
        let roots: f64 = s
            .iter()
            .filter(|x| x.parent.is_none())
            .map(|x| x.end - x.start)
            .sum();
        assert!((total - roots).abs() < 1e-9);
    }
}
