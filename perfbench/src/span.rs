//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out when the run ends.

use std::collections::HashMap;
use std::time::Instant;

/// One timed call: name, interval since the tracer's origin, and the span
/// that was open when it started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call this span wraps, e.g. `interp.execute`.
    pub name: &'static str,
    /// Enclosing span (index into [`Tracer::spans`]).
    pub parent: Option<usize>,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

/// Records nested spans; a disabled tracer only runs the closures, so the
/// untraced run and the traced run share one code path.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records.
    pub fn on() -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::on()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`; spans `f` opens become its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, parallel to [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let kids = children.get(&i).map_or(&[][..], Vec::as_slice);
                self_time((s.start_ns, s.end_ns), kids)
            })
            .collect()
    }

    /// Self times (ns) of the spans called `name`, in start order.
    pub fn self_times_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t as f64)
            .collect()
    }

    /// Total self time (ns) of the spans called `name`.
    pub fn total_self_ns(&self, name: &str) -> f64 {
        self.self_times_of(name).iter().sum()
    }

    /// For each span called `parent`, the summed duration (ns) of its
    /// direct children called `child`.
    pub fn child_totals(&self, parent: &str, child: &str) -> Vec<f64> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == parent)
            .map(|(p, _)| {
                self.spans
                    .iter()
                    .filter(|s| s.parent == Some(p) && s.name == child)
                    .map(|s| (s.end_ns - s.start_ns) as f64)
                    .sum()
            })
            .collect()
    }

    /// The spans as a JSON array, one object per line, with self times.
    pub fn to_json(&self) -> String {
        let selfs = self.self_times();
        let rows: Vec<String> = self
            .spans
            .iter()
            .zip(selfs)
            .enumerate()
            .map(|(i, (s, self_ns))| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                    s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// Self time of a span over `(start, end)`: its duration minus the part
/// of that interval covered by the union of its `children` intervals.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (lo, hi) = span;
    let mut kids: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (s, e) in kids {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (hi - lo) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 50)]), 60);
        // A child contained in another adds nothing.
        assert_eq!(self_time((0, 100), &[(10, 60), (20, 30)]), 50);
        // Parts outside the parent are clipped.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_time((0, 10), &[(0, 10)]), 0);
    }

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::on();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner", |_| ());
        });
        t.span("next", |_| ());
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(
            (s[1].parent, s[2].parent, s[3].parent),
            (Some(0), Some(0), None)
        );
        let selfs = t.self_times();
        let outer = s[0].end_ns - s[0].start_ns;
        let inner: u64 = (1..3).map(|i| s[i].end_ns - s[i].start_ns).sum();
        assert_eq!(selfs[0], outer - inner);
        assert_eq!(t.self_times_of("inner").len(), 2);
        assert!(t.total_self_ns("inner") >= 2e6);
        assert!(t.to_json().contains("\"name\": \"outer\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", |t| t.span("y", |_| 7)), 7);
        assert!(t.spans().is_empty());
    }
}
