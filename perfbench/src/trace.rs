//! Spans recorded around the calls the benchmark makes into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! request it belongs to. Spans stay in memory while the traced run
//! measures and are written out once at the end.

use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    /// Nanoseconds since the trace started.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Trace::end`].
    pub fn begin(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Rename a span once its outcome is known (a plan-cache hit or miss).
    pub fn rename(&mut self, span: usize, name: &'static str) {
        self.spans[span].name = name;
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let s = self.begin(name, request, Some(parent));
        let out = f();
        self.end(s);
        out
    }

    /// Self time of every span, in nanoseconds: its duration minus the
    /// part of its interval that its children cover (overlapping children
    /// count once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Self times of the spans called `name`, in microseconds.
    pub fn self_us(&self, self_ns: &[u64], name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns as f64 / 1e3)
            .collect()
    }

    /// Write every span as one tab-separated line.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        let self_ns = self.self_times_ns();
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns")?;
        for (i, (s, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{own}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("request", None, 0, 100),
            span("a", Some(0), 10, 30),
            // Overlaps `a`: the shared 20..30 is counted once.
            span("b", Some(0), 20, 50),
            span("b.child", Some(2), 25, 35),
            // Runs past its parent: only the covered part is subtracted.
            span("c", Some(0), 90, 120),
            span("other_root", None, 0, 7),
        ];
        assert_eq!(
            self_times_ns(&spans),
            vec![100 - 40 - 10, 20, 20, 10, 30, 7]
        );
    }

    #[test]
    fn recorded_spans_nest() {
        let mut t = Trace::new();
        let root = t.begin("request", 3, None);
        let v = t.time("leaf", 3, root, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            42
        });
        t.end(root);
        t.rename(root, "renamed");
        assert_eq!(v, 42);
        let own = t.self_times_ns();
        assert_eq!(t.spans[0].name, "renamed");
        assert!(t.spans[1].duration_ns() >= 2_000_000);
        assert_eq!(own[0], t.spans[0].duration_ns() - t.spans[1].duration_ns());
        assert_eq!(t.self_us(&own, "leaf").len(), 1);
        let mut out = Vec::new();
        t.write_tsv(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 3);
    }
}
