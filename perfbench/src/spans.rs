//! In-memory spans recorded by the benchmark around its own calls into
//! the program's layers. Nothing here reaches inside the program: a
//! span covers exactly one call the benchmark makes.

use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.stimulus`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread; written out when the run ends.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let end = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = end;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `i`: its duration minus the part of its
    /// interval its direct children cover.
    pub fn self_ns(&self, i: usize) -> u64 {
        let Some(s) = self.spans.get(i) else { return 0 };
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(i))
            .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        // Union of the children's intervals, so overlapping children
        // are not subtracted twice.
        let mut covered = 0;
        let mut reach = s.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        s.dur_ns().saturating_sub(covered)
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(spans: Vec<Span>) -> Spans {
        Spans {
            epoch: Instant::now(),
            spans,
            open: Vec::new(),
        }
    }

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = recorder(vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("a.inner", Some(1), 15, 35),
            span("b", Some(0), 50, 70),
        ]);
        assert_eq!(t.self_ns(0), 100 - 30 - 20);
        assert_eq!(t.self_ns(1), 30 - 20);
        assert_eq!(t.self_ns(2), 20);
        assert_eq!(t.self_ns(9), 0);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let t = recorder(vec![
            span("root", None, 100, 200),
            span("x", Some(0), 90, 150),
            span("y", Some(0), 120, 160),
        ]);
        // Covered: [100, 160) = 60 of the root's 100.
        assert_eq!(t.self_ns(0), 40);
    }

    #[test]
    fn nesting_follows_enter_and_exit() {
        let mut t = Spans::new();
        t.enter("outer");
        t.time("inner", || std::hint::black_box(1 + 1));
        t.exit();
        t.time("after", || ());
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, None);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(t.durations_s("inner").len(), 1);
        assert!(t.self_ns(0) <= s[0].dur_ns());
    }
}
