//! The benchmark's own spans: one around each call into a layer's public
//! functions, kept in memory, written out as Perfetto-loadable JSON when
//! the run ends, and reduced to each layer's self time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Spans of one solve or job share a `group`.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer or step name.
    pub name: &'static str,
    /// Solve or job this span belongs to.
    pub group: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

/// In-memory span store. A disabled store records nothing, so untraced
/// runs pay no span cost.
pub struct Spans {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recording store whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            on: true,
            spans: Vec::new(),
        }
    }

    /// A store that records nothing.
    pub fn off() -> Spans {
        Spans {
            on: false,
            ..Spans::new()
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The recorder's epoch (jobs stamp times against it).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Store a span whose times were taken elsewhere; returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        group: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        if !self.on {
            return 0;
        }
        self.spans.push(Span {
            name,
            group,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        self.spans.len() - 1
    }

    /// Open a span now; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, group: u64, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let t = self.now();
        Some(self.push(name, group, parent, t, t))
    }

    /// Close a span returned by [`Spans::open`] now.
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        group: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, group, parent);
        let r = f();
        self.close(id);
        r
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Perfetto / chrome-trace JSON: nestable async slices, one track per
    /// group, so the spans of overlapping jobs stay apart. Each slice
    /// carries its span index and parent index in `args`.
    pub fn to_perfetto(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            for (ph, ts) in [("b", s.start_ns), ("e", s.end_ns)] {
                out.push_str(if first { "\n" } else { ",\n" });
                first = false;
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"{ph}\",\"id\":{},\
                     \"pid\":1,\"tid\":1,\"ts\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent}}}}}",
                    s.name,
                    s.group,
                    ts as f64 / 1e3
                );
            }
        }
        out.push_str("\n]}\n");
        out
    }

    /// Self time per span name: `(total self ns, span count)`, where a
    /// span's self time is its duration minus the part of it its children
    /// cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut cover: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| a < b)
                .collect();
            cover.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in cover {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let e = out.entry(s.name).or_default();
            e.0 += (s.end_ns - s.start_ns) - covered;
            e.1 += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut s = Spans::new();
        let root = s.push("solve", 7, None, 0, 100);
        // Two overlapping children cover 10..50; one pokes past the end.
        s.push("a", 7, Some(root), 10, 40);
        s.push("b", 7, Some(root), 30, 50);
        let c = s.push("c", 7, Some(root), 90, 130);
        s.push("d", 7, Some(c), 95, 100);
        let t = s.self_times();
        assert_eq!(t["solve"], (100 - 40 - 10, 1));
        assert_eq!(t["a"], (30, 1));
        assert_eq!(t["b"], (20, 1));
        assert_eq!(t["c"], (40 - 5, 1));
        assert_eq!(t["d"], (5, 1));
    }

    #[test]
    fn perfetto_json_pairs_every_span() {
        let mut s = Spans::new();
        let root = s.push("job", 3, None, 1_000, 9_000);
        s.push("inject.run", 3, Some(root), 2_000, 8_000);
        let j = s.to_perfetto();
        assert_eq!(j.matches("\"ph\":\"b\"").count(), 2);
        assert_eq!(j.matches("\"ph\":\"e\"").count(), 2);
        assert!(j.contains("\"name\":\"inject.run\""));
        assert!(j.contains("\"parent\":0"));
        assert!(j.contains("\"id\":3"));
        assert!(j.starts_with('{') && j.trim_end().ends_with('}'));
    }
}
