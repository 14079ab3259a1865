//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer:
//! name, start, end, the span that caused it, and the operation (one pass
//! of the workload) it belongs to. Counts are kept at the same boundaries
//! so per-layer ratios are measured where the work happens. Nothing is
//! written until [`Tracer::write`] at exit.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use serde_json::{Map, Number, Value};

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle to an open span, closed by [`Tracer::exit`].
#[must_use]
pub struct Open(usize);

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: BTreeMap<String, u64>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
            op: 0,
        }
    }

    /// Starts a new operation: spans opened from here on share its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &str) -> Open {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        Open(id)
    }

    pub fn exit(&mut self, open: Open) -> Duration {
        let top = self.stack.pop().expect("exit without a matching enter");
        assert_eq!(top, open.0, "spans must close in LIFO order");
        let end = self.now_ns();
        let span = &mut self.spans[open.0];
        span.end_ns = end;
        Duration::from_nanos(span.ns())
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    pub fn count(&mut self, name: &str, n: u64) {
        *self.counts.entry(name.to_string()).or_default() += n;
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Summed duration of every span called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Per-operation totals of the spans called any of `names` (one entry
    /// per op that has any).
    pub fn per_op_ns(&self, names: &[&str]) -> Vec<u64> {
        let mut by_op: BTreeMap<u64, u64> = BTreeMap::new();
        for s in self
            .spans
            .iter()
            .filter(|s| names.contains(&s.name.as_str()))
        {
            *by_op.entry(s.op).or_default() += s.ns();
        }
        by_op.into_values().collect()
    }

    /// Each span's duration minus the part its children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.ns().saturating_sub(c))
            .collect()
    }

    /// Sum of the self times of spans without a parent.
    pub fn top_level_self_ns(&self) -> u64 {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.parent.is_none())
            .map(|(_, ns)| ns)
            .sum()
    }

    /// Nanoseconds since the epoch: the traced run's wall time so far.
    pub fn wall_ns(&self) -> u64 {
        self.now_ns()
    }

    /// `(name, calls, total ns, self ns)` per span name, sorted by name.
    pub fn summary(&self) -> Vec<(String, u64, u64, u64)> {
        let mut rows: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let row = rows.entry(&s.name).or_default();
            row.0 += 1;
            row.1 += s.ns();
            row.2 += own;
        }
        rows.into_iter()
            .map(|(n, (c, t, o))| (n.to_string(), c, t, o))
            .collect()
    }

    /// Serializes spans and counts (the form a child process hands back).
    pub fn to_value(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let mut m = Map::new();
                m.insert("name".into(), Value::String(s.name.clone()));
                m.insert("op".into(), Value::Number(Number::U64(s.op)));
                m.insert(
                    "parent".into(),
                    s.parent
                        .map_or(Value::Null, |p| Value::Number(Number::U64(p as u64))),
                );
                m.insert("start_ns".into(), Value::Number(Number::U64(s.start_ns)));
                m.insert("end_ns".into(), Value::Number(Number::U64(s.end_ns)));
                Value::Object(m)
            })
            .collect();
        let counts = self
            .counts
            .iter()
            .map(|(k, v)| (k.clone(), Value::Number(Number::U64(*v))))
            .collect();
        let mut m = Map::new();
        m.insert("spans".into(), Value::Array(spans));
        m.insert("counts".into(), Value::Object(counts));
        Value::Object(m)
    }

    /// Adopts the spans and counts a child process recorded (see
    /// [`Tracer::to_value`]) as children of the currently open span. The
    /// child was spawned at `child_epoch_ns` on this tracer's clock and its
    /// own clock started a little later, so its spans stay inside the open
    /// span; they join the current operation.
    pub fn absorb(&mut self, child: &Value, child_epoch_ns: u64) -> Result<(), String> {
        let base = self.spans.len();
        let parent = self.stack.last().copied();
        let spans = child
            .get("spans")
            .and_then(Value::as_array)
            .ok_or("child trace has no spans")?;
        for s in spans {
            let num = |k: &str| {
                s.get(k)
                    .and_then(Value::as_number)
                    .and_then(Number::as_u64)
                    .ok_or(format!("child span lacks {k}"))
            };
            let child_parent = s
                .get("parent")
                .and_then(Value::as_number)
                .and_then(Number::as_u64);
            self.spans.push(Span {
                name: s
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("child span lacks name")?
                    .to_string(),
                op: self.op,
                parent: child_parent.map(|p| base + p as usize).or(parent),
                start_ns: child_epoch_ns + num("start_ns")?,
                end_ns: child_epoch_ns + num("end_ns")?,
            });
        }
        if let Some(counts) = child.get("counts").and_then(Value::as_object) {
            for (k, v) in counts {
                let n = v.as_number().and_then(Number::as_u64).unwrap_or(0);
                self.count(k, n);
            }
        }
        Ok(())
    }

    /// Writes every span, count and the self-time summary as JSON.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut doc = match self.to_value() {
            Value::Object(m) => m,
            _ => unreachable!("to_value builds an object"),
        };
        let summary = self
            .summary()
            .into_iter()
            .map(|(name, calls, total, own)| {
                let mut m = Map::new();
                m.insert("calls".into(), Value::Number(Number::U64(calls)));
                m.insert("total_ns".into(), Value::Number(Number::U64(total)));
                m.insert("self_ns".into(), Value::Number(Number::U64(own)));
                (name, Value::Object(m))
            })
            .collect();
        doc.insert("summary".into(), Value::Object(summary));
        doc.insert("wall_ns".into(), Value::Number(Number::U64(self.wall_ns())));
        let json = serde_json::to_string(&Value::Object(doc)).expect("JSON writing is infallible");
        std::fs::write(path, json)
    }
}
