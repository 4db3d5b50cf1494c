//! Lightweight observability for the Marion pipeline: wall-clock
//! spans, named counters and structured events, with no external
//! dependencies.
//!
//! The design optimises for the *disabled* case: a [`Tracer`] built
//! with [`Tracer::off`] carries no state and every operation on it is
//! a branch on `None`. Code under measurement takes `&Tracer` and
//! never needs to know whether collection is live.
//!
//! A live tracer accumulates [`Record`]s; [`Tracer::finish`] folds the
//! counter map into the record stream and yields a [`TraceData`],
//! which serialises as JSON Lines ([`TraceData::to_jsonl`]) for
//! `marion-report` to aggregate and render.
//! [`TraceData::parse_jsonl`] round-trips the JSONL form.
//!
//! Spans nest: the guard returned by [`Tracer::span`] records its
//! start eagerly (so records appear in begin order) and fills in the
//! duration when dropped. Counters are keyed by `(ctx, name)` and
//! accumulate; events carry arbitrary flat key/value payloads.
//!
//! ## Micro-spans and the self-profile
//!
//! [`Tracer::mspan`] opens a *micro-span*: an aggregated timed region
//! for hot interior loops where recording one [`Record::Span`] per
//! instance would flood the stream. Spans and micro-spans share one
//! call-tree: every drop folds `(count, duration)` into a trie node
//! keyed by the path of open span/micro-span names, and the parent
//! node accumulates the child's duration into its `child_us` (so
//! *self* time is `total_us - child_us`). [`Tracer::finish`] walks the
//! trie and emits one [`Record::Prof`] per path — deterministic
//! structure (paths and counts) for a given input, wall-clock values
//! varying run to run. Micro-spans must close in LIFO order; the guard
//! checks the balanced-stack invariant at drop and a violation
//! surfaces as the `mspan_unbalanced` counter in ctx `prof`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

pub mod hist;
pub mod json;

pub use hist::Histogram;

/// What the tracer should collect beyond the always-on spans,
/// counters and events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Emit a per-block reservation table (cycles x resource vector)
    /// event for every scheduled block. Verbose; off by default.
    pub reservation_tables: bool,
    /// Emit a per-block `sched_explain` event carrying the scheduler's
    /// cycle-by-cycle stall narrative for every final-pass block.
    /// Verbose; off by default.
    pub explanations: bool,
}

/// A scalar value carried by an [`Record::Event`] field.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Int(i64),
    Float(f64),
    Str(String),
}

impl Value {
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Typed lookups on a flat field list: an event's fields or a
/// [`json::parse_flat`] result. The first field with the name wins.
pub trait Fields {
    /// The value of field `name`.
    fn field(&self, name: &str) -> Option<&Value>;

    /// Field `name` when it is a string.
    fn str(&self, name: &str) -> Option<&str> {
        self.field(name).and_then(Value::as_str)
    }

    /// Field `name` when it is an integer.
    fn int(&self, name: &str) -> Option<i64> {
        self.field(name).and_then(Value::as_int)
    }
}

impl Fields for [(String, Value)] {
    fn field(&self, name: &str) -> Option<&Value> {
        self.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Int(v as i64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// One collected fact. `ctx` scopes the record (typically
/// `machine/function` or `machine/function/block`); `name` says what
/// it is.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A timed region. `depth` is the span-stack depth at begin time
    /// (0 = top level); `start_us`/`dur_us` are microseconds relative
    /// to the tracer's origin.
    Span {
        name: String,
        ctx: String,
        depth: u32,
        start_us: u64,
        dur_us: u64,
    },
    /// An accumulated named total.
    Counter {
        name: String,
        ctx: String,
        value: i64,
    },
    /// A one-off structured fact with flat key/value fields.
    Event {
        name: String,
        ctx: String,
        fields: Vec<(String, Value)>,
    },
    /// A fixed-bucket log2 distribution of samples (see
    /// [`hist::Histogram`]). Merging sums bucket counts losslessly.
    /// Boxed: the 65-bucket array would otherwise dominate the size of
    /// every `Record`.
    Hist {
        name: String,
        ctx: String,
        hist: Box<Histogram>,
    },
    /// A point-in-time level (queue depth, busy workers, ...). The
    /// tracer keeps the latest value per `(ctx, name)`; merging two
    /// traces keeps the maximum (high-water) of duplicate gauges, the
    /// only duplicate rule that is associative and commutative.
    Gauge {
        name: String,
        ctx: String,
        value: i64,
    },
    /// One aggregated call-tree profile node: all instances of the
    /// span/micro-span whose open-name path is `path` (components
    /// joined with `/`), with their total wall time and the portion
    /// attributed to nested children. Self time is
    /// `total_us - child_us`. Purely timing data, like spans. Merging
    /// sums `count`/`total_us`/`child_us` per path.
    Prof {
        path: String,
        count: u64,
        total_us: u64,
        child_us: u64,
    },
}

/// One node of the in-tracer profile trie (see [`Tracer::mspan`]).
struct ProfNode {
    name: String,
    parent: u32,
    children: Vec<u32>,
    count: u64,
    total_us: u64,
    child_us: u64,
}

struct Inner {
    origin: Instant,
    records: Vec<Record>,
    /// Indices into `records` of spans that have begun but not ended.
    open: Vec<usize>,
    counters: BTreeMap<(String, String), i64>,
    hists: BTreeMap<(String, String), Histogram>,
    gauges: BTreeMap<(String, String), i64>,
    config: TraceConfig,
    /// Profile trie; index 0 is the synthetic root.
    prof: Vec<ProfNode>,
    /// Current trie position (innermost open span/micro-span).
    prof_cur: u32,
    /// Number of currently open micro-span frames (balance check).
    prof_open: u32,
    /// Micro-span guards dropped out of LIFO order.
    prof_violations: u64,
}

impl Inner {
    /// Descends into the trie child of `prof_cur` named `name`
    /// (creating it on first visit); returns `(node, previous cur)`.
    fn prof_enter(&mut self, name: &str) -> (u32, u32) {
        let prev = self.prof_cur;
        let found = self.prof[prev as usize]
            .children
            .iter()
            .copied()
            .find(|&c| self.prof[c as usize].name == name);
        let node = match found {
            Some(c) => c,
            None => {
                let id = self.prof.len() as u32;
                self.prof.push(ProfNode {
                    name: name.to_string(),
                    parent: prev,
                    children: Vec::new(),
                    count: 0,
                    total_us: 0,
                    child_us: 0,
                });
                self.prof[prev as usize].children.push(id);
                id
            }
        };
        self.prof_cur = node;
        (node, prev)
    }

    /// Closes a trie frame: folds the elapsed time into `node`,
    /// attributes it to the parent's `child_us`, and restores `prev`
    /// as the current position.
    fn prof_exit(&mut self, node: u32, prev: u32, dur_us: u64) {
        let parent = self.prof[node as usize].parent;
        let n = &mut self.prof[node as usize];
        n.count += 1;
        n.total_us += dur_us;
        if parent != 0 {
            self.prof[parent as usize].child_us += dur_us;
        }
        self.prof_cur = prev;
    }
}

/// The collector. Cheap to pass by reference everywhere; all methods
/// are no-ops when built with [`Tracer::off`].
pub struct Tracer {
    inner: Option<RefCell<Inner>>,
}

impl Tracer {
    /// A disabled tracer: every operation is a no-op.
    pub fn off() -> Tracer {
        Tracer { inner: None }
    }

    /// A live tracer collecting according to `config`.
    pub fn new(config: TraceConfig) -> Tracer {
        Tracer {
            inner: Some(RefCell::new(Inner {
                origin: Instant::now(),
                records: Vec::new(),
                open: Vec::new(),
                counters: BTreeMap::new(),
                hists: BTreeMap::new(),
                gauges: BTreeMap::new(),
                config,
                prof: vec![ProfNode {
                    name: String::new(),
                    parent: 0,
                    children: Vec::new(),
                    count: 0,
                    total_us: 0,
                    child_us: 0,
                }],
                prof_cur: 0,
                prof_open: 0,
                prof_violations: 0,
            })),
        }
    }

    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether per-block reservation tables were requested (false when
    /// the tracer is off).
    pub fn wants_reservation_tables(&self) -> bool {
        self.inner
            .as_ref()
            .map(|i| i.borrow().config.reservation_tables)
            .unwrap_or(false)
    }

    /// Whether per-block schedule explanations were requested (false
    /// when the tracer is off).
    pub fn wants_explanations(&self) -> bool {
        self.inner
            .as_ref()
            .map(|i| i.borrow().config.explanations)
            .unwrap_or(false)
    }

    /// Begin a timed span; the region ends when the returned guard is
    /// dropped. Spans may nest freely.
    pub fn span(&self, ctx: &str, name: &str) -> SpanGuard<'_> {
        let frame = self.inner.as_ref().map(|cell| {
            let mut inner = cell.borrow_mut();
            let start_us = inner.origin.elapsed().as_micros() as u64;
            let depth = inner.open.len() as u32;
            let index = inner.records.len();
            inner.records.push(Record::Span {
                name: name.to_string(),
                ctx: ctx.to_string(),
                depth,
                start_us,
                dur_us: 0,
            });
            inner.open.push(index);
            let (node, prev) = inner.prof_enter(name);
            (index, node, prev)
        });
        SpanGuard {
            tracer: self,
            frame,
        }
    }

    /// Begin an aggregated micro-span for a hot interior region. No
    /// per-instance record is emitted; the elapsed time folds into the
    /// profile trie under the current open span/micro-span path (see
    /// [`Record::Prof`]). Guards must drop in LIFO order — the drop
    /// checks the balanced-stack invariant and records a violation
    /// otherwise. Near-zero cost when the tracer is off.
    pub fn mspan(&self, name: &str) -> MicroGuard<'_> {
        let frame = self.inner.as_ref().map(|cell| {
            let mut inner = cell.borrow_mut();
            let start_us = inner.origin.elapsed().as_micros() as u64;
            let (node, prev) = inner.prof_enter(name);
            inner.prof_open += 1;
            MicroFrame {
                node,
                prev,
                start_us,
                expect_open: inner.prof_open,
            }
        });
        MicroGuard {
            tracer: self,
            frame,
        }
    }

    /// Add `delta` to the counter `(ctx, name)`.
    pub fn add(&self, ctx: &str, name: &str, delta: i64) {
        if let Some(cell) = &self.inner {
            *cell
                .borrow_mut()
                .counters
                .entry((ctx.to_string(), name.to_string()))
                .or_insert(0) += delta;
        }
    }

    /// Records one sample into the log2 histogram `(ctx, name)`.
    pub fn observe(&self, ctx: &str, name: &str, value: u64) {
        if let Some(cell) = &self.inner {
            cell.borrow_mut()
                .hists
                .entry((ctx.to_string(), name.to_string()))
                .or_default()
                .record(value);
        }
    }

    /// Sets the gauge `(ctx, name)` to `value` (latest wins within one
    /// tracer; merges across traces keep the maximum).
    pub fn gauge(&self, ctx: &str, name: &str, value: i64) {
        if let Some(cell) = &self.inner {
            cell.borrow_mut()
                .gauges
                .insert((ctx.to_string(), name.to_string()), value);
        }
    }

    /// Record a structured event.
    pub fn event(&self, ctx: &str, name: &str, fields: &[(&str, Value)]) {
        if let Some(cell) = &self.inner {
            cell.borrow_mut().records.push(Record::Event {
                name: name.to_string(),
                ctx: ctx.to_string(),
                fields: fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            });
        }
    }

    /// End collection: close any still-open spans, fold the counter
    /// map into the record stream and return the data. `None` when
    /// the tracer was off.
    pub fn finish(self) -> Option<TraceData> {
        let cell = self.inner?;
        let mut inner = cell.into_inner();
        // Close leaked spans at the current time so the data is
        // well-formed even if a guard was forgotten.
        let now = inner.origin.elapsed().as_micros() as u64;
        while let Some(index) = inner.open.pop() {
            if let Record::Span {
                start_us, dur_us, ..
            } = &mut inner.records[index]
            {
                *dur_us = now.saturating_sub(*start_us);
            }
        }
        let counters = std::mem::take(&mut inner.counters);
        for ((ctx, name), value) in counters {
            inner.records.push(Record::Counter { name, ctx, value });
        }
        let hists = std::mem::take(&mut inner.hists);
        for ((ctx, name), hist) in hists {
            inner.records.push(Record::Hist {
                name,
                ctx,
                hist: Box::new(hist),
            });
        }
        let gauges = std::mem::take(&mut inner.gauges);
        for ((ctx, name), value) in gauges {
            inner.records.push(Record::Gauge { name, ctx, value });
        }
        if inner.prof_violations > 0 {
            let value = inner.prof_violations as i64;
            inner.records.push(Record::Counter {
                name: "mspan_unbalanced".to_string(),
                ctx: "prof".to_string(),
                value,
            });
        }
        // Emit the profile trie depth-first, children in name order so
        // the record stream is deterministic for a given input.
        let mut stack: Vec<(u32, String)> = Vec::new();
        let mut roots = inner.prof[0].children.clone();
        roots.sort_by(|&a, &b| {
            inner.prof[a as usize]
                .name
                .cmp(&inner.prof[b as usize].name)
        });
        for r in roots.into_iter().rev() {
            stack.push((r, inner.prof[r as usize].name.clone()));
        }
        let mut prof_records = Vec::new();
        while let Some((id, path)) = stack.pop() {
            let node = &inner.prof[id as usize];
            if node.count > 0 {
                prof_records.push(Record::Prof {
                    path: path.clone(),
                    count: node.count,
                    total_us: node.total_us,
                    child_us: node.child_us,
                });
            }
            let mut kids = node.children.clone();
            kids.sort_by(|&a, &b| {
                inner.prof[a as usize]
                    .name
                    .cmp(&inner.prof[b as usize].name)
            });
            for k in kids.into_iter().rev() {
                stack.push((k, format!("{path}/{}", inner.prof[k as usize].name)));
            }
        }
        inner.records.extend(prof_records);
        Some(TraceData {
            records: inner.records,
        })
    }
}

/// Guard returned by [`Tracer::span`]; records the span's duration on
/// drop.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    /// `(record index, profile-trie node, previous trie position)`.
    frame: Option<(usize, u32, u32)>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let (Some(cell), Some((index, node, prev))) = (&self.tracer.inner, self.frame) else {
            return;
        };
        let mut inner = cell.borrow_mut();
        let now = inner.origin.elapsed().as_micros() as u64;
        if let Some(pos) = inner.open.iter().rposition(|&i| i == index) {
            inner.open.remove(pos);
        }
        let mut dur = 0;
        if let Record::Span {
            start_us, dur_us, ..
        } = &mut inner.records[index]
        {
            *dur_us = now.saturating_sub(*start_us);
            dur = *dur_us;
        }
        inner.prof_exit(node, prev, dur);
    }
}

struct MicroFrame {
    node: u32,
    prev: u32,
    start_us: u64,
    /// `prof_open` right after this frame pushed; at drop any other
    /// value means guards closed out of LIFO order.
    expect_open: u32,
}

/// Guard returned by [`Tracer::mspan`]; folds the elapsed time into
/// the profile trie on drop and checks the balanced-stack invariant.
pub struct MicroGuard<'t> {
    tracer: &'t Tracer,
    frame: Option<MicroFrame>,
}

impl Drop for MicroGuard<'_> {
    fn drop(&mut self) {
        let (Some(cell), Some(frame)) = (&self.tracer.inner, self.frame.take()) else {
            return;
        };
        let mut inner = cell.borrow_mut();
        let now = inner.origin.elapsed().as_micros() as u64;
        if inner.prof_open != frame.expect_open {
            // Balanced-stack invariant: this guard is not the top of
            // the micro-span stack (a nested guard leaked or was
            // dropped out of order). Recover by truncating to this
            // frame and record the violation.
            inner.prof_violations += 1;
        }
        inner.prof_open = frame.expect_open.saturating_sub(1);
        inner.prof_exit(frame.node, frame.prev, now.saturating_sub(frame.start_us));
    }
}

/// A finished trace: the ordered record stream plus query and
/// serialisation helpers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceData {
    pub records: Vec<Record>,
}

impl TraceData {
    /// Sum of counter `name` across all contexts.
    pub fn counter_total(&self, name: &str) -> i64 {
        self.records
            .iter()
            .filter_map(|r| match r {
                Record::Counter { name: n, value, .. } if n == name => Some(*value),
                _ => None,
            })
            .sum()
    }

    /// The counter `(ctx, name)`, if recorded.
    pub fn counter(&self, ctx: &str, name: &str) -> Option<i64> {
        self.records.iter().find_map(|r| match r {
            Record::Counter {
                name: n,
                ctx: c,
                value,
            } if n == name && c == ctx => Some(*value),
            _ => None,
        })
    }

    /// All spans named `name`, in begin order.
    pub fn spans_named(&self, name: &str) -> Vec<&Record> {
        self.records
            .iter()
            .filter(|r| matches!(r, Record::Span { name: n, .. } if n == name))
            .collect()
    }

    /// All events named `name`, in record order.
    pub fn events_named(&self, name: &str) -> Vec<(&str, &[(String, Value)])> {
        self.records
            .iter()
            .filter_map(|r| match r {
                Record::Event {
                    name: n,
                    ctx,
                    fields,
                } if n == name => Some((ctx.as_str(), fields.as_slice())),
                _ => None,
            })
            .collect()
    }

    /// The histogram `(ctx, name)`, if recorded.
    pub fn hist(&self, ctx: &str, name: &str) -> Option<&Histogram> {
        self.records.iter().find_map(|r| match r {
            Record::Hist {
                name: n,
                ctx: c,
                hist,
            } if n == name && c == ctx => Some(hist.as_ref()),
            _ => None,
        })
    }

    /// All profile nodes, in record order: `(path, count, total_us,
    /// child_us)`.
    pub fn profs(&self) -> Vec<(&str, u64, u64, u64)> {
        self.records
            .iter()
            .filter_map(|r| match r {
                Record::Prof {
                    path,
                    count,
                    total_us,
                    child_us,
                } => Some((path.as_str(), *count, *total_us, *child_us)),
                _ => None,
            })
            .collect()
    }

    /// Summed `(count, total_us, child_us)` of every profile node with
    /// exactly this path; `None` when the path never appears.
    pub fn prof_total(&self, path: &str) -> Option<(u64, u64, u64)> {
        let mut found = None;
        for r in &self.records {
            if let Record::Prof {
                path: p,
                count,
                total_us,
                child_us,
            } = r
            {
                if p == path {
                    let slot = found.get_or_insert((0, 0, 0));
                    slot.0 += count;
                    slot.1 += total_us;
                    slot.2 += child_us;
                }
            }
        }
        found
    }

    /// The gauge `(ctx, name)`, if recorded.
    pub fn gauge(&self, ctx: &str, name: &str) -> Option<i64> {
        self.records.iter().find_map(|r| match r {
            Record::Gauge {
                name: n,
                ctx: c,
                value,
            } if n == name && c == ctx => Some(*value),
            _ => None,
        })
    }

    /// Merge another trace's records (used by `marion-report` when
    /// aggregating several JSONL files). Spans and events append in
    /// order; a counter whose `(ctx, name)` already exists is *summed*
    /// into the existing record rather than appended, so per-context
    /// lookups ([`TraceData::counter`], which returns the first match)
    /// see the combined total instead of silently reporting whichever
    /// file came first. Histograms with an existing `(ctx, name)`
    /// merge bucket-wise (lossless — see [`hist::Histogram::merge`]);
    /// duplicate gauges keep the maximum, so merging is associative
    /// and commutative for every record kind.
    pub fn merge(&mut self, other: TraceData) {
        for record in other.records {
            match &record {
                Record::Counter { name, ctx, value } => {
                    let existing = self.records.iter_mut().find_map(|r| match r {
                        Record::Counter {
                            name: n,
                            ctx: c,
                            value: v,
                        } if n == name && c == ctx => Some(v),
                        _ => None,
                    });
                    if let Some(v) = existing {
                        *v += value;
                        continue;
                    }
                }
                Record::Hist { name, ctx, hist } => {
                    let existing = self.records.iter_mut().find_map(|r| match r {
                        Record::Hist {
                            name: n,
                            ctx: c,
                            hist: h,
                        } if n == name && c == ctx => Some(h),
                        _ => None,
                    });
                    if let Some(h) = existing {
                        h.merge(hist);
                        continue;
                    }
                }
                Record::Gauge { name, ctx, value } => {
                    let existing = self.records.iter_mut().find_map(|r| match r {
                        Record::Gauge {
                            name: n,
                            ctx: c,
                            value: v,
                        } if n == name && c == ctx => Some(v),
                        _ => None,
                    });
                    if let Some(v) = existing {
                        *v = (*v).max(*value);
                        continue;
                    }
                }
                Record::Prof {
                    path,
                    count,
                    total_us,
                    child_us,
                } => {
                    let existing = self.records.iter_mut().find_map(|r| match r {
                        Record::Prof {
                            path: p,
                            count: c,
                            total_us: t,
                            child_us: ch,
                        } if p == path => Some((c, t, ch)),
                        _ => None,
                    });
                    if let Some((c, t, ch)) = existing {
                        *c += count;
                        *t += total_us;
                        *ch += child_us;
                        continue;
                    }
                }
                _ => {}
            }
            self.records.push(record);
        }
    }

    /// Serialise as JSON Lines: one flat object per record, with a
    /// `"t"` discriminator of `"span"`, `"counter"` or `"event"`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for record in &self.records {
            let mut obj = json::ObjWriter::new();
            match record {
                Record::Span {
                    name,
                    ctx,
                    depth,
                    start_us,
                    dur_us,
                } => {
                    obj.str("t", "span");
                    obj.str("name", name);
                    obj.str("ctx", ctx);
                    obj.int("depth", *depth as i64);
                    obj.int("start_us", *start_us as i64);
                    obj.int("dur_us", *dur_us as i64);
                }
                Record::Counter { name, ctx, value } => {
                    obj.str("t", "counter");
                    obj.str("name", name);
                    obj.str("ctx", ctx);
                    obj.int("value", *value);
                }
                Record::Event { name, ctx, fields } => {
                    obj.str("t", "event");
                    obj.str("name", name);
                    obj.str("ctx", ctx);
                    for (k, v) in fields {
                        match v {
                            Value::Int(i) => obj.int(k, *i),
                            Value::Float(f) => obj.float(k, *f),
                            Value::Str(s) => obj.str(k, s),
                        }
                    }
                }
                Record::Hist { name, ctx, hist } => {
                    obj.str("t", "hist");
                    obj.str("name", name);
                    obj.str("ctx", ctx);
                    obj.int("count", hist.count() as i64);
                    // The sum is carried as a string: it is a u64 and
                    // may exceed i64 when samples saturate.
                    obj.str("sum", &hist.sum().to_string());
                    obj.str("buckets", &hist.encode_counts());
                }
                Record::Gauge { name, ctx, value } => {
                    obj.str("t", "gauge");
                    obj.str("name", name);
                    obj.str("ctx", ctx);
                    obj.int("value", *value);
                }
                Record::Prof {
                    path,
                    count,
                    total_us,
                    child_us,
                } => {
                    obj.str("t", "prof");
                    obj.str("path", path);
                    obj.int("count", *count as i64);
                    obj.int("total_us", *total_us as i64);
                    obj.int("child_us", *child_us as i64);
                }
            }
            out.push_str(&obj.finish());
            out.push('\n');
        }
        out
    }

    /// Parse the JSON Lines form produced by [`TraceData::to_jsonl`].
    /// Blank lines are skipped; unknown `"t"` values and missing
    /// required keys are errors.
    pub fn parse_jsonl(text: &str) -> Result<TraceData, String> {
        let mut records = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let fields = json::parse_flat(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            let get_str = |key: &str| -> Result<String, String> {
                fields
                    .str(key)
                    .map(str::to_string)
                    .ok_or_else(|| format!("line {}: missing string {key:?}", lineno + 1))
            };
            let get_int = |key: &str| -> Result<i64, String> {
                fields
                    .int(key)
                    .ok_or_else(|| format!("line {}: missing integer {key:?}", lineno + 1))
            };
            let tag = get_str("t")?;
            match tag.as_str() {
                "span" => records.push(Record::Span {
                    name: get_str("name")?,
                    ctx: get_str("ctx")?,
                    depth: get_int("depth")? as u32,
                    start_us: get_int("start_us")? as u64,
                    dur_us: get_int("dur_us")? as u64,
                }),
                "counter" => records.push(Record::Counter {
                    name: get_str("name")?,
                    ctx: get_str("ctx")?,
                    value: get_int("value")?,
                }),
                "hist" => {
                    let buckets = get_str("buckets")?;
                    let sum: u64 = get_str("sum")?
                        .parse()
                        .map_err(|_| format!("line {}: bad hist sum", lineno + 1))?;
                    let hist = Histogram::from_parts(&buckets, sum)
                        .ok_or_else(|| format!("line {}: bad hist buckets", lineno + 1))?;
                    if hist.count() as i64 != get_int("count")? {
                        return Err(format!(
                            "line {}: hist count does not match its buckets",
                            lineno + 1
                        ));
                    }
                    records.push(Record::Hist {
                        name: get_str("name")?,
                        ctx: get_str("ctx")?,
                        hist: Box::new(hist),
                    });
                }
                "gauge" => records.push(Record::Gauge {
                    name: get_str("name")?,
                    ctx: get_str("ctx")?,
                    value: get_int("value")?,
                }),
                "prof" => records.push(Record::Prof {
                    path: get_str("path")?,
                    count: get_int("count")? as u64,
                    total_us: get_int("total_us")? as u64,
                    child_us: get_int("child_us")? as u64,
                }),
                "event" => {
                    let name = get_str("name")?;
                    let ctx = get_str("ctx")?;
                    let extra = fields
                        .into_iter()
                        .filter(|(k, _)| k != "t" && k != "name" && k != "ctx")
                        .collect();
                    records.push(Record::Event {
                        name,
                        ctx,
                        fields: extra,
                    });
                }
                other => {
                    return Err(format!(
                        "line {}: unknown record type {other:?}",
                        lineno + 1
                    ))
                }
            }
        }
        Ok(TraceData { records })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_collects_nothing() {
        let tracer = Tracer::off();
        {
            let _g = tracer.span("ctx", "phase");
            tracer.add("ctx", "n", 3);
            tracer.event("ctx", "e", &[("k", Value::Int(1))]);
        }
        assert!(!tracer.is_on());
        assert!(tracer.finish().is_none());
    }

    #[test]
    fn spans_nest_and_keep_begin_order() {
        let tracer = Tracer::new(TraceConfig::default());
        {
            let _outer = tracer.span("f", "compile");
            {
                let _a = tracer.span("f", "select");
            }
            {
                let _b = tracer.span("f", "schedule");
                let _c = tracer.span("f/b0", "block");
            }
        }
        let data = tracer.finish().unwrap();
        let spans: Vec<(String, u32)> = data
            .records
            .iter()
            .filter_map(|r| match r {
                Record::Span { name, depth, .. } => Some((name.clone(), *depth)),
                _ => None,
            })
            .collect();
        assert_eq!(
            spans,
            vec![
                ("compile".to_string(), 0),
                ("select".to_string(), 1),
                ("schedule".to_string(), 1),
                ("block".to_string(), 2),
            ]
        );
        // Parent spans cover their children.
        let dur = |name: &str| match data.spans_named(name)[0] {
            Record::Span {
                start_us, dur_us, ..
            } => (*start_us, *dur_us),
            _ => unreachable!(),
        };
        let (outer_start, outer_dur) = dur("compile");
        let (inner_start, inner_dur) = dur("block");
        assert!(inner_start >= outer_start);
        assert!(inner_start + inner_dur <= outer_start + outer_dur);
    }

    #[test]
    fn leaked_spans_are_closed_at_finish() {
        let tracer = Tracer::new(TraceConfig::default());
        let guard = tracer.span("f", "open");
        std::mem::forget(guard);
        let data = tracer.finish().unwrap();
        match &data.records[0] {
            Record::Span { name, .. } => assert_eq!(name, "open"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn counters_accumulate_per_context_and_total() {
        let tracer = Tracer::new(TraceConfig::default());
        tracer.add("m/f1", "spills", 2);
        tracer.add("m/f1", "spills", 3);
        tracer.add("m/f2", "spills", 7);
        tracer.add("m/f1", "insts", 40);
        let data = tracer.finish().unwrap();
        assert_eq!(data.counter("m/f1", "spills"), Some(5));
        assert_eq!(data.counter("m/f2", "spills"), Some(7));
        assert_eq!(data.counter_total("spills"), 12);
        assert_eq!(data.counter_total("insts"), 40);
        assert_eq!(data.counter("m/f3", "spills"), None);
    }

    #[test]
    fn jsonl_round_trips() {
        let tracer = Tracer::new(TraceConfig::default());
        {
            let _g = tracer.span("m/f", "compile");
            tracer.event(
                "m/f/b0",
                "sched_block",
                &[
                    ("nodes", Value::Int(12)),
                    ("util", Value::Float(0.75)),
                    ("table", Value::Str("c0 | IF ID\nc1 | -- ID".to_string())),
                ],
            );
        }
        tracer.add("m/f", "insts_generated", 17);
        let data = tracer.finish().unwrap();
        let jsonl = data.to_jsonl();
        let parsed = TraceData::parse_jsonl(&jsonl).unwrap();
        assert_eq!(parsed, data);
    }

    #[test]
    fn merge_sums_duplicate_counters() {
        let mk = |spills: i64, insts: i64| {
            let t = Tracer::new(TraceConfig::default());
            t.add("m/f", "spills", spills);
            t.add("m/f", "insts", insts);
            t.event("m/f", "note", &[("run", Value::Int(spills))]);
            t.finish().unwrap()
        };
        let mut merged = mk(2, 10);
        merged.merge(mk(5, 30));
        // Same (ctx, name) folds into one record; the first-match
        // lookup sees the combined total.
        assert_eq!(merged.counter("m/f", "spills"), Some(7));
        assert_eq!(merged.counter("m/f", "insts"), Some(40));
        assert_eq!(merged.counter_total("spills"), 7);
        let counter_records = merged
            .records
            .iter()
            .filter(|r| matches!(r, Record::Counter { .. }))
            .count();
        assert_eq!(counter_records, 2, "duplicates coalesced");
        // Events from both traces survive.
        assert_eq!(merged.events_named("note").len(), 2);
    }

    #[test]
    fn merge_keeps_distinct_contexts_apart() {
        let t1 = Tracer::new(TraceConfig::default());
        t1.add("m/f1", "spills", 3);
        let t2 = Tracer::new(TraceConfig::default());
        t2.add("m/f2", "spills", 4);
        let mut merged = t1.finish().unwrap();
        merged.merge(t2.finish().unwrap());
        assert_eq!(merged.counter("m/f1", "spills"), Some(3));
        assert_eq!(merged.counter("m/f2", "spills"), Some(4));
        assert_eq!(merged.counter_total("spills"), 7);
    }

    #[test]
    fn hist_and_gauge_jsonl_round_trip_identity() {
        let tracer = Tracer::new(TraceConfig::default());
        tracer.observe("m/f", "service_us", 0);
        tracer.observe("m/f", "service_us", 3);
        tracer.observe("m/f", "service_us", 1_000_000);
        tracer.observe("m/g", "service_us", u64::MAX);
        tracer.gauge("serve", "queue_depth", 7);
        tracer.gauge("serve", "queue_depth", 4); // latest wins
        tracer.gauge("serve", "busy_workers", 2);
        let data = tracer.finish().unwrap();
        assert_eq!(data.gauge("serve", "queue_depth"), Some(4));
        assert_eq!(data.hist("m/f", "service_us").unwrap().count(), 3);
        let parsed = TraceData::parse_jsonl(&data.to_jsonl()).unwrap();
        assert_eq!(parsed, data, "JSONL round-trip is the identity");
    }

    #[test]
    fn merge_combines_hists_and_takes_gauge_maximum() {
        let mk = |v: u64, depth: i64| {
            let t = Tracer::new(TraceConfig::default());
            t.observe("m/f", "wait_us", v);
            t.gauge("serve", "queue_depth", depth);
            t.finish().unwrap()
        };
        let mut merged = mk(4, 9);
        merged.merge(mk(1024, 3));
        let h = merged.hist("m/f", "wait_us").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 1028);
        assert_eq!(merged.gauge("serve", "queue_depth"), Some(9), "high-water");
        let hist_records = merged
            .records
            .iter()
            .filter(|r| matches!(r, Record::Hist { .. }))
            .count();
        assert_eq!(hist_records, 1, "duplicates coalesced");
        // Merge order does not matter.
        let mut other_way = mk(1024, 3);
        other_way.merge(mk(4, 9));
        assert_eq!(
            other_way.hist("m/f", "wait_us"),
            merged.hist("m/f", "wait_us")
        );
        assert_eq!(other_way.gauge("serve", "queue_depth"), Some(9));
    }

    #[test]
    fn parse_rejects_bad_hist_lines() {
        // count disagreeing with buckets is rejected, not silently fixed.
        let bad = r#"{"t":"hist","name":"h","ctx":"c","count":5,"sum":"4","buckets":"3:1"}"#;
        assert!(TraceData::parse_jsonl(bad).is_err());
        let bad_buckets =
            r#"{"t":"hist","name":"h","ctx":"c","count":1,"sum":"4","buckets":"99:1"}"#;
        assert!(TraceData::parse_jsonl(bad_buckets).is_err());
        let ok = r#"{"t":"hist","name":"h","ctx":"c","count":1,"sum":"4","buckets":"3:1"}"#;
        assert_eq!(
            TraceData::parse_jsonl(ok)
                .unwrap()
                .hist("c", "h")
                .unwrap()
                .sum(),
            4
        );
    }

    #[test]
    fn micro_spans_fold_into_the_profile_trie() {
        let tracer = Tracer::new(TraceConfig::default());
        {
            let _outer = tracer.span("m/f", "strategy");
            for _ in 0..3 {
                let _m = tracer.mspan("ig_build");
            }
            {
                let _m = tracer.mspan("color");
                let _n = tracer.mspan("simplify");
            }
        }
        let data = tracer.finish().unwrap();
        let (count, _, _) = data.prof_total("strategy/ig_build").unwrap();
        assert_eq!(count, 3);
        assert_eq!(data.prof_total("strategy/color").unwrap().0, 1);
        assert_eq!(data.prof_total("strategy/color/simplify").unwrap().0, 1);
        // Parent totals cover children: strategy's child_us is the sum
        // of its direct children's totals.
        let (_, _, strat_child) = data.prof_total("strategy").unwrap();
        let ig = data.prof_total("strategy/ig_build").unwrap().1;
        let color = data.prof_total("strategy/color").unwrap().1;
        assert_eq!(strat_child, ig + color);
        let (_, color_total, color_child) = data.prof_total("strategy/color").unwrap();
        let simplify = data.prof_total("strategy/color/simplify").unwrap().1;
        assert_eq!(color_child, simplify);
        assert!(color_total >= color_child);
        // Balanced usage records no violation.
        assert_eq!(data.counter("prof", "mspan_unbalanced"), None);
    }

    #[test]
    fn unbalanced_micro_span_stack_is_detected_at_drop() {
        let tracer = Tracer::new(TraceConfig::default());
        {
            let _outer = tracer.span("m/f", "strategy");
            let parent = tracer.mspan("parent");
            let child = tracer.mspan("child");
            std::mem::forget(child); // leak: parent now drops first
            drop(parent);
        }
        let data = tracer.finish().unwrap();
        assert_eq!(data.counter("prof", "mspan_unbalanced"), Some(1));
        // The parent still folded (recovered), the leaked child never
        // closed so it has no instances.
        assert_eq!(data.prof_total("strategy/parent").unwrap().0, 1);
        assert!(data.prof_total("strategy/parent/child").is_none());
    }

    #[test]
    fn prof_records_round_trip_and_merge_by_path() {
        let mk = || {
            let t = Tracer::new(TraceConfig::default());
            {
                let _s = t.span("m/f", "strategy");
                let _m = t.mspan("ig_build");
            }
            t.finish().unwrap()
        };
        let data = mk();
        let parsed = TraceData::parse_jsonl(&data.to_jsonl()).unwrap();
        assert_eq!(parsed, data, "prof JSONL round-trip is the identity");
        let mut merged = mk();
        merged.merge(mk());
        assert_eq!(merged.prof_total("strategy/ig_build").unwrap().0, 2);
        let prof_records = merged
            .records
            .iter()
            .filter(|r| matches!(r, Record::Prof { .. }))
            .count();
        assert_eq!(prof_records, 2, "duplicates coalesced per path");
    }

    #[test]
    fn off_tracer_micro_spans_are_no_ops() {
        let tracer = Tracer::off();
        {
            let _m = tracer.mspan("hot_loop");
        }
        assert!(tracer.finish().is_none());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(TraceData::parse_jsonl("not json").is_err());
        assert!(TraceData::parse_jsonl("{\"t\":\"mystery\"}").is_err());
        assert!(TraceData::parse_jsonl("{\"t\":\"span\",\"name\":\"x\"}").is_err());
        // Blank lines are fine.
        assert!(TraceData::parse_jsonl("\n\n").unwrap().records.is_empty());
    }
}
