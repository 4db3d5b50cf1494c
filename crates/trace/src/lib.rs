//! Lightweight observability for the Marion pipeline: timed spans,
//! named counters, histograms and gauges, with no external
//! dependencies.
//!
//! The design optimises for the *disabled* case: a [`Tracer`] built
//! with [`Tracer::off`] carries no state and every operation on it is
//! a branch on `None`. Code under measurement takes `&Tracer` and
//! never needs to know whether collection is live.
//!
//! A trace records no per-block or per-decision events. What a reader
//! needs per block (a reservation table, a stall narrative) is rebuilt
//! on demand by replaying the block's deterministic schedule.
//!
//! ## Spans and the call-tree profile
//!
//! [`Tracer::span`] is the one timed region. Its guard folds
//! `(1 call, elapsed µs)` into the profile node for the path of span
//! names open when it began (`compile_func/strategy/regalloc`), so a
//! span inside a hot loop costs one node update, never a record per
//! instance. Guards must drop in LIFO order; a guard that is not the
//! innermost open span when it drops counts in the `span_unbalanced`
//! counter of ctx `prof`. A span that never drops never folds.
//!
//! The profile keeps each path's calls and total time only. A node's
//! self time is derived from the tree — its total minus its direct
//! children's totals — by whoever reads it (`marion_bench::flame`).
//!
//! ## The finished trace
//!
//! [`Tracer::finish`] moves the tracer's keyed maps into a
//! [`TraceData`]: counters, histograms and gauges keyed by
//! `(ctx, name)` and the profile keyed by path. [`TraceData::merge`]
//! is a per-map union, so merge order never matters;
//! [`TraceData::to_jsonl`] writes one JSON line per entry, and
//! [`TraceData::parse_jsonl`] folds lines back in exactly as `merge`
//! folds traces, so a concatenation of trace files reads as their
//! merge.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

pub mod hist;
pub mod json;

pub use hist::Histogram;

/// Asks a compile for a trace (`CompileOptions::trace`). It has no
/// options: a trace always holds the spans, counters, histograms and
/// gauges, and nothing else.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceConfig {}

/// A scalar value of a flat JSON object (see [`json::parse_flat`]).
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

/// Typed lookups on a flat field list, such as a [`json::parse_flat`]
/// result. The first field with the name wins.
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

/// One call-tree profile node: every call of the spans whose path of
/// open span names is the node's key, and their summed wall time.
/// Merging sums both fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Prof {
    pub count: u64,
    pub total_us: u64,
}

impl Prof {
    fn add(&mut self, other: Prof) {
        self.count += other.count;
        self.total_us += other.total_us;
    }
}

/// A `(ctx, name)` key of a counter, histogram or gauge.
pub type Key = (String, String);

fn key(ctx: &str, name: &str) -> Key {
    (ctx.to_string(), name.to_string())
}

/// A finished trace: keyed maps with query, merge and serialisation
/// helpers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceData {
    /// Accumulated named totals.
    pub counters: BTreeMap<Key, i64>,
    /// Fixed-bucket log2 sample distributions (see [`Histogram`]).
    pub hists: BTreeMap<Key, Histogram>,
    /// Point-in-time levels (queue depth, busy workers, ...): the
    /// latest value within one tracer, the maximum across merges.
    pub gauges: BTreeMap<Key, i64>,
    /// The call-tree profile, keyed by `/`-joined span-name path.
    pub profile: BTreeMap<String, Prof>,
}

/// One node of the tracer's call tree.
struct Node {
    name: String,
    parent: u32,
    children: Vec<u32>,
    prof: Prof,
}

struct Inner {
    /// Everything but the profile, which [`Tracer::finish`] builds
    /// from `nodes`.
    data: TraceData,
    /// The call tree; index 0 is the synthetic root.
    nodes: Vec<Node>,
    /// The innermost open span's node.
    cur: u32,
    /// Spans open now.
    depth: u32,
    /// Guards dropped while a span opened inside them was still open.
    unbalanced: i64,
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

    /// A live tracer.
    pub fn on() -> Tracer {
        Tracer {
            inner: Some(RefCell::new(Inner {
                data: TraceData::default(),
                nodes: vec![Node {
                    name: String::new(),
                    parent: 0,
                    children: Vec::new(),
                    prof: Prof::default(),
                }],
                cur: 0,
                depth: 0,
                unbalanced: 0,
            })),
        }
    }

    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Begins a timed span; the region ends when the returned guard is
    /// dropped, which folds one call and its duration into the profile
    /// node of the current path of open spans. Spans nest freely but
    /// must close in LIFO order.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        let frame = self.inner.as_ref().map(|cell| {
            let mut inner = cell.borrow_mut();
            let prev = inner.cur;
            let found = inner.nodes[prev as usize]
                .children
                .iter()
                .copied()
                .find(|&c| inner.nodes[c as usize].name == name);
            let node = found.unwrap_or_else(|| {
                let id = inner.nodes.len() as u32;
                inner.nodes.push(Node {
                    name: name.to_string(),
                    parent: prev,
                    children: Vec::new(),
                    prof: Prof::default(),
                });
                inner.nodes[prev as usize].children.push(id);
                id
            });
            inner.cur = node;
            inner.depth += 1;
            Frame {
                node,
                prev,
                depth: inner.depth,
                start: Instant::now(),
            }
        });
        SpanGuard {
            tracer: self,
            frame,
        }
    }

    /// Add `delta` to the counter `(ctx, name)`.
    pub fn add(&self, ctx: &str, name: &str, delta: i64) {
        if let Some(cell) = &self.inner {
            *cell
                .borrow_mut()
                .data
                .counters
                .entry(key(ctx, name))
                .or_insert(0) += delta;
        }
    }

    /// Records one sample into the log2 histogram `(ctx, name)`.
    pub fn observe(&self, ctx: &str, name: &str, value: u64) {
        if let Some(cell) = &self.inner {
            cell.borrow_mut()
                .data
                .hists
                .entry(key(ctx, name))
                .or_default()
                .record(value);
        }
    }

    /// Sets the gauge `(ctx, name)` to `value` (latest wins within one
    /// tracer; merges across traces keep the maximum).
    pub fn gauge(&self, ctx: &str, name: &str, value: i64) {
        if let Some(cell) = &self.inner {
            cell.borrow_mut().data.gauges.insert(key(ctx, name), value);
        }
    }

    /// End collection: move the collected maps into a [`TraceData`]
    /// and add the profile, one entry per call-tree path with at least
    /// one closed call. `None` when the tracer was off.
    pub fn finish(self) -> Option<TraceData> {
        let Inner {
            mut data,
            nodes,
            unbalanced,
            ..
        } = self.inner?.into_inner();
        // A child is always created after its parent, so the parent's
        // path is known by the time the child is reached.
        let mut paths: Vec<String> = Vec::with_capacity(nodes.len());
        for node in &nodes {
            let path = match node.parent {
                0 => node.name.clone(),
                p => format!("{}/{}", paths[p as usize], node.name),
            };
            if node.prof.count > 0 {
                data.profile.entry(path.clone()).or_default().add(node.prof);
            }
            paths.push(path);
        }
        if unbalanced > 0 {
            data.counters
                .insert(key("prof", "span_unbalanced"), unbalanced);
        }
        Some(data)
    }
}

struct Frame {
    node: u32,
    /// The node that was innermost before this span opened.
    prev: u32,
    /// The tracer's depth right after this span opened; at drop any
    /// other depth means guards closed out of LIFO order.
    depth: u32,
    start: Instant,
}

/// Guard returned by [`Tracer::span`]; folds the span's call and
/// duration into the profile on drop and checks the LIFO order.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    frame: Option<Frame>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let (Some(cell), Some(frame)) = (&self.tracer.inner, &self.frame) else {
            return;
        };
        let us = frame.start.elapsed().as_micros() as u64;
        let mut inner = cell.borrow_mut();
        if inner.depth != frame.depth {
            // A span opened inside this one is still open (leaked or
            // dropped late). Recover by closing down to this frame.
            inner.unbalanced += 1;
        }
        inner.depth = frame.depth - 1;
        inner.cur = frame.prev;
        inner.nodes[frame.node as usize].prof.add(Prof {
            count: 1,
            total_us: us,
        });
    }
}

impl TraceData {
    /// Sum of counter `name` across all contexts.
    pub fn counter_total(&self, name: &str) -> i64 {
        self.counters
            .iter()
            .filter(|((_, n), _)| n == name)
            .map(|(_, v)| v)
            .sum()
    }

    /// The counter `(ctx, name)`, if recorded.
    pub fn counter(&self, ctx: &str, name: &str) -> Option<i64> {
        self.counters.get(&key(ctx, name)).copied()
    }

    /// Every counter, grouped by context: `ctx → name → value`.
    pub fn counters_by_ctx(&self) -> BTreeMap<&str, BTreeMap<&str, i64>> {
        let mut out: BTreeMap<&str, BTreeMap<&str, i64>> = BTreeMap::new();
        for ((ctx, name), value) in &self.counters {
            out.entry(ctx).or_default().insert(name, *value);
        }
        out
    }

    /// The histogram `(ctx, name)`, if recorded.
    pub fn hist(&self, ctx: &str, name: &str) -> Option<&Histogram> {
        self.hists.get(&key(ctx, name))
    }

    /// The gauge `(ctx, name)`, if recorded.
    pub fn gauge(&self, ctx: &str, name: &str) -> Option<i64> {
        self.gauges.get(&key(ctx, name)).copied()
    }

    /// Calls and microseconds per span name, each summed over every
    /// profile path that ends in the name.
    pub fn span_totals(&self) -> BTreeMap<&str, Prof> {
        let mut out: BTreeMap<&str, Prof> = BTreeMap::new();
        for (path, prof) in &self.profile {
            let name = path.rsplit('/').next().unwrap_or(path);
            out.entry(name).or_default().add(*prof);
        }
        out
    }

    /// Merges another trace in, map by map: counters and profile
    /// nodes sum, histograms merge bucket-wise (lossless — see
    /// [`hist::Histogram::merge`]), and gauges keep the maximum (the
    /// only duplicate rule for a level that is associative and
    /// commutative). Every rule is, so `a ∪ b == b ∪ a`.
    pub fn merge(&mut self, other: TraceData) {
        for (key, value) in other.counters {
            *self.counters.entry(key).or_insert(0) += value;
        }
        for (key, hist) in other.hists {
            self.hists.entry(key).or_default().merge(&hist);
        }
        for (key, value) in other.gauges {
            self.gauges
                .entry(key)
                .and_modify(|g| *g = (*g).max(value))
                .or_insert(value);
        }
        for (path, prof) in other.profile {
            self.profile.entry(path).or_default().add(prof);
        }
    }

    /// Serialise as JSON Lines: one flat object per entry, with a
    /// `"t"` discriminator of `"counter"`, `"hist"`, `"gauge"` or
    /// `"prof"`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut line = |obj: json::ObjWriter| {
            out.push_str(&obj.finish());
            out.push('\n');
        };
        let keyed = |t: &str, ctx: &str, name: &str| {
            let mut obj = json::ObjWriter::new();
            obj.str("t", t);
            obj.str("name", name);
            obj.str("ctx", ctx);
            obj
        };
        for ((ctx, name), value) in &self.counters {
            let mut obj = keyed("counter", ctx, name);
            obj.int("value", *value);
            line(obj);
        }
        for ((ctx, name), hist) in &self.hists {
            let mut obj = keyed("hist", ctx, name);
            obj.int("count", hist.count() as i64);
            // The sum is carried as a string: it is a u64 and may
            // exceed i64 when samples saturate.
            obj.str("sum", &hist.sum().to_string());
            obj.str("buckets", &hist.encode_counts());
            line(obj);
        }
        for ((ctx, name), value) in &self.gauges {
            let mut obj = keyed("gauge", ctx, name);
            obj.int("value", *value);
            line(obj);
        }
        for (path, prof) in &self.profile {
            let mut obj = json::ObjWriter::new();
            obj.str("t", "prof");
            obj.str("path", path);
            obj.int("count", prof.count as i64);
            obj.int("total_us", prof.total_us as i64);
            line(obj);
        }
        out
    }

    /// Parses the JSON Lines form produced by [`TraceData::to_jsonl`],
    /// folding each line in as [`TraceData::merge`] folds a trace, so
    /// a concatenation of trace files reads as their merge. Blank
    /// lines are skipped; unknown `"t"` values and missing required
    /// keys are errors.
    pub fn parse_jsonl(text: &str) -> Result<TraceData, String> {
        let mut data = TraceData::default();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            data.merge(parse_line(line).map_err(|e| format!("line {}: {e}", lineno + 1))?);
        }
        Ok(data)
    }
}

/// One JSONL line as a trace holding just that entry.
fn parse_line(line: &str) -> Result<TraceData, String> {
    let fields = json::parse_flat(line)?;
    let get_str = |key: &str| -> Result<String, String> {
        fields
            .str(key)
            .map(str::to_string)
            .ok_or_else(|| format!("missing string {key:?}"))
    };
    let get_int = |key: &str| -> Result<i64, String> {
        fields
            .int(key)
            .ok_or_else(|| format!("missing integer {key:?}"))
    };
    let get_key = || -> Result<Key, String> { Ok((get_str("ctx")?, get_str("name")?)) };
    let mut data = TraceData::default();
    match get_str("t")?.as_str() {
        "counter" => {
            data.counters.insert(get_key()?, get_int("value")?);
        }
        "hist" => {
            let sum: u64 = get_str("sum")?.parse().map_err(|_| "bad hist sum")?;
            let hist =
                Histogram::from_parts(&get_str("buckets")?, sum).ok_or("bad hist buckets")?;
            if hist.count() as i64 != get_int("count")? {
                return Err("hist count does not match its buckets".to_string());
            }
            data.hists.insert(get_key()?, hist);
        }
        "gauge" => {
            data.gauges.insert(get_key()?, get_int("value")?);
        }
        "prof" => {
            let prof = Prof {
                count: get_int("count")? as u64,
                total_us: get_int("total_us")? as u64,
            };
            data.profile.insert(get_str("path")?, prof);
        }
        other => return Err(format!("unknown record type {other:?}")),
    }
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_collects_nothing() {
        let tracer = Tracer::off();
        {
            let _g = tracer.span("phase");
            let _h = tracer.span("hot_loop");
            tracer.add("ctx", "n", 3);
            tracer.observe("ctx", "h", 3);
            tracer.gauge("ctx", "g", 3);
        }
        assert!(!tracer.is_on());
        assert!(tracer.finish().is_none());
    }

    #[test]
    fn spans_fold_into_the_call_tree() {
        let tracer = Tracer::on();
        {
            let _outer = tracer.span("strategy");
            for _ in 0..3 {
                let _m = tracer.span("ig_build");
            }
            {
                let _m = tracer.span("color");
                let _n = tracer.span("simplify");
            }
        }
        {
            let _again = tracer.span("strategy");
        }
        let data = tracer.finish().unwrap();
        let paths: Vec<(&str, u64)> = data
            .profile
            .iter()
            .map(|(path, p)| (path.as_str(), p.count))
            .collect();
        assert_eq!(
            paths,
            vec![
                ("strategy", 2),
                ("strategy/color", 1),
                ("strategy/color/simplify", 1),
                ("strategy/ig_build", 3),
            ]
        );
        // Parents cover their children: durations are whole
        // microseconds of nested intervals.
        let total = |path: &str| data.profile[path].total_us;
        assert!(total("strategy") >= total("strategy/ig_build") + total("strategy/color"));
        assert!(total("strategy/color") >= total("strategy/color/simplify"));
        // Balanced usage records no violation.
        assert_eq!(data.counter("prof", "span_unbalanced"), None);
    }

    #[test]
    fn span_totals_sum_every_path_ending_in_the_name() {
        let mut data = TraceData::default();
        for (path, count, total_us) in [
            ("compile_module", 1, 100),
            ("compile_module/compile_func/strategy/dag_build", 4, 20),
            ("compile_func/strategy/sched:postpass/dag_build", 3, 10),
        ] {
            data.profile
                .insert(path.to_string(), Prof { count, total_us });
        }
        let totals = data.span_totals();
        assert_eq!(
            totals["dag_build"],
            Prof {
                count: 7,
                total_us: 30
            }
        );
        assert_eq!(totals["compile_module"].count, 1);
        assert_eq!(totals.len(), 2);
    }

    #[test]
    fn unbalanced_spans_are_detected_at_drop() {
        let tracer = Tracer::on();
        {
            let _outer = tracer.span("strategy");
            let parent = tracer.span("parent");
            let child = tracer.span("child");
            std::mem::forget(child); // leak: parent now drops first
            drop(parent);
            // Recovered: new spans nest under `strategy` again.
            let _next = tracer.span("next");
        }
        let data = tracer.finish().unwrap();
        assert_eq!(data.counter("prof", "span_unbalanced"), Some(1));
        // The parent still folded; the leaked child never closed, so
        // it has no calls and no profile entry.
        assert_eq!(data.profile["strategy/parent"].count, 1);
        assert!(!data.profile.contains_key("strategy/parent/child"));
        assert_eq!(data.profile["strategy/next"].count, 1);
    }

    #[test]
    fn counters_accumulate_per_context_and_total() {
        let tracer = Tracer::on();
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
        let by_ctx = data.counters_by_ctx();
        assert_eq!(by_ctx["m/f1"]["spills"], 5);
        assert_eq!(by_ctx["m/f1"]["insts"], 40);
        assert_eq!(by_ctx["m/f2"].len(), 1);
    }

    #[test]
    fn jsonl_round_trips() {
        let tracer = Tracer::on();
        {
            let _g = tracer.span("compile");
            let _s = tracer.span("ig_build");
        }
        tracer.add("m/f", "insts_generated", 17);
        let data = tracer.finish().unwrap();
        let jsonl = data.to_jsonl();
        assert!(jsonl.contains(r#"{"t":"prof","path":"compile/ig_build","count":1,"#));
        assert!(!jsonl.contains("child_us"));
        let parsed = TraceData::parse_jsonl(&jsonl).unwrap();
        assert_eq!(parsed, data);
    }

    #[test]
    fn hist_and_gauge_jsonl_round_trip_identity() {
        let tracer = Tracer::on();
        tracer.observe("m/f", "service_us", 0);
        tracer.observe("m/f", "service_us", 3);
        tracer.observe("m/f", "service_us", 1_000_000);
        tracer.observe("m/g", "service_us", u64::MAX);
        tracer.gauge("serve", "queue_depth", 7);
        tracer.gauge("serve", "queue_depth", 4); // latest wins
        tracer.gauge("serve", "busy_workers", -2);
        let data = tracer.finish().unwrap();
        assert_eq!(data.gauge("serve", "queue_depth"), Some(4));
        assert_eq!(data.hist("m/f", "service_us").unwrap().count(), 3);
        let parsed = TraceData::parse_jsonl(&data.to_jsonl()).unwrap();
        assert_eq!(parsed, data, "JSONL round-trip is the identity");
    }

    /// Two traces of every kind of entry, sharing their keys.
    fn pair() -> (TraceData, TraceData) {
        let mk = |spills: i64, wait: u64, depth: i64| {
            let t = Tracer::on();
            {
                let _s = t.span("strategy");
                let _m = t.span("ig_build");
            }
            t.add("m/f", "spills", spills);
            t.add("m/f", "insts", 10);
            t.observe("m/f", "wait_us", wait);
            t.gauge("serve", "queue_depth", depth);
            t.finish().unwrap()
        };
        (mk(2, 4, 9), mk(5, 1024, 3))
    }

    #[test]
    fn merge_is_a_per_map_union() {
        let (a, b) = pair();
        let mut merged = a.clone();
        merged.merge(b.clone());
        assert_eq!(merged.counter("m/f", "spills"), Some(7));
        assert_eq!(merged.counter("m/f", "insts"), Some(20));
        assert_eq!(merged.counters.len(), 2, "one entry per key");
        let h = merged.hist("m/f", "wait_us").unwrap();
        assert_eq!((h.count(), h.sum()), (2, 1028));
        assert_eq!(merged.gauge("serve", "queue_depth"), Some(9), "high-water");
        assert_eq!(merged.profile["strategy/ig_build"].count, 2);
        assert_eq!(merged.profile.len(), 2);
        // Merge order does not matter.
        let mut other_way = b;
        other_way.merge(a);
        assert_eq!(other_way, merged);
    }

    #[test]
    fn merge_keeps_distinct_contexts_apart() {
        let t1 = Tracer::on();
        t1.add("m/f1", "spills", 3);
        let t2 = Tracer::on();
        t2.add("m/f2", "spills", 4);
        let mut merged = t1.finish().unwrap();
        merged.merge(t2.finish().unwrap());
        assert_eq!(merged.counter("m/f1", "spills"), Some(3));
        assert_eq!(merged.counter("m/f2", "spills"), Some(4));
        assert_eq!(merged.counter_total("spills"), 7);
    }

    #[test]
    fn concatenated_jsonl_reads_as_the_merge_of_its_parts() {
        let (a, b) = pair();
        let text = a.to_jsonl() + &b.to_jsonl();
        let mut merged = a;
        merged.merge(b);
        let parsed = TraceData::parse_jsonl(&text).unwrap();
        assert_eq!(parsed, merged);
        assert_eq!(parsed.counter("m/f", "spills"), Some(7));
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
    fn parse_rejects_garbage() {
        assert!(TraceData::parse_jsonl("not json").is_err());
        assert!(TraceData::parse_jsonl("{\"t\":\"mystery\"}").is_err());
        assert!(TraceData::parse_jsonl("{\"t\":\"counter\",\"name\":\"x\"}").is_err());
        // A per-call `span` line is not part of the format.
        let span = r#"{"t":"span","name":"x","ctx":"c","depth":0,"start_us":0,"dur_us":1}"#;
        let err = TraceData::parse_jsonl(span).unwrap_err();
        assert!(err.contains("unknown record type \"span\""), "{err}");
        // Nor is a per-block `event` line.
        let event = r#"{"t":"event","name":"sched_block","ctx":"m/f/b0","length":3}"#;
        let err = TraceData::parse_jsonl(event).unwrap_err();
        assert!(err.contains("unknown record type \"event\""), "{err}");
        // Blank lines are fine.
        assert_eq!(
            TraceData::parse_jsonl("\n\n").unwrap(),
            TraceData::default()
        );
    }
}
