//! Flame tree aggregation and pure-SVG flamegraph rendering.
//!
//! [`flame_tree`] folds the call-tree profile of a merged
//! [`TraceData`] (one `(calls, total µs)` entry per path of
//! `Tracer::span` names) into one deterministic tree: paths are
//! normalized (a leading `compile_module` segment is dropped: a
//! compile at any `jobs` count nests every path under that one
//! module-level span, so the tree starts at the per-function frames),
//! duplicates are summed, and children are kept name-sorted. The
//! profile records no self time; [`FlameNode::self_us`] derives it
//! from the tree as `total − Σ direct children totals`, which
//! telescopes so the self times of a subtree sum *exactly* to the
//! subtree root's total. It is the one definition of self time: the
//! report's frame table and `marion-bench`'s `subphase_self_ms` both
//! read it.
//!
//! [`render_svg`] draws the tree as a self-contained SVG: `<rect>`,
//! `<text>` and `<title>` only — no JavaScript, no links, no external
//! assets — safe to inline into the HTML report.

use crate::html::esc;
use marion_trace::TraceData;

/// One node of the aggregated flame tree. Children are sorted by name.
#[derive(Debug, Clone, Default)]
pub struct FlameNode {
    pub name: String,
    pub count: u64,
    pub total_us: u64,
    pub children: Vec<FlameNode>,
}

impl FlameNode {
    /// Wall-clock microseconds not attributed to any child:
    /// `total − Σ direct children totals` (saturating; child totals
    /// can exceed the parent's by at most clock rounding).
    pub fn self_us(&self) -> u64 {
        let child: u64 = self.children.iter().map(|c| c.total_us).sum();
        self.total_us.saturating_sub(child)
    }

    /// Sum of [`FlameNode::self_us`] over this whole subtree. By the
    /// telescoping identity this equals `min(total_us, …)` — exactly
    /// `total_us` when no child over-reports its parent.
    pub fn self_sum(&self) -> u64 {
        self.self_us() + self.children.iter().map(|c| c.self_sum()).sum::<u64>()
    }

    /// Looks up a descendant by `/`-joined path relative to this node.
    pub fn find(&self, path: &str) -> Option<&FlameNode> {
        let mut cur = self;
        for seg in path.split('/') {
            cur = cur.children.iter().find(|c| c.name == seg)?;
        }
        Some(cur)
    }

    /// Deepest tree level, counting this node as 1.
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(|c| c.depth()).max().unwrap_or(0)
    }

    /// Canonical structural rendering: one `path count` line per node,
    /// depth-first. Timings are deliberately excluded — two runs of
    /// the same workload compare equal on this even though their
    /// microsecond figures differ.
    pub fn structure(&self) -> String {
        let mut out = String::new();
        for child in &self.children {
            child.structure_into("", &mut out);
        }
        out
    }

    fn structure_into(&self, prefix: &str, out: &mut String) {
        let path = if prefix.is_empty() {
            self.name.clone()
        } else {
            format!("{prefix}/{}", self.name)
        };
        out.push_str(&format!("{path} {}\n", self.count));
        for child in &self.children {
            child.structure_into(&path, out);
        }
    }

    fn insert(&mut self, segs: &[&str], count: u64, total_us: u64) {
        let Some((head, rest)) = segs.split_first() else {
            self.count += count;
            self.total_us += total_us;
            return;
        };
        let pos = match self
            .children
            .binary_search_by(|c| c.name.as_str().cmp(head))
        {
            Ok(i) => i,
            Err(i) => {
                self.children.insert(
                    i,
                    FlameNode {
                        name: (*head).to_string(),
                        ..FlameNode::default()
                    },
                );
                i
            }
        };
        self.children[pos].insert(rest, count, total_us);
    }
}

/// Builds the flame tree from a trace's profile. The returned
/// root is synthetic (empty name); its `total_us` is the sum of the
/// top-level nodes so bar widths normalize against it.
pub fn flame_tree(data: &TraceData) -> FlameNode {
    let mut root = FlameNode::default();
    for (path, prof) in &data.profile {
        let mut segs: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
        // Every compile path sits under the module-level span (worker
        // shards are nested under it at merge); drop the wrapper so
        // the tree starts at the per-function frames.
        if segs.first() == Some(&"compile_module") {
            segs.remove(0);
        }
        if segs.is_empty() {
            continue;
        }
        root.insert(&segs, prof.count, prof.total_us);
    }
    root.total_us = root.children.iter().map(|c| c.total_us).sum();
    root.count = root.children.iter().map(|c| c.count).sum();
    root
}

const ROW_H: u32 = 18;
const WIDTH: u32 = 1000;
const MIN_W: f64 = 0.5;

/// Deterministic warm hue per frame name (FNV-1a over the bytes).
fn hue(name: &str) -> u32 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    // Warm band: 0..60 degrees (red..yellow), like classic flamegraphs.
    (h % 60) as u32
}

/// Renders the flame tree as a standalone inline SVG. Pure markup:
/// rects, clipped labels and `<title>` tooltips; nothing that could
/// reference an external asset.
pub fn render_svg(root: &FlameNode, title: &str) -> String {
    let depth = root.depth().saturating_sub(1).max(1) as u32;
    let height = depth * ROW_H + 24;
    let mut out = String::with_capacity(8 * 1024);
    // No xmlns: the graphic is inlined into HTML, where the parser
    // namespaces `<svg>` automatically — and the namespace URI would
    // trip the report's "no http(s) tokens" self-containment check.
    out.push_str(&format!(
        "<svg viewBox=\"0 0 {WIDTH} {height}\" width=\"100%\" role=\"img\" aria-label=\"{}\">\n",
        esc(title)
    ));
    out.push_str(&format!(
        "<text x=\"4\" y=\"14\" font-size=\"12\" fill=\"#d8dee9\" \
         font-family=\"monospace\">{}</text>\n",
        esc(title)
    ));
    let grand = root.total_us.max(1) as f64;
    let mut x = 0.0f64;
    for child in &root.children {
        let w = child.total_us as f64 / grand * WIDTH as f64;
        render_node(&mut out, child, x, w, 0, grand);
        x += w;
    }
    out.push_str("</svg>\n");
    out
}

fn render_node(out: &mut String, node: &FlameNode, x: f64, w: f64, level: u32, grand: f64) {
    if w < MIN_W {
        return;
    }
    let y = 24 + level * ROW_H;
    let pct = node.total_us as f64 / grand * 100.0;
    out.push_str(&format!(
        "<rect x=\"{x:.2}\" y=\"{y}\" width=\"{w:.2}\" height=\"{}\" rx=\"1\" \
         fill=\"hsl({},70%,55%)\" stroke=\"#16181d\" stroke-width=\"0.5\">\
         <title>{}: {} us total, {} us self, {} call(s), {pct:.1}%</title></rect>\n",
        ROW_H - 1,
        hue(&node.name),
        esc(&node.name),
        node.total_us,
        node.self_us(),
        node.count,
    ));
    // Label only when the box can hold at least a few characters.
    if w >= 40.0 {
        let max_chars = (w / 6.5) as usize;
        let label: String = node.name.chars().take(max_chars).collect();
        out.push_str(&format!(
            "<text x=\"{:.2}\" y=\"{}\" font-size=\"10\" fill=\"#16181d\" \
             font-family=\"monospace\">{}</text>\n",
            x + 3.0,
            y + 13,
            esc(&label)
        ));
    }
    let mut cx = x;
    for child in &node.children {
        let cw = child.total_us as f64 / node.total_us.max(1) as f64 * w;
        render_node(out, child, cx, cw, level + 1, grand);
        cx += cw;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marion_trace::Prof;

    fn data(rows: &[(&str, u64, u64)]) -> TraceData {
        let mut d = TraceData::default();
        for &(path, count, total_us) in rows {
            d.profile.insert(path.to_string(), Prof { count, total_us });
        }
        d
    }

    #[test]
    fn tree_builds_with_exact_self_time_telescoping() {
        let d = data(&[
            ("compile_func", 2, 100),
            ("compile_func/strategy", 2, 90),
            ("compile_func/strategy/regalloc", 2, 40),
            ("compile_func/strategy/sched:postpass", 2, 25),
        ]);
        let tree = flame_tree(&d);
        let strategy = tree.find("compile_func/strategy").unwrap();
        assert_eq!(strategy.total_us, 90);
        assert_eq!(strategy.self_us(), 90 - 65);
        // Telescoping: subtree self times sum exactly to the root.
        assert_eq!(strategy.self_sum(), strategy.total_us);
        assert_eq!(tree.find("compile_func").unwrap().self_sum(), 100);
    }

    #[test]
    fn module_wrapper_is_normalized_away() {
        let serial = data(&[
            ("compile_module", 1, 500),
            ("compile_module/compile_func", 3, 400),
        ]);
        let unwrapped = data(&[("compile_module", 1, 500), ("compile_func", 3, 400)]);
        assert_eq!(
            flame_tree(&serial).structure(),
            flame_tree(&unwrapped).structure()
        );
        assert_eq!(flame_tree(&serial).structure(), "compile_func 3\n");
    }

    #[test]
    fn paths_equal_after_normalizing_sum() {
        let d = data(&[
            ("compile_module/compile_func", 1, 10),
            ("compile_func", 2, 30),
        ]);
        let tree = flame_tree(&d);
        let f = tree.find("compile_func").unwrap();
        assert_eq!((f.count, f.total_us), (3, 40));
    }

    #[test]
    fn svg_is_self_contained() {
        let d = data(&[
            ("compile_func", 2, 100),
            ("compile_func/strategy", 2, 90),
            ("compile_func/strategy/<evil> & \"co\"", 2, 60),
        ]);
        let svg = render_svg(&flame_tree(&d), "flame <&>");
        assert!(svg.starts_with("<svg "));
        assert!(svg.ends_with("</svg>\n"));
        assert!(!svg.contains("http:") && !svg.contains("https:"));
        assert!(!svg.contains("src=") && !svg.contains("href="));
        assert!(!svg.contains("<script"));
        assert!(svg.contains("&lt;evil&gt; &amp; &quot;co&quot;"));
    }

    #[test]
    fn empty_trace_renders_an_empty_svg() {
        let tree = flame_tree(&TraceData::default());
        assert_eq!(tree.children.len(), 0);
        let svg = render_svg(&tree, "empty");
        assert!(svg.starts_with("<svg ") && svg.ends_with("</svg>\n"));
    }
}
