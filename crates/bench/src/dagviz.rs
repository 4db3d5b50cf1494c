//! Native layered SVG rendering of annotated code DAGs.
//!
//! The HTML report embeds per-block dependence DAGs without shelling
//! out to graphviz: nodes are layered by earliest start (the same
//! longest-path depth `dag_to_dot` annotates), laid out left-to-right
//! within a layer, and edges are drawn as straight lines styled by
//! dependence kind (solid true, thick temporal, dashed anti/output,
//! dotted memory/order) with the critical path in red — mirroring the
//! dot rendering's conventions. Pure markup only: `<rect>`, `<line>`,
//! `<polygon>` arrowheads, `<text>`, `<title>` tooltips; no scripts,
//! no links, no external assets.

use crate::html::esc;
use marion_core::dag::{CodeDag, EdgeKind};
use marion_core::explain::inst_label;
use marion_core::sched::Schedule;
use marion_core::CodeBlock;
use marion_maril::Machine;

const NODE_W: f64 = 150.0;
const NODE_H: f64 = 34.0;
const H_GAP: f64 = 18.0;
const V_GAP: f64 = 46.0;
const MARGIN: f64 = 10.0;

/// Renders the DAG as a standalone inline SVG with schedule
/// annotations — ready cycles, slack and stall tooltips come from the
/// placement records of a `sched::explain_schedule` replay. Layering
/// is by earliest start cycle (dependence depth), so an edge always
/// points downward or sideways-down.
pub fn dag_to_svg(
    machine: &Machine,
    block: &CodeBlock,
    dag: &CodeDag,
    schedule: &Schedule,
    title: &str,
) -> String {
    let ex = &schedule.explanation;
    let on_path = |i: usize| ex.slack.get(i).copied() == Some(0);
    // Layer by dependence depth: longest incoming path in edges (not
    // cycles), so layers are compact and arrows never point up.
    let mut layer = vec![0usize; dag.n];
    for i in dag.topo_order() {
        for &ei in &dag.succs[i] {
            let e = dag.edges[ei];
            layer[e.to] = layer[e.to].max(layer[i] + 1);
        }
    }
    let n_layers = layer.iter().copied().max().map_or(0, |m| m + 1);
    let mut rows: Vec<Vec<usize>> = vec![Vec::new(); n_layers];
    for (i, &l) in layer.iter().enumerate() {
        rows[l].push(i);
    }
    let widest = rows.iter().map(Vec::len).max().unwrap_or(0);
    let width = MARGIN * 2.0 + widest as f64 * (NODE_W + H_GAP) - H_GAP.min(1.0);
    let height = MARGIN * 2.0 + 20.0 + n_layers as f64 * (NODE_H + V_GAP) - V_GAP.min(1.0);

    // Node centers.
    let mut pos = vec![(0.0f64, 0.0f64); dag.n];
    for (l, row) in rows.iter().enumerate() {
        let row_w = row.len() as f64 * (NODE_W + H_GAP) - H_GAP;
        let x0 = (width - row_w) / 2.0;
        for (k, &i) in row.iter().enumerate() {
            pos[i] = (
                x0 + k as f64 * (NODE_W + H_GAP) + NODE_W / 2.0,
                MARGIN + 20.0 + l as f64 * (NODE_H + V_GAP) + NODE_H / 2.0,
            );
        }
    }

    let mut out = String::with_capacity(4 * 1024);
    out.push_str(&format!(
        "<svg viewBox=\"0 0 {width:.0} {height:.0}\" width=\"100%\" role=\"img\" \
         aria-label=\"{}\">\n",
        esc(title)
    ));
    out.push_str(
        "<defs><marker id=\"dagarrow\" viewBox=\"0 0 8 8\" refX=\"7\" refY=\"4\" \
         markerWidth=\"6\" markerHeight=\"6\" orient=\"auto\">\
         <path d=\"M0,0 L8,4 L0,8 z\" fill=\"#81a1c1\"/></marker>\
         <marker id=\"dagarrowcrit\" viewBox=\"0 0 8 8\" refX=\"7\" refY=\"4\" \
         markerWidth=\"6\" markerHeight=\"6\" orient=\"auto\">\
         <path d=\"M0,0 L8,4 L0,8 z\" fill=\"#bf616a\"/></marker></defs>\n",
    );
    out.push_str(&format!(
        "<text x=\"{MARGIN}\" y=\"16\" font-size=\"12\" fill=\"#d8dee9\" \
         font-family=\"monospace\">{}</text>\n",
        esc(title)
    ));

    // Edges first so nodes draw on top of line ends.
    for e in &dag.edges {
        let (x1, y1) = pos[e.from];
        let (x2, y2) = pos[e.to];
        let (y1, y2) = (y1 + NODE_H / 2.0, y2 - NODE_H / 2.0);
        let critical = on_path(e.from)
            && on_path(e.to)
            && ex
                .critical_path
                .windows(2)
                .any(|w| w[0] == e.from && w[1] == e.to);
        let (stroke, sw) = if critical {
            ("#bf616a", 2.0)
        } else {
            ("#81a1c1", 1.0)
        };
        let dash = match e.kind {
            EdgeKind::True | EdgeKind::TrueTemporal(_) => "",
            EdgeKind::Anti | EdgeKind::Output => " stroke-dasharray=\"6,3\"",
            EdgeKind::Mem | EdgeKind::Order => " stroke-dasharray=\"2,3\"",
        };
        let sw = if matches!(e.kind, EdgeKind::TrueTemporal(_)) {
            sw + 1.0
        } else {
            sw
        };
        let marker = if critical { "dagarrowcrit" } else { "dagarrow" };
        let kind = match e.kind {
            EdgeKind::True => "true".to_string(),
            EdgeKind::TrueTemporal(k) => format!(
                "temporal({})",
                machine
                    .clocks()
                    .get(k.0 as usize)
                    .map(String::as_str)
                    .unwrap_or("?")
            ),
            EdgeKind::Anti => "anti".to_string(),
            EdgeKind::Output => "output".to_string(),
            EdgeKind::Mem => "mem".to_string(),
            EdgeKind::Order => "order".to_string(),
        };
        out.push_str(&format!(
            "<line x1=\"{x1:.1}\" y1=\"{y1:.1}\" x2=\"{x2:.1}\" y2=\"{y2:.1}\" \
             stroke=\"{stroke}\" stroke-width=\"{sw}\"{dash} \
             marker-end=\"url(#{marker})\"><title>{} latency {}</title></line>\n",
            esc(&kind),
            e.latency
        ));
        if e.latency > 0 {
            out.push_str(&format!(
                "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"9\" fill=\"#616e88\" \
                 font-family=\"monospace\">{}</text>\n",
                (x1 + x2) / 2.0 + 3.0,
                (y1 + y2) / 2.0,
                e.latency
            ));
        }
    }

    for (i, &(cx, cy)) in pos.iter().enumerate().take(dag.n) {
        let (x, y) = (cx - NODE_W / 2.0, cy - NODE_H / 2.0);
        let cycle = schedule.inst_cycle.get(i).copied().unwrap_or(0);
        let (ready, slack) = (
            ex.records.get(i).map(|r| r.ready_cycle).unwrap_or(0),
            ex.slack.get(i).copied().unwrap_or(0),
        );
        let stalled = ex.records.get(i).is_some_and(|r| r.stall_cycles() > 0);
        let stroke = if on_path(i) { "#bf616a" } else { "#3b4252" };
        let sw = if on_path(i) { 2.0 } else { 1.0 };
        let fill = if stalled { "#4c3f2a" } else { "#242933" };
        let tooltip = match ex.records.get(i) {
            Some(r) if !r.stalls.is_empty() => r
                .stalls
                .iter()
                .map(|s| {
                    format!(
                        "{} cycle(s): {}",
                        s.cycles,
                        s.reason.describe(machine, block)
                    )
                })
                .collect::<Vec<_>>()
                .join("; "),
            _ => "no stalls".to_string(),
        };
        let label = inst_label(machine, block, i);
        let max_chars = (NODE_W / 6.2) as usize;
        let shown: String = label.chars().take(max_chars).collect();
        out.push_str(&format!(
            "<rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{NODE_W}\" height=\"{NODE_H}\" rx=\"4\" \
             fill=\"{fill}\" stroke=\"{stroke}\" stroke-width=\"{sw}\">\
             <title>[{i}] {}: {}</title></rect>\n",
            esc(&label),
            esc(&tooltip)
        ));
        out.push_str(&format!(
            "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"10\" fill=\"#d8dee9\" \
             font-family=\"monospace\">[{i}] {}</text>\n",
            x + 5.0,
            y + 14.0,
            esc(&shown)
        ));
        out.push_str(&format!(
            "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"9\" fill=\"#81a1c1\" \
             font-family=\"monospace\">@{cycle} ready {ready} slack {slack}</text>\n",
            x + 5.0,
            y + 27.0,
        ));
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use marion_core::dag::build_dag;
    use marion_core::sched::{explain_schedule, schedule_block, SchedOptions};

    fn demo_pieces() -> (Machine, marion_core::CodeFunc) {
        let spec = marion_machines::load("r2000");
        let src = "int a[64]; int b[64];\n\
                   int main() {\n\
                   int i; int s = 0;\n\
                   for (i = 0; i < 64; i++) s = s + a[i] * b[i];\n\
                   return s;\n}\n";
        let mut module = marion_frontend::compile(src).expect("demo source compiles");
        marion_core::driver::materialize_float_constants(&mut module);
        let mut func = module.funcs[0].clone();
        marion_core::glue::apply_glue(&spec.machine, &mut func).unwrap();
        let mut code = marion_core::select_func(&spec.machine, &spec.escapes, &module, &func)
            .expect("selects");
        marion_core::regalloc::allocate(
            &spec.machine,
            &mut code,
            &std::collections::HashMap::new(),
        )
        .expect("allocates");
        (spec.machine, code)
    }

    #[test]
    fn svg_renders_every_node_and_edge_self_contained() {
        let (machine, code) = demo_pieces();
        let block = code
            .blocks
            .iter()
            .max_by_key(|b| b.insts.len())
            .expect("has blocks");
        let dag = build_dag(&machine, block, true);
        let opts = SchedOptions::default();
        let schedule = schedule_block(&machine, &code, block, &dag, &opts).unwrap();
        let schedule = explain_schedule(&machine, &code, block, &schedule, &opts).unwrap();
        assert_eq!(schedule.explanation.records.len(), block.insts.len());
        let svg = dag_to_svg(&machine, block, &dag, &schedule, "demo block");
        assert!(svg.starts_with("<svg ") && svg.ends_with("</svg>\n"));
        assert_eq!(svg.matches("<rect ").count(), dag.n, "one rect per node");
        assert_eq!(
            svg.matches("<line ").count(),
            dag.edges.len(),
            "one line per edge"
        );
        assert!(!svg.contains("http:") && !svg.contains("https:"));
        assert!(!svg.contains("src=") && !svg.contains("href="));
        assert!(!svg.contains("<script"));
    }
}
