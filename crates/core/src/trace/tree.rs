//! Decomposition-tree reconstruction from the flat trace stream.
//!
//! The decomposer emits exactly one depth-tagged [`TraceEvent`] per
//! recursive `BiDecompose` call, in preorder. [`DecompTree::from_trace`]
//! rebuilds the tree from that stream (a run over several outputs yields
//! several roots), rolls the per-call [`CallCost`]s up into inclusive and
//! exclusive figures, and renders the result as annotated Graphviz DOT —
//! the "which subtree burned the nodes" view the raw stream cannot give.

use std::fmt::Write as _;

use crate::trace::{CallCost, Step, TraceEvent};

/// One node of the reconstructed decomposition tree.
#[derive(Clone, PartialEq, Debug)]
pub struct TreeNode {
    /// The originating trace event (depth, step, measured cost).
    pub event: TraceEvent,
    /// Indices of the children, in recursion order.
    pub children: Vec<usize>,
    /// Cost of the whole subtree rooted here: the event's own measured
    /// cost (per-call costs are captured around the full recursive call).
    pub inclusive: CallCost,
    /// Cost spent in this call itself, excluding its children
    /// (`inclusive − Σ children.inclusive`, saturating).
    pub exclusive: CallCost,
}

/// A reconstructed decomposition tree (a forest when the trace covers
/// several outputs).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct DecompTree {
    nodes: Vec<TreeNode>,
    roots: Vec<usize>,
}

impl DecompTree {
    /// Rebuilds the tree from a flat preorder trace.
    ///
    /// An event at depth `d` becomes a child of the most recent event
    /// with a smaller depth; depth-0 events start new roots. Traces
    /// concatenated across outputs therefore come back as a forest whose
    /// nodes keep the input stream's order.
    pub fn from_trace(trace: &[TraceEvent]) -> Self {
        let mut tree = DecompTree::default();
        // Stack of (depth, node index) — the path to the current node.
        let mut path: Vec<(usize, usize)> = Vec::new();
        for event in trace {
            while path.last().is_some_and(|&(d, _)| d >= event.depth) {
                path.pop();
            }
            let parent = path.last().map(|&(_, idx)| idx);
            let idx = tree.nodes.len();
            tree.nodes.push(TreeNode {
                event: event.clone(),
                children: Vec::new(),
                inclusive: event.cost,
                exclusive: event.cost,
            });
            match parent {
                Some(p) => {
                    let parent = &mut tree.nodes[p];
                    parent.children.push(idx);
                    parent.exclusive = parent.exclusive.saturating_sub(event.cost);
                }
                None => tree.roots.push(idx),
            }
            path.push((event.depth, idx));
        }
        tree
    }

    /// All nodes, in the original preorder.
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// Indices of the root nodes (one per traced output).
    pub fn roots(&self) -> &[usize] {
        &self.roots
    }

    /// Recursion depth of the deepest node (0 for an empty tree).
    pub fn max_depth(&self) -> usize {
        self.nodes.iter().map(|n| n.event.depth).max().unwrap_or(0)
    }

    /// The tree as a standalone Graphviz `digraph`.
    ///
    /// With `include_costs` each node is annotated with its inclusive
    /// wall time, allocated nodes and theorem checks; without it the
    /// output depends only on the decomposition structure (byte-stable
    /// across runs, which the golden tests rely on).
    pub fn to_dot(&self, include_costs: bool) -> String {
        let mut out = String::new();
        out.push_str("digraph decomposition {\n");
        out.push_str("  rankdir=TB;\n");
        out.push_str("  node [shape=box, style=filled, fontname=\"Helvetica\"];\n");
        self.write_nodes(&mut out, "n", include_costs);
        out.push_str("}\n");
        out
    }

    /// Writes the nodes and edges as a `subgraph cluster` (used by the
    /// `stats` binary to put every benchmark's tree in one document).
    pub fn write_cluster(&self, out: &mut String, id: &str, title: &str, include_costs: bool) {
        let _ = writeln!(out, "  subgraph cluster_{id} {{");
        let _ = writeln!(out, "    label=\"{}\";", escape(title));
        let prefix = format!("{id}_n");
        self.write_nodes(out, &prefix, include_costs);
        out.push_str("  }\n");
    }

    fn write_nodes(&self, out: &mut String, prefix: &str, include_costs: bool) {
        for (idx, node) in self.nodes.iter().enumerate() {
            let mut label = step_label(&node.event.step);
            if include_costs {
                let c = node.inclusive;
                let _ = write!(
                    &mut label,
                    "\\n{} · {} alloc · {} chk",
                    fmt_ns(c.elapsed_ns),
                    c.nodes_allocated,
                    c.theorem_checks
                );
            }
            let _ = writeln!(
                out,
                "  {prefix}{idx} [label=\"{}\", fillcolor=\"{}\"];",
                escape(&label),
                step_color(&node.event.step)
            );
        }
        for (idx, node) in self.nodes.iter().enumerate() {
            for &child in &node.children {
                let _ = writeln!(out, "  {prefix}{idx} -> {prefix}{child};");
            }
        }
    }
}

/// Renders one `digraph` holding a cluster per named tree (the
/// `stats --tree-dot` document shape).
pub fn render_dot_clusters(trees: &[(String, DecompTree)], include_costs: bool) -> String {
    let mut out = String::new();
    out.push_str("digraph decomposition {\n");
    out.push_str("  rankdir=TB;\n");
    out.push_str("  node [shape=box, style=filled, fontname=\"Helvetica\"];\n");
    for (i, (name, tree)) in trees.iter().enumerate() {
        tree.write_cluster(&mut out, &format!("c{i}"), name, include_costs);
    }
    out.push_str("}\n");
    out
}

/// One-line label of a step (matches the vocabulary of
/// [`render_trace`](crate::trace::render_trace)).
fn step_label(step: &Step) -> String {
    match step {
        Step::CacheHit { complemented } => {
            if *complemented {
                "cache hit (complemented)".to_owned()
            } else {
                "cache hit".to_owned()
            }
        }
        Step::Terminal { desc } => format!("leaf {desc}"),
        Step::Strong { gate, xa, xb } => format!("{gate} XA={xa} XB={xb}"),
        Step::Weak { gate, xa } => format!("weak {gate} XA={xa}"),
        Step::Shannon { var } => format!("shannon x{var}"),
    }
}

/// Fill color per step kind: decomposition quality reads off the tree at
/// a glance (green = reuse, white = leaf, blue = strong, orange = weak,
/// red = Shannon fallback).
fn step_color(step: &Step) -> &'static str {
    match step {
        Step::CacheHit { .. } => "palegreen",
        Step::Terminal { .. } => "white",
        Step::Strong { .. } => "lightblue",
        Step::Weak { .. } => "orange",
        Step::Shannon { .. } => "lightcoral",
    }
}

/// Escapes a string for a double-quoted DOT label.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            // A literal backslash must stay a backslash in DOT escapes
            // we emit ourselves (`\n` line breaks arrive pre-escaped), so
            // only quotes need protection.
            '"' => out.push_str("\\\""),
            _ => out.push(ch),
        }
    }
    out
}

/// Human-readable nanoseconds (µs below 1 ms, ms above).
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.1}µs", ns as f64 / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use bdd::VarSet;

    use super::*;
    use crate::GateChoice;

    fn cost(elapsed_ns: u64, nodes: u64) -> CallCost {
        CallCost { elapsed_ns, nodes_allocated: nodes, theorem_checks: 1 }
    }

    /// The events of the tree's nodes, in node order.
    fn events(tree: &DecompTree) -> Vec<TraceEvent> {
        tree.nodes().iter().map(|n| n.event.clone()).collect()
    }

    /// A forest exercising every `Step` variant: two roots, with
    /// CacheHit and Shannon among the children.
    fn every_variant_trace() -> Vec<TraceEvent> {
        vec![
            TraceEvent::new(
                0,
                Step::Strong {
                    gate: GateChoice::Or,
                    xa: VarSet::from_iter([0u32, 1]),
                    xb: VarSet::from_iter([2u32]),
                },
            ),
            TraceEvent::new(1, Step::Weak { gate: GateChoice::And, xa: VarSet::singleton(0) }),
            TraceEvent::new(2, Step::Terminal { desc: "x0".into() }),
            TraceEvent::new(2, Step::CacheHit { complemented: true }),
            TraceEvent::new(1, Step::Shannon { var: 2 }),
            TraceEvent::new(2, Step::Terminal { desc: "x2".into() }),
            TraceEvent::new(2, Step::CacheHit { complemented: false }),
            // Second output starts a new root.
            TraceEvent::new(
                0,
                Step::Strong {
                    gate: GateChoice::Exor,
                    xa: VarSet::singleton(1),
                    xb: VarSet::singleton(3),
                },
            ),
            TraceEvent::new(1, Step::Terminal { desc: "x1".into() }),
            TraceEvent::new(1, Step::Terminal { desc: "x3".into() }),
        ]
    }

    #[test]
    fn round_trips_every_step_variant() {
        let trace = every_variant_trace();
        let tree = DecompTree::from_trace(&trace);
        assert_eq!(events(&tree), trace, "nodes keep the stream's order");
        assert_eq!(tree.roots(), &[0, 7]);
        assert_eq!(tree.max_depth(), 2);
    }

    #[test]
    fn round_trips_each_variant_alone() {
        let singletons = vec![
            Step::CacheHit { complemented: false },
            Step::CacheHit { complemented: true },
            Step::Terminal { desc: "leaf".into() },
            Step::Strong {
                gate: GateChoice::And,
                xa: VarSet::singleton(0),
                xb: VarSet::singleton(1),
            },
            Step::Weak { gate: GateChoice::Or, xa: VarSet::singleton(0) },
            Step::Shannon { var: 7 },
        ];
        for step in singletons {
            let trace = vec![TraceEvent::new(0, step)];
            let tree = DecompTree::from_trace(&trace);
            assert_eq!(events(&tree), trace);
            assert_eq!(tree.roots(), &[0]);
        }
    }

    #[test]
    fn parent_child_structure_matches_depths() {
        let tree = DecompTree::from_trace(&every_variant_trace());
        let nodes = tree.nodes();
        assert_eq!(nodes[0].children, vec![1, 4]);
        assert_eq!(nodes[1].children, vec![2, 3]);
        assert_eq!(nodes[4].children, vec![5, 6]);
        assert_eq!(nodes[7].children, vec![8, 9]);
        for node in nodes {
            for &child in &node.children {
                assert_eq!(nodes[child].event.depth, node.event.depth + 1);
            }
        }
    }

    #[test]
    fn cost_rollups_inclusive_and_exclusive() {
        let mut trace = vec![
            TraceEvent::new(0, Step::Shannon { var: 0 }),
            TraceEvent::new(1, Step::Terminal { desc: "a".into() }),
            TraceEvent::new(1, Step::Terminal { desc: "b".into() }),
        ];
        trace[0].cost = cost(100, 50);
        trace[1].cost = cost(30, 10);
        trace[2].cost = cost(20, 15);
        let tree = DecompTree::from_trace(&trace);
        let root = &tree.nodes()[0];
        assert_eq!(root.inclusive.elapsed_ns, 100, "measured cost is already inclusive");
        assert_eq!(root.exclusive.elapsed_ns, 50, "100 − (30 + 20)");
        assert_eq!(root.exclusive.nodes_allocated, 25, "50 − (10 + 15)");
        let leaf = &tree.nodes()[1];
        assert_eq!(leaf.inclusive, leaf.exclusive, "leaves own their whole cost");
        // Children whose clocks overran the parent's leave it zero, not
        // an underflow.
        trace[0].cost = cost(40, 50);
        let tree = DecompTree::from_trace(&trace);
        assert_eq!(tree.nodes()[0].exclusive.elapsed_ns, 0);
        assert_eq!(tree.nodes()[0].exclusive.nodes_allocated, 25);
    }

    #[test]
    fn dot_output_is_structurally_complete() {
        let tree = DecompTree::from_trace(&every_variant_trace());
        let dot = tree.to_dot(false);
        assert!(dot.starts_with("digraph decomposition {"));
        assert!(dot.ends_with("}\n"));
        assert_eq!(dot.matches(" -> ").count(), 8, "10 nodes, 2 roots → 8 edges");
        assert!(dot.contains("lightcoral"), "Shannon nodes are highlighted");
        assert!(dot.contains("palegreen"), "cache hits are highlighted");
        assert!(!dot.contains("alloc"), "no cost annotations without include_costs");
        // Cost-annotated output adds the annotations.
        let mut priced = every_variant_trace();
        for ev in &mut priced {
            ev.cost = cost(2_500_000, 3);
        }
        let tree = DecompTree::from_trace(&priced);
        let dot = tree.to_dot(true);
        assert!(dot.contains("2.50ms"), "costs are annotated: {dot}");
        assert!(dot.contains("alloc"));
    }

    #[test]
    fn clustered_rendering_prefixes_node_ids() {
        let tree = DecompTree::from_trace(&[TraceEvent::new(0, Step::Shannon { var: 0 })]);
        let doc = render_dot_clusters(
            &[("9sym".to_owned(), tree.clone()), ("apex\"7".to_owned(), tree)],
            false,
        );
        assert!(doc.contains("subgraph cluster_c0"));
        assert!(doc.contains("subgraph cluster_c1"));
        assert!(doc.contains("label=\"9sym\""));
        assert!(doc.contains("c0_n0"));
        assert!(doc.contains("c1_n0"));
        assert!(doc.contains("apex\\\"7"), "hostile names are escaped");
    }

    #[test]
    fn empty_trace_yields_empty_tree() {
        let tree = DecompTree::from_trace(&[]);
        assert!(tree.nodes().is_empty());
        assert!(tree.roots().is_empty());
        assert_eq!(tree.max_depth(), 0);
        let dot = tree.to_dot(true);
        assert!(dot.starts_with("digraph"));
    }
}
