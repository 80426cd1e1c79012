//! Decomposition-tree reconstruction from the flat trace stream.
//!
//! The decomposer emits exactly one depth-tagged [`TraceEvent`] per
//! recursive `BiDecompose` call, in preorder. [`DecompTree::from_trace`]
//! rebuilds the tree from that stream (a run over several outputs yields
//! several roots) and rolls the per-call [`CallCost`]s up into inclusive
//! and exclusive figures — the "which subtree burned the nodes" view the
//! raw stream cannot give.

use crate::trace::{CallCost, TraceEvent};

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
}

#[cfg(test)]
mod tests {
    use bdd::VarSet;

    use super::*;
    use crate::trace::{Leaf, Step};
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
            TraceEvent::new(2, Step::Terminal { leaf: Leaf::Lit(0, true) }),
            TraceEvent::new(2, Step::CacheHit { complemented: true }),
            TraceEvent::new(1, Step::Shannon { var: 2 }),
            TraceEvent::new(2, Step::Terminal { leaf: Leaf::Lit(2, true) }),
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
            TraceEvent::new(1, Step::Terminal { leaf: Leaf::Lit(1, true) }),
            TraceEvent::new(1, Step::Terminal { leaf: Leaf::Lit(3, true) }),
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
            Step::Terminal { leaf: Leaf::Const(true) },
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
            TraceEvent::new(1, Step::Terminal { leaf: Leaf::Lit(1, true) }),
            TraceEvent::new(1, Step::Terminal { leaf: Leaf::Lit(2, false) }),
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
    fn empty_trace_yields_empty_tree() {
        let tree = DecompTree::from_trace(&[]);
        assert!(tree.nodes().is_empty());
        assert!(tree.roots().is_empty());
        assert_eq!(tree.max_depth(), 0);
    }
}
