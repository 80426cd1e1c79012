//! Configuration of the decomposition algorithm.

/// The gate chosen for one bi-decomposition step.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum GateChoice {
    /// `F = A + B`.
    Or,
    /// `F = A · B`.
    And,
    /// `F = A ⊕ B`.
    Exor,
}

impl GateChoice {
    /// Short lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            GateChoice::Or => "or",
            GateChoice::And => "and",
            GateChoice::Exor => "exor",
        }
    }
}

impl std::fmt::Display for GateChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `pad` (not `write_str`) so width/alignment specifiers work.
        f.pad(self.name())
    }
}

/// Tuning knobs of the decomposer.
///
/// The defaults reproduce the paper's configuration; the switches exist
/// for the ablation experiments (every design decision §5–§6 calls out can
/// be turned off individually).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Options {
    /// Search for EXOR bi-decompositions (on in the paper; turning it off
    /// mimics AND/OR-only decomposers).
    pub use_exor: bool,
    /// Reuse already-built components through the support-hashed cache
    /// (§6; "up to 20% component reuse").
    pub use_cache: bool,
    /// Search for strong groupings at all (off = weak-only, mimicking the
    /// paper's §8 characterization of BDS).
    pub use_strong: bool,
    /// Remove inessential variables before decomposing (§7).
    pub remove_inessential: bool,
    /// Order the BDD variables by cube literal frequency before building
    /// the specification (static ordering heuristic).
    pub order_by_frequency: bool,
    /// Record a [`crate::trace::TraceEvent`] per recursive call
    /// (retrieved with [`crate::Decomposer::take_trace`]).
    pub trace: bool,
    /// Collect run telemetry: the recursion-depth histogram, the BDD
    /// manager's [`bdd::Analytics`] and, with [`trace`](Options::trace),
    /// the measured cost of every recursive call. This flag alone decides
    /// what is collected; attaching an [`obs::Recorder`] adds spans only.
    /// Off by default — the hot recursion then pays only an `Option`
    /// branch and allocates nothing.
    pub telemetry: bool,
    /// Trigger a garbage collection between outputs when the manager
    /// exceeds this many live nodes.
    pub gc_threshold: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            use_exor: true,
            use_cache: true,
            use_strong: true,
            remove_inessential: true,
            order_by_frequency: true,
            trace: false,
            telemetry: false,
            gc_threshold: 2_000_000,
        }
    }
}

impl Options {
    /// The paper's configuration (same as `Default`).
    pub fn paper() -> Self {
        Self::default()
    }

    /// Weak-only configuration approximating BDS (§8: "BDS applies only
    /// weak bi-decomposition").
    pub fn weak_only() -> Self {
        Options { use_strong: false, ..Self::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let o = Options::default();
        assert!(o.use_exor && o.use_cache && o.use_strong);
        assert!(!o.telemetry, "telemetry is opt-in");
        assert_eq!(Options::paper(), o);
        assert!(!Options::weak_only().use_strong);
    }

    #[test]
    fn gate_choice_names() {
        assert_eq!(GateChoice::Or.to_string(), "or");
        assert_eq!(GateChoice::And.name(), "and");
        assert_eq!(GateChoice::Exor.to_string(), "exor");
    }
}
