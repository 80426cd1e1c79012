//! Post-run analytics over the manager's tables and counters.
//!
//! Everything here is *analysis*, not instrumentation: the manager keeps
//! cheap always-on per-op-kind cache counts, and this module turns them —
//! plus a one-shot walk of the unique table — into the structured
//! `analytics` section of run reports. Building an [`Analytics`] costs
//! one pass over the unique table; nothing here runs on the operator hot
//! path.

use obs::json::Json;

use crate::manager::{Bdd, CacheOp};

/// Unique-table probe-length distribution, measured from the *real*
/// intrusive chains.
///
/// The unique table is separate-chaining with the links stored inside the
/// nodes, so the manager can walk every bucket's chain exactly:
/// `chain_histogram[k]` counts the buckets holding exactly `k` nodes (the
/// last bin aggregates `k >= MAX_CHAIN_BIN`), and `expected_probes` is the
/// true mean probe count for a successful lookup.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ProbeStats {
    /// Bucket count of the table (power of two).
    pub buckets: usize,
    /// Nodes chained (= unique-table entries).
    pub entries: usize,
    /// Buckets holding at least one key.
    pub occupied_buckets: usize,
    /// Longest chain observed.
    pub max_chain: usize,
    /// `[k]` = buckets holding exactly `k` keys; the last bin is `k` or
    /// more.
    pub chain_histogram: Vec<u64>,
    /// Expected probes for a successful lookup under the chain model
    /// (1.0 = every key alone in its bucket).
    pub expected_probes: f64,
}

/// Chain lengths at or above this land in the histogram's last bin.
const MAX_CHAIN_BIN: usize = 8;

impl ProbeStats {
    /// The distribution as a JSON object.
    pub fn to_json(&self) -> Json {
        let hist: Vec<Json> = self.chain_histogram.iter().map(|&n| Json::from(n)).collect();
        Json::obj()
            .field("buckets", self.buckets)
            .field("entries", self.entries)
            .field("occupied_buckets", self.occupied_buckets)
            .field("max_chain", self.max_chain)
            .field("chain_histogram", hist)
            .field("expected_probes", self.expected_probes)
    }
}

/// Computed-cache traffic of one operation kind.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct OpCacheStats {
    /// Operation name (`and`, `ite`, `exists`, …).
    pub op: &'static str,
    /// Cache lookups issued by this operation.
    pub lookups: u64,
    /// Lookups that hit.
    pub hits: u64,
}

impl OpCacheStats {
    /// Hit fraction in `[0, 1]` (0 when the op never looked anything up).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// The stats as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("op", self.op)
            .field("lookups", self.lookups)
            .field("hits", self.hits)
            .field("hit_rate", self.hit_rate())
    }
}

/// The structured `analytics` section: unique-table probe distribution
/// and computed-cache hit rate by operation kind. Built on demand by
/// [`Bdd::analytics`].
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Analytics {
    /// Unique-table probe-length distribution (estimated; see
    /// [`ProbeStats`]).
    pub probe: ProbeStats,
    /// Computed-cache traffic per operation kind, ops with traffic only,
    /// worst hit rate first.
    pub cache_by_op: Vec<OpCacheStats>,
}

impl Analytics {
    /// The full section as a JSON object (embedded in run reports).
    pub fn to_json(&self) -> Json {
        let by_op: Vec<Json> = self.cache_by_op.iter().map(OpCacheStats::to_json).collect();
        Json::obj().field("unique_table", self.probe.to_json()).field("computed_cache_by_op", by_op)
    }
}

/// Builds a [`ProbeStats`] from per-bucket chain lengths: one slot per
/// bucket of the intrusive table, value = nodes chained there (the manager
/// fills this by walking the real chains).
pub(crate) fn probe_stats_from_occupancy(occupancy: &[u32]) -> ProbeStats {
    let mut chain_histogram = vec![0u64; MAX_CHAIN_BIN + 1];
    let mut entries = 0usize;
    let mut occupied_buckets = 0;
    let mut max_chain = 0usize;
    // Σ occ·(occ+1)/2 probes over all chains, under "scan the chain from
    // its head" semantics.
    let mut probe_sum = 0u64;
    for &occ in occupancy {
        let occ = occ as usize;
        entries += occ;
        if occ == 0 {
            chain_histogram[0] += 1;
            continue;
        }
        occupied_buckets += 1;
        max_chain = max_chain.max(occ);
        chain_histogram[occ.min(MAX_CHAIN_BIN)] += 1;
        probe_sum += (occ * (occ + 1) / 2) as u64;
    }
    ProbeStats {
        buckets: occupancy.len(),
        entries,
        occupied_buckets,
        max_chain,
        chain_histogram,
        expected_probes: if entries == 0 { 0.0 } else { probe_sum as f64 / entries as f64 },
    }
}

/// Always-on analytics state carried inside the manager: per-op cache
/// counters. Cheap enough to maintain unconditionally (two array
/// increments per cache lookup).
#[derive(Clone, Debug, Default)]
pub(crate) struct AnalyticsState {
    /// `[op][0]` = lookups, `[op][1]` = hits, indexed by [`CacheOp`].
    pub(crate) cache_by_op: [[u64; 2]; CacheOp::COUNT],
}

impl AnalyticsState {
    #[inline]
    pub(crate) fn note_lookup(&mut self, op: CacheOp, hit: bool) {
        let slot = &mut self.cache_by_op[op as usize];
        slot[0] += 1;
        slot[1] += u64::from(hit);
    }

    /// Merges `old` into `self` after a reorder-by-rebuild.
    pub(crate) fn absorb(&mut self, old: &AnalyticsState) {
        for (mine, theirs) in self.cache_by_op.iter_mut().zip(&old.cache_by_op) {
            mine[0] += theirs[0];
            mine[1] += theirs[1];
        }
    }
}

impl Bdd {
    /// Builds the structured [`Analytics`] section: one pass over the
    /// unique table plus a summary of the always-on counters.
    pub fn analytics(&self) -> Analytics {
        let state = self.analytics_state();
        let mut cache_by_op: Vec<OpCacheStats> = CacheOp::ALL
            .iter()
            .filter_map(|&op| {
                let [lookups, hits] = state.cache_by_op[op as usize];
                (lookups > 0).then(|| OpCacheStats { op: op.name(), lookups, hits })
            })
            .collect();
        cache_by_op.sort_by(|a, b| {
            a.hit_rate().partial_cmp(&b.hit_rate()).unwrap_or(std::cmp::Ordering::Equal)
        });
        Analytics { probe: self.unique_probe_stats(), cache_by_op }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_stats_of_empty_and_single() {
        let empty = probe_stats_from_occupancy(&[0; 16]);
        assert_eq!(empty.entries, 0);
        assert_eq!(empty.max_chain, 0);
        assert_eq!(empty.buckets, 16);
        assert_eq!(empty.expected_probes, 0.0);
        let one = probe_stats_from_occupancy(&[0, 1, 0, 0]);
        assert_eq!(one.entries, 1);
        assert_eq!(one.occupied_buckets, 1);
        assert_eq!(one.max_chain, 1);
        assert_eq!(one.expected_probes, 1.0);
    }

    #[test]
    fn probe_stats_counts_every_chained_node_once() {
        // 512 buckets holding 0, 1, 2, 3 nodes in rotation.
        let occupancy: Vec<u32> = (0..512u32).map(|b| b % 4).collect();
        let stats = probe_stats_from_occupancy(&occupancy);
        assert_eq!(stats.entries, 128 * (1 + 2 + 3));
        assert_eq!(stats.buckets, 512);
        assert_eq!(stats.occupied_buckets, 3 * 128);
        assert_eq!(stats.max_chain, 3);
        // Histogram buckets weighted by chain length must cover every node.
        let covered: u64 =
            stats.chain_histogram.iter().enumerate().map(|(k, &n)| k as u64 * n).sum();
        assert_eq!(covered, stats.entries as u64);
        // 128·1 + 128·3 + 128·6 probes over 768 nodes.
        let expected = (128 * (1 + 3 + 6)) as f64 / 768.0;
        assert!((stats.expected_probes - expected).abs() < 1e-12);
        let json = stats.to_json();
        assert_eq!(
            json.get("entries").and_then(Json::as_f64),
            Some(768.0),
            "JSON mirrors the struct"
        );
    }

    #[test]
    fn degenerate_hashing_shows_a_fat_tail() {
        // Every node chained into one bucket: worst case made visible.
        let mut occupancy = vec![0u32; 32];
        occupancy[7] = 20;
        let stats = probe_stats_from_occupancy(&occupancy);
        assert_eq!(stats.occupied_buckets, 1);
        assert_eq!(stats.max_chain, 20);
        assert_eq!(*stats.chain_histogram.last().unwrap(), 1);
        assert!(stats.expected_probes > 10.0);
    }

    #[test]
    fn manager_analytics_sees_cache_traffic() {
        let mut mgr = Bdd::new(6);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let _ = mgr.and(a, b);
        let _ = mgr.and(a, b); // cache hit
        let _ = mgr.xor(a, b);
        let analytics = mgr.analytics();
        assert!(analytics.probe.entries >= 3, "vars and the AND node");
        let and_stats =
            analytics.cache_by_op.iter().find(|s| s.op == "and").expect("AND traffic recorded");
        assert!(and_stats.lookups >= 2);
        assert!(and_stats.hits >= 1);
        assert!(analytics.cache_by_op.iter().all(|s| s.lookups > 0), "quiet ops are omitted");
        // Worst hit rate sorts first.
        for pair in analytics.cache_by_op.windows(2) {
            assert!(pair[0].hit_rate() <= pair[1].hit_rate() + 1e-12);
        }
        let json = analytics.to_json();
        assert_eq!(json.keys(), ["unique_table", "computed_cache_by_op"]);
        assert!(json.get("computed_cache_by_op").and_then(Json::as_arr).is_some());
        let hits: u64 = analytics.cache_by_op.iter().map(|s| s.hits).sum();
        assert_eq!(mgr.op_stats().cache_hits, hits, "the total is the per-op sum");
    }

    #[test]
    fn analytics_survive_reorder() {
        let mut mgr = Bdd::new(4);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let f = mgr.and(a, b);
        let _ = mgr.and(a, b);
        let before = mgr.analytics();
        let and_lookups =
            before.cache_by_op.iter().find(|s| s.op == "and").map_or(0, |s| s.lookups);
        assert!(and_lookups >= 2);
        let order: Vec<u32> = (0..4).rev().collect();
        let _roots = mgr.reorder(&order, &[f]);
        let after = mgr.analytics();
        let after_lookups =
            after.cache_by_op.iter().find(|s| s.op == "and").map_or(0, |s| s.lookups);
        assert!(after_lookups >= and_lookups, "per-op counters survive the rebuild");
    }
}
