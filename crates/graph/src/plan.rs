//! The window-planning layer: one frontend pass per window, shared by
//! every consumer.
//!
//! The MSDL frontend (classification → affected-subgraph extraction →
//! O-CSR packing, §3.1) used to be recomputed independently by the
//! concurrent engine, the accelerator simulator, and the format
//! experiments — three identical sweeps over the same windows. A
//! [`WindowPlan`] bundles the three artefacts plus the degree/dispatch
//! statistics the Task Dispatcher and traffic accounting need, built once
//! by the [`WindowPlanner`] and handed to every consumer. A [`PlanCache`]
//! keyed by `(dataset fingerprint, window index, K)` lets separate
//! pipelines over the same graph reuse plans across experiment runs.

use crate::classify::{try_classify_window, WindowClassification, WindowError};
use crate::dynamic::DynamicGraph;
use crate::ocsr::OCsr;
use crate::snapshot::Snapshot;
use crate::stats::ClassCounts;
use crate::subgraph::AffectedSubgraph;
use crate::types::{VertexClass, VertexId};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tagnn_obs::{span as obs_span, Recorder};

/// Cache key: `(graph fingerprint, window index, window size K)`.
pub type PlanKey = (u64, usize, usize);

/// How a [`WindowPlan`] was obtained.
///
/// Recorded in [`PlanStats`] (excluded from equality: the same window
/// planned scratch, served from cache, or maintained incrementally is the
/// same plan) and surfaced by the serving layer so operators can see where
/// plan-build work actually happens.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanSource {
    /// Built from scratch by the [`WindowPlanner`] pipeline
    /// (classify → DFS extract → O-CSR pack over the whole window).
    #[default]
    Scratch,
    /// Served from a [`PlanCache`] hit.
    Cached,
    /// Sealed by a [`crate::incremental::PlanMaintainer`] that absorbed
    /// the window's events as they arrived.
    Incremental,
}

impl PlanSource {
    /// Short stable name (used in counters and JSON reports).
    pub fn name(self) -> &'static str {
        match self {
            PlanSource::Scratch => "scratch",
            PlanSource::Cached => "cached",
            PlanSource::Incremental => "incremental",
        }
    }
}

/// Per-window statistics derived while planning — everything downstream
/// cost models read without touching the raw snapshots again.
///
/// `build_ns` is wall-clock instrumentation and deliberately excluded
/// from equality: two plans of the same window are equal however long
/// they took to build.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlanStats {
    /// Vertices classified (= universe size).
    pub classified_vertices: u64,
    /// Per-class vertex counts.
    pub counts: ClassCounts,
    /// Affected-subgraph vertex count |V_S|.
    pub subgraph_vertices: u64,
    /// Affected-subgraph timestamped edge count |E_S|.
    pub subgraph_edges: u64,
    /// Degree-weighted dispatch items: every vertex once (the
    /// compute-once pass over the window's first snapshot) followed by
    /// each subgraph vertex's degree per later snapshot — the task list
    /// the Task Dispatcher balances over DCUs.
    pub degree_items: Vec<u64>,
    /// Feature rows travelling in the cold pass (sum of the first
    /// `classified_vertices` dispatch items).
    pub cold_rows: u64,
    /// Estimated re-fetched rows for affected vertices over the window's
    /// remaining snapshots.
    pub affected_rows: u64,
    /// Affected-subgraph feature rows measured nonzero in the window's
    /// first snapshot — the sparsity-adaptive dispatch layer's density
    /// numerator for the window's incremental work (denominator:
    /// `subgraph_vertices`). Measured during assembly while the subgraph
    /// rows are in hand, so it costs O(touched rows), never a full
    /// feature-table scan. Advisory: excluded from equality and the
    /// fingerprint (both build paths compute it identically anyway).
    #[serde(default)]
    pub nz_subgraph_rows: u64,
    /// Wall-clock nanoseconds spent building this plan (excluded from
    /// equality).
    pub build_ns: u64,
    /// How the plan was obtained (excluded from equality — the
    /// incremental path must produce bit-identical plans).
    #[serde(default)]
    pub source: PlanSource,
}

impl PartialEq for PlanStats {
    fn eq(&self, other: &Self) -> bool {
        self.classified_vertices == other.classified_vertices
            && self.counts == other.counts
            && self.subgraph_vertices == other.subgraph_vertices
            && self.subgraph_edges == other.subgraph_edges
            && self.degree_items == other.degree_items
            && self.cold_rows == other.cold_rows
            && self.affected_rows == other.affected_rows
    }
}

/// The frontend artefacts of one window, built once and shared by the
/// engine, the simulator, and the experiments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowPlan {
    index: usize,
    window_len: usize,
    classification: WindowClassification,
    subgraph: AffectedSubgraph,
    ocsr: OCsr,
    stats: PlanStats,
}

impl WindowPlan {
    /// Stamps how this plan was obtained (serving-layer bookkeeping).
    pub(crate) fn set_source(&mut self, source: PlanSource) {
        self.stats.source = source;
    }

    /// Window index in batch order.
    #[inline]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Number of snapshots in this window (the tail window may be shorter
    /// than K).
    #[inline]
    pub fn window_len(&self) -> usize {
        self.window_len
    }

    /// The window's vertex classification.
    #[inline]
    pub fn classification(&self) -> &WindowClassification {
        &self.classification
    }

    /// The extracted affected subgraph.
    #[inline]
    pub fn subgraph(&self) -> &AffectedSubgraph {
        &self.subgraph
    }

    /// The O-CSR packing of the affected subgraph.
    #[inline]
    pub fn ocsr(&self) -> &OCsr {
        &self.ocsr
    }

    /// Derived statistics.
    #[inline]
    pub fn stats(&self) -> &PlanStats {
        &self.stats
    }

    /// How the plan was obtained.
    #[inline]
    pub fn source(&self) -> PlanSource {
        self.stats.source
    }

    /// Runs the window pipeline downstream of classification — subgraph
    /// extraction, O-CSR packing, dispatch statistics — and assembles the
    /// plan. Shared by the from-scratch [`WindowPlanner`] and the
    /// incremental seal path, so the two can only diverge in the
    /// classification they feed in.
    ///
    /// `started` anchors `build_ns`: the scratch path passes the instant
    /// classification began, the incremental path the instant seal began.
    pub(crate) fn assemble(
        snaps: &[&Snapshot],
        index: usize,
        classification: WindowClassification,
        started: std::time::Instant,
    ) -> Self {
        let subgraph = AffectedSubgraph::extract(snaps, &classification);
        let ocsr = OCsr::from_subgraph(snaps, &classification, &subgraph);

        let n = snaps[0].num_vertices();
        // Degree-weighted GNN tasks: every vertex once (the compute-once
        // pass) plus the subgraph per extra snapshot — the exact item
        // order matters for round-robin dispatch reproducibility.
        let mut degree_items: Vec<u64> = (0..n as VertexId)
            .map(|v| snaps[0].csr().degree(v) as u64 + 1)
            .collect();
        let cold_rows: u64 = degree_items.iter().sum();
        for &v in subgraph.vertices() {
            for snap in &snaps[1..] {
                degree_items.push(snap.csr().degree(v) as u64 + 1);
            }
        }
        let affected_rows: u64 = classification
            .vertices_of(VertexClass::Affected)
            .map(|v| snaps[0].csr().degree(v) as u64 + 1)
            .sum::<u64>()
            * (snaps.len() as u64).saturating_sub(1);
        // Density piggyback: the subgraph rows are exactly the feature
        // rows the window's incremental work will touch, so measuring
        // them here is O(touched rows) by construction.
        let nz_subgraph_rows: u64 = subgraph
            .vertices()
            .iter()
            .filter(|&&v| snaps[0].feature(v).iter().any(|&x| x != 0.0))
            .count() as u64;

        let stats = PlanStats {
            classified_vertices: n as u64,
            counts: ClassCounts::from_classification(&classification),
            subgraph_vertices: subgraph.num_vertices() as u64,
            subgraph_edges: subgraph.num_edges() as u64,
            degree_items,
            cold_rows,
            affected_rows,
            nz_subgraph_rows,
            build_ns: started.elapsed().as_nanos() as u64,
            source: PlanSource::Scratch,
        };
        Self {
            index,
            window_len: snaps.len(),
            classification,
            subgraph,
            ocsr,
            stats,
        }
    }

    /// FNV-1a content fingerprint over the plan's artefacts
    /// (classification, O-CSR arrays and feature bytes, work counters —
    /// everything except `build_ns` and `source`). Two plans of the same
    /// window compare equal iff their fingerprints match, whichever path
    /// built them; the differential suite pins this.
    pub fn fingerprint(&self) -> u64 {
        fn eat(h: &mut u64, b: u8) {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        fn eat_u64(h: &mut u64, x: u64) {
            for b in x.to_le_bytes() {
                eat(h, b);
            }
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &c in self.classification.classes() {
            eat(&mut h, c as u8);
        }
        eat_u64(&mut h, self.index as u64);
        eat_u64(&mut h, self.window_len as u64);
        for (&src, &e) in self.ocsr.sources().iter().zip(self.ocsr.enums()) {
            eat_u64(&mut h, src as u64);
            eat_u64(&mut h, e as u64);
            for (u, t) in self.ocsr.neighbors(src) {
                eat_u64(&mut h, u as u64);
                eat_u64(&mut h, t as u64);
            }
        }
        eat_u64(&mut h, self.ocsr.num_feature_rows() as u64);
        for t in 0..self.window_len {
            for &src in self.ocsr.sources() {
                if let Some(row) = self.ocsr.feature(src, t as crate::types::SnapshotId) {
                    for &x in row {
                        eat_u64(&mut h, x.to_bits() as u64);
                    }
                }
            }
        }
        for &v in self.subgraph.visit_order() {
            eat_u64(&mut h, v as u64);
        }
        eat_u64(&mut h, self.stats.cold_rows);
        eat_u64(&mut h, self.stats.affected_rows);
        for &d in &self.stats.degree_items {
            eat_u64(&mut h, d);
        }
        h
    }
}

/// Aggregate planning instrumentation, surfaced in simulator reports and
/// experiment JSON.
///
/// Equality covers only the structural counters — `build_ns` and the
/// cache tallies vary run to run and between cached and uncached paths
/// producing otherwise identical results.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct PlanInstrumentation {
    /// Windows planned (or fetched from cache).
    pub windows_planned: u64,
    /// Total vertices classified across windows.
    pub vertices_classified: u64,
    /// Total affected-subgraph edges across windows.
    pub subgraph_edges: u64,
    /// Total nanoseconds spent building the plans (excluded from
    /// equality).
    pub build_ns: u64,
    /// Plan-cache hits observed when the plans were obtained (excluded
    /// from equality).
    pub cache_hits: u64,
    /// Plan-cache misses observed when the plans were obtained (excluded
    /// from equality).
    pub cache_misses: u64,
    /// Plan-cache evictions observed when the plans were obtained
    /// (excluded from equality).
    #[serde(default)]
    pub cache_evictions: u64,
}

impl PartialEq for PlanInstrumentation {
    fn eq(&self, other: &Self) -> bool {
        self.windows_planned == other.windows_planned
            && self.vertices_classified == other.vertices_classified
            && self.subgraph_edges == other.subgraph_edges
    }
}

impl PlanInstrumentation {
    /// Aggregates the instrumentation of a plan set.
    pub fn from_plans(plans: &[Arc<WindowPlan>]) -> Self {
        let mut agg = Self {
            windows_planned: plans.len() as u64,
            ..Self::default()
        };
        for p in plans {
            agg.vertices_classified += p.stats.classified_vertices;
            agg.subgraph_edges += p.stats.subgraph_edges;
            agg.build_ns += p.stats.build_ns;
        }
        agg
    }

    /// Stamps the cache-delta observed while obtaining the plans.
    pub fn with_cache(mut self, stats: CacheStats) -> Self {
        self.cache_hits = stats.hits;
        self.cache_misses = stats.misses;
        self.cache_evictions = stats.evictions;
        self
    }

    /// Publishes every field as `{prefix}.{field}` counters on `rec`.
    pub fn publish(&self, rec: &Recorder, prefix: &str) {
        rec.incr(&format!("{prefix}.windows_planned"), self.windows_planned);
        rec.incr(
            &format!("{prefix}.vertices_classified"),
            self.vertices_classified,
        );
        rec.incr(&format!("{prefix}.subgraph_edges"), self.subgraph_edges);
        rec.incr(&format!("{prefix}.build_ns"), self.build_ns);
        rec.incr(&format!("{prefix}.cache_hits"), self.cache_hits);
        rec.incr(&format!("{prefix}.cache_misses"), self.cache_misses);
        rec.incr(&format!("{prefix}.cache_evictions"), self.cache_evictions);
    }
}

/// Hit/miss/eviction tallies of a [`PlanCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Plans served from the cache.
    pub hits: u64,
    /// Plans built because the cache had no entry.
    pub misses: u64,
    /// Plans dropped to keep the cache within its LRU capacity.
    #[serde(default)]
    pub evictions: u64,
}

impl CacheStats {
    /// Tallies accumulated since `earlier` was sampled.
    pub fn since(self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
        }
    }

    /// Publishes the tallies as `{prefix}.hits` / `.misses` /
    /// `.evictions` counters on `rec`. Counters are additive, so publish
    /// deltas (see [`Self::since`]) or publish a cumulative snapshot
    /// exactly once.
    pub fn publish(&self, rec: &Recorder, prefix: &str) {
        rec.incr(&format!("{prefix}.hits"), self.hits);
        rec.incr(&format!("{prefix}.misses"), self.misses);
        rec.incr(&format!("{prefix}.evictions"), self.evictions);
    }
}

#[derive(Default)]
struct CacheMap {
    entries: HashMap<PlanKey, CacheEntry>,
    tick: u64,
}

struct CacheEntry {
    plan: Arc<WindowPlan>,
    last_used: u64,
}

/// A concurrent plan cache keyed by [`PlanKey`]. Cheap to share: clone an
/// `Arc<PlanCache>` into every pipeline that should reuse plans.
///
/// By default the cache is unbounded (the offline pipelines plan a fixed
/// number of windows). Long-running services should bound it with
/// [`Self::with_capacity`]: once full, inserting a new plan evicts the
/// least-recently-used entry and counts it in
/// [`CacheStats::evictions`].
#[derive(Default)]
pub struct PlanCache {
    map: Mutex<CacheMap>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("PlanCache")
            .field("entries", &self.len())
            .field("capacity", &self.capacity)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .field("evictions", &stats.evictions)
            .finish()
    }
}

impl PlanCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache holding at most `capacity` plans (LRU eviction).
    /// A capacity of `0` means unbounded.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity,
            ..Self::default()
        }
    }

    /// The configured capacity (`0` = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative hit/miss/eviction tallies.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Fetches the plan under `key`, if cached, marking it most recently
    /// used.
    pub fn get(&self, key: &PlanKey) -> Option<Arc<WindowPlan>> {
        let mut map = self.map.lock().unwrap();
        map.tick += 1;
        let tick = map.tick;
        let hit = map.entries.get_mut(key).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.plan)
        });
        drop(map);
        match hit {
            Some(p) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(p)
            }
            None => None,
        }
    }

    /// Inserts a freshly built plan, counting the miss that caused it.
    /// Evicts least-recently-used entries while over capacity.
    ///
    /// Re-inserting an existing key replaces the plan and refreshes its
    /// recency but counts neither a miss nor an eviction — the entry count
    /// did not grow, so nothing needs to make room, and the miss that
    /// caused the original build was already tallied.
    pub fn insert(&self, key: PlanKey, plan: Arc<WindowPlan>) {
        let mut map = self.map.lock().unwrap();
        map.tick += 1;
        let tick = map.tick;
        let previous = map.entries.insert(
            key,
            CacheEntry {
                plan,
                last_used: tick,
            },
        );
        if previous.is_some() {
            return; // replacement: no new entry, no miss, no eviction
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        while self.capacity > 0 && map.entries.len() > self.capacity {
            // O(n) min-scan: capacities are small (hundreds of plans) and
            // insert is already off the hot engine path.
            let oldest = map
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("cache over capacity implies at least one entry");
            map.entries.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Builds [`WindowPlan`]s for the non-overlapping windows of a dynamic
/// graph, in parallel across windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowPlanner {
    k: usize,
}

impl WindowPlanner {
    /// A planner for windows of `k` snapshots.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "window size must be positive");
        Self { k }
    }

    /// Window size K.
    #[inline]
    pub fn window(&self) -> usize {
        self.k
    }

    /// Plans one window of snapshot refs.
    pub fn try_plan_window(
        &self,
        snaps: &[&Snapshot],
        index: usize,
    ) -> Result<WindowPlan, WindowError> {
        let started = std::time::Instant::now();
        let classification = try_classify_window(snaps)?;
        Ok(WindowPlan::assemble(snaps, index, classification, started))
    }

    /// Plans one window, panicking on malformed input (test/bench
    /// convenience mirroring [`crate::classify::classify_window`]).
    ///
    /// # Panics
    /// Panics if the window is empty or snapshots disagree on universe
    /// size.
    pub fn plan_window(&self, snaps: &[&Snapshot], index: usize) -> WindowPlan {
        match self.try_plan_window(snaps, index) {
            Ok(plan) => plan,
            Err(e) => panic!("{e}"),
        }
    }

    /// Plans every window of `graph`, in parallel across windows.
    pub fn plan_graph(&self, graph: &DynamicGraph) -> Vec<Arc<WindowPlan>> {
        self.plan_graph_traced(graph, None)
    }

    /// [`Self::plan_graph`] under a `plan` span, publishing the aggregate
    /// [`PlanInstrumentation`] as `plan.*` counters when a recorder is
    /// attached. With `None` this is exactly `plan_graph`.
    pub fn plan_graph_traced(
        &self,
        graph: &DynamicGraph,
        rec: Option<&Recorder>,
    ) -> Vec<Arc<WindowPlan>> {
        let _span = obs_span(rec, "plan");
        let plans = self
            .try_plan_graph(graph)
            .expect("snapshots of one DynamicGraph share the vertex universe");
        if let Some(rec) = rec {
            PlanInstrumentation::from_plans(&plans).publish(rec, "plan");
        }
        plans
    }

    /// Fallible variant of [`Self::plan_graph`].
    pub fn try_plan_graph(
        &self,
        graph: &DynamicGraph,
    ) -> Result<Vec<Arc<WindowPlan>>, WindowError> {
        let windows: Vec<&[Snapshot]> = graph.batches(self.k).collect();
        // One window is a whole plan build: split down to single windows.
        windows
            .into_par_iter()
            .with_min_len(1)
            .enumerate()
            .map(|(i, batch)| {
                let refs: Vec<&Snapshot> = batch.iter().collect();
                self.try_plan_window(&refs, i).map(Arc::new)
            })
            .collect()
    }

    /// Plans every window of `graph`, serving cached plans where the
    /// cache already holds `(graph.fingerprint(), index, K)` and building
    /// (then inserting) the rest in parallel.
    pub fn plan_graph_cached(
        &self,
        graph: &DynamicGraph,
        cache: &PlanCache,
    ) -> Vec<Arc<WindowPlan>> {
        self.plan_graph_cached_traced(graph, cache, None)
    }

    /// [`Self::plan_graph_cached`] under a `plan` span, publishing the
    /// aggregate instrumentation (including the cache-delta of this call)
    /// as `plan.*` counters when a recorder is attached.
    pub fn plan_graph_cached_traced(
        &self,
        graph: &DynamicGraph,
        cache: &PlanCache,
        rec: Option<&Recorder>,
    ) -> Vec<Arc<WindowPlan>> {
        let _span = obs_span(rec, "plan");
        let before = cache.stats();
        let plans = self.plan_graph_cached_inner(graph, cache);
        if let Some(rec) = rec {
            PlanInstrumentation::from_plans(&plans)
                .with_cache(cache.stats().since(before))
                .publish(rec, "plan");
        }
        plans
    }

    fn plan_graph_cached_inner(
        &self,
        graph: &DynamicGraph,
        cache: &PlanCache,
    ) -> Vec<Arc<WindowPlan>> {
        let fp = graph.fingerprint();
        let windows: Vec<&[Snapshot]> = graph.batches(self.k).collect();
        let mut plans: Vec<Option<Arc<WindowPlan>>> = windows
            .iter()
            .enumerate()
            .map(|(i, _)| cache.get(&(fp, i, self.k)))
            .collect();
        let missing: Vec<usize> = plans
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_none())
            .map(|(i, _)| i)
            .collect();
        let built: Vec<(usize, Arc<WindowPlan>)> = missing
            .into_par_iter()
            .with_min_len(1)
            .map(|i| {
                let refs: Vec<&Snapshot> = windows[i].iter().collect();
                (i, Arc::new(self.plan_window(&refs, i)))
            })
            .collect();
        for (i, plan) in built {
            cache.insert((fp, i, self.k), Arc::clone(&plan));
            plans[i] = Some(plan);
        }
        plans.into_iter().map(Option::unwrap).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify_window;
    use crate::generate::{DatasetPreset, GeneratorConfig};

    fn graph() -> DynamicGraph {
        DatasetPreset::Gdelt.config_small(6).generate()
    }

    #[test]
    fn plan_matches_direct_kernel_calls() {
        let g = graph();
        let plans = WindowPlanner::new(3).plan_graph(&g);
        assert_eq!(plans.len(), 2);
        for (i, batch) in g.batches(3).enumerate() {
            let refs: Vec<&Snapshot> = batch.iter().collect();
            let cls = classify_window(&refs);
            let sg = AffectedSubgraph::extract(&refs, &cls);
            let ocsr = OCsr::from_subgraph(&refs, &cls, &sg);
            assert_eq!(plans[i].classification(), &cls);
            assert_eq!(plans[i].subgraph(), &sg);
            assert_eq!(plans[i].ocsr(), &ocsr);
            assert_eq!(plans[i].index(), i);
            assert_eq!(plans[i].window_len(), batch.len());
        }
    }

    #[test]
    fn plan_stats_mirror_the_dispatch_sweep() {
        let g = graph();
        let plans = WindowPlanner::new(4).plan_graph(&g);
        for (plan, batch) in plans.iter().zip(g.batches(4)) {
            let refs: Vec<&Snapshot> = batch.iter().collect();
            let s = plan.stats();
            assert_eq!(s.classified_vertices, g.num_vertices() as u64);
            assert_eq!(s.subgraph_edges, plan.subgraph().num_edges() as u64);
            let expect_items = g.num_vertices() + plan.subgraph().num_vertices() * (refs.len() - 1);
            assert_eq!(s.degree_items.len(), expect_items);
            let cold: u64 = s.degree_items[..g.num_vertices()].iter().sum();
            assert_eq!(s.cold_rows, cold);
            assert_eq!(s.counts.total(), g.num_vertices());
        }
    }

    #[test]
    fn tail_window_is_planned_short() {
        let g = graph(); // 6 snapshots
        let plans = WindowPlanner::new(4).plan_graph(&g);
        assert_eq!(plans.len(), 2);
        assert_eq!(plans[0].window_len(), 4);
        assert_eq!(plans[1].window_len(), 2);
    }

    #[test]
    fn cache_hits_on_second_plan_and_misses_on_first() {
        let g = graph();
        let cache = PlanCache::new();
        let planner = WindowPlanner::new(3);
        let first = planner.plan_graph_cached(&g, &cache);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: 2,
                evictions: 0
            }
        );
        let second = planner.plan_graph_cached(&g, &cache);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 2,
                misses: 2,
                evictions: 0
            }
        );
        for (a, b) in first.iter().zip(&second) {
            assert!(Arc::ptr_eq(a, b), "cached plans are shared, not rebuilt");
        }
    }

    #[test]
    fn cache_distinguishes_window_sizes_and_graphs() {
        let g = graph();
        let cache = PlanCache::new();
        WindowPlanner::new(3).plan_graph_cached(&g, &cache);
        WindowPlanner::new(4).plan_graph_cached(&g, &cache);
        assert_eq!(cache.stats().hits, 0, "different K must not collide");
        let other = GeneratorConfig::tiny().generate();
        WindowPlanner::new(3).plan_graph_cached(&other, &cache);
        assert_eq!(cache.stats().hits, 0, "different graphs must not collide");
        assert_eq!(cache.len(), 2 + 2 + 2);
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let g = graph();
        let planner = WindowPlanner::new(3);
        let plans = planner.plan_graph(&g); // 2 windows
        let cache = PlanCache::with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        cache.insert((1, 0, 3), Arc::clone(&plans[0]));
        cache.insert((2, 0, 3), Arc::clone(&plans[0]));
        // Touch key 1 so key 2 becomes the LRU victim.
        assert!(cache.get(&(1, 0, 3)).is_some());
        cache.insert((3, 0, 3), Arc::clone(&plans[1]));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&(2, 0, 3)).is_none(), "LRU entry was evicted");
        assert!(cache.get(&(1, 0, 3)).is_some());
        assert!(cache.get(&(3, 0, 3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn bounded_cache_stays_within_capacity_under_churn() {
        let g = graph();
        let planner = WindowPlanner::new(3);
        let plan = Arc::clone(&planner.plan_graph(&g)[0]);
        let cache = PlanCache::with_capacity(4);
        for i in 0..32usize {
            cache.insert((i as u64, 0, 3), Arc::clone(&plan));
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().evictions, 28);
        // An unbounded cache never evicts.
        let unbounded = PlanCache::new();
        for i in 0..32usize {
            unbounded.insert((i as u64, 0, 3), Arc::clone(&plan));
        }
        assert_eq!(unbounded.len(), 32);
        assert_eq!(unbounded.stats().evictions, 0);
    }

    #[test]
    fn reinsert_same_key_neither_counts_a_miss_nor_evicts() {
        let g = graph();
        let planner = WindowPlanner::new(3);
        let plans = planner.plan_graph(&g);
        let cache = PlanCache::with_capacity(1);
        cache.insert((1, 0, 3), Arc::clone(&plans[0]));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: 1,
                evictions: 0
            }
        );
        // Re-inserting the resident key replaces the plan in place: the
        // cache is exactly at capacity, so any phantom "new entry" would
        // evict the only occupant.
        cache.insert((1, 0, 3), Arc::clone(&plans[1]));
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: 1,
                evictions: 0
            }
        );
        let got = cache.get(&(1, 0, 3)).expect("entry survived re-insert");
        assert!(Arc::ptr_eq(&got, &plans[1]), "re-insert replaces the plan");
        // A genuinely new key at capacity 1 churns: one miss, one eviction.
        cache.insert((2, 0, 3), Arc::clone(&plans[0]));
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 2,
                evictions: 1
            }
        );
        assert!(cache.get(&(1, 0, 3)).is_none(), "old key was the victim");
    }

    #[test]
    fn plan_stats_equality_ignores_source_and_fingerprint_pins_content() {
        let g = graph();
        let plans = WindowPlanner::new(3).plan_graph(&g);
        let mut a = (*plans[0]).clone();
        let b = (*plans[0]).clone();
        a.set_source(PlanSource::Incremental);
        assert_eq!(a, b, "source is bookkeeping, not plan content");
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(
            plans[0].fingerprint(),
            plans[1].fingerprint(),
            "different windows hash apart"
        );
        assert_eq!(a.source(), PlanSource::Incremental);
        assert_eq!(b.source(), PlanSource::Scratch);
        assert_eq!(PlanSource::Cached.name(), "cached");
    }

    #[test]
    fn fingerprint_is_content_sensitive() {
        let a = GeneratorConfig::tiny().generate();
        let b = GeneratorConfig::tiny().generate();
        assert_eq!(a.fingerprint(), b.fingerprint(), "same content, same print");
        let mut cfg = GeneratorConfig::tiny();
        cfg.seed ^= 1;
        let c = cfg.generate();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn planner_rejects_empty_window() {
        let err = WindowPlanner::new(2).try_plan_window(&[], 0).unwrap_err();
        assert_eq!(err, WindowError::EmptyWindow);
    }

    #[test]
    fn instrumentation_equality_ignores_timing_and_cache() {
        let g = graph();
        let plans = WindowPlanner::new(3).plan_graph(&g);
        let a = PlanInstrumentation::from_plans(&plans);
        let mut b = a;
        b.build_ns = a.build_ns.wrapping_add(999);
        b.cache_hits = 7;
        b.cache_misses = 3;
        assert_eq!(a, b);
        let mut c = a;
        c.subgraph_edges += 1;
        assert_ne!(a, c);
    }
}
