//! Batched, parallel construction of the PCP distance oracle.
//!
//! The naive build runs one point-to-point search per WSPD pair — `O(s²n)`
//! probes, which PR 4 measured as the slowest precompute in the repo. This
//! module replaces it with the same shape as `SilcIndex::build`:
//!
//! 1. **Probe batching.** Pairs are grouped by their `a`-side representative
//!    vertex; each distinct representative gets **one** truncated
//!    multi-target Dijkstra ([`silc_network::dijkstra::sssp_settle_until`])
//!    that stops as soon as the last marked target settles, instead of one
//!    point-to-point search per pair. At most `n` searches replace `O(s²n)` probes.
//! 2. **Self-scheduled workers.** Representative tasks are chunked onto
//!    worker threads that pop disjoint `&mut` runs of pre-allocated output
//!    slots (shared-nothing scratch per worker for its whole lifetime), so
//!    the final reduction runs over a deterministically ordered array and
//!    the encoded oracle is **byte-identical** for any thread count.
//! 3. **Per-pair error caps.** The same searches also settle every vertex
//!    under each internal node, yielding the node's *network radius*
//!    `max_{x∈N} d(rep(N), x)`. A pair's sound error cap is then
//!    `(rad_A + rad_B) / max(min_ratio·gap, d − rad_A − rad_B)` — see
//!    [`crate::build`] (this module) for the derivation. Caps above the 99th percentile
//!    (the clamp level) get an **exact-refinement fallback**: the true
//!    maximum relative error over the pair's vertex product, computed by a
//!    second batched pass of truncated searches from the pair's smaller
//!    side.
//!
//! All distances are exact Dijkstra fixpoints — a function of the graph
//! alone — so batching changes construction *cost*, never the stored bits.

use crate::oracle::{DistanceOracle, PairData};
use crate::split_tree::{NodeRef, SplitTree};
use crate::wspd::{rect_gap, wspd, WspdPair};
use silc_network::dijkstra::sssp_settle_until;
use silc_network::{SpatialNetwork, SsspWorkspace, VertexId};
use std::collections::HashMap;
use std::sync::Mutex;

/// Parameters of oracle construction.
#[derive(Debug, Clone)]
pub struct PcpBuildConfig {
    /// Grid resolution exponent of the split tree (`2^q × 2^q` cells).
    pub grid_exponent: u32,
    /// WSPD separation factor `s` (larger = more pairs = better accuracy).
    pub separation: f64,
    /// Worker threads for the probe passes; `0` means all available cores.
    pub threads: usize,
}

impl Default for PcpBuildConfig {
    fn default() -> Self {
        PcpBuildConfig { grid_exponent: 10, separation: 8.0, threads: 0 }
    }
}

/// Cost counters of one oracle construction — what `bench_tradeoff` records
/// as "probe counts" next to build seconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PcpBuildStats {
    /// Stored WSPD pairs.
    pub pairs: usize,
    /// Truncated multi-target searches in the batched distance/radius pass
    /// (one per distinct representative; the naive build ran one probe per
    /// *pair* instead).
    pub batch_sources: usize,
    /// Total vertices settled across the batched pass.
    pub batch_settled: usize,
    /// Truncated searches spent on exact-refinement of tail caps.
    pub refine_sources: usize,
    /// Total vertices settled across the refinement pass.
    pub refine_settled: usize,
    /// Pairs whose cap was tightened by exact refinement.
    pub refined_pairs: usize,
    /// Worker threads the build ran on.
    pub workers: usize,
}

/// Caps above this percentile of the cap distribution are the "tail" that
/// gets the exact-refinement fallback.
const TAIL_PERCENTILE: f64 = 99.0;
/// A tail pair is refined only when its smaller side holds at most this
/// many vertices (the refinement runs one truncated search per vertex of
/// that side).
const REFINE_SPAN_LIMIT: usize = 64;
/// Upper bound on distinct refinement sources, as a fraction denominator of
/// `n` (with a floor), so the refinement pass can never dominate the build.
fn refine_source_budget(n: usize) -> usize {
    (n / 4).max(256)
}

/// One batched probe task: a representative vertex, the pairs whose `a`-side
/// representative it is, and the internal nodes it represents (whose network
/// radii this task measures).
struct SourcePlan<'a> {
    source: u32,
    pair_ids: &'a [u32],
    node_ids: &'a [u32],
}

/// Output slot of one batched probe task (parallel to the plan's id lists).
struct SourceOut {
    pair_dists: Vec<f64>,
    node_rads: Vec<f64>,
    settled: usize,
}

/// One refinement task: probe truncated searches from `source` and compare
/// every settled vertex of each target node's span against the pair's
/// stored distance.
struct RefinePlan {
    source: u32,
    /// `(pair index, span side to scan)` pairs this source contributes to.
    items: Vec<(u32, NodeRef)>,
}

/// Per-worker scratch, created once per worker thread: the SSSP workspace
/// plus generation-stamped target marks and a distance capture buffer.
struct ProbeScratch {
    ws: SsspWorkspace,
    mark: Vec<u32>,
    dist_of: Vec<f64>,
    gen: u32,
}

impl ProbeScratch {
    fn new(n: usize) -> Self {
        ProbeScratch {
            ws: SsspWorkspace::with_capacity(n),
            mark: vec![0; n],
            dist_of: vec![0.0; n],
            gen: 0,
        }
    }

    fn next_gen(&mut self) -> u32 {
        if self.gen == u32::MAX {
            self.mark.iter_mut().for_each(|m| *m = 0);
            self.gen = 0;
        }
        self.gen += 1;
        self.gen
    }
}

/// Picks the worker count and self-scheduling chunk size for `t` tasks
/// (mirrors `SilcIndex::build`'s plan).
fn worker_plan(t: usize, threads: usize) -> (usize, usize) {
    let workers = if threads == 0 {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    } else {
        threads
    }
    .min(t)
    .max(1);
    let chunk = (t / (workers * 8)).clamp(1, 256);
    (workers, chunk)
}

/// A self-scheduled unit of output: the base task index of a chunk and the
/// pre-allocated slots its results are written into.
type SlotChunk<'a, O> = (usize, &'a mut [Option<O>]);

/// Runs `run` over every task, fanning chunks out to self-scheduling worker
/// threads that write results into pre-allocated slots — output order is
/// the task order regardless of scheduling, which is what keeps the encoded
/// oracle byte-identical across thread counts. Returns the outputs and the
/// worker count used.
fn run_chunked<T: Sync, O: Send>(
    tasks: &[T],
    threads: usize,
    n: usize,
    run: impl Fn(&T, &mut ProbeScratch) -> O + Sync,
) -> (Vec<O>, usize) {
    let (workers, chunk) = worker_plan(tasks.len(), threads);
    if workers <= 1 {
        let mut scratch = ProbeScratch::new(n);
        let outs = tasks.iter().map(|t| run(t, &mut scratch)).collect();
        return (outs, 1);
    }
    let mut slots: Vec<Option<O>> = tasks.iter().map(|_| None).collect();
    {
        let work: Mutex<Vec<SlotChunk<'_, O>>> =
            Mutex::new(slots.chunks_mut(chunk).enumerate().map(|(i, c)| (i * chunk, c)).collect());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let work = &work;
                let run = &run;
                scope.spawn(move || {
                    let mut scratch = ProbeScratch::new(n);
                    loop {
                        let Some((base, slot_run)) = work.lock().unwrap().pop() else { return };
                        for (i, slot) in slot_run.iter_mut().enumerate() {
                            *slot = Some(run(&tasks[base + i], &mut scratch));
                        }
                    }
                });
            }
        });
    }
    (slots.into_iter().map(|o| o.expect("all tasks ran")).collect(), workers)
}

/// One batched probe: mark this source's pair targets plus the widest span
/// it represents, run a single truncated multi-target search, and read off
/// pair distances and node radii.
fn run_batch_source(
    g: &SpatialNetwork,
    tree: &SplitTree,
    pair_reps: &[(VertexId, VertexId)],
    plan: &SourcePlan<'_>,
    scratch: &mut ProbeScratch,
) -> SourceOut {
    let gen = scratch.next_gen();
    let ProbeScratch { ws, mark, dist_of, .. } = scratch;
    let mut required = 0usize;
    for &pid in plan.pair_ids {
        let t = pair_reps[pid as usize].1.index();
        if mark[t] != gen {
            mark[t] = gen;
            required += 1;
        }
    }
    // Nodes sharing a representative are an ancestor chain with nested
    // spans, so marking the widest span covers every assigned node.
    if let Some(&widest) = plan.node_ids.iter().max_by_key(|&&id| tree.size(NodeRef(id))) {
        for v in tree.vertices(NodeRef(widest)) {
            let vi = v.index();
            if mark[vi] != gen {
                mark[vi] = gen;
                required += 1;
            }
        }
    }
    let mut remaining = required;
    let settled = sssp_settle_until(g, VertexId(plan.source), ws, |v, d| {
        let vi = v.index();
        if mark[vi] == gen {
            dist_of[vi] = d;
            remaining -= 1;
            if remaining == 0 {
                return false;
            }
        }
        true
    });
    assert_eq!(remaining, 0, "oracle requires a strongly connected network");
    let pair_dists =
        plan.pair_ids.iter().map(|&pid| dist_of[pair_reps[pid as usize].1.index()]).collect();
    let node_rads = plan
        .node_ids
        .iter()
        .map(|&id| tree.vertices(NodeRef(id)).map(|v| dist_of[v.index()]).fold(0.0, f64::max))
        .collect();
    SourceOut { pair_dists, node_rads, settled }
}

/// One refinement probe: settle every vertex of the task's target spans
/// from `source` and return, per item, the maximum relative error of the
/// pair's stored distance against the exact distances.
fn run_refine_source(
    g: &SpatialNetwork,
    tree: &SplitTree,
    pair_dist: &[f64],
    plan: &RefinePlan,
    scratch: &mut ProbeScratch,
) -> (Vec<f64>, usize) {
    let gen = scratch.next_gen();
    let ProbeScratch { ws, mark, dist_of, .. } = scratch;
    let mut required = 0usize;
    for &(_, node) in &plan.items {
        for v in tree.vertices(node) {
            let vi = v.index();
            if mark[vi] != gen {
                mark[vi] = gen;
                required += 1;
            }
        }
    }
    let mut remaining = required;
    let settled = sssp_settle_until(g, VertexId(plan.source), ws, |v, d| {
        let vi = v.index();
        if mark[vi] == gen {
            dist_of[vi] = d;
            remaining -= 1;
            if remaining == 0 {
                return false;
            }
        }
        true
    });
    assert_eq!(remaining, 0, "oracle requires a strongly connected network");
    let errs = plan
        .items
        .iter()
        .map(|&(pid, node)| {
            let stored = pair_dist[pid as usize];
            tree.vertices(node)
                .map(|v| {
                    let exact = dist_of[v.index()];
                    if exact > 0.0 {
                        (stored - exact).abs() / exact
                    } else {
                        f64::INFINITY
                    }
                })
                .fold(0.0, f64::max)
        })
        .collect();
    (errs, settled)
}

/// Builds the oracle: batched pair distances + node radii, sound per-pair
/// error caps, and exact refinement of the cap tail.
///
/// ## The per-pair cap, and why it is sound
///
/// For a pair `(A, B)` with representatives `(r_A, r_B)` and stored
/// distance `d = d(r_A, r_B)`, any covered query `(u, v)` satisfies (by the
/// triangle inequality, on symmetric networks)
/// `|d(u, v) − d| ≤ d(r_A, u) + d(r_B, v) ≤ rad(A) + rad(B)`, where
/// `rad(N) = max_{x∈N} d(rep(N), x)` is the node's network radius. The true
/// distance is bounded below by both `min_ratio · gap(A, B)` (the scaled
/// Euclidean bound on any cross pair) and `d − rad(A) − rad(B)`, so
///
/// ```text
/// |d(u,v) − d| / d(u,v)  ≤  (rad_A + rad_B) / max(min_ratio·gap, d − rad_A − rad_B)
/// ```
///
/// Leaf–leaf pairs have zero radii and therefore cap 0: they are exact.
/// Caps above the [`TAIL_PERCENTILE`] clamp level are replaced by the
/// pair's *exact* maximum relative error (still sound — it is the supremum
/// the cap promises) whenever the pair's smaller side fits the refinement
/// budget. On directed networks with asymmetric weights the caps are
/// heuristic, matching the oracle's existing quasi-symmetry assumption.
pub(crate) fn build_oracle(network: &SpatialNetwork, cfg: &PcpBuildConfig) -> DistanceOracle {
    assert!(cfg.separation > 0.0, "separation must be positive");
    let tree = SplitTree::build(network, cfg.grid_exponent);
    let raw: Vec<WspdPair> = wspd(&tree, cfg.separation);
    let n = network.vertex_count();
    let node_count = tree.node_count();

    let pair_reps: Vec<(VertexId, VertexId)> =
        raw.iter().map(|p| (tree.representative(p.a), tree.representative(p.b))).collect();

    // Group pairs by a-side representative and internal nodes by their
    // representative; tasks run in ascending source-vertex order.
    let mut pairs_by_src: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (i, &(ra, _)) in pair_reps.iter().enumerate() {
        pairs_by_src[ra.index()].push(i as u32);
    }
    // Radii are needed only for internal nodes that actually appear in a
    // pair — the caps never read any other node. Measuring all internal
    // nodes would make the root's representative settle the whole graph
    // for a radius nothing uses.
    let mut nodes_by_rep: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut node_seen = vec![false; node_count];
    for p in &raw {
        for node in [p.a, p.b] {
            if !tree.is_leaf(node) && !node_seen[node.0 as usize] {
                node_seen[node.0 as usize] = true;
                nodes_by_rep[tree.representative(node).index()].push(node.0);
            }
        }
    }
    for group in &mut nodes_by_rep {
        group.sort_unstable();
    }
    drop(node_seen);
    let plans: Vec<SourcePlan<'_>> = (0..n)
        .filter(|&v| !pairs_by_src[v].is_empty() || !nodes_by_rep[v].is_empty())
        .map(|v| SourcePlan {
            source: v as u32,
            pair_ids: &pairs_by_src[v],
            node_ids: &nodes_by_rep[v],
        })
        .collect();

    let (outs, workers) = run_chunked(&plans, cfg.threads, n, |plan, scratch| {
        run_batch_source(network, &tree, &pair_reps, plan, scratch)
    });

    // Deterministic reduction: scatter into index-ordered arrays.
    let mut pair_dist = vec![0.0f64; raw.len()];
    let mut node_rad = vec![0.0f64; node_count];
    let mut batch_settled = 0usize;
    for (plan, out) in plans.iter().zip(&outs) {
        for (&pid, &d) in plan.pair_ids.iter().zip(&out.pair_dists) {
            pair_dist[pid as usize] = d;
        }
        for (&nid, &r) in plan.node_ids.iter().zip(&out.node_rads) {
            node_rad[nid as usize] = r;
        }
        batch_settled += out.settled;
    }
    let batch_sources = plans.len();
    drop(outs);
    drop(plans);

    // Global stretch (v1 semantics, kept for the a-priori bound): the max
    // observed d_network / d_euclidean over representative pairs.
    let mut stretch = 1.0f64;
    for (i, &(ra, rb)) in pair_reps.iter().enumerate() {
        let euclid = network.euclidean(ra, rb);
        if euclid > 0.0 {
            stretch = stretch.max(pair_dist[i] / euclid);
        }
    }

    // Radius-based caps for every pair.
    let min_ratio = network.min_weight_ratio();
    let mut caps = vec![0.0f64; raw.len()];
    for (i, p) in raw.iter().enumerate() {
        let rad = node_rad[p.a.0 as usize] + node_rad[p.b.0 as usize];
        if rad <= 0.0 {
            continue; // leaf–leaf pair: representatives are the vertices — exact.
        }
        let gap = rect_gap(&tree.rect(p.a), &tree.rect(p.b));
        let lower = (min_ratio * gap).max(pair_dist[i] - rad);
        caps[i] = if lower > 0.0 { rad / lower } else { f64::INFINITY };
    }

    // Percentile clamp level: caps above it form the tail that gets exact
    // refinement (budgeted so the pass cannot dominate the build).
    let clamp = {
        let mut finite: Vec<f64> = caps.iter().copied().filter(|c| c.is_finite()).collect();
        finite.sort_unstable_by(f64::total_cmp);
        if finite.is_empty() {
            f64::INFINITY
        } else {
            let rank = ((TAIL_PERCENTILE / 100.0) * finite.len() as f64).ceil() as usize;
            finite[rank.saturating_sub(1).min(finite.len() - 1)]
        }
    };
    let mut tail: Vec<u32> = (0..raw.len() as u32).filter(|&i| caps[i as usize] > clamp).collect();
    tail.sort_unstable_by(|&x, &y| caps[y as usize].total_cmp(&caps[x as usize]).then(x.cmp(&y)));

    // Budgeted tail selection: scan worst-first, probing from the smaller
    // side of each pair, reusing sources across pairs.
    let budget = refine_source_budget(n);
    let mut items_by_src: Vec<Vec<(u32, NodeRef)>> = vec![Vec::new(); n];
    let mut refine_sources: Vec<u32> = Vec::new();
    let mut refined_pairs = 0usize;
    for &pid in &tail {
        let p = raw[pid as usize];
        let (probe, scan) = if tree.size(p.a) <= tree.size(p.b) { (p.a, p.b) } else { (p.b, p.a) };
        let span = tree.size(probe);
        if span > REFINE_SPAN_LIMIT {
            continue;
        }
        let fresh = tree.vertices(probe).filter(|v| items_by_src[v.index()].is_empty()).count();
        if refine_sources.len() + fresh > budget {
            continue;
        }
        for v in tree.vertices(probe) {
            if items_by_src[v.index()].is_empty() {
                refine_sources.push(v.0);
            }
            items_by_src[v.index()].push((pid, scan));
        }
        refined_pairs += 1;
    }
    refine_sources.sort_unstable();
    let refine_plans: Vec<RefinePlan> = refine_sources
        .iter()
        .map(|&v| RefinePlan { source: v, items: std::mem::take(&mut items_by_src[v as usize]) })
        .collect();

    let mut refine_settled = 0usize;
    if !refine_plans.is_empty() {
        let (outs, _) = run_chunked(&refine_plans, cfg.threads, n, |plan, scratch| {
            run_refine_source(network, &tree, &pair_dist, plan, scratch)
        });
        // The pair's exact max error is the max over its probe sources; it
        // can only tighten the sound radius cap (min guards float noise).
        let mut refined: HashMap<u32, f64> = HashMap::new();
        for (plan, (errs, settled)) in refine_plans.iter().zip(&outs) {
            refine_settled += settled;
            for (&(pid, _), &e) in plan.items.iter().zip(errs) {
                let slot = refined.entry(pid).or_insert(0.0);
                *slot = slot.max(e);
            }
        }
        for (&pid, &e) in refined.iter() {
            let c = &mut caps[pid as usize];
            *c = c.min(e);
        }
    }
    let refine_sources_count = refine_plans.len();

    let eps_max = caps.iter().copied().fold(0.0f64, f64::max);
    let mut pairs = HashMap::with_capacity(raw.len());
    for (i, p) in raw.iter().enumerate() {
        let (rep_a, rep_b) = pair_reps[i];
        pairs.insert(
            (p.a.0, p.b.0),
            PairData { rep_a, rep_b, dist: pair_dist[i], max_err: caps[i] },
        );
    }
    let stats = PcpBuildStats {
        pairs: raw.len(),
        batch_sources,
        batch_settled,
        refine_sources: refine_sources_count,
        refine_settled,
        refined_pairs,
        workers,
    };
    DistanceOracle::from_parts(tree, pairs, cfg.separation, stretch, eps_max, stats)
}
