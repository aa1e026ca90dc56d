//! The traced side of the serve workloads: a shadow copy of the
//! engine's graph and sketch state that replays every write, and every
//! computed query, through the layers' public functions under spans.
//!
//! The engine itself is a black box to the benchmark, so its layer
//! calls are timed by replaying them on identical inputs: each write's
//! overlay, CSR rebuild, publish and sketch repair against the shadow
//! (which must stay identical to the engine's head), and each computed
//! query through the push or splice kernel on the snapshot and sketch
//! store it pinned (whose result must equal the served one bit for bit).
//! Replay spans are parented to the engine call they stand for.

use crate::inputs::ALPHA;
use crate::serve::{Backlog, Finished, Inflight};
use crate::trace::{mean, median, quantile, Tracer};
use crate::Report;
use acir_exec::ExecPool;
use acir_graph::{
    compact_ordered, CompactionOrder, DeltaGraph, EdgeOp, Graph, GraphSnapshot, NodeId,
    SnapshotStore,
};
use acir_local::{ppr_push_batch_outcomes, ppr_push_spliced};
use acir_runtime::Budget;
use acir_serve::{DeltaSummary, Engine, EngineConfig, Response, ResponseKind, SketchStore};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

pub(crate) struct Shadow {
    pub tracer: Tracer,
    store: SnapshotStore,
    head: Arc<GraphSnapshot>,
    /// The shadow sketch store; queries traced at submit pin it.
    pub sketches: Option<Arc<SketchStore>>,
    sketch_build_s: f64,
    writes: u64,
    queries: u64,
    run_pending_allocs: u64,
    queue_wait_ms: Vec<f64>,
    groups: usize,
    push_work: Vec<f64>,
    push_support: Vec<f64>,
    splice_work: Vec<f64>,
    splice_support: Vec<f64>,
    hubs_spliced: Vec<f64>,
    answers_dropped: Vec<f64>,
    sketches_repaired: Vec<f64>,
    repair_work: Vec<f64>,
    write_bytes: Vec<f64>,
    problems: Vec<String>,
}

/// Time `f` as a span when `parent` is set (a traced write); run it
/// bare when catching up on writes from an untraced block.
fn timed<T>(
    tracer: &mut Tracer,
    name: &'static str,
    parent: Option<usize>,
    op: u64,
    f: impl FnOnce() -> T,
) -> T {
    match parent {
        Some(_) => tracer.time(name, parent, op, f).0,
        None => f(),
    }
}

/// An edge op in external ids, translated into `snap`'s labeling.
fn internalize(snap: &GraphSnapshot, op: EdgeOp) -> EdgeOp {
    let to = |u: NodeId| snap.lineage().to_new(u);
    match op {
        EdgeOp::Insert { u, v, weight } => EdgeOp::Insert {
            u: to(u),
            v: to(v),
            weight,
        },
        EdgeOp::Delete { u, v } => EdgeOp::Delete { u: to(u), v: to(v) },
    }
}

fn externalize(snap: &GraphSnapshot, v: Vec<(NodeId, f64)>) -> Vec<(NodeId, f64)> {
    if snap.is_relabeled() {
        snap.lineage().unmap_sparse(&v)
    } else {
        v
    }
}

impl Shadow {
    pub fn new(g: &Graph, cfg: &EngineConfig) -> Self {
        let mut tracer = Tracer::new();
        let store = SnapshotStore::new(g.clone());
        let head = store.pin();
        let mut sketch_build_s = 0.0;
        let sketches = (cfg.sketch_hubs > 0).then(|| {
            let (built, span) = tracer.time("local.sketch_build", None, 0, || {
                SketchStore::build(
                    head.graph(),
                    cfg.sketch_hubs,
                    cfg.sketch_alpha,
                    cfg.sketch_epsilon,
                    head.epoch(),
                )
            });
            sketch_build_s = tracer.spans()[span].secs();
            Arc::new(built.expect("sketch parameters are valid"))
        });
        Self {
            tracer,
            store,
            head,
            sketches,
            sketch_build_s,
            writes: 0,
            queries: 0,
            run_pending_allocs: 0,
            queue_wait_ms: Vec::new(),
            groups: 0,
            push_work: Vec::new(),
            push_support: Vec::new(),
            splice_work: Vec::new(),
            splice_support: Vec::new(),
            hubs_spliced: Vec::new(),
            answers_dropped: Vec::new(),
            sketches_repaired: Vec::new(),
            repair_work: Vec::new(),
            write_bytes: Vec::new(),
            problems: Vec::new(),
        }
    }

    /// Overlay → CSR rebuild → publish → sketch repair, as
    /// `Engine::update_graph_delta` performs them.
    fn apply_delta(&mut self, op: EdgeOp, parent: Option<usize>) -> Result<(), String> {
        let id = self.writes;
        let tr = &mut self.tracer;
        let base = Arc::clone(&self.head);
        let (dg, delta) = timed(tr, "graph.overlay", parent, id, || {
            let mut dg = DeltaGraph::new(base.graph());
            dg.apply(&internalize(&base, op))
                .map_err(|e| format!("shadow delta rejected: {e}"))?;
            let delta = dg.net_delta();
            Ok::<_, String>((dg, delta))
        })?;
        let (g, _) = timed(tr, "graph.csr_rebuild", parent, id, || dg.compact())
            .map_err(|e| format!("shadow rebuild failed: {e}"))?;
        let store = &self.store;
        self.head = timed(tr, "graph.publish", parent, id, || {
            store.publish_delta(g, delta.clone())
        });
        if let Some(sketches) = self.sketches.clone() {
            let head = &self.head;
            let (repaired, _) = timed(tr, "local.sketch_repair", parent, id, || {
                sketches.repair(head.graph(), &delta, head.epoch())
            })?;
            self.sketches = Some(Arc::new(repaired));
        }
        Ok(())
    }

    /// `compact_ordered(Rcm)` → publish → sketch relabel, as
    /// `Engine::compact` performs them.
    fn apply_compact(&mut self, parent: Option<usize>) -> Result<(), String> {
        let id = self.writes;
        let tr = &mut self.tracer;
        let base = Arc::clone(&self.head);
        let (g, step) = timed(tr, "graph.compact_ordered", parent, id, || {
            compact_ordered(&DeltaGraph::new(base.graph()), CompactionOrder::Rcm)
        })
        .map_err(|e| format!("shadow compaction failed: {e}"))?;
        let store = &self.store;
        let step2 = step.clone();
        self.head = timed(tr, "graph.publish", parent, id, || {
            store.publish_compacted(g, step2)
        });
        if let Some(sketches) = self.sketches.clone() {
            let epoch = self.head.epoch();
            let relabeled = timed(tr, "local.sketch_relabel", parent, id, || {
                sketches.relabel(&step, epoch)
            })?;
            self.sketches = Some(Arc::new(relabeled));
        }
        Ok(())
    }

    /// The shadow must hold exactly the engine's head graph.
    fn verify(&mut self, engine: &Engine, after: &str) {
        if self.head.epoch() != engine.epoch() || self.head.graph() != engine.graph() {
            self.problems.push(format!(
                "shadow diverged from the engine after {after} (epoch {} vs {})",
                self.head.epoch(),
                engine.epoch()
            ));
        }
    }

    /// Replay, without spans, the writes an untraced block applied.
    pub fn catch_up(&mut self, backlog: Vec<Backlog>, engine: &Engine) {
        if backlog.is_empty() {
            return;
        }
        for b in backlog {
            self.writes += 1;
            let r = match b {
                Backlog::Delta(op) => self.apply_delta(op, None),
                Backlog::Compact => self.apply_compact(None),
            };
            if let Err(e) = r {
                self.problems.push(e);
            }
        }
        self.verify(engine, "catching up");
    }

    pub fn write(
        &mut self,
        op: EdgeOp,
        summary: &DeltaSummary,
        (start, end): (Instant, Instant),
        bytes: u64,
        engine: &Engine,
    ) {
        self.writes += 1;
        let span = self
            .tracer
            .record("serve.update_graph_delta", start, end, None, self.writes);
        if let Err(e) = self.apply_delta(op, Some(span)) {
            self.problems.push(e);
        }
        self.verify(engine, "a delta");
        self.answers_dropped.push(summary.answers_dropped as f64);
        self.sketches_repaired
            .push(summary.sketches_repaired as f64);
        self.repair_work.push(summary.repair_work as f64);
        self.write_bytes.push(bytes as f64);
    }

    pub fn compact(&mut self, (start, end): (Instant, Instant), engine: &Engine) {
        self.writes += 1;
        let span = self
            .tracer
            .record("serve.compact", start, end, None, self.writes);
        if let Err(e) = self.apply_compact(Some(span)) {
            self.problems.push(e);
        }
        self.verify(engine, "a compaction");
    }

    /// Replay the cycle's computed queries: grouped as the engine
    /// batches them (same ε, same pinned epoch), through
    /// `ppr_push_batch_outcomes`, or one by one through
    /// `ppr_push_spliced` when the pinned sketch store covers them.
    pub fn reads(
        &mut self,
        inflight: &[Inflight],
        responses: &[Response],
        (started, done): (Instant, Instant),
        allocs: u64,
    ) {
        let op = inflight.first().map_or(0, |f| f.index);
        let span = self
            .tracer
            .record("serve.run_pending", started, done, None, op);
        self.queries += inflight.len() as u64;
        self.run_pending_allocs += allocs;
        for f in inflight {
            self.queue_wait_ms
                .push((started - f.submitted).as_secs_f64() * 1e3);
        }
        let mut groups: BTreeMap<(u64, u64), Vec<usize>> = BTreeMap::new();
        for (i, (f, r)) in inflight.iter().zip(responses).enumerate() {
            if r.kind == ResponseKind::Full {
                let epoch = f.snapshot.as_ref().map_or(0, |s| s.epoch());
                groups
                    .entry((f.epsilon.to_bits(), epoch))
                    .or_default()
                    .push(i);
            }
        }
        for idxs in groups.values() {
            self.groups += 1;
            let first = &inflight[idxs[0]];
            let snap = Arc::clone(first.snapshot.as_ref().expect("traced queries pin"));
            let eps = first.epsilon;
            let seeds = |f: &Inflight| -> Vec<NodeId> {
                f.seeds.iter().map(|&u| snap.lineage().to_new(u)).collect()
            };
            let splice = first.sketches.as_ref().filter(|s| {
                let set = s.set();
                s.epoch() == snap.epoch()
                    && !set.is_empty()
                    && set.alpha().to_bits() == ALPHA.to_bits()
                    && set.epsilon() < eps
            });
            match splice {
                Some(store) => {
                    // The engine splices a group in parallel over the
                    // ambient pool; so does the replay.
                    let (outs, _) =
                        self.tracer
                            .time("local.ppr_push_spliced", Some(span), op, || {
                                ExecPool::from_env().par_map(idxs, 1, |&i| {
                                    ppr_push_spliced(
                                        snap.graph(),
                                        &seeds(&inflight[i]),
                                        ALPHA,
                                        eps,
                                        store.set(),
                                    )
                                })
                            });
                    for (&i, out) in idxs.iter().zip(outs) {
                        match out {
                            Ok(s) => {
                                self.splice_work.push(s.work as f64);
                                self.splice_support.push(s.vector.len() as f64);
                                self.hubs_spliced.push(s.hubs_spliced as f64);
                                self.same(&snap, s.vector, &responses[i], inflight[i].index);
                            }
                            Err(e) => self.problems.push(format!("splice replay failed: {e}")),
                        }
                    }
                }
                None => {
                    let seed_sets: Vec<Vec<NodeId>> =
                        idxs.iter().map(|&i| seeds(&inflight[i])).collect();
                    let budgets: Vec<Budget> = idxs
                        .iter()
                        .map(|&i| Budget::work(inflight[i].grant))
                        .collect();
                    let (outs, _) =
                        self.tracer
                            .time("local.ppr_push_batch_outcomes", Some(span), op, || {
                                ppr_push_batch_outcomes(
                                    snap.graph(),
                                    &seed_sets,
                                    ALPHA,
                                    eps,
                                    &budgets,
                                )
                            });
                    match outs {
                        Ok(outs) => {
                            for (&i, out) in idxs.iter().zip(outs) {
                                match out.into_value() {
                                    Some(p) => {
                                        self.push_work.push(p.work as f64);
                                        self.push_support.push(p.vector.len() as f64);
                                        self.same(
                                            &snap,
                                            p.vector,
                                            &responses[i],
                                            inflight[i].index,
                                        );
                                    }
                                    None => self.problems.push("push replay gave no value".into()),
                                }
                            }
                        }
                        Err(e) => self.problems.push(format!("push replay failed: {e}")),
                    }
                }
            }
        }
    }

    /// A replayed answer must equal the served one bit for bit.
    fn same(&mut self, snap: &GraphSnapshot, v: Vec<(NodeId, f64)>, r: &Response, index: u64) {
        if externalize(snap, v) != r.cluster {
            self.problems.push(format!(
                "replay of query {index} differs from the served answer"
            ));
        }
    }

    pub fn report(self, done: &Finished, generate_s: &[f64], report: &mut Report) {
        for p in &self.problems {
            report.check(false, || p.clone());
        }
        let t = &self.tracer;
        let per_query = |v: f64| v / (self.queries.max(1)) as f64;
        let share = |x: u64| x as f64 / done.responded.max(1) as f64;
        let us = |name: &str| 1e6 * median(&t.secs_of(name));
        let ms = |name: &str| 1e3 * median(&t.secs_of(name));
        let run_pending = t.secs_of("serve.run_pending");
        let traced_writes = t.secs_of("serve.update_graph_delta");

        report.layer("serve.submit_us", us("serve.submit"));
        report.layer("serve.queue_wait_ms", median(&self.queue_wait_ms));
        report.layer("serve.run_pending_ms", 1e3 * median(&run_pending));
        let computed = self.push_work.len() + self.splice_work.len();
        report.layer(
            "serve.batch_size",
            computed as f64 / self.groups.max(1) as f64,
        );
        report.layer("serve.cache_hit_share", share(done.cached));
        report.layer("serve.splice_share", share(done.spliced));
        report.layer("serve.degraded_share", share(done.degraded));
        report.layer(
            "serve.answers_dropped_per_write",
            mean(&self.answers_dropped),
        );
        report.layer(
            "serve.sketches_repaired_per_write",
            mean(&self.sketches_repaired),
        );
        report.layer("serve.repair_work_per_write", mean(&self.repair_work));
        report.layer("serve.write_p50_ms", median(&done.write_ms));
        report.layer("serve.write_p95_ms", quantile(&done.write_ms, 0.95));
        report.layer("serve.compact_p50_ms", median(&done.compact_ms));

        let push_secs: f64 = t.secs_of("local.ppr_push_batch_outcomes").iter().sum();
        report.layer(
            "local.push_us",
            1e6 * push_secs / self.push_work.len().max(1) as f64,
        );
        report.layer("local.push_work", mean(&self.push_work));
        report.layer("local.support", mean(&self.push_support));
        let splice_secs: f64 = t.secs_of("local.ppr_push_spliced").iter().sum();
        report.layer(
            "local.splice_us",
            1e6 * splice_secs / self.splice_work.len().max(1) as f64,
        );
        report.layer("local.splice_work", mean(&self.splice_work));
        report.layer("local.splice_support", mean(&self.splice_support));
        report.layer("local.hubs_spliced", mean(&self.hubs_spliced));
        report.layer("local.sketch_repair_ms", ms("local.sketch_repair"));
        report.layer("local.sketch_build_s", self.sketch_build_s);

        report.layer("graph.overlay_us", us("graph.overlay"));
        report.layer("graph.csr_rebuild_ms", ms("graph.csr_rebuild"));
        report.layer("graph.publish_us", us("graph.publish"));
        report.layer("graph.compact_ordered_ms", ms("graph.compact_ordered"));
        report.layer("graph.write_alloc_bytes", median(&self.write_bytes));
        report.layer("graph.generate_s", median(generate_s));
        report.layer(
            "mem.allocs_per_query",
            per_query(self.run_pending_allocs as f64),
        );

        report.layer(
            "trace.unattributed_share_read",
            t.unattributed_share("serve.run_pending"),
        );
        report.layer(
            "trace.unattributed_share_write",
            t.unattributed_share("serve.update_graph_delta"),
        );
        // Traced against untraced blocks of the same run.
        let traced = median(&run_pending) + median(&traced_writes);
        let untraced = (median(&done.untraced_pending_ms) + median(&done.untraced_write_ms)) / 1e3;
        report.layer("trace.overhead_share", traced / untraced - 1.0);
        report.spans(self.tracer);
    }
}
