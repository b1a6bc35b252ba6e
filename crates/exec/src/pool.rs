//! The persistent ER worker pool.
//!
//! PR 2 spawned a fresh set of `std::thread` workers for every batch —
//! correct, but the spawn/join cost and the cold per-batch channels sat
//! on the ingest hot path. This module keeps the workers alive for a
//! whole *session* ([`ShardedTerIdsEngine::with_pool`](crate::engine::ShardedTerIdsEngine::with_pool)):
//! threads spawn once, own their CDD-indexed imputer for the session, and
//! receive work over long-lived channels. Between batches the shard
//! groups travel back to the engine (two pointer-sized channel messages
//! per worker instead of a spawn + join), so `export_state` and
//! checkpointing keep working mid-session.
//!
//! The request protocol mirrors the stage decomposition in
//! [`stages`](crate::stages):
//!
//! | request            | stage    | response            |
//! |--------------------|----------|---------------------|
//! | [`Req::Impute`]    | impute   | [`Resp::Imputed`]   |
//! | [`Req::Begin`]     | —        | none (hand-off)     |
//! | [`Req::Step`]      | traverse | [`Resp::Surfaced`]  |
//! | [`Req::Refine`]    | refine   | [`Resp::Refined`]   |
//! | [`Req::End`]       | —        | [`Resp::Shards`]    |
//!
//! Workers answer requests strictly in order on their own response
//! channel, so the driving thread can pipeline: after queueing
//! `Refine(i)` and `Step(i+1)` it knows the `Refined` reply precedes the
//! `Surfaced` reply on every worker it sent both to. That FIFO guarantee
//! is what the pooled drive's single-barrier-per-arrival schedule rests
//! on.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

use ter_ids::meta::TupleMeta;
use ter_ids::{PhaseTiming, TerContext};
use ter_impute::RuleImputer;
use ter_stream::Arrival;

use crate::merge::{merge_outcomes, merge_surfaced, RefineOutcome};
use crate::stages::{
    apply_evict, apply_insert, impute_one, refine_slice, traverse_shards, ShardGrid, WorkerCtx,
};

/// One instruction to an ER worker.
pub(crate) enum Req {
    /// Impute a contiguous chunk of the batch (stage 1); `base` is the
    /// chunk's offset in the batch so the driver can reassemble outputs
    /// in arrival order.
    Impute { arrivals: Vec<Arrival>, base: usize },
    /// Start of batch: take ownership of a shard group for its duration.
    Begin { group: Vec<(usize, ShardGrid)> },
    /// Apply the previous arrival's grid insert and this arrival's expiry
    /// to the owned shards (in that order — exactly the monolithic grid's
    /// op sequence), then enumerate `probe`'s candidates in them and
    /// report the sorted ids.
    Step {
        insert: Option<Arc<TupleMeta>>,
        evict: Option<Arc<TupleMeta>>,
        probe: Arc<TupleMeta>,
    },
    /// Run the pair-decision cascade over a slice of examined candidates.
    Refine {
        probe: Arc<TupleMeta>,
        cands: Vec<Arc<TupleMeta>>,
    },
    /// End of batch: apply the final pending insert and hand the shard
    /// group back.
    End { insert: Option<Arc<TupleMeta>> },
}

/// A worker's answer to one [`Req`].
pub(crate) enum Resp {
    Imputed {
        base: usize,
        metas: Vec<(Arc<TupleMeta>, PhaseTiming)>,
    },
    Surfaced(Vec<u64>),
    Refined(RefineOutcome),
    Shards(Vec<(usize, ShardGrid)>),
}

/// An ER worker: lives for the pool session, owns its shard group
/// between `Begin` and `End`, applies grid mutations in arrival order,
/// and answers requests strictly in order. Exits when the request sender
/// is dropped.
pub(crate) fn worker_loop<'a>(
    wctx: WorkerCtx<'a>,
    ctx: &'a TerContext,
    imputer: &RuleImputer<'a>,
    req_rx: Receiver<Req>,
    resp_tx: Sender<Resp>,
) {
    let mut shards: Vec<(usize, ShardGrid)> = Vec::new();
    while let Ok(req) = req_rx.recv() {
        match req {
            Req::Impute { arrivals, base } => {
                let metas = arrivals
                    .iter()
                    .map(|a| impute_one(imputer, ctx, a))
                    .collect();
                let _ = resp_tx.send(Resp::Imputed { base, metas });
            }
            Req::Begin { group } => {
                debug_assert!(shards.is_empty(), "Begin with a batch still open");
                shards = group;
            }
            Req::Step {
                insert,
                evict,
                probe,
            } => {
                if let Some(meta) = insert {
                    apply_insert(&mut shards, wctx.router, &meta);
                }
                if let Some(meta) = evict {
                    apply_evict(&mut shards, wctx.router, &meta);
                }
                let ids = traverse_shards(&shards, &wctx, &probe);
                let _ = resp_tx.send(Resp::Surfaced(ids));
            }
            Req::Refine { probe, cands } => {
                let _ = resp_tx.send(Resp::Refined(refine_slice(&wctx, &probe, &cands)));
            }
            Req::End { insert } => {
                if let Some(meta) = insert {
                    apply_insert(&mut shards, wctx.router, &meta);
                }
                let _ = resp_tx.send(Resp::Shards(std::mem::take(&mut shards)));
            }
        }
    }
}

/// The driving thread's handle on one worker.
pub(crate) struct PoolChan {
    pub req_tx: Sender<Req>,
    pub resp_rx: Receiver<Resp>,
}

pub(crate) fn pool_channels() -> (PoolChan, Receiver<Req>, Sender<Resp>) {
    let (req_tx, req_rx) = channel::<Req>();
    let (resp_tx, resp_rx) = channel::<Resp>();
    (PoolChan { req_tx, resp_rx }, req_rx, resp_tx)
}

/// The driving thread's view of a live worker pool: typed send/collect
/// helpers over the per-worker channel pairs. Dropping the pool drops
/// every request sender, which is the session-end signal the workers
/// exit on.
pub(crate) struct Pool {
    chans: Vec<PoolChan>,
}

impl Pool {
    pub fn new(chans: Vec<PoolChan>) -> Self {
        Self { chans }
    }

    /// Worker count `T`.
    pub fn len(&self) -> usize {
        self.chans.len()
    }

    fn send(&self, worker: usize, req: Req) {
        self.chans[worker]
            .req_tx
            .send(req)
            .expect("ER worker hung up");
    }

    fn recv(&self, worker: usize) -> Resp {
        self.chans[worker]
            .resp_rx
            .recv()
            .expect("ER worker hung up")
    }

    /// Sends one request to every worker.
    pub fn broadcast(&self, mut make: impl FnMut() -> Req) {
        for w in 0..self.len() {
            self.send(w, make());
        }
    }

    /// Imputes the batch across the pool (one contiguous chunk per
    /// worker) and reassembles per-arrival outputs in arrival order —
    /// equal to a sequential `impute_one` loop.
    pub fn impute_batch(&self, batch: &[Arrival]) -> Vec<(Arc<TupleMeta>, PhaseTiming)> {
        let chunk = batch.len().div_ceil(self.len());
        let mut sent = 0;
        for (w, slice) in batch.chunks(chunk).enumerate() {
            self.send(
                w,
                Req::Impute {
                    arrivals: slice.to_vec(),
                    base: w * chunk,
                },
            );
            sent += 1;
        }
        let mut out: Vec<Option<(Arc<TupleMeta>, PhaseTiming)>> = vec![None; batch.len()];
        for w in 0..sent {
            match self.recv(w) {
                Resp::Imputed { base, metas } => {
                    for (off, m) in metas.into_iter().enumerate() {
                        out[base + off] = Some(m);
                    }
                }
                _ => unreachable!("protocol violation: expected Imputed"),
            }
        }
        out.into_iter()
            .map(|m| m.expect("imputation hole"))
            .collect()
    }

    /// Hands each worker its shard group for the batch.
    pub fn begin(&self, groups: Vec<Vec<(usize, ShardGrid)>>) {
        debug_assert_eq!(groups.len(), self.len());
        for (w, group) in groups.into_iter().enumerate() {
            self.send(w, Req::Begin { group });
        }
    }

    /// Queues one arrival's traverse stage on every worker (no wait).
    pub fn send_step(
        &self,
        insert: Option<&Arc<TupleMeta>>,
        evict: Option<&Arc<TupleMeta>>,
        probe: &Arc<TupleMeta>,
    ) {
        self.broadcast(|| Req::Step {
            insert: insert.cloned(),
            evict: evict.cloned(),
            probe: Arc::clone(probe),
        });
    }

    /// Collects one `Surfaced` reply per worker and merges the sorted id
    /// lists — the union equals the sequential engine's candidate list.
    pub fn collect_surfaced(&self) -> Vec<u64> {
        let mut parts = Vec::with_capacity(self.len());
        for w in 0..self.len() {
            match self.recv(w) {
                Resp::Surfaced(ids) => parts.push(ids),
                _ => unreachable!("protocol violation: expected Surfaced"),
            }
        }
        merge_surfaced(parts)
    }

    /// Queues one arrival's refine stage, chunked across the pool in
    /// candidate order (deterministic partition — the merge sorts, so the
    /// partition never shows in the output). Returns how many workers
    /// received a slice; `0` when the candidate set is empty.
    pub fn send_refine(&self, probe: &Arc<TupleMeta>, cands: &[Arc<TupleMeta>]) -> usize {
        let per = cands.len().div_ceil(self.len()).max(1);
        let mut sent = 0;
        for (w, slice) in cands.chunks(per).enumerate() {
            self.send(
                w,
                Req::Refine {
                    probe: Arc::clone(probe),
                    cands: slice.to_vec(),
                },
            );
            sent += 1;
        }
        sent
    }

    /// Collects the `Refined` replies of the first `sent` workers and
    /// merges them deterministically.
    pub fn collect_refined(&self, sent: usize) -> RefineOutcome {
        merge_outcomes((0..sent).map(|w| match self.recv(w) {
            Resp::Refined(o) => o,
            _ => unreachable!("protocol violation: expected Refined"),
        }))
    }

    /// End of batch: apply the final pending insert, then take every
    /// shard group back, reassembled in shard order.
    pub fn finish(&self, insert: Option<Arc<TupleMeta>>, shard_count: usize) -> Vec<ShardGrid> {
        self.broadcast(|| Req::End {
            insert: insert.clone(),
        });
        let mut returned: Vec<(usize, ShardGrid)> = Vec::with_capacity(shard_count);
        for w in 0..self.len() {
            match self.recv(w) {
                Resp::Shards(group) => returned.extend(group),
                _ => unreachable!("protocol violation: expected Shards"),
            }
        }
        returned.sort_by_key(|(sid, _)| *sid);
        debug_assert_eq!(returned.len(), shard_count);
        returned.into_iter().map(|(_, g)| g).collect()
    }
}
