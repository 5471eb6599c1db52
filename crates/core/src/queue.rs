//! The queue layer: where *ready* work lives.
//!
//! The engine separates three concerns:
//!
//! * the **dependency layer** ([`Frame`](crate::frame)) decides *when* a
//!   data-flow task becomes ready;
//! * the **queue layer** (this module) decides *where* ready work is stored
//!   and how workers obtain it;
//! * the **steal layer** ([`StealPolicy`](crate::StealPolicy)) decides the
//!   thief-side protocol used to reach a victim's work.
//!
//! The runtime holds one [`Queue`], chosen by [`QueueKind`]:
//!
//! * **distributed** — [`DistributedLanes`], one T.H.E. deque per worker
//!   (owner LIFO, thief FIFO): the X-Kaapi design. Data-flow tasks stay in
//!   their frames and are discovered lazily by steal scans.
//! * **central** — one [`CentralQueue`] per band that every worker pushes
//!   to and pops from; the engine then publishes data-flow tasks eagerly on
//!   spawn and completion (insertion-time scheduling, as QUARK and libGOMP
//!   do). This is the baseline the paper measures against.
//!
//! Both are **priority-banded** (`DESIGN.md` §5): a [`WorkItem`] carries
//! the band of the [`Priority`](crate::Priority) it was created with, each
//! queue keeps one sub-queue per band and pops the highest non-empty band
//! first. Within the default band the order is owner LIFO / thief FIFO for
//! the distributed lanes and FIFO for the central queue.
//!
//! Every front-end paradigm — data-flow spawns, fork-join joins, adaptive
//! loops — runs through whichever queue the [`Runtime`](crate::Runtime) was
//! built with, which is what lets one binary A/B centralized against
//! distributed scheduling without switching codebases.

use crate::attrs::{NORMAL_BAND, PRIORITY_BANDS};
use crate::fastlane::{FastJob, FastLane};
use crate::frame::Frame;
use crate::steal::Grab;
use crate::task::Task;
use crossbeam_utils::CachePadded;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One unit of ready work: the engine's `Grab` (a fork-join stack job, a
/// claimed data-flow task, or a closure) tagged with its priority band.
pub(crate) struct WorkItem {
    pub(crate) grab: Grab,
    /// Priority band (0 = high); see [`crate::Priority::band`].
    band: u8,
}

impl WorkItem {
    pub(crate) fn fast(job: FastJob) -> WorkItem {
        WorkItem {
            grab: Grab::Fast(job),
            band: NORMAL_BAND,
        }
    }

    pub(crate) fn fast_banded(job: FastJob, band: u8) -> WorkItem {
        WorkItem {
            grab: Grab::Fast(job),
            band,
        }
    }

    /// A claimed data-flow task; the band comes straight from the carried
    /// `Arc<Task>` — no frame lock on this path.
    pub(crate) fn task(frame: Arc<Frame>, idx: usize, task: Arc<Task>) -> WorkItem {
        let band = task.band();
        WorkItem {
            grab: Grab::Task { frame, idx, task },
            band,
        }
    }

    pub(crate) fn into_grab(self) -> Grab {
        self.grab
    }

    /// Priority band of this item: 0 = high, [`PRIORITY_BANDS`]` - 1` =
    /// low. Queues pop lower band indices first.
    #[inline]
    pub(crate) fn band(&self) -> usize {
        (self.band as usize).min(PRIORITY_BANDS - 1)
    }

    /// Identity token of a fork-join stack job (null for any other item):
    /// [`Queue::take`] uses it to retract a specific job on the fork-join
    /// fast path.
    pub(crate) fn token(&self) -> *mut () {
        match &self.grab {
            Grab::Fast(j) => j.data,
            _ => std::ptr::null_mut(),
        }
    }
}

impl std::fmt::Debug for WorkItem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.grab {
            Grab::Fast(_) => "fast",
            Grab::Task { .. } => "task",
            Grab::Run(_) => "run",
        };
        f.debug_struct("WorkItem")
            .field("kind", &kind)
            .field("band", &self.band)
            .finish()
    }
}

/// Which ready-work store a runtime uses ([`Builder::queue`]).
///
/// [`Builder::queue`]: crate::Builder::queue
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueueKind {
    /// One priority-banded T.H.E. deque per worker, data-flow tasks found
    /// lazily by steal scans — the X-Kaapi design.
    #[default]
    Distributed,
    /// One mutex-protected FIFO per band shared by every worker, data-flow
    /// tasks published eagerly — the libGOMP/QUARK baseline.
    Central,
}

/// The runtime's ready-work store. Every operation is a two-arm `match`.
///
/// `worker`/`victim` arguments are worker indices in `0..num_workers`.
/// `pop`/`steal` return items from the highest-priority non-empty band
/// first; within one band the queue's natural order applies.
pub(crate) enum Queue {
    /// Per-worker lanes (the default).
    Lanes(DistributedLanes),
    /// One shared FIFO per priority band, boxed so either kind keeps the
    /// queue a (fat) pointer inside the runtime's shared state.
    Central(Box<[CentralQueue<WorkItem>; PRIORITY_BANDS]>),
}

impl Queue {
    pub(crate) fn new(kind: QueueKind, workers: usize) -> Queue {
        match kind {
            QueueKind::Distributed => Queue::Lanes(DistributedLanes::new(workers)),
            QueueKind::Central => {
                Queue::Central(Box::new(std::array::from_fn(|_| CentralQueue::new())))
            }
        }
    }

    /// Short human-readable name (ablation tables).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Queue::Lanes(_) => "distributed-lanes",
            Queue::Central(_) => "central",
        }
    }

    /// The central queue shares one pool: steals ignore the victim, and the
    /// engine eagerly publishes ready data-flow tasks into the queue at
    /// spawn/completion time instead of relying on lazy steal scans.
    #[inline]
    pub(crate) fn centralized(&self) -> bool {
        matches!(self, Queue::Central(_))
    }

    /// Owner-side push of ready work produced on `worker`. Returns the item
    /// back when the queue refuses it (a full lane, or a distributed lane
    /// handed a non-fork-join item); the engine then runs the item inline.
    #[inline]
    pub(crate) fn push(&self, worker: usize, item: WorkItem) -> Result<(), WorkItem> {
        match self {
            Queue::Lanes(l) => l.push(worker, item),
            Queue::Central(bands) => {
                bands[item.band()].push_back(item);
                Ok(())
            }
        }
    }

    /// Pop work for `worker` without a steal protocol: own lane LIFO, or
    /// the shared FIFO.
    #[inline]
    pub(crate) fn pop(&self, worker: usize) -> Option<WorkItem> {
        match self {
            Queue::Lanes(l) => l.pop(worker),
            Queue::Central(bands) => bands.iter().find_map(CentralQueue::pop_front),
        }
    }

    /// Steal from `victim`'s share of the queue (the whole shared pool
    /// under the central queue).
    pub(crate) fn steal(&self, victim: usize) -> Option<WorkItem> {
        match self {
            Queue::Lanes(l) => l.steal(victim),
            Queue::Central(bands) => bands.iter().find_map(CentralQueue::pop_front),
        }
    }

    /// Retract the exact item identified by `token` (see
    /// [`WorkItem::token`]) if it is still queued for `worker`. The
    /// fork-join fast path uses this to reclaim its own stack job.
    #[inline]
    pub(crate) fn take(&self, worker: usize, token: *mut ()) -> Option<WorkItem> {
        match self {
            Queue::Lanes(l) => l.take(worker, token),
            Queue::Central(bands) => {
                if token.is_null() {
                    return None;
                }
                bands
                    .iter()
                    .find_map(|q| q.take_last_matching(|item| std::ptr::eq(item.token(), token)))
            }
        }
    }

    /// Emptiness hint from `worker`'s perspective (park heuristic). The
    /// distributed lanes answer with relaxed loads; the central queue takes
    /// each band's lock.
    pub(crate) fn is_empty_hint(&self, worker: usize) -> bool {
        match self {
            Queue::Lanes(l) => l.is_empty_hint(worker),
            Queue::Central(bands) => bands.iter().all(CentralQueue::is_empty),
        }
    }
}

/// A mutex-protected global FIFO with an operation counter: the libGOMP
/// weight class the paper measures against. Every push and pop pays one
/// lock acquisition, counted in [`CentralQueue::ops`] — the contention
/// indicator reported next to the figures. It backs both
/// [`QueueKind::Central`] and `xkaapi_omp::OmpPool`'s explicit-task queue.
pub struct CentralQueue<T> {
    q: Mutex<VecDeque<T>>,
    ops: AtomicUsize,
}

impl<T> Default for CentralQueue<T> {
    fn default() -> Self {
        CentralQueue::new()
    }
}

impl<T> CentralQueue<T> {
    /// Empty queue.
    pub fn new() -> CentralQueue<T> {
        CentralQueue {
            q: Mutex::new(VecDeque::new()),
            ops: AtomicUsize::new(0),
        }
    }

    /// Append at the tail (one lock acquisition).
    pub fn push_back(&self, item: T) {
        self.ops.fetch_add(1, Ordering::Relaxed);
        self.q.lock().push_back(item);
    }

    /// Remove from the head (one lock acquisition).
    pub fn pop_front(&self) -> Option<T> {
        self.ops.fetch_add(1, Ordering::Relaxed);
        self.q.lock().pop_front()
    }

    /// Remove the last item matching `pred` (reverse scan under the lock).
    pub fn take_last_matching(&self, pred: impl Fn(&T) -> bool) -> Option<T> {
        self.ops.fetch_add(1, Ordering::Relaxed);
        let mut q = self.q.lock();
        let pos = q.iter().rposition(pred)?;
        q.remove(pos)
    }

    /// Racy emptiness snapshot. Takes the lock (not counted in
    /// [`CentralQueue::ops`]), so every idle-loop poll of the central
    /// queue pays one lock acquisition per band.
    pub fn is_empty(&self) -> bool {
        self.q.lock().is_empty()
    }

    /// Queued items right now.
    pub fn len(&self) -> usize {
        self.q.lock().len()
    }

    /// Lock acquisitions so far — the centralized-design contention metric.
    pub fn ops(&self) -> usize {
        self.ops.load(Ordering::Relaxed)
    }
}

/// A non-default band's side deque: a mutexed FIFO/LIFO with an atomic
/// length mirror, so the hot attribute-free path pays one relaxed load —
/// never a lock — to skip an empty side band.
struct SideLane {
    len: std::sync::atomic::AtomicUsize,
    q: Mutex<VecDeque<FastJob>>,
}

impl SideLane {
    fn new() -> SideLane {
        SideLane {
            len: std::sync::atomic::AtomicUsize::new(0),
            q: Mutex::new(VecDeque::new()),
        }
    }

    #[inline]
    fn is_empty_hint(&self) -> bool {
        self.len.load(std::sync::atomic::Ordering::Relaxed) == 0
    }

    fn push_back(&self, job: FastJob) {
        let mut q = self.q.lock();
        q.push_back(job);
        self.len
            .store(q.len(), std::sync::atomic::Ordering::Relaxed);
    }

    /// Owner side: LIFO. `None` without locking when the hint says empty.
    fn pop_back(&self) -> Option<FastJob> {
        if self.is_empty_hint() {
            return None;
        }
        let mut q = self.q.lock();
        let job = q.pop_back();
        self.len
            .store(q.len(), std::sync::atomic::Ordering::Relaxed);
        job
    }

    /// Thief side: FIFO. `None` without locking when the hint says empty.
    fn pop_front(&self) -> Option<FastJob> {
        if self.is_empty_hint() {
            return None;
        }
        let mut q = self.q.lock();
        let job = q.pop_front();
        self.len
            .store(q.len(), std::sync::atomic::Ordering::Relaxed);
        job
    }

    /// Retract the job identified by `token`, youngest match first.
    fn take(&self, token: *mut ()) -> Option<FastJob> {
        if self.is_empty_hint() {
            return None;
        }
        let mut q = self.q.lock();
        let pos = q.iter().rposition(|j| std::ptr::eq(j.data, token))?;
        let job = q.remove(pos);
        self.len
            .store(q.len(), std::sync::atomic::Ordering::Relaxed);
        job
    }
}

/// One worker's share of [`DistributedLanes`]: the default band keeps the
/// original fixed-capacity T.H.E. deque (owner LIFO with one fence, thief
/// FIFO under the lane lock — the hot path, untouched), while the
/// non-default bands are small side deques whose emptiness is checked with
/// one relaxed load. Fork-join joins default to the normal band, so the
/// side lanes stay cold unless a front-end asks for an explicit priority.
struct BandedLane {
    high: SideLane,
    normal: FastLane,
    low: SideLane,
    /// Jobs currently in the two side deques combined. The attribute-free
    /// hot path pays exactly one relaxed load of this (instead of probing
    /// each side lane's hint) per pop/steal/take. Incremented *before* the
    /// locked side push, decremented after a successful side pop: a reader
    /// seeing a stale 0 misses the in-flight job once and finds it on the
    /// next poll — the same benign race the per-lane len mirrors already
    /// accept.
    side_jobs: AtomicUsize,
}

impl BandedLane {
    fn new() -> BandedLane {
        BandedLane {
            high: SideLane::new(),
            normal: FastLane::new(),
            low: SideLane::new(),
            side_jobs: AtomicUsize::new(0),
        }
    }

    fn side(&self, band: usize) -> Option<&SideLane> {
        match band {
            0 => Some(&self.high),
            2 => Some(&self.low),
            _ => None,
        }
    }

    /// One relaxed load deciding whether the side deques need probing at
    /// all; false is the steady state of attribute-free programs.
    #[inline]
    fn has_side_jobs(&self) -> bool {
        self.side_jobs.load(Ordering::Relaxed) != 0
    }

    #[inline]
    fn side_pushed(&self) {
        self.side_jobs.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn side_popped(&self) {
        self.side_jobs.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Default distributed queue: one priority-banded T.H.E. deque per worker.
///
/// In the default band the owner pushes and pops at the tail with one fence
/// (Cilk-5's work-first discipline) and thieves take from the head under
/// the lane lock — the paper's fast lane, bit-for-bit the pre-band
/// behaviour. High/low bands ride per-worker side deques consulted before/
/// after the fast lane.
///
/// Each lane is cache-padded: the owner writes its T.H.E. `tail` and
/// `side_jobs` on every push and pop, so a packed array (about 144 B per
/// lane) would bounce a line between neighbouring workers' fast lanes
/// (`DESIGN.md` §6).
pub(crate) struct DistributedLanes {
    lanes: Box<[CachePadded<BandedLane>]>,
}

impl DistributedLanes {
    /// One lane per worker.
    pub(crate) fn new(workers: usize) -> DistributedLanes {
        DistributedLanes {
            lanes: (0..workers)
                .map(|_| CachePadded::new(BandedLane::new()))
                .collect(),
        }
    }
}

impl DistributedLanes {
    #[inline]
    fn push(&self, worker: usize, item: WorkItem) -> Result<(), WorkItem> {
        let band = item.band();
        match item.grab {
            Grab::Fast(job) => {
                let lane = &self.lanes[worker];
                match lane.side(band) {
                    Some(side) => {
                        lane.side_pushed();
                        side.push_back(job);
                        Ok(())
                    }
                    None => {
                        if lane.normal.push(job) {
                            Ok(())
                        } else {
                            Err(WorkItem::fast_banded(job, band as u8))
                        }
                    }
                }
            }
            // Data-flow tasks stay in their frames under this policy; loop
            // slices travel through the steal protocol. Refusing them makes
            // the engine run the item inline.
            grab => Err(WorkItem {
                grab,
                band: band as u8,
            }),
        }
    }

    #[inline]
    fn pop(&self, worker: usize) -> Option<WorkItem> {
        let lane = &self.lanes[worker];
        // Attribute-free fast path: one relaxed load skips both side
        // deques, leaving exactly the pre-band T.H.E. pop.
        let sided = lane.has_side_jobs();
        // Owner order: high band first (LIFO within the deque), then the
        // default T.H.E. lane, then low.
        if sided {
            if let Some(job) = lane.high.pop_back() {
                lane.side_popped();
                return Some(WorkItem::fast_banded(job, 0));
            }
        }
        if let Some(job) = lane.normal.pop() {
            return Some(WorkItem::fast(job));
        }
        if sided {
            if let Some(job) = lane.low.pop_back() {
                lane.side_popped();
                return Some(WorkItem::fast_banded(job, 2));
            }
        }
        None
    }

    fn steal(&self, victim: usize) -> Option<WorkItem> {
        let lane = &self.lanes[victim];
        let sided = lane.has_side_jobs();
        // Thief order: high band FIFO, then the default lane's head, low
        // band last.
        if sided {
            if let Some(job) = lane.high.pop_front() {
                lane.side_popped();
                return Some(WorkItem::fast_banded(job, 0));
            }
        }
        if let Some(job) = lane.normal.steal() {
            return Some(WorkItem::fast(job));
        }
        if sided {
            if let Some(job) = lane.low.pop_front() {
                lane.side_popped();
                return Some(WorkItem::fast_banded(job, 2));
            }
        }
        None
    }

    #[inline]
    fn take(&self, worker: usize, token: *mut ()) -> Option<WorkItem> {
        let lane = &self.lanes[worker];
        // Side bands: token scan (joins in these bands nest too, but a
        // foreign-band job must never disturb the default lane's tail).
        // Skipped entirely — one relaxed load — when no side job exists.
        if lane.has_side_jobs() {
            for (band, side) in [(0u8, &lane.high), (2u8, &lane.low)] {
                if let Some(job) = side.take(token) {
                    lane.side_popped();
                    return Some(WorkItem::fast_banded(job, band));
                }
            }
        }
        // Default band: joins nest properly, so if the job is still queued
        // it is the tail.
        match lane.normal.pop() {
            Some(job) if std::ptr::eq(job.data, token) => Some(WorkItem::fast(job)),
            Some(job) => {
                // Not ours (a foreign push slipped in): put it back.
                debug_assert!(false, "fast-lane LIFO discipline violated");
                let _ = lane.normal.push(job);
                None
            }
            None => None,
        }
    }

    fn is_empty_hint(&self, worker: usize) -> bool {
        let lane = &self.lanes[worker];
        lane.normal.is_empty_hint() && !lane.has_side_jobs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RtInner;

    fn dummy_job(tag: usize) -> FastJob {
        unsafe fn exec(_d: *mut (), _rt: &Arc<RtInner>, _w: usize) {}
        FastJob {
            data: tag as *mut (),
            exec,
        }
    }

    #[test]
    fn distributed_lanes_route_per_worker() {
        let q = Queue::new(QueueKind::Distributed, 2);
        assert!(!q.centralized());
        assert!(q.is_empty_hint(0));
        q.push(0, WorkItem::fast(dummy_job(1))).unwrap();
        q.push(0, WorkItem::fast(dummy_job(2))).unwrap();
        assert!(q.pop(1).is_none(), "lanes are per-worker");
        // Thief takes FIFO from the victim's lane.
        let stolen = q.steal(0).unwrap();
        assert_eq!(stolen.token() as usize, 1);
        // Owner takes LIFO.
        let own = q.pop(0).unwrap();
        assert_eq!(own.token() as usize, 2);
    }

    #[test]
    fn adjacent_lanes_never_share_a_cache_line() {
        // A packed lane is ~144 B, so a 128 B stride alone would not prove
        // padding: each lane must also start on its own 128 B boundary.
        let q = DistributedLanes::new(4);
        let starts: Vec<usize> = q
            .lanes
            .iter()
            .map(|l| &**l as *const BandedLane as usize)
            .collect();
        for w in starts.windows(2) {
            assert!(
                w[1] - w[0] >= 128,
                "lanes {:#x} and {:#x} too close",
                w[0],
                w[1]
            );
        }
        for s in starts {
            assert_eq!(s % 128, 0, "lane at {s:#x} straddles a 128 B block");
        }
    }

    #[test]
    fn take_retracts_own_tail_job() {
        let q = DistributedLanes::new(1);
        q.push(0, WorkItem::fast(dummy_job(7))).unwrap();
        assert_eq!(q.take(0, 7 as *mut ()).unwrap().token() as usize, 7);
        assert!(q.take(0, 7 as *mut ()).is_none(), "already taken");
    }

    #[test]
    fn bands_pop_high_before_default_before_low() {
        let q = DistributedLanes::new(1);
        q.push(0, WorkItem::fast_banded(dummy_job(30), 2)).unwrap();
        q.push(0, WorkItem::fast(dummy_job(20))).unwrap();
        q.push(0, WorkItem::fast_banded(dummy_job(10), 0)).unwrap();
        assert!(!q.is_empty_hint(0));
        let order: Vec<usize> = std::iter::from_fn(|| q.pop(0))
            .map(|i| i.token() as usize)
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
        assert!(q.is_empty_hint(0));
    }

    #[test]
    fn take_finds_banded_jobs_without_touching_default_lane() {
        let q = DistributedLanes::new(1);
        q.push(0, WorkItem::fast(dummy_job(8))).unwrap();
        q.push(0, WorkItem::fast_banded(dummy_job(2), 0)).unwrap();
        let got = q.take(0, 2 as *mut ()).unwrap();
        assert_eq!(got.token() as usize, 2);
        assert_eq!(got.band(), 0);
        // The default-band job is still the retractable tail.
        assert_eq!(q.take(0, 8 as *mut ()).unwrap().token() as usize, 8);
    }

    #[test]
    fn fifo_order_and_ops_counter() {
        let q: CentralQueue<u32> = CentralQueue::new();
        assert!(q.is_empty());
        q.push_back(1);
        q.push_back(2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_front(), Some(1));
        assert_eq!(q.pop_front(), Some(2));
        assert_eq!(q.pop_front(), None);
        assert_eq!(q.ops(), 5);
    }

    #[test]
    fn take_last_matching_removes_in_place() {
        let q: CentralQueue<u32> = CentralQueue::new();
        for i in 0..5 {
            q.push_back(i);
        }
        assert_eq!(q.take_last_matching(|&x| x % 2 == 0), Some(4));
        assert_eq!(q.take_last_matching(|&x| x % 2 == 0), Some(2));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop_front(), Some(0));
    }

    #[test]
    fn central_queue_is_shared_banded_and_fifo() {
        let q = Queue::new(QueueKind::Central, 2);
        assert!(q.centralized());
        q.push(0, WorkItem::fast_banded(dummy_job(30), 2)).unwrap();
        q.push(0, WorkItem::fast(dummy_job(20))).unwrap();
        q.push(1, WorkItem::fast(dummy_job(21))).unwrap();
        q.push(1, WorkItem::fast_banded(dummy_job(10), 0)).unwrap();
        assert!(!q.is_empty_hint(1));
        // Any worker retracts any job by token; a null token never matches.
        assert_eq!(q.take(1, 20 as *mut ()).unwrap().token() as usize, 20);
        assert!(q.take(0, std::ptr::null_mut()).is_none());
        // High band first, FIFO within a band, low band last — for pops and
        // steals alike.
        assert_eq!(q.steal(1).unwrap().token() as usize, 10);
        assert_eq!(q.pop(0).unwrap().token() as usize, 21);
        assert_eq!(q.pop(1).unwrap().token() as usize, 30);
        assert!(q.is_empty_hint(0));
    }
}
