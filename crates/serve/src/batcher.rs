//! The scheduling protocol of the serving runtime, written once.
//!
//! [`crate::Model`] coalesces whole requests and [`crate::DecodeModel`]
//! coalesces decode steps, but what happens between "a caller submits
//! work" and "the caller's future resolves" is the same protocol, and
//! both models are instantiations of the [`Batcher`] here:
//!
//! 1. **Admission** — [`Batcher::submit`] appends to a bounded FIFO
//!    queue and returns a [`Ticket`]; a full queue fails fast with
//!    [`ServeError::Busy`], a closed one with [`ServeError::Closed`].
//! 2. **Window** — the batcher thread holds the *oldest* queued item
//!    open until `enqueued_at + max_delay`, or until the queued units
//!    reach `max_batch`, whichever comes first. The deadline belongs to
//!    the item, not to the loop: work left behind by one batch goes out
//!    on the next turn without a fresh window. Draining after close
//!    skips the wait.
//! 3. **Batch** — the front item's [`Work::group`] is drained in FIFO
//!    order up to `max_batch` units (an oversized first item goes out
//!    alone); items of other groups keep their place in the queue.
//! 4. **Execute** — the model's batch function runs once, with the
//!    queue lock released.
//! 5. **Fan out** — each work item is *dropped, then* its ticket is
//!    resolved, so whatever the item's `Drop` releases (a decode
//!    session's one-step-in-flight flag) is released by the time the
//!    waiter wakes. An `Err` from the batch function is cloned to every
//!    ticket of the batch.
//!
//! No waiter hangs: a batch function that unwinds fails exactly its own
//! batch's tickets with [`ServeError::Exec`]; the thread's exit — by
//! that panic or by shutdown — closes the queue and fails whatever is
//! still queued with [`ServeError::Closed`]. [`Batcher::shutdown`] has
//! one meaning for every model: stop admitting, drain what was
//! admitted, join the thread.

use crate::stats::StatsSnapshot;
use crate::ServeError;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Lock, recovering from poison. Nothing here panics while holding a
/// lock (the batch function runs with the queue released) and every
/// update leaves the data valid, so a poisoned guard is still good —
/// and several callers are `Drop` paths that must not panic in turn.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a [`Batcher`] schedules.
pub(crate) trait Work: Send + 'static {
    /// What this work's [`Ticket`] resolves to.
    type Output: Send + 'static;
    /// See [`Work::group`].
    type Group: PartialEq;

    /// Size against the `max_batch` cap.
    fn units(&self) -> usize;

    /// Only items of one group share a batch: `()` for requests, the
    /// cache capacity for decode steps.
    fn group(&self) -> Self::Group;
}

/// The awaitable half of one submission: resolved once by the batcher
/// thread, taken once by the submitter.
#[derive(Debug)]
pub(crate) struct Ticket<T> {
    state: Mutex<Option<Result<T, ServeError>>>,
    cv: Condvar,
}

impl<T> Ticket<T> {
    fn put(&self, r: Result<T, ServeError>) {
        *lock(&self.state) = Some(r);
        self.cv.notify_all();
    }

    /// Block until resolved.
    pub(crate) fn wait(&self) -> Result<T, ServeError> {
        let mut s = lock(&self.state);
        loop {
            if let Some(r) = s.take() {
                return r;
            }
            s = self.cv.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Non-blocking poll: `None` while still in flight.
    pub(crate) fn try_take(&self) -> Option<Result<T, ServeError>> {
        lock(&self.state).take()
    }
}

/// One admitted item, as the batch function sees it.
pub(crate) struct Queued<W: Work> {
    pub(crate) work: W,
    pub(crate) enqueued_at: Instant,
    ticket: Arc<Ticket<W::Output>>,
}

impl<W: Work> Queued<W> {
    /// Drop the work, *then* wake the waiter (module docs, step 5).
    fn resolve(self, r: Result<W::Output, ServeError>) {
        drop(self.work);
        self.ticket.put(r);
    }
}

/// The three numbers of the protocol.
pub(crate) struct Limits {
    /// Most units in one batch (a single larger item still goes alone).
    pub(crate) max_batch: usize,
    /// How long the oldest item is held open for coalescing.
    pub(crate) max_delay: Duration,
    /// Bound on queued *items*.
    pub(crate) queue_cap: usize,
}

struct Queue<W: Work> {
    pending: VecDeque<Queued<W>>,
    /// Sum of `pending`'s units, kept so the window check is O(1).
    units: usize,
    closed: bool,
}

/// A bounded queue plus the thread that turns it into batches. See the
/// module docs for the protocol.
pub(crate) struct Batcher<W: Work> {
    limits: Limits,
    queue: Mutex<Queue<W>>,
    cv: Condvar,
    busy_rejections: AtomicU64,
    thread: Mutex<Option<JoinHandle<()>>>,
}

/// Fails every item it still holds when dropped: the batch function
/// unwound before answering them, and its waiters must not hang.
struct Fanout<W: Work>(Vec<Queued<W>>);

impl<W: Work> Drop for Fanout<W> {
    fn drop(&mut self) {
        for item in self.0.drain(..) {
            item.resolve(Err(ServeError::Exec(
                "batch execution panicked; request abandoned".into(),
            )));
        }
    }
}

/// Runs when the batcher thread exits, normally or by panic: closes the
/// queue and fails what is stranded in it, so no caller blocks on a
/// dead thread.
struct ExitGuard<'a, W: Work>(&'a Batcher<W>);

impl<W: Work> Drop for ExitGuard<'_, W> {
    fn drop(&mut self) {
        let stranded = {
            let mut q = lock(&self.0.queue);
            q.closed = true;
            q.units = 0;
            std::mem::take(&mut q.pending)
        };
        for item in stranded {
            item.resolve(Err(ServeError::Closed));
        }
    }
}

impl<W: Work> Batcher<W> {
    /// Start a batcher whose thread, named `name`, calls `run` once per
    /// batch. `run` returns one output per item, in order. The owner
    /// must call [`Batcher::shutdown`] (the thread keeps the batcher
    /// alive until then).
    pub(crate) fn spawn<F>(name: &str, limits: Limits, mut run: F) -> Arc<Self>
    where
        F: FnMut(&[Queued<W>]) -> Result<Vec<W::Output>, ServeError> + Send + 'static,
    {
        let batcher = Arc::new(Batcher {
            limits,
            queue: Mutex::new(Queue {
                pending: VecDeque::new(),
                units: 0,
                closed: false,
            }),
            cv: Condvar::new(),
            busy_rejections: AtomicU64::new(0),
            thread: Mutex::new(None),
        });
        let on_thread = Arc::clone(&batcher);
        let handle = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                let exit = ExitGuard(&on_thread);
                while let Some(batch) = exit.0.next_batch() {
                    let mut fan = Fanout(batch);
                    match run(&fan.0) {
                        Ok(outs) => {
                            // One output per item; were `run` ever to
                            // return fewer, `fan` fails the rest.
                            let n = outs.len().min(fan.0.len());
                            for (item, out) in fan.0.drain(..n).zip(outs) {
                                item.resolve(Ok(out));
                            }
                        }
                        Err(e) => {
                            for item in fan.0.drain(..) {
                                item.resolve(Err(e.clone()));
                            }
                        }
                    }
                }
            })
            .expect("spawn batcher thread");
        *lock(&batcher.thread) = Some(handle);
        batcher
    }

    /// Wait for work, hold the window, drain one batch. `None` once the
    /// queue is closed and empty.
    fn next_batch(&self) -> Option<Vec<Queued<W>>> {
        let (max_batch, max_delay) = (self.limits.max_batch, self.limits.max_delay);
        let mut q = lock(&self.queue);
        let deadline = loop {
            match q.pending.front() {
                Some(oldest) => break oldest.enqueued_at + max_delay,
                None if q.closed => return None,
                None => q = self.cv.wait(q).unwrap_or_else(PoisonError::into_inner),
            }
        };
        while !q.closed && q.units < max_batch {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            q = self
                .cv
                .wait_timeout(q, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        // Drain the front item's group in FIFO order. Other groups are
        // set aside and put back where they were; within the group, the
        // first item that does not fit ends the batch (nothing behind
        // it may overtake it).
        let mut batch: Vec<Queued<W>> = Vec::new();
        let mut units = 0;
        let mut skipped = Vec::new();
        while let Some(item) = q.pending.pop_front() {
            if let Some(first) = batch.first() {
                if item.work.group() != first.work.group() {
                    skipped.push(item);
                    continue;
                }
                if units + item.work.units() > max_batch {
                    q.pending.push_front(item);
                    break;
                }
            }
            units += item.work.units();
            batch.push(item);
            if units >= max_batch {
                break;
            }
        }
        for item in skipped.into_iter().rev() {
            q.pending.push_front(item);
        }
        q.units -= units;
        Some(batch)
    }

    /// Admit `work`. On refusal the work is dropped.
    ///
    /// # Errors
    ///
    /// [`ServeError::Closed`] after shutdown (or the thread's death),
    /// [`ServeError::Busy`] at the queue bound.
    pub(crate) fn submit(&self, work: W) -> Result<Arc<Ticket<W::Output>>, ServeError> {
        let ticket = Arc::new(Ticket {
            state: Mutex::new(None),
            cv: Condvar::new(),
        });
        {
            let mut q = lock(&self.queue);
            if q.closed {
                return Err(ServeError::Closed);
            }
            if q.pending.len() >= self.limits.queue_cap {
                self.busy_rejections.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Busy {
                    queued: q.pending.len(),
                    cap: self.limits.queue_cap,
                });
            }
            q.units += work.units();
            q.pending.push_back(Queued {
                work,
                enqueued_at: Instant::now(),
                ticket: Arc::clone(&ticket),
            });
        }
        self.cv.notify_one();
        Ok(ticket)
    }

    /// Whether nothing is queued right now.
    ///
    /// # Errors
    ///
    /// [`ServeError::Closed`] once the queue no longer admits work.
    pub(crate) fn is_empty(&self) -> Result<bool, ServeError> {
        let q = lock(&self.queue);
        if q.closed {
            return Err(ServeError::Closed);
        }
        Ok(q.pending.is_empty())
    }

    /// Fill in the two [`StatsSnapshot`] fields the queue owns.
    pub(crate) fn stamp(&self, mut snap: StatsSnapshot) -> StatsSnapshot {
        snap.queue_depth = lock(&self.queue).pending.len() as u64;
        snap.busy_rejections = self.busy_rejections.load(Ordering::Relaxed);
        snap
    }

    /// Stop admitting, let the thread drain what was admitted, join it.
    /// Idempotent; a second caller returns once the first one's join
    /// has.
    pub(crate) fn shutdown(&self) {
        lock(&self.queue).closed = true;
        self.cv.notify_one();
        if let Some(handle) = lock(&self.thread).take() {
            // Err means the batch function panicked. The guards above
            // already turned that into errors on every ticket, and this
            // runs from the models' `Drop`, which must not panic.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ModelStats;
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::sync::mpsc;

    const LONG: Duration = Duration::from_secs(30);

    #[derive(Clone, Copy, PartialEq)]
    enum Act {
        Echo,
        /// Block the batcher thread until the test opens the gate.
        Hold,
        Fail,
        Panic,
    }

    /// Fake work: resolves to its own id.
    struct Job {
        id: u32,
        units: usize,
        group: u8,
        act: Act,
        dropped: Arc<AtomicBool>,
    }

    impl Job {
        fn new(id: u32) -> Job {
            Job {
                id,
                units: 1,
                group: 0,
                act: Act::Echo,
                dropped: Arc::default(),
            }
        }

        fn units(mut self, units: usize) -> Job {
            self.units = units;
            self
        }

        fn group(mut self, group: u8) -> Job {
            self.group = group;
            self
        }

        fn act(mut self, act: Act) -> Job {
            self.act = act;
            self
        }
    }

    impl Work for Job {
        type Output = u32;
        type Group = u8;

        fn units(&self) -> usize {
            self.units
        }

        fn group(&self) -> u8 {
            self.group
        }
    }

    impl Drop for Job {
        fn drop(&mut self) {
            self.dropped.store(true, Ordering::SeqCst);
        }
    }

    /// The ids of one executed batch and when its execution began.
    type LoggedBatch = (Vec<u32>, Instant);

    /// A batcher over [`Job`]s whose batch function logs every batch
    /// (ids, start time) and acts on the batch's first job.
    struct Rig {
        batcher: Arc<Batcher<Job>>,
        log: Arc<Mutex<Vec<LoggedBatch>>>,
        entered: mpsc::Receiver<()>,
        gate: mpsc::Sender<()>,
    }

    impl Rig {
        fn new(max_batch: usize, max_delay: Duration, queue_cap: usize) -> Rig {
            let log = Arc::new(Mutex::new(Vec::new()));
            let (entered_tx, entered) = mpsc::channel();
            let (gate, gate_rx) = mpsc::channel::<()>();
            let limits = Limits {
                max_batch,
                max_delay,
                queue_cap,
            };
            let batcher = Batcher::spawn("test-batcher", limits, {
                let log = Arc::clone(&log);
                move |batch: &[Queued<Job>]| {
                    let ids: Vec<u32> = batch.iter().map(|q| q.work.id).collect();
                    log.lock().unwrap().push((ids.clone(), Instant::now()));
                    match batch[0].work.act {
                        Act::Echo => {}
                        Act::Hold => {
                            entered_tx.send(()).unwrap();
                            gate_rx.recv().unwrap();
                        }
                        Act::Fail => return Err(ServeError::Exec("boom".into())),
                        Act::Panic => panic!("injected batch panic"),
                    }
                    Ok(ids)
                }
            });
            Rig {
                batcher,
                log,
                entered,
                gate,
            }
        }

        fn submit(&self, job: Job) -> Arc<Ticket<u32>> {
            self.batcher.submit(job).expect("admitted")
        }

        /// Park the batcher thread inside its batch function, so what
        /// the test submits next is queued together, deterministically,
        /// until [`Rig::open`].
        fn hold(&self) -> Arc<Ticket<u32>> {
            let plug = self.submit(Job::new(u32::MAX).units(usize::MAX / 2).act(Act::Hold));
            self.entered.recv().unwrap();
            plug
        }

        fn open(&self) {
            self.gate.send(()).unwrap();
        }

        fn batches(&self) -> Vec<Vec<u32>> {
            let log = self.log.lock().unwrap();
            log.iter().map(|(ids, _)| ids.clone()).collect()
        }

        fn counts(&self) -> (u64, u64) {
            let snap = self.batcher.stamp(ModelStats::new().snapshot());
            (snap.queue_depth, snap.busy_rejections)
        }
    }

    #[test]
    fn window_closes_by_fill_before_the_deadline() {
        let rig = Rig::new(4, LONG, 16);
        let t0 = Instant::now();
        let tickets: Vec<_> = (0..4).map(|id| rig.submit(Job::new(id))).collect();
        for (id, t) in tickets.iter().enumerate() {
            assert_eq!(t.wait(), Ok(id as u32));
        }
        assert!(t0.elapsed() < LONG / 2);
        assert_eq!(rig.batches(), vec![vec![0, 1, 2, 3]]);
        assert_eq!(rig.counts(), (0, 0));
        rig.batcher.shutdown();
    }

    #[test]
    fn window_closes_by_deadline_with_a_partial_batch() {
        let delay = Duration::from_millis(20);
        let rig = Rig::new(4, delay, 16);
        let t0 = Instant::now();
        let ticket = rig.submit(Job::new(7));
        assert!(ticket.try_take().is_none(), "held open for coalescing");
        assert_eq!(ticket.wait(), Ok(7));
        assert!(t0.elapsed() >= delay);
        assert_eq!(rig.batches(), vec![vec![7]]);
        rig.batcher.shutdown();
    }

    #[test]
    fn oversized_first_item_executes_alone() {
        let rig = Rig::new(4, LONG, 16);
        let plug = rig.hold();
        let big = rig.submit(Job::new(1).units(9));
        let small = rig.submit(Job::new(2));
        rig.open();
        // 10 queued units >= max_batch: no window. The big item does
        // not wait for company, and takes none along.
        assert_eq!(big.wait(), Ok(1));
        rig.batcher.shutdown(); // flushes the small one without its window
        assert_eq!(small.wait(), Ok(2));
        assert_eq!(plug.wait(), Ok(u32::MAX));
        assert_eq!(rig.batches()[1..], [vec![1], vec![2]]);
    }

    #[test]
    fn interleaved_groups_drain_as_two_batches_in_one_window() {
        let delay = Duration::from_millis(100);
        let rig = Rig::new(8, delay, 16);
        rig.hold();
        let tickets: Vec<_> = [(0, 0), (1, 1), (2, 0), (3, 1)]
            .into_iter()
            .map(|(id, group)| rig.submit(Job::new(id).group(group)))
            .collect();
        rig.open();
        for (id, t) in tickets.iter().enumerate() {
            assert_eq!(t.wait(), Ok(id as u32));
        }
        // FIFO within each group, the front item's group first.
        assert_eq!(rig.batches()[1..], [vec![0, 2], vec![1, 3]]);
        // The second group's deadline is its own oldest item's, which
        // passed along with the first's: no fresh window.
        let log = rig.log.lock().unwrap();
        assert!(log[2].1 - log[1].1 < delay / 2, "second group waited again");
        drop(log);
        assert_eq!(rig.counts(), (0, 0));
        rig.batcher.shutdown();
    }

    #[test]
    fn busy_when_queue_full() {
        let rig = Rig::new(64, LONG, 2);
        rig.hold();
        let a = rig.submit(Job::new(0));
        let b = rig.submit(Job::new(1));
        let refused = Job::new(2);
        let refused_dropped = Arc::clone(&refused.dropped);
        match rig.batcher.submit(refused) {
            Err(ServeError::Busy { queued, cap }) => assert_eq!((queued, cap), (2, 2)),
            other => panic!("expected Busy, got {:?}", other.map(|_| ())),
        }
        assert!(refused_dropped.load(Ordering::SeqCst));
        assert_eq!(rig.counts(), (2, 1));
        assert_eq!(rig.batcher.is_empty(), Ok(false));
        rig.open();
        // Shutdown drains the queued pair and joins cleanly.
        rig.batcher.shutdown();
        assert_eq!((a.wait(), b.wait()), (Ok(0), Ok(1)));
        assert_eq!(rig.counts(), (0, 1));
    }

    #[test]
    fn shutdown_drains_then_closes_and_is_idempotent() {
        let rig = Rig::new(64, LONG, 16);
        let tickets: Vec<_> = (0..3).map(|id| rig.submit(Job::new(id))).collect();
        rig.batcher.shutdown(); // returns only once the queue is drained
        for (id, t) in tickets.iter().enumerate() {
            assert_eq!(t.try_take(), Some(Ok(id as u32)));
        }
        rig.batcher.shutdown();
        assert!(matches!(
            rig.batcher.submit(Job::new(9)),
            Err(ServeError::Closed)
        ));
        assert_eq!(rig.batcher.is_empty(), Err(ServeError::Closed));
        assert_eq!(rig.counts(), (0, 0));
    }

    #[test]
    fn panicked_batch_fails_waiters_instead_of_hanging() {
        let rig = Rig::new(64, LONG, 16);
        rig.hold();
        let doomed: Vec<_> = (0..2)
            .map(|id| rig.submit(Job::new(id).act(Act::Panic)))
            .collect();
        let behind: Vec<_> = (2..4).map(|id| rig.submit(Job::new(id).group(1))).collect();
        rig.open();
        rig.batcher.shutdown();
        // Exactly the panicking batch's tickets see the panic ...
        for t in &doomed {
            assert!(matches!(t.wait(), Err(ServeError::Exec(_))));
        }
        // ... and the thread's exit fails what it stranded, then
        // refuses new work: nobody blocks on a dead thread.
        for t in &behind {
            assert_eq!(t.wait(), Err(ServeError::Closed));
        }
        assert!(matches!(
            rig.batcher.submit(Job::new(9)),
            Err(ServeError::Closed)
        ));
        assert_eq!(rig.batches()[1..], [vec![0, 1]]);
        assert_eq!(rig.counts(), (0, 0));
    }

    #[test]
    fn failed_batch_fans_the_same_error_to_every_ticket() {
        let rig = Rig::new(2, LONG, 16);
        let a = rig.submit(Job::new(0).act(Act::Fail));
        let b = rig.submit(Job::new(1));
        let boom = Err(ServeError::Exec("boom".into()));
        assert_eq!((a.wait(), b.wait()), (boom.clone(), boom));
        // The thread survives an `Err`.
        let c = rig.submit(Job::new(2));
        let d = rig.submit(Job::new(3));
        assert_eq!((c.wait(), d.wait()), (Ok(2), Ok(3)));
        rig.batcher.shutdown();
    }

    #[test]
    fn work_is_dropped_before_its_waiter_wakes() {
        let rig = Rig::new(1, LONG, 16);
        for id in 0..100 {
            let job = Job::new(id);
            let dropped = Arc::clone(&job.dropped);
            let ticket = rig.submit(job);
            assert_eq!(ticket.wait(), Ok(id));
            assert!(dropped.load(Ordering::SeqCst), "waiter woke first");
        }
        rig.batcher.shutdown();
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// First slice of the schedule-perturbation sweep: submitters, the
    /// batch function and a shutdown race under seeded `yield_now`s.
    /// Every ticket resolves, to `Ok` or `Closed`; what resolved `Ok`
    /// is exactly what executed; nothing is left queued.
    fn race(seed: u64) {
        const SUBMITTERS: u64 = 8;
        const ITEMS: u64 = 200;
        let executed = Arc::new(AtomicUsize::new(0));
        let submitted = Arc::new(AtomicUsize::new(0));
        let limits = Limits {
            max_batch: 8,
            max_delay: Duration::from_micros(50),
            queue_cap: (SUBMITTERS * ITEMS) as usize,
        };
        let batcher = Batcher::spawn("test-race", limits, {
            let executed = Arc::clone(&executed);
            let mut rng = seed;
            move |batch: &[Queued<Job>]| {
                if splitmix(&mut rng) & 1 == 0 {
                    std::thread::yield_now();
                }
                executed.fetch_add(batch.len(), Ordering::SeqCst);
                Ok(batch.iter().map(|q| q.work.id).collect())
            }
        });
        let mut rng = seed ^ 0xD1B5_4A32_D192_ED03;
        let shutdown_at = 1 + (splitmix(&mut rng) % (SUBMITTERS * ITEMS * 3 / 4)) as usize;
        let closer = {
            let (batcher, submitted) = (Arc::clone(&batcher), Arc::clone(&submitted));
            std::thread::spawn(move || {
                while submitted.load(Ordering::SeqCst) < shutdown_at {
                    std::thread::yield_now();
                }
                batcher.shutdown();
            })
        };
        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|t| {
                let (batcher, submitted) = (Arc::clone(&batcher), Arc::clone(&submitted));
                let mut rng = seed.wrapping_add(t + 1);
                std::thread::spawn(move || {
                    let mut tickets = Vec::new();
                    let mut closed = 0usize;
                    for i in 0..ITEMS {
                        if splitmix(&mut rng) & 3 == 0 {
                            std::thread::yield_now();
                        }
                        let id = (t * ITEMS + i) as u32;
                        match batcher.submit(Job::new(id)) {
                            Ok(ticket) => tickets.push((id, ticket)),
                            Err(ServeError::Closed) => closed += 1,
                            Err(e) => panic!("submit: {e}"),
                        }
                        submitted.fetch_add(1, Ordering::SeqCst);
                    }
                    let mut ok = 0usize;
                    for (id, ticket) in tickets {
                        match ticket.wait() {
                            Ok(out) => {
                                assert_eq!(out, id);
                                ok += 1;
                            }
                            Err(ServeError::Closed) => closed += 1,
                            Err(e) => panic!("ticket {id}: {e}"),
                        }
                    }
                    (ok, closed)
                })
            })
            .collect();
        let (mut ok, mut closed) = (0, 0);
        for h in submitters {
            let (o, c) = h.join().expect("submitter");
            ok += o;
            closed += c;
        }
        closer.join().expect("closer");
        assert_eq!(ok + closed, (SUBMITTERS * ITEMS) as usize);
        assert_eq!(ok, executed.load(Ordering::SeqCst), "seed {seed}");
        let snap = batcher.stamp(ModelStats::new().snapshot());
        assert_eq!((snap.queue_depth, snap.busy_rejections), (0, 0));
    }

    #[test]
    fn seeded_race_stress_resolves_every_ticket() {
        // Joined under a watchdog: a hang is a failure, not a timeout
        // of the whole suite.
        let (done_tx, done_rx) = mpsc::channel();
        let runner = std::thread::spawn(move || {
            for seed in 0..4 {
                race(seed);
            }
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("race stress hung or failed");
        runner.join().expect("race stress");
    }
}
