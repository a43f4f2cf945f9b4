//! Weighted-fair bounded admission queue — the load-shedding edge.
//!
//! Connection threads admit work with [`Wfq::try_push`], which **never
//! blocks**: a full queue is an immediate [`PushError::Full`] and a
//! tenant over its quota an immediate [`PushError::Quota`], both of which
//! the server turns into a typed `Overloaded` reply. Backpressure is
//! surfaced to the client as a retryable error instead of unbounded
//! queueing or a silent drop.
//!
//! Worker threads consume with blocking [`Wfq::pop`], one job at a time.
//! There is one bounded queue *per tenant*, drained by deficit-round-robin
//! so an aggressor tenant can saturate only its own lane, plus a priority
//! sub-queue for low-fidelity (cheap ring-prefix) requests.
//!
//! (A `std::sync::mpsc` receiver is single-consumer, so the worker pool
//! cannot share one; this queue is the multi-consumer side the service
//! needs, kept dependency-free on `Mutex` + `Condvar`.)

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Why [`Wfq::try_push`] rejected an item (the item is handed back).
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity — shed the request.
    Full(T),
    /// The pushing tenant is over its in-flight or byte quota — shed
    /// *this tenant's* request while others keep flowing.
    Quota(T),
    /// The queue was closed for shutdown.
    Closed(T),
}

// ----------------------------------------------------------------- Wfq

/// Per-tenant admission quotas (enforced by [`Wfq::try_push`]).
///
/// Both bounds cover the whole *in-flight* window — queued **and**
/// popped-but-unanswered work — so a tenant cannot launder quota by
/// having its requests picked up quickly. `complete` returns the budget.
#[derive(Debug, Clone, Copy, Default)]
pub struct TenantQuota {
    /// Maximum requests a tenant may have in flight (`0` = unlimited).
    pub max_inflight: usize,
    /// Maximum estimated reply bytes in flight (`0` = unlimited).
    pub max_bytes: u64,
}

/// One tenant's pair of FIFO lanes plus its scheduler ledger.
#[derive(Debug)]
struct Lane<T> {
    /// Deficit-round-robin weight (from the tenant's `Hello`, ≥ 1).
    weight: u8,
    /// Priority sub-queue: low-fidelity (cheap ring-prefix) requests
    /// jump their own tenant's normal lane — never another tenant's.
    prio: VecDeque<(T, u64)>,
    /// Normal FIFO of `(item, cost)`.
    norm: VecDeque<(T, u64)>,
    /// Pops this tenant may still take in the current DRR round.
    deficit: u64,
    /// Requests admitted but not yet completed (queued + in service).
    inflight: usize,
    /// Estimated reply bytes admitted but not yet completed.
    bytes: u64,
    /// Is the tenant in the round-robin ring?
    active: bool,
}

impl<T> Lane<T> {
    fn new(weight: u8) -> Lane<T> {
        Lane {
            weight: weight.max(1),
            prio: VecDeque::new(),
            norm: VecDeque::new(),
            deficit: 0,
            inflight: 0,
            bytes: 0,
            active: false,
        }
    }

    fn queued(&self) -> usize {
        self.prio.len() + self.norm.len()
    }

    fn pop_one(&mut self) -> Option<(T, u64)> {
        self.prio.pop_front().or_else(|| self.norm.pop_front())
    }
}

#[derive(Debug)]
struct WfqState<T> {
    lanes: HashMap<u32, Lane<T>>,
    /// Active tenants in round-robin order (each appears at most once).
    ring: VecDeque<u32>,
    /// Total queued items across all lanes.
    len: usize,
    closed: bool,
}

/// Weighted-fair bounded admission queue: per-tenant FIFOs drained by
/// deficit-round-robin.
///
/// Admission ([`Wfq::try_push`]) never blocks: a full queue is `Full`, a
/// tenant over its [`TenantQuota`] is `Quota`, shutdown is `Closed` —
/// each a distinct typed shed. Draining ([`Wfq::pop`] / [`Wfq::try_pop`])
/// serves tenants in a ring; each round a tenant's deficit is recharged
/// to `weight × quantum` *pops* and it drains (priority lane first) until
/// the deficit or its queue runs out. Deficits reset when a lane empties
/// — no banking — so the starvation bound is crisp: while tenant *t* has
/// work queued, at most `Σ_{j≠t} weight_j × quantum` other pops occur
/// between two consecutive pops of *t* (pinned by the scheduler proptest
/// in `crates/serve/tests/wfq.rs`).
///
/// Conservation: every `Ok` push is returned by exactly one pop, and
/// `close` + drain yields `None` only after the last queued item — the
/// server's answered-exactly-once contract.
#[derive(Debug)]
pub struct Wfq<T> {
    state: Mutex<WfqState<T>>,
    not_empty: Condvar,
    capacity: usize,
    quantum: u64,
    quota: TenantQuota,
}

impl<T> Wfq<T> {
    /// Queue admitting at most `capacity` waiting items across all
    /// tenants; each DRR round grants a tenant `weight × quantum` pops.
    pub fn new(capacity: usize, quantum: u64, quota: TenantQuota) -> Wfq<T> {
        Wfq {
            state: Mutex::new(WfqState {
                lanes: HashMap::new(),
                ring: VecDeque::new(),
                len: 0,
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
            quantum: quantum.max(1),
            quota,
        }
    }

    fn lock(&self) -> MutexGuard<'_, WfqState<T>> {
        // Scheduler state is plain maps/deques: valid after any panic.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admit `item` for `tenant` without blocking. `weight` refreshes the
    /// tenant's DRR weight (latest handshake wins), `cost` is the
    /// estimated reply bytes charged against the byte quota, and
    /// `priority` routes cheap low-fidelity requests to the tenant's
    /// fast lane.
    pub fn try_push(
        &self,
        tenant: u32,
        weight: u8,
        cost: u64,
        priority: bool,
        item: T,
    ) -> Result<(), PushError<T>> {
        let mut s = self.lock();
        if s.closed {
            return Err(PushError::Closed(item));
        }
        if s.len >= self.capacity {
            return Err(PushError::Full(item));
        }
        let quota = self.quota;
        let lane = s.lanes.entry(tenant).or_insert_with(|| Lane::new(weight));
        lane.weight = weight.max(1);
        if quota.max_inflight != 0 && lane.inflight >= quota.max_inflight {
            return Err(PushError::Quota(item));
        }
        if quota.max_bytes != 0 && lane.bytes.saturating_add(cost) > quota.max_bytes {
            return Err(PushError::Quota(item));
        }
        if priority {
            lane.prio.push_back((item, cost));
        } else {
            lane.norm.push_back((item, cost));
        }
        lane.inflight += 1;
        lane.bytes = lane.bytes.saturating_add(cost);
        if !lane.active {
            lane.active = true;
            s.ring.push_back(tenant);
        }
        s.len += 1;
        drop(s);
        self.not_empty.notify_one();
        Ok(())
    }

    /// One DRR scheduling step over the ring; caller guarantees work is
    /// queued (`s.len > 0`), so a pop always exists.
    fn pop_locked(s: &mut WfqState<T>, quantum: u64) -> T {
        loop {
            let Some(&tenant) = s.ring.front() else {
                unreachable!("len > 0 implies an active lane in the ring");
            };
            let Some(lane) = s.lanes.get_mut(&tenant) else {
                s.ring.pop_front();
                continue;
            };
            if lane.queued() == 0 {
                // Emptied lane: leave the ring, forfeit any deficit.
                lane.active = false;
                lane.deficit = 0;
                s.ring.pop_front();
                continue;
            }
            if lane.deficit == 0 {
                lane.deficit = u64::from(lane.weight).saturating_mul(quantum);
            }
            let (item, _cost) = lane.pop_one().expect("lane checked non-empty");
            lane.deficit -= 1;
            let emptied = lane.queued() == 0;
            if emptied {
                lane.active = false;
                lane.deficit = 0;
                s.ring.pop_front();
            } else if lane.deficit == 0 {
                // Quantum spent: rotate to the back of the ring.
                s.ring.rotate_left(1);
            }
            s.len -= 1;
            return item;
        }
    }

    /// Take the next scheduled item, blocking while every lane is empty;
    /// `None` once the queue is closed **and** drained.
    pub fn pop(&self) -> Option<T> {
        let mut s = self.lock();
        loop {
            if s.len > 0 {
                return Some(Self::pop_locked(&mut s, self.quantum));
            }
            if s.closed {
                return None;
            }
            s = self.not_empty.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Take the next scheduled item only if one is already waiting. The
    /// server never calls it; the scheduler tests read the drain order
    /// through it without blocking.
    pub fn try_pop(&self) -> Option<T> {
        let mut s = self.lock();
        if s.len > 0 {
            Some(Self::pop_locked(&mut s, self.quantum))
        } else {
            None
        }
    }

    /// A request finished (replied or shed after admission): return its
    /// in-flight and byte budget to `tenant`.
    pub fn complete(&self, tenant: u32, cost: u64) {
        let mut s = self.lock();
        if let Some(lane) = s.lanes.get_mut(&tenant) {
            lane.inflight = lane.inflight.saturating_sub(1);
            lane.bytes = lane.bytes.saturating_sub(cost);
        }
    }

    /// Close the queue: future pushes fail, poppers drain then get `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }

    /// Items currently waiting across all tenants.
    pub fn len(&self) -> usize {
        self.lock().len
    }

    /// True when nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The global admission bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Per-tenant `(tenant, weight, queued, inflight)` snapshot, sorted
    /// by tenant id — the stats frame's tenant section.
    pub fn depths(&self) -> Vec<(u32, u8, usize, usize)> {
        let s = self.lock();
        let mut out: Vec<_> =
            s.lanes.iter().map(|(&t, l)| (t, l.weight, l.queued(), l.inflight)).collect();
        out.sort_unstable_by_key(|&(t, ..)| t);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn many_producers_many_consumers_deliver_everything_once() {
        // Four tenants push concurrently (each its own lane and weight)
        // while four workers block in `pop`, the way the server runs it.
        let q = Arc::new(Wfq::<u32>::new(8, 2, TenantQuota::default()));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        let producers: Vec<_> = (0..4u32)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut sent = Vec::new();
                    for i in 0..100u32 {
                        let v = p * 100 + i;
                        // Spin on Full: producers outpace consumers here.
                        loop {
                            match q.try_push(p, p as u8 + 1, 1, i % 3 == 0, v) {
                                Ok(()) => break,
                                Err(PushError::Full(_)) => std::thread::yield_now(),
                                Err(PushError::Closed(_)) => panic!("closed early"),
                                Err(PushError::Quota(_)) => panic!("no quota configured"),
                            }
                        }
                        sent.push(v);
                    }
                    sent
                })
            })
            .collect();
        let mut sent: Vec<u32> = producers.into_iter().flat_map(|h| h.join().unwrap()).collect();
        q.close();
        let mut got: Vec<u32> = consumers.into_iter().flat_map(|h| h.join().unwrap()).collect();
        sent.sort_unstable();
        got.sort_unstable();
        assert_eq!(sent, got);
        assert!(q.is_empty());
    }

    #[test]
    fn wfq_drains_tenants_by_weight_not_arrival_order() {
        // Tenant 1 floods 8 items first; tenant 2 (same weight) adds 4.
        // DRR with quantum 2 must interleave 2-and-2, not serve all of
        // tenant 1 first the way a shared FIFO would.
        let q = Wfq::new(64, 2, TenantQuota::default());
        for i in 0..8 {
            q.try_push(1, 1, 0, false, (1u32, i)).unwrap();
        }
        for i in 0..4 {
            q.try_push(2, 1, 0, false, (2u32, i)).unwrap();
        }
        let order: Vec<u32> = (0..12).map(|_| q.try_pop().unwrap().0).collect();
        assert_eq!(order, [1, 1, 2, 2, 1, 1, 2, 2, 1, 1, 1, 1]);
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn wfq_weights_scale_the_per_round_share() {
        // Weight 3 vs weight 1 at quantum 1: three pops to one per round.
        let q = Wfq::new(64, 1, TenantQuota::default());
        for i in 0..6 {
            q.try_push(1, 3, 0, false, (1u32, i)).unwrap();
            q.try_push(2, 1, 0, false, (2u32, i)).unwrap();
        }
        let order: Vec<u32> = (0..8).map(|_| q.try_pop().unwrap().0).collect();
        assert_eq!(order, [1, 1, 1, 2, 1, 1, 1, 2]);
    }

    #[test]
    fn wfq_priority_lane_jumps_own_tenant_only() {
        let q = Wfq::new(64, 4, TenantQuota::default());
        q.try_push(1, 1, 0, false, "t1-norm-a").unwrap();
        q.try_push(1, 1, 0, false, "t1-norm-b").unwrap();
        q.try_push(2, 1, 0, false, "t2-norm").unwrap();
        q.try_push(1, 1, 0, true, "t1-prio").unwrap();
        // Within tenant 1 the priority item jumps its normal FIFO, but
        // tenant 2 still gets its round-robin turn.
        assert_eq!(q.try_pop(), Some("t1-prio"));
        assert_eq!(q.try_pop(), Some("t1-norm-a"));
        assert_eq!(q.try_pop(), Some("t1-norm-b"));
        assert_eq!(q.try_pop(), Some("t2-norm"));
    }

    #[test]
    fn wfq_quotas_shed_the_offender_and_recover_on_complete() {
        let q = Wfq::new(64, 1, TenantQuota { max_inflight: 2, max_bytes: 100 });
        q.try_push(1, 1, 40, false, 1).unwrap();
        q.try_push(1, 1, 40, false, 2).unwrap();
        // Third in-flight request breaks the count quota...
        assert_eq!(q.try_push(1, 1, 1, false, 3), Err(PushError::Quota(3)));
        // ...while another tenant is untouched.
        q.try_push(2, 1, 40, false, 4).unwrap();
        // Popping does NOT release quota — the request is still in
        // flight until completed.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(1, 1, 1, false, 5), Err(PushError::Quota(5)));
        q.complete(1, 40);
        // Count quota clears, but 40 + 70 would break the byte quota.
        assert_eq!(q.try_push(1, 1, 70, false, 6), Err(PushError::Quota(6)));
        q.try_push(1, 1, 10, false, 7).unwrap();
        // Global capacity still sheds as Full, not Quota.
        let tiny = Wfq::new(1, 1, TenantQuota::default());
        tiny.try_push(9, 1, 0, false, 1).unwrap();
        assert_eq!(tiny.try_push(8, 1, 0, false, 2), Err(PushError::Full(2)));
    }

    #[test]
    fn wfq_close_drains_then_ends_and_wakes_blocked_poppers() {
        let q = Arc::new(Wfq::<u32>::new(8, 1, TenantQuota::default()));
        let poppers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop())
            })
            .collect();
        q.try_push(5, 1, 0, false, 7).unwrap();
        q.close();
        let got: Vec<_> = poppers.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(got.iter().filter(|v| v.is_some()).count(), 1);
        assert_eq!(q.try_push(5, 1, 0, false, 8), Err(PushError::Closed(8)));
    }

    #[test]
    fn wfq_depths_snapshot_tracks_lanes() {
        let q = Wfq::new(64, 1, TenantQuota::default());
        q.try_push(3, 2, 10, false, 1).unwrap();
        q.try_push(3, 2, 10, true, 2).unwrap();
        q.try_push(1, 5, 10, false, 3).unwrap();
        assert_eq!(q.depths(), vec![(1, 5, 1, 1), (3, 2, 2, 2)]);
        q.pop().unwrap();
        q.complete(3, 10);
        assert_eq!(q.depths(), vec![(1, 5, 1, 1), (3, 2, 1, 1)]);
    }
}
