//! The shared world: mailboxes, crash state, and the `run` entry points.

use crate::cost::CostModel;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Panic payload raised by [`crate::rank::Rank::maybe_crash`] when a rank
/// reaches its scheduled crash time: the scheduler recognizes it, marks
/// the rank dead (reaping its mailbox), and keeps driving the survivors —
/// the simulation analogue of a crash-stop process failure.
pub(crate) struct CrashStop;

/// A message in flight: payload plus the virtual time it becomes available
/// at the receiver.
#[derive(Debug)]
pub(crate) struct Msg {
    pub data: Vec<u8>,
    pub avail_at: u64,
}

/// Multiply-rotate hasher for the mailbox queue map. The keys are small
/// fixed-size `(src, tag)` pairs from trusted (in-process) senders, and
/// every message pays two to three lookups — SipHash was a measurable
/// slice of the per-message cost at host_scale rank counts.
#[derive(Default)]
pub(crate) struct TagHasher(u64);

impl Hasher for TagHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        // Fibonacci-style multiply spreads entropy into the high bits;
        // the rotate brings it back down for the table index.
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(26);
    }
}

type QueueMap = HashMap<(usize, u64), VecDeque<Msg>, BuildHasherDefault<TagHasher>>;

/// Inline mailbox slots per rank, indexed by `tag % MAILBOX_SLOTS`.
/// Collective tags carry their step in the low bits, and measured
/// alltoallv senders stay well under 64 steps ahead of their receivers,
/// so almost every queued message lands in a slot; only the deep
/// allgatherv ring spills to the overflow map.
const MAILBOX_SLOTS: usize = 64;

/// A queued message and the `(src, tag)` key it was sent on.
struct Slot {
    src: usize,
    tag: u64,
    msg: Msg,
}

/// The mutex-protected contents of a [`Mailbox`]: a fixed array of slots
/// in front of the `(src, tag) → FIFO` overflow map.
///
/// FIFO invariant: for any key, a slot holds at most its *oldest* queued
/// message. A delivery takes the key's slot only when the slot is free and
/// the map holds no queue for the key; otherwise it appends to the map.
/// So while a slot holds a key, every later message of that key sits
/// behind it in the map, and a pop that checks the slot first returns
/// messages of one key in arrival order.
struct MailboxState {
    slots: [Option<Slot>; MAILBOX_SLOTS],
    overflow: QueueMap,
}

/// One rank's incoming-message store. Only deliveries that found no
/// matching parked receiver land here. A slot hit costs no hashing and no
/// allocation; a drained overflow queue is removed, so unique collective
/// tags cannot grow the map without bound. The mutex keeps `World`
/// `Sync`; only one rank runs at a time, so it is never contended.
pub(crate) struct Mailbox {
    state: Mutex<MailboxState>,
}

impl Mailbox {
    fn new() -> Self {
        Mailbox {
            state: Mutex::new(MailboxState {
                slots: std::array::from_fn(|_| None),
                overflow: QueueMap::default(),
            }),
        }
    }

    /// Queue `msg` from `(src, tag)` behind any earlier message of the
    /// same key.
    fn push(&self, src: usize, tag: u64, msg: Msg) {
        let mut st = self.state.lock().unwrap();
        let st = &mut *st;
        let slot = &mut st.slots[tag as usize % MAILBOX_SLOTS];
        if slot.is_none() && (st.overflow.is_empty() || !st.overflow.contains_key(&(src, tag))) {
            *slot = Some(Slot { src, tag, msg });
            return;
        }
        st.overflow.entry((src, tag)).or_default().push_back(msg);
    }

    /// Pop the oldest queued message from `(src, tag)`, if any: the slot
    /// first (it holds the key's oldest message when it holds the key at
    /// all), then the overflow map, removing a queue that this drains.
    fn pop(&self, src: usize, tag: u64) -> Option<Msg> {
        let mut st = self.state.lock().unwrap();
        let slot = &mut st.slots[tag as usize % MAILBOX_SLOTS];
        if slot.as_ref().is_some_and(|s| s.src == src && s.tag == tag) {
            return slot.take().map(|s| s.msg);
        }
        if st.overflow.is_empty() {
            return None;
        }
        if let Entry::Occupied(mut e) = st.overflow.entry((src, tag)) {
            let m = e.get_mut().pop_front().expect("empty queue left in mailbox map");
            if e.get().is_empty() {
                e.remove();
            }
            return Some(m);
        }
        None
    }

    /// Drop everything queued.
    fn clear(&self) {
        let mut st = self.state.lock().unwrap();
        st.slots.iter_mut().for_each(|s| *s = None);
        st.overflow.clear();
    }
}

/// The shared state of a simulated MPI world.
pub struct World {
    pub(crate) nprocs: usize,
    pub(crate) cost: CostModel,
    pub(crate) mailboxes: Vec<Mailbox>,
    /// Scheduled crash-stop time per rank, virtual ns (`u64::MAX` =
    /// never). Checked by [`crate::rank::Rank::maybe_crash`].
    pub(crate) crash_at: Vec<u64>,
    /// Ranks that have crash-stopped: deliveries to them are dropped.
    pub(crate) dead: Vec<AtomicBool>,
}

impl World {
    /// Create a world of `nprocs` ranks with the given cost model.
    pub fn new(nprocs: usize, cost: CostModel) -> Arc<World> {
        Self::with_crashes(nprocs, cost, &[])
    }

    /// [`World::new`] plus a crash-stop schedule: each `(rank, at_ns)`
    /// entry kills that rank's fiber at its first [`Rank::maybe_crash`]
    /// check at or past `at_ns` of virtual time.
    ///
    /// [`Rank::maybe_crash`]: crate::rank::Rank::maybe_crash
    pub fn with_crashes(nprocs: usize, cost: CostModel, crashes: &[(usize, u64)]) -> Arc<World> {
        assert!(nprocs > 0, "world needs at least one rank");
        let mut crash_at = vec![u64::MAX; nprocs];
        for &(r, at) in crashes {
            assert!(r < nprocs, "crash rank {r} out of range for {nprocs} ranks");
            crash_at[r] = crash_at[r].min(at);
        }
        Arc::new(World {
            nprocs,
            cost,
            mailboxes: (0..nprocs).map(|_| Mailbox::new()).collect(),
            crash_at,
            dead: (0..nprocs).map(|_| AtomicBool::new(false)).collect(),
        })
    }

    /// The scheduled crash time of `rank` (`u64::MAX` = never).
    pub(crate) fn crash_time(&self, rank: usize) -> u64 {
        self.crash_at[rank]
    }

    /// Whether `rank` has crash-stopped.
    pub(crate) fn is_dead(&self, rank: usize) -> bool {
        self.dead[rank].load(Ordering::Relaxed)
    }

    /// Mark `rank` dead and drop everything queued in its mailbox, so the
    /// scheduler's deadlock diagnostics and memory footprint never carry
    /// already-dead ranks.
    pub(crate) fn reap_rank(&self, rank: usize) {
        self.dead[rank].store(true, Ordering::Relaxed);
        self.mailboxes[rank].clear();
    }

    /// Number of ranks.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The world's cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    pub(crate) fn deliver(&self, dst: usize, src: usize, tag: u64, msg: Msg) {
        // Messages to a crash-stopped rank fall on the floor, exactly like
        // packets to a dead host.
        if self.is_dead(dst) {
            return;
        }
        // Fast path: a receiver already parked on exactly `(src, tag)`
        // gets the message handed to it directly. When it is parked, its
        // queue is provably empty — it drained the queue before parking —
        // so FIFO order holds.
        let Some(msg) = crate::sched::try_handoff(self, dst, src, tag, msg) else {
            return;
        };
        self.mailboxes[dst].push(src, tag, msg);
    }

    /// Pop the next message from `(src, tag)` for rank `dst`, parking the
    /// caller until one arrives. `now` is the receiver's virtual clock —
    /// its wake-up priority.
    pub(crate) fn take(&self, dst: usize, src: usize, tag: u64, now: u64) -> Msg {
        assert!(
            crate::sched::scheduler_active_for(self),
            "recv outside the rank runtime (ranks only run inside flexio_sim::run)"
        );
        loop {
            if let Some(m) = self.mailboxes[dst].pop(src, tag) {
                return m;
            }
            // Parking resumes with the message in hand when the delivery
            // matched (the common case); a spurious resume re-checks the
            // queue.
            match crate::sched::park_for_recv(self, dst, src, tag, now, None) {
                crate::sched::ParkWake::Delivered(m) => return m,
                crate::sched::ParkWake::Spurious => continue,
                crate::sched::ParkWake::TimedOut => {
                    unreachable!("deadline-free park cannot time out")
                }
            }
        }
    }

    /// [`World::take`] with a virtual-time watchdog: returns `None` when
    /// no matching message has been delivered by `deadline` (absolute
    /// virtual ns). The deterministic timer is a scheduler feature, and
    /// crash detection is what needs it.
    pub(crate) fn take_deadline(
        &self,
        dst: usize,
        src: usize,
        tag: u64,
        now: u64,
        deadline: u64,
    ) -> Option<Msg> {
        assert!(
            crate::sched::scheduler_active_for(self),
            "recv_timeout outside the rank runtime (ranks only run inside flexio_sim::run)"
        );
        loop {
            if let Some(m) = self.mailboxes[dst].pop(src, tag) {
                return Some(m);
            }
            match crate::sched::park_for_recv(self, dst, src, tag, now, Some(deadline)) {
                crate::sched::ParkWake::Delivered(m) => return Some(m),
                crate::sched::ParkWake::Spurious => continue,
                // Re-check once: a delivery racing the timer entry would
                // have been queued, not handed off.
                crate::sched::ParkWake::TimedOut => {
                    return self.mailboxes[dst].pop(src, tag)
                }
            }
        }
    }
}

/// Run `f` on every rank of a fresh world and return the per-rank results
/// in rank order. Panics in any rank propagate.
pub fn run<R, F>(nprocs: usize, cost: CostModel, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&crate::rank::Rank) -> R + Sync,
{
    crate::sched::run_event_loop(World::new(nprocs, cost), f)
        .into_iter()
        .map(|r| r.expect("rank finished without a result"))
        .collect()
}

/// Run `f` on every rank of a fresh world carrying a crash-stop schedule:
/// each `(rank, at_ns)` pair kills that rank at its first
/// [`Rank::maybe_crash`] check at or past `at_ns` of virtual time.
/// Crashed ranks return `None`; survivors return `Some`.
///
/// [`Rank::maybe_crash`]: crate::rank::Rank::maybe_crash
pub fn run_crashable<R, F>(
    nprocs: usize,
    cost: CostModel,
    crashes: &[(usize, u64)],
    f: F,
) -> Vec<Option<R>>
where
    R: Send,
    F: Fn(&crate::rank::Rank) -> R + Sync,
{
    crate::sched::run_event_loop(World::with_crashes(nprocs, cost, crashes), f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_returns_rank_order() {
        let out = run(4, CostModel::free(), |r| r.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    fn msg(b: u8) -> Msg {
        Msg { data: vec![b], avail_at: b as u64 }
    }

    fn pop(mb: &Mailbox, src: usize, tag: u64) -> Option<u8> {
        mb.pop(src, tag).map(|m| m.data[0])
    }

    #[test]
    fn slot_then_overflow_pop_in_arrival_order() {
        let mb = Mailbox::new();
        mb.push(3, 70, msg(1)); // the key's slot
        mb.push(3, 70, msg(2)); // slot busy: behind it in the map
        assert_eq!(pop(&mb, 3, 70), Some(1));
        assert_eq!(pop(&mb, 3, 70), Some(2));
        assert_eq!(pop(&mb, 3, 70), None);
    }

    #[test]
    fn colliding_keys_spill_and_slots_are_reused_in_order() {
        let slot = 6;
        let other_tag = slot + MAILBOX_SLOTS as u64;
        let mb = Mailbox::new();
        mb.push(1, slot, msg(1)); // takes the slot
        mb.push(2, slot, msg(2)); // same slot, other source: map
        mb.push(1, other_tag, msg(3)); // same slot, other tag: map
        assert_eq!(pop(&mb, 2, slot), Some(2));
        mb.push(1, other_tag, msg(4)); // slot still held by (1, slot): map
        mb.push(1, other_tag, msg(5));
        assert_eq!(pop(&mb, 1, slot), Some(1)); // frees the slot
        // The slot is free, but (1, other_tag) still has a map queue, so
        // the newer message must queue behind it, not jump into the slot.
        mb.push(1, other_tag, msg(6));
        assert_eq!(pop(&mb, 1, other_tag), Some(3));
        assert_eq!(pop(&mb, 1, other_tag), Some(4));
        assert_eq!(pop(&mb, 1, other_tag), Some(5));
        assert_eq!(pop(&mb, 1, other_tag), Some(6));
        // Map drained: the next delivery reuses the slot.
        mb.push(1, other_tag, msg(7));
        assert!(mb.state.lock().unwrap().overflow.is_empty());
        assert_eq!(pop(&mb, 1, other_tag), Some(7));
        assert_eq!(pop(&mb, 1, other_tag), None);
    }

    #[test]
    fn clear_drops_slots_and_overflow() {
        let mb = Mailbox::new();
        mb.push(0, 1, msg(1));
        mb.push(0, 1, msg(2));
        mb.clear();
        assert_eq!(pop(&mb, 0, 1), None);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = World::new(0, CostModel::free());
    }
}
