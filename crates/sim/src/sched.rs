//! The fiber rank runtime: every rank of a world runs as a cooperatively-
//! scheduled fiber over virtual time, driven by one sequential event loop
//! on the calling host thread.
//!
//! Ranks are resumable state machines (stackful fibers, [`crate::fiber`])
//! parked on their one blocking primitive — a message receive that found
//! its `(src, tag)` queue empty ([`World::take`]). The scheduler always
//! resumes the runnable rank with the **lowest virtual clock**, rank id as
//! tie-break, so host execution order is a pure function of the workload:
//! no OS wakeup races, bit-identical clocks and counters on every run.
//!
//! Why lowest-clock-first matters: message payloads and per-rank charges
//! never depend on host order (per-`(src, tag)` queues are single-producer
//! FIFO), but operations against shared stateful resources — PFS OSTs with
//! ratcheting service clocks, seeded fault draws — observe the *order* in
//! which rank segments execute. Lowest-clock-first pins that order down to
//! a pure function of the workload, which is what turns "deterministic
//! except for device-queueing races" into "deterministic".
//!
//! Error handling: a panic in any rank force-unwinds every other live
//! fiber (their park points re-raise a private `ForcedUnwind` panic, so
//! destructors on fiber stacks run) and then propagates the original
//! payload from `run`. A world where every live rank is parked with no
//! matching message in flight is reported as a deadlock.

use crate::fiber::{prepare, switch_stacks, Context, FiberStack, Payload, STACK_BYTES};
use crate::rank::Rank;
use crate::world::{Msg, World};
use std::any::Any;
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, panic_any, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Panic payload used to force parked fibers to unwind (running their
/// destructors) when another rank has panicked or the world deadlocked.
struct ForcedUnwind;

/// Heap-entry discriminant for wake entries (initial starts and handoff
/// resumes). Timer entries carry the park generation instead, which a
/// per-park increment keeps strictly below this.
const WAKE_ENTRY: u64 = u64::MAX;

/// A ready-heap key: `(virtual clock, rank id, kind)`.
type Key = (u64, usize, u64);

/// How a park ended, as seen by `World::take`/`take_deadline`.
pub(crate) enum ParkWake {
    /// A delivery matching `(src, tag)` was handed directly to the parked
    /// receiver (the common case).
    Delivered(Msg),
    /// Resumed without a message; the caller re-checks its queue.
    Spurious,
    /// The park's virtual-time deadline fired with no delivery.
    TimedOut,
}

/// A rank parked in `World::take`: what it waits for and the virtual
/// clock it parked at (its wake-up priority).
#[derive(Clone, Copy)]
struct ParkedRecv {
    src: usize,
    tag: u64,
    clock: u64,
    /// This park's generation: a stale timer entry (from an earlier park
    /// of the same rank) no longer matches and is skipped on pop.
    gen: u64,
}

struct FiberSlot {
    stack: FiberStack,
    /// Saved context while the fiber is suspended (initially the fresh
    /// image from `fiber::prepare`).
    ctx: Context,
    /// Boxed so its address is stable for the initial register image.
    payload: Box<Payload>,
    done: bool,
}

/// The event loop's state for one world. All vectors are indexed by rank.
struct Sched {
    /// Identity of the world this scheduler drives (nested `run` calls
    /// swap the active scheduler; the pointer check keeps a foreign
    /// world's primitives from parking on the wrong one).
    world: *const World,
    current: usize,
    /// Ranks still live (not finished, not crashed).
    live: usize,
    unwinding: bool,
    panic_payload: Option<Box<dyn Any + Send>>,
    /// Runnable ranks and pending park timers, ordered by `(virtual time,
    /// rank id)` ascending. The third element distinguishes wake entries
    /// (`WAKE_ENTRY`) from timer entries (the park's generation); at an
    /// equal `(time, rank)` the timer pops first and is discarded as
    /// stale if the handoff already cleared the park.
    ready: BinaryHeap<Reverse<Key>>,
    /// Per-rank park state; `Some` while blocked in `World::take`.
    waiting: Vec<Option<ParkedRecv>>,
    /// Per-rank park generation counter (see [`ParkedRecv::gen`]).
    park_seq: Vec<u64>,
    /// Set when a park's deadline fired; consumed by the resumed fiber.
    timed_out: Vec<bool>,
    /// Ranks that crash-stopped ([`crate::world::CrashStop`]).
    crashed: usize,
    /// Direct-handoff slot per rank: a delivery matching a parked
    /// receiver's `(src, tag)` lands here, bypassing the mailbox and its
    /// lock entirely (the queue is provably empty whenever the receiver
    /// is parked).
    handoff: Vec<Option<Msg>>,
    slots: Vec<FiberSlot>,
    host_ctx: Context,
}

thread_local! {
    /// The scheduler currently executing on this thread (null outside a
    /// `run` frame).
    static ACTIVE: Cell<*mut Sched> = const { Cell::new(std::ptr::null_mut()) };
}

/// The scheduler driving `world` on this thread, if the caller is one of
/// its fibers.
fn active_for(world: &World) -> Option<*mut Sched> {
    let el = ACTIVE.with(|a| a.get());
    // SAFETY: a non-null ACTIVE points at the Sched owned by the `run`
    // frame further up this same thread's (host) stack.
    (!el.is_null() && std::ptr::eq(unsafe { (*el).world }, world)).then_some(el)
}

/// True when the calling code is a fiber of a scheduler driving `world`.
pub(crate) fn scheduler_active_for(world: &World) -> bool {
    active_for(world).is_some()
}

/// Park the current rank until a message for `(src, tag)` is delivered,
/// or — when `deadline` (absolute virtual ns) is given — until that much
/// virtual time passes with no delivery. Called by `World::take`/
/// `take_deadline` after finding the queue empty; `now` is the rank's
/// virtual clock, which becomes its wake-up priority. The deadline is a
/// heap timer entry ordered with every other wake-up, so timeouts are as
/// deterministic as deliveries.
pub(crate) fn park_for_recv(
    world: &World,
    dst: usize,
    src: usize,
    tag: u64,
    now: u64,
    deadline: Option<u64>,
) -> ParkWake {
    let el = active_for(world).expect("park_for_recv outside the owning scheduler");
    // SAFETY: `el` is the live Sched of the `run` frame up this thread's
    // stack, and this borrow ends before the switch below.
    let (my, host) = unsafe {
        let el = &mut *el;
        if el.unwinding {
            // A destructor receiving during forced unwind: re-raise
            // rather than parking a fiber nobody will ever wake.
            panic_any(ForcedUnwind);
        }
        debug_assert_eq!(el.current, dst, "a rank may only take from its own mailbox");
        el.park_seq[dst] += 1;
        let gen = el.park_seq[dst];
        el.waiting[dst] = Some(ParkedRecv { src, tag, clock: now, gen });
        if let Some(d) = deadline {
            el.ready.push(Reverse((d.max(now), dst, gen)));
        }
        (&mut el.slots[dst].ctx as *mut Context, &el.host_ctx as *const Context)
    };
    // SAFETY: `my` is this fiber's own save slot and `host` holds the
    // event loop's context, saved when it switched this fiber in.
    unsafe { switch_stacks(my, host) };
    // Resumed: a matching message was handed off, the deadline fired, or
    // the world is being torn down and this fiber must unwind.
    // SAFETY: the loop that resumed us is suspended in `switch_stacks`,
    // so nothing else borrows the Sched until this fiber switches again.
    let el = unsafe { &mut *el };
    if el.unwinding {
        panic_any(ForcedUnwind);
    }
    if el.timed_out[dst] {
        el.timed_out[dst] = false;
        return ParkWake::TimedOut;
    }
    match el.handoff[dst].take() {
        Some(m) => ParkWake::Delivered(m),
        None => ParkWake::Spurious,
    }
}

/// Delivery fast path: if `dst` is parked on exactly `(src, tag)`, hand
/// the message straight to it and mark it runnable at its park-time
/// clock. Returns the message back when no such receiver is parked (or
/// no scheduler drives `world`); the caller then queues it.
pub(crate) fn try_handoff(world: &World, dst: usize, src: usize, tag: u64, msg: Msg) -> Option<Msg> {
    let Some(el) = active_for(world) else {
        return Some(msg);
    };
    // SAFETY: the calling fiber's own Sched; a short borrow with no
    // context switch inside.
    let el = unsafe { &mut *el };
    match el.waiting[dst] {
        Some(w) if w.src == src && w.tag == tag => {
            el.waiting[dst] = None;
            el.handoff[dst] = Some(msg);
            el.ready.push(Reverse((w.clock, dst, WAKE_ENTRY)));
            None
        }
        _ => Some(msg),
    }
}

/// Resume every live fiber so it unwinds (running destructors) and marks
/// itself done. Park points re-raise `ForcedUnwind`; never-started fibers
/// skip their body.
///
/// # Safety
/// `el` must be the pinned Sched of the calling `run` frame, with ACTIVE
/// still pointing at it, called from the host context (no fiber running).
unsafe fn force_unwind(el: *mut Sched) {
    // SAFETY: caller contract; the borrow ends at the statement's end.
    let count = unsafe {
        (*el).unwinding = true;
        (*el).slots.len()
    };
    for r in 0..count {
        // Scoped borrow: must end before the switch hands control to a
        // fiber that will re-borrow the scheduler from its own park point.
        let (host, fctx) = {
            // SAFETY: caller guarantees `el` outlives every fiber.
            let el = unsafe { &mut *el };
            if el.slots[r].done {
                continue;
            }
            el.current = r;
            (&mut el.host_ctx as *mut Context, &el.slots[r].ctx as *const Context)
        };
        // SAFETY: fctx is a live suspended fiber (not done).
        unsafe { switch_stacks(host, fctx) };
        // SAFETY: host context again; the fiber is parked or done.
        debug_assert!(unsafe { (&(*el).slots)[r].done }, "forced unwind left rank {r} live");
    }
}

/// Restores the caller's scheduler and a cold flatten cache when a `run`
/// frame ends, whether it returns or unwinds.
struct Activation {
    prev: *mut Sched,
}

impl Drop for Activation {
    fn drop(&mut self) {
        ACTIVE.with(|a| a.set(self.prev));
        // Leave the host thread's flatten cache as cold as we found our
        // own: scope 0 restored for direct (non-simulated) callers.
        flexio_types::flatten::set_flatten_scope(0);
        flexio_types::flatten::reset_flatten_cache();
    }
}

/// Drive all ranks of `world` to completion on the calling thread and
/// return their results in rank order: `None` for crash-stopped ranks,
/// `Some` for the rest. A rank panic propagates, as does a deadlock.
pub(crate) fn run_event_loop<R, F>(world: Arc<World>, f: F) -> Vec<Option<R>>
where
    R: Send,
    F: Fn(&Rank) -> R + Sync,
{
    let nprocs = world.nprocs();
    let mut results: Vec<Option<R>> = (0..nprocs).map(|_| None).collect();
    let results_base = results.as_mut_ptr();
    // Every simulated MPI process starts with a cold flatten cache, no
    // matter what an earlier world on this host thread left behind.
    flexio_types::flatten::reset_flatten_cache();
    let mut el = Sched {
        world: Arc::as_ptr(&world),
        current: 0,
        live: nprocs,
        unwinding: false,
        panic_payload: None,
        ready: BinaryHeap::with_capacity(nprocs),
        waiting: vec![None; nprocs],
        park_seq: vec![0; nprocs],
        timed_out: vec![false; nprocs],
        crashed: 0,
        handoff: (0..nprocs).map(|_| None).collect(),
        slots: Vec::with_capacity(nprocs),
        host_ctx: Context::null(),
    };
    for _ in 0..nprocs {
        el.slots.push(FiberSlot {
            stack: FiberStack::new(),
            ctx: Context::null(),
            payload: Box::new(Payload {
                run: None,
                final_ctx: (std::ptr::null_mut(), std::ptr::null()),
            }),
            done: false,
        });
    }
    // From here on `el` must not move: fibers hold raw pointers into it.
    let el_ptr: *mut Sched = &mut el;
    let f = &f;
    for r in 0..nprocs {
        let world = Arc::clone(&world);
        let res_ptr = results_base.wrapping_add(r);
        let body = move || {
            // SAFETY: this closure only ever runs as a fiber of the loop
            // below, inside this frame, which owns `el`.
            let should_run = unsafe { !(*el_ptr).unwinding };
            if should_run {
                let reap_world = Arc::clone(&world);
                let rank = Rank::new(world, r);
                let outcome = catch_unwind(AssertUnwindSafe(|| f(&rank)));
                // SAFETY: `res_ptr` is this rank's own element of
                // `results`, which outlives every fiber; `el_ptr` as
                // above, with no context switch inside this block.
                unsafe {
                    match outcome {
                        Ok(v) => *res_ptr = Some(v),
                        Err(p) => {
                            let el = &mut *el_ptr;
                            if p.is::<crate::world::CrashStop>() {
                                // Crash-stop: the rank is gone, the world
                                // goes on. Reap its mailbox, park state,
                                // and any pending handoff so no scheduler
                                // structure — deadlock reports included —
                                // ever lists it again. Its result slot
                                // stays `None`.
                                el.crashed += 1;
                                el.waiting[r] = None;
                                el.handoff[r] = None;
                                reap_world.reap_rank(r);
                            } else if !p.is::<ForcedUnwind>() && el.panic_payload.is_none() {
                                el.panic_payload = Some(p);
                            }
                        }
                    }
                }
            }
            // SAFETY: as above; exclusive access, no switch inside.
            unsafe {
                let el = &mut *el_ptr;
                el.slots[r].done = true;
                el.live -= 1;
            }
        };
        // Erase the borrow of `f`/`results`: the fibers are all driven to
        // completion (or force-unwound) before this frame returns, so the
        // 'static lifetime is never actually relied upon past it.
        let body: Box<dyn FnOnce()> = Box::new(body);
        // SAFETY: only the lifetime changes; see the comment above.
        let body: Box<dyn FnOnce() + 'static> = unsafe { std::mem::transmute(body) };
        let slot = &mut el.slots[r];
        slot.payload.run = Some(body);
        slot.payload.final_ctx = (&mut slot.ctx as *mut Context, &el.host_ctx as *const Context);
        slot.ctx = prepare(&slot.stack, &mut *slot.payload as *mut Payload);
        el.ready.push(Reverse((0, r, WAKE_ENTRY)));
    }

    // Nested `run` calls (a rank driving an inner world) save and restore
    // the outer scheduler around their own.
    let _activation = Activation { prev: ACTIVE.with(|a| a.replace(el_ptr)) };
    // SAFETY: `el` stays pinned in this frame until every fiber is done
    // or unwound, and ACTIVE points at it for the whole drive.
    unsafe { drive(el_ptr) };
    if let Some(p) = el.panic_payload.take() {
        resume_unwind(p);
    }
    results
}

/// The event loop: repeatedly pop the lowest `(clock, rank, kind)` key
/// and run that rank's segment until every rank is done. Panics on
/// deadlock (after unwinding every fiber) and on a fiber stack overflow.
///
/// # Safety
/// Same contract as [`force_unwind`].
unsafe fn drive(el_ptr: *mut Sched) {
    loop {
        // SAFETY: here and in the blocks below, all Sched access happens
        // on the host context in scopes that end before any context
        // switch.
        let next = unsafe {
            let el = &mut *el_ptr;
            if el.live == 0 {
                break;
            }
            el.ready.pop()
        };
        let Some(Reverse((_clock, r, kind))) = next else {
            // Live ranks but nothing runnable: every one of them is parked
            // on a receive no one will ever send. Report and unwind.
            // SAFETY: as above.
            let diag = unsafe {
                let el = &*el_ptr;
                deadlock_message(&el.waiting, el.live, el.crashed)
            };
            // SAFETY: this function's own contract.
            unsafe { force_unwind(el_ptr) };
            panic!("flexio-sim event loop deadlock: {diag}");
        };
        // Scoped borrow; must end before switching into the fiber.
        let (host, fctx) = {
            // SAFETY: as above.
            let el = unsafe { &mut *el_ptr };
            if el.slots[r].done {
                continue;
            }
            if kind != WAKE_ENTRY {
                // A park timer. It fires only if the rank is still in the
                // very park that set it (same generation); a handoff that
                // beat the deadline — or any later park — makes it stale.
                match el.waiting[r] {
                    Some(w) if w.gen == kind => {
                        el.waiting[r] = None;
                        el.timed_out[r] = true;
                    }
                    _ => continue,
                }
            } else {
                debug_assert!(el.waiting[r].is_none(), "wake entry for a parked rank");
            }
            el.current = r;
            (&mut el.host_ctx as *mut Context, &el.slots[r].ctx as *const Context)
        };
        // One flatten-cache scope per rank, as each MPI process has its
        // own cache.
        flexio_types::flatten::set_flatten_scope(r as u64);
        // SAFETY: fctx is a live suspended (or fresh) fiber context.
        unsafe { switch_stacks(host, fctx) };
        // SAFETY: as above.
        let need_unwind = unsafe {
            let el = &mut *el_ptr;
            assert!(
                el.slots[r].stack.canary_ok(),
                "rank {r} overflowed its {STACK_BYTES}-byte fiber stack"
            );
            el.panic_payload.is_some() && !el.unwinding
        };
        if need_unwind {
            // SAFETY: this function's own contract.
            unsafe { force_unwind(el_ptr) };
        }
    }
}

/// Human-readable summary of who is stuck waiting on what.
fn deadlock_message(waiting: &[Option<ParkedRecv>], live: usize, crashed: usize) -> String {
    let mut parked: Vec<String> = waiting
        .iter()
        .enumerate()
        .filter_map(|(r, w)| {
            w.map(|w| format!("rank {r} (clock {} ns) <- recv(src={}, tag={})", w.clock, w.src, w.tag))
        })
        .collect();
    let shown = parked.len().min(8);
    let elided = parked.len() - shown;
    parked.truncate(shown);
    let mut s = format!("{live} of {} ranks parked with no message in flight: ", waiting.len());
    s.push_str(&parked.join("; "));
    if elided > 0 {
        s.push_str(&format!("; … and {elided} more"));
    }
    if crashed > 0 {
        // Dead ranks are reaped at crash time, so they never appear in
        // the parked list above — only this tally mentions them.
        s.push_str(&format!(" ({crashed} rank(s) crash-stopped earlier)"));
    }
    s
}

#[cfg(test)]
mod tests {
    use crate::cost::CostModel;
    use crate::world::{run, run_crashable};
    use crate::Phase;

    /// A workload exercising every park point: p2p, barrier, bcast,
    /// allgatherv, alltoallv, exchange, gatherv/scatterv, overlap windows.
    fn mixed_workload(r: &crate::rank::Rank) -> (u64, crate::rank::Stats, Vec<u8>) {
        let p = r.nprocs();
        let next = (r.rank() + 1) % p;
        let prev = (r.rank() + p - 1) % p;
        r.send(next, 1, &[r.rank() as u8; 32]);
        let got = r.recv(prev, 1);
        r.charge_pairs(got.len() as u64);
        r.barrier();
        let seed = r.bcast(0, if r.rank() == 0 { vec![7; 16] } else { vec![] });
        let all = r.allgatherv(&[r.rank() as u8, seed[0]]);
        let blocks: Vec<Vec<u8>> = (0..p).map(|d| vec![(r.rank() * p + d) as u8; 5]).collect();
        let x = r.alltoallv(blocks);
        let w = r.overlap_begin(r.now() + 10_000, Phase::Io);
        r.charge_memcpy(4096);
        r.overlap_complete(w);
        let g = r.gatherv(0, &x[prev]);
        let s = r.scatterv(0, if r.rank() == 0 { g } else { Vec::new() });
        let mut img: Vec<u8> = s;
        img.extend(all.into_iter().flatten());
        (r.now(), r.stats(), img)
    }

    #[test]
    fn event_loop_is_bit_identical_across_runs() {
        for p in [1, 2, 5, 8] {
            let ev1 = run(p, CostModel::default(), mixed_workload);
            let ev2 = run(p, CostModel::default(), mixed_workload);
            assert_eq!(ev1, ev2, "event loop must be deterministic (p={p})");
        }
    }

    #[test]
    fn large_world_completes() {
        // O(p log p) traffic only (dissemination barrier + neighbour ring):
        // the O(p^2) collectives at this scale live in the release-mode
        // scale smoke test, not tier-1.
        let p = 2048;
        let out = run(p, CostModel::default(), |r| {
            r.send((r.rank() + 1) % p, 3, &(r.rank() as u64).to_le_bytes());
            let got = r.recv((r.rank() + p - 1) % p, 3);
            r.barrier();
            u64::from_le_bytes(got.try_into().unwrap())
        });
        for (r, &g) in out.iter().enumerate() {
            assert_eq!(g, ((r + p - 1) % p) as u64);
        }
    }

    #[test]
    fn deadlock_is_detected_not_hung() {
        let got = std::panic::catch_unwind(|| {
            run(2, CostModel::free(), |r| {
                // Both ranks receive a message nobody sends.
                let _ = r.recv((r.rank() + 1) % 2, 9);
            })
        });
        let err = got.expect_err("deadlocked world must panic");
        let msg = err.downcast_ref::<String>().expect("panic carries a String");
        assert!(msg.contains("deadlock"), "unexpected message: {msg}");
        assert!(msg.contains("tag=9"), "diagnostics should name the tag: {msg}");
    }

    #[test]
    fn deadlock_report_is_deterministic() {
        let report = || {
            let got = std::panic::catch_unwind(|| {
                run(3, CostModel::free(), |r| {
                    let _ = r.recv((r.rank() + 1) % 3, 9);
                })
            });
            let err = got.expect_err("deadlocked world must panic");
            err.downcast_ref::<String>().expect("panic carries a String").clone()
        };
        let first = report();
        assert!(first.contains("3 of 3 ranks parked"), "unexpected report: {first}");
        assert_eq!(first, report(), "deadlock diagnostics diverge across runs");
    }

    #[test]
    fn rank_panic_propagates_and_unwinds_peers() {
        let got = std::panic::catch_unwind(|| {
            run(4, CostModel::free(), |r| {
                if r.rank() == 2 {
                    panic!("boom from rank 2");
                }
                // Peers park forever; they must be force-unwound, not leaked.
                let _ = r.recv((r.rank() + 1) % 4, 1);
            })
        });
        let err = got.expect_err("rank panic must propagate");
        let msg = err.downcast_ref::<&str>().expect("original payload propagates");
        assert_eq!(*msg, "boom from rank 2");
    }

    #[test]
    fn drops_run_on_abandoned_stacks() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Probe;
        impl Drop for Probe {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let _ = std::panic::catch_unwind(|| {
            run(3, CostModel::free(), |r| {
                let _probe = Probe;
                // Ranks 0 and 1 run first (lower ids at clock 0) and park
                // with a live Probe on their fiber stacks; then rank 2
                // panics and the scheduler must unwind the parked two.
                if r.rank() == 2 {
                    panic!("teardown");
                }
                let _ = r.recv(r.rank(), 5); // parks forever
            })
        });
        assert_eq!(
            DROPS.load(Ordering::SeqCst),
            3,
            "every rank's locals must be dropped, including parked fibers"
        );
    }

    #[test]
    fn nested_worlds_inside_a_fiber() {
        let out = run(3, CostModel::free(), |r| {
            // Each rank drives its own inner world from fiber context.
            let inner = run(2, CostModel::free(), |ir| ir.allreduce_sum(ir.rank() as u64 + 1));
            r.allreduce_sum(inner[0])
        });
        assert_eq!(out, vec![9, 9, 9]);
    }

    #[test]
    fn crash_stop_survivors_complete() {
        // Rank 2 crashes at its first checkpoint; survivors re-form the
        // world as a subgroup and finish a collective. Crashed slot None.
        let out = run_crashable(4, CostModel::free(), &[(2, 0)], |r| {
            r.maybe_crash();
            let comm = r.subgroup(&[0, 1, 3]);
            comm.allreduce_sum(r.rank() as u64)
        });
        assert!(out[2].is_none(), "crashed rank must not produce a result");
        for (i, v) in out.iter().enumerate() {
            if i != 2 {
                assert_eq!(*v, Some(4), "survivor {i} must complete the collective");
            }
        }
    }

    #[test]
    fn crashed_rank_runs_destructors() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Probe;
        impl Drop for Probe {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        DROPS.store(0, Ordering::SeqCst);
        let out = run_crashable(2, CostModel::free(), &[(1, 0)], |r| {
            let _probe = Probe;
            r.maybe_crash();
            r.rank()
        });
        assert_eq!(out, vec![Some(0), None]);
        assert_eq!(DROPS.load(Ordering::SeqCst), 2, "crash unwind must drop locals");
    }

    #[test]
    fn recv_timeout_is_deterministic() {
        // Nothing ever arrives: the watchdog fires at exactly the
        // deadline, twice in a row.
        for _ in 0..2 {
            let out = run_crashable(2, CostModel::free(), &[(1, 0)], |r| {
                r.maybe_crash();
                let got = r.recv_timeout(1, 5, 12_345);
                (got.is_none(), r.now())
            });
            assert_eq!(out[0], Some((true, 12_345)));
        }
    }

    #[test]
    fn recv_timeout_delivers_before_deadline() {
        let out = run_crashable(2, CostModel::free(), &[], |r| {
            if r.rank() == 1 {
                r.send(0, 5, b"hb");
                0
            } else {
                r.recv_timeout(1, 5, 1_000_000).expect("must arrive in time").len()
            }
        });
        assert_eq!(out[0], Some(2));
    }

    #[test]
    fn stale_park_timer_is_skipped() {
        // Rank 0's first timed park is satisfied long before its deadline;
        // the leftover timer entry must not disturb the second, untimed
        // park (generation check).
        let out = run_crashable(2, CostModel::default(), &[], |r| {
            if r.rank() == 1 {
                r.send(0, 1, b"fast");
                r.advance(50_000_000); // well past rank 0's first deadline
                r.send(0, 2, b"late");
                Vec::new()
            } else {
                let a = r.recv_timeout(1, 1, r.now() + 10_000_000).expect("fast msg");
                let b = r.recv(1, 2);
                [a, b].concat()
            }
        });
        assert_eq!(out[0].as_deref(), Some(b"fastlate".as_slice()));
    }

    #[test]
    fn deadlock_report_never_lists_crashed_ranks() {
        let got = std::panic::catch_unwind(|| {
            run_crashable(3, CostModel::free(), &[(1, 0)], |r| {
                r.maybe_crash();
                // Ranks 0 and 2 wait on the dead rank forever: deadlock.
                let _ = r.recv(1, 9);
            })
        });
        let err = got.expect_err("deadlocked world must panic");
        let msg = err.downcast_ref::<String>().expect("panic carries a String");
        assert!(msg.contains("deadlock"), "unexpected message: {msg}");
        assert!(msg.contains("crash-stopped"), "report should tally crashes: {msg}");
        assert!(
            !msg.contains("rank 1 ("),
            "dead ranks must be reaped out of the parked list: {msg}"
        );
    }

    #[test]
    fn messages_to_dead_ranks_are_dropped() {
        // The survivor eagerly sends to the dead rank; nothing leaks, the
        // world still terminates cleanly.
        let out = run_crashable(2, CostModel::free(), &[(1, 0)], |r| {
            if r.rank() == 0 {
                r.recv_timeout(1, 7, 1_000); // let rank 1 die first
                for _ in 0..4 {
                    r.send(1, 3, &[0; 64]);
                }
            } else {
                r.maybe_crash();
            }
            r.rank()
        });
        assert_eq!(out, vec![Some(0), None]);
    }
}
