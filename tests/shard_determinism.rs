//! Scheduler determinism harness: crash-stop, park timers, deadlock
//! detection and per-`(src, tag)` message order on the sequential event
//! loop, each checked for bit-identity across two runs.
//!
//! * **Crash-stop and park timers** — a crashed rank's neighbour times out
//!   on the message that never comes; the outcome repeats exactly.
//! * **Deadlock detection** — a world parked on a message nobody sends is
//!   reported with a fixed diagnostic, never hung.
//! * A randomized **message-ordering property** over
//!   `flexio_sim::prop`: per-`(src, tag)` FIFO order and run-twice
//!   bit-identity across random world sizes, fanouts, virtual-clock skews
//!   and send/receive scripts (regressions pinned in
//!   `shard_determinism.proptest-regressions`). Tags share a few residues
//!   mod 64 (the mailbox slot index) and repeat in bursts, and receives
//!   take part of a key's queue before parking on another key, so slot
//!   hits, spills to the overflow map and slot reuse after a drain all
//!   happen.
//!
//! The file and test names that mention shards predate the removal of the
//! sharded host-thread pool; they are kept so the test IDs stay stable.

use flexio::sim::{run, run_crashable, CostModel, Rank, XorShift64Star};

#[test]
fn crash_stop_is_deterministic_under_shards() {
    // Rank 2 crash-stops at its checkpoint; its neighbour times out on
    // the missing message and everyone else finishes normally.
    let crashes = [(2usize, 10u64)];
    let body = |r: &Rank| {
        let p = r.nprocs();
        r.advance(r.rank() as u64 * 11);
        r.maybe_crash();
        r.send((r.rank() + 1) % p, 1, &[r.rank() as u8; 8]);
        let first = r.recv_timeout((r.rank() + p - 1) % p, 1, r.now() + 500);
        (r.now(), first.map(|v| v[0]))
    };
    let a = run_crashable(5, CostModel::default(), &crashes, body);
    let b = run_crashable(5, CostModel::default(), &crashes, body);
    assert_eq!(a, b, "crash-stop outcome diverges across runs");
    assert!(a[2].is_none(), "the crashed rank must have no result");
    assert_eq!(a[3].map(|(_, first)| first), Some(None), "rank 3 must time out on the dead rank");
}

#[test]
fn deadlock_is_detected_under_shards() {
    // All ranks park on a message nobody sends; the loop must raise its
    // diagnostic, not hang.
    let deadlocked = || {
        run(4, CostModel::default(), |r: &Rank| {
            r.recv((r.rank() + 1) % r.nprocs(), 42);
        });
    };
    let err = std::panic::catch_unwind(deadlocked).expect_err("deadlock must panic");
    let msg = err.downcast_ref::<String>().map(String::as_str).unwrap_or_default();
    assert!(
        msg.contains("deadlock") && msg.contains("4 of 4 ranks parked"),
        "unexpected deadlock diagnostic: {msg:?}"
    );
}

/// One step of the ordering script: send or receive `n` messages on
/// `tag` to/from the rank `d` places ahead/behind in the ring.
#[derive(Debug, Clone, Copy)]
enum Op {
    Send { d: usize, tag: u64, n: u8 },
    Recv { d: usize, tag: u64, n: u8 },
}

/// Random parameters for the ordering property: every rank runs the same
/// script of sends and receives.
#[derive(Debug)]
struct OrderCase {
    nprocs: usize,
    skew: u64,
    /// Tags are drawn from a few residues mod 64 (the mailbox slot index),
    /// so keys share slots, and each send is a burst on one `(src, tag)`.
    /// A receive never takes more than the script has sent on its key so
    /// far, so the script cannot deadlock; receives that take part of a
    /// key's queue and then park on another key let the sender append to
    /// that key while its older messages are still queued.
    script: Vec<Op>,
}

impl OrderCase {
    fn draw(rng: &mut XorShift64Star) -> OrderCase {
        let nprocs = 2 + (rng.next_u64() % 9) as usize; // 2..=10
        // An unused draw, kept so the pinned seeds replay the same cases.
        let _ = rng.next_u64();
        let fanout = (1 + (rng.next_u64() % 2) as usize).min(nprocs - 1); // 1..=2
        let residues: Vec<u64> = (0..1 + rng.next_u64() % 3).map(|_| rng.next_u64() % 64).collect();
        let mut pending = std::collections::BTreeMap::<(usize, u64), u8>::new();
        let mut script = Vec::new();
        for _ in 0..4 + rng.next_u64() % 21 {
            let d = 1 + (rng.next_u64() % fanout as u64) as usize;
            let residue = residues[(rng.next_u64() % residues.len() as u64) as usize];
            let tag = residue + 64 * (rng.next_u64() % 3);
            let queued = pending.get(&(d, tag)).copied().unwrap_or(0);
            if queued > 0 && rng.next_u64().is_multiple_of(2) {
                let n = 1 + (rng.next_u64() % queued as u64) as u8;
                pending.insert((d, tag), queued - n);
                script.push(Op::Recv { d, tag, n });
            } else {
                let n = 1 + (rng.next_u64() % 4) as u8;
                pending.insert((d, tag), queued + n);
                script.push(Op::Send { d, tag, n });
            }
        }
        // Drain whatever is still queued.
        for ((d, tag), n) in pending {
            if n > 0 {
                script.push(Op::Recv { d, tag, n });
            }
        }
        OrderCase { nprocs, skew: rng.next_u64() % 97, script }
    }
}

#[test]
fn cross_shard_message_order_matches_event_loop() {
    flexio::sim::prop::Runner::new("cross_shard_message_order")
        .cases(48)
        .regressions(include_str!("shard_determinism.proptest-regressions"))
        .run(OrderCase::draw, |c: &OrderCase| {
            let (p, skew) = (c.nprocs, c.skew);
            let body = |r: &Rank| {
                // Seeded per-rank clock skew decorrelates dispatch order
                // from rank order, so receivers run ahead of senders too.
                r.advance(r.rank() as u64 * skew % 61);
                let mut sent = std::collections::BTreeMap::<(usize, u64), u8>::new();
                let mut got = sent.clone();
                let mut log = Vec::new();
                for &op in &c.script {
                    match op {
                        Op::Send { d, tag, n } => {
                            let k = sent.entry((d, tag)).or_default();
                            for _ in 0..n {
                                r.advance(skew % (5 + d as u64));
                                r.send((r.rank() + d) % p, tag, &[r.rank() as u8, *k]);
                                *k += 1;
                            }
                        }
                        Op::Recv { d, tag, n } => {
                            let src = (r.rank() + p - d) % p;
                            let k = got.entry((d, tag)).or_default();
                            for _ in 0..n {
                                // Per-(src, tag) FIFO: the n-th message
                                // received on a key is the n-th sent.
                                let m = r.recv(src, tag);
                                assert_eq!(
                                    m,
                                    vec![src as u8, *k],
                                    "rank {} saw out-of-order delivery from {src} tag {tag}",
                                    r.rank()
                                );
                                *k += 1;
                                log.extend(m);
                            }
                        }
                    }
                }
                (r.now(), r.stats(), log)
            };
            let first = run(p, CostModel::default(), body);
            let second = run(p, CostModel::default(), body);
            assert_eq!(first, second, "case {c:?}: a rerun diverges");
        });
}
