//! # flexio-sim — an in-process message-passing runtime with virtual time
//!
//! Substitute for the paper's MPICH2-over-TCP substrate. Each rank owns a
//! virtual clock in nanoseconds; all ranks of a world run as
//! cooperatively-scheduled fibers on one host thread, resumed lowest
//! virtual clock first (deterministic by construction, and cheap enough
//! to drive tens of thousands of ranks per process). Point-to-point and
//! collective operations charge an alpha/beta network model; higher layers
//! charge computation explicitly (offset/length-pair processing, buffer
//! copies). The paper's performance deltas are driven by *counts* — bytes
//! moved, messages sent, pairs processed, copies made — so charging those
//! counts against a consistent ruler preserves relative orderings and
//! crossovers even though absolute MB/s are model outputs.
//!
//! ```
//! use flexio_sim::{run, CostModel};
//!
//! let totals = run(4, CostModel::default(), |rank| {
//!     let sum = rank.allreduce_sum(rank.rank() as u64);
//!     rank.barrier();
//!     sum
//! });
//! assert!(totals.iter().all(|&s| s == 6));
//! ```

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

#[cfg(not(target_arch = "x86_64"))]
compile_error!(
    "flexio-sim runs ranks as stackful fibers whose context switch is x86_64 \
     assembly; there is no runtime for other architectures"
);

pub mod cost;
mod fiber;
pub mod prng;
pub mod prop;
pub mod rank;
mod sched;
pub mod world;

pub use cost::CostModel;
pub use prng::XorShift64Star;
pub use rank::{OverlapWindow, Phase, Rank, RecvReq, Stats};
pub use world::{run, run_crashable, World};

#[cfg(test)]
mod props {
    use super::*;
    use crate::prop::Runner;

    /// allgatherv delivers every payload intact for arbitrary sizes.
    #[test]
    fn allgatherv_arbitrary_sizes() {
        Runner::new("allgatherv_arbitrary_sizes").cases(24).run(
            |rng| (0..2 + rng.next_below(4)).map(|_| rng.next_below(200) as usize).collect::<Vec<_>>(),
            |sizes: &Vec<usize>| {
                let out = run(sizes.len(), CostModel::default(), |r| {
                    let mine: Vec<u8> = (0..sizes[r.rank()]).map(|i| (r.rank() * 31 + i) as u8).collect();
                    r.allgatherv(&mine)
                });
                for v in out {
                    for (src, blk) in v.iter().enumerate() {
                        let want: Vec<u8> = (0..sizes[src]).map(|i| (src * 31 + i) as u8).collect();
                        assert_eq!(blk, &want, "block from rank {src}");
                    }
                }
            },
        );
    }

    /// Virtual clocks are monotone through arbitrary collective mixes.
    #[test]
    fn clocks_monotone() {
        Runner::new("clocks_monotone").cases(24).run(
            |rng| (0..1 + rng.next_below(11)).map(|_| rng.next_below(4) as u8).collect::<Vec<_>>(),
            |ops: &Vec<u8>| {
                let out = run(3, CostModel::default(), |r| {
                    let mut last = r.now();
                    for op in ops {
                        match op {
                            0 => r.barrier(),
                            1 => {
                                let _ = r.bcast(0, vec![1, 2, 3]);
                            }
                            2 => {
                                let _ = r.allgatherv(&[r.rank() as u8]);
                            }
                            _ => {
                                let _ = r.allreduce_max(r.rank() as u64);
                            }
                        }
                        let now = r.now();
                        assert!(now >= last, "clock went backwards");
                        last = now;
                    }
                    r.now()
                });
                assert!(out.iter().all(|&t| t > 0), "clocks never advanced: {out:?}");
            },
        );
    }

    /// alltoallv is a permutation-correct exchange for random payloads.
    #[test]
    fn alltoallv_correct() {
        Runner::new("alltoallv_correct").cases(24).run(
            |rng| rng.next_below(1000) as usize,
            |&seed: &usize| {
                let p = 4;
                let out = run(p, CostModel::free(), |r| {
                    let blocks: Vec<Vec<u8>> = (0..p)
                        .map(|d| {
                            let n = ((seed + r.rank() * 7 + d * 13) % 50) + 1;
                            vec![(r.rank() * p + d) as u8; n]
                        })
                        .collect();
                    r.alltoallv(blocks)
                });
                for (dst, v) in out.iter().enumerate() {
                    for (src, blk) in v.iter().enumerate() {
                        let n = ((seed + src * 7 + dst * 13) % 50) + 1;
                        assert_eq!(blk, &vec![(src * p + dst) as u8; n], "block {src} -> {dst}");
                    }
                }
            },
        );
    }
}
