//! Determinism regression suite: every run of the sequential event loop
//! is bit-identical to a rerun of the same workload.
//!
//! * **Determinism by construction** — two runs of the same workload are
//!   bit-identical in everything: virtual clocks, the full `Stats` struct
//!   (including `bytes_copied`, `overlap_saved_ns`, phase buckets),
//!   read-back buffers, and the bytes on the PFS. That includes the
//!   paper-scale configuration with several aggregators racing a shared
//!   OST clock, where service order depends on execution order: the loop
//!   pins it to lowest-clock-first (DESIGN.md "Rank runtime").
//! * Phase buckets always sum to each rank's elapsed clock.
//!
//! Test names ending in `across_shards` predate the removal of the sharded
//! host-thread pool; they are kept so the test IDs stay stable.

use flexio::core::{Engine, ExchangeMode, Hints, MpiFile};
use flexio::pfs::{Pfs, PfsConfig, PfsCostModel};
use flexio::sim::{run, CostModel, Stats, XorShift64Star};
use flexio::types::Datatype;
use std::sync::Arc;

const BLOCK: u64 = 64;

fn pfs_with(cost: PfsCostModel) -> Arc<Pfs> {
    Pfs::new(PfsConfig {
        n_osts: 4,
        stripe_size: 1024,
        page_size: 64,
        locking: false,
        lock_expansion: false,
        client_cache: false,
        cost,
    })
}

fn read_file(pfs: &Arc<Pfs>, path: &str) -> Vec<u8> {
    let h = pfs.open(path, usize::MAX - 1);
    let mut out = vec![0u8; h.size() as usize];
    h.read(0, 0, &mut out).unwrap();
    out
}

fn step_data(rank: usize, step: u64, len: usize) -> Vec<u8> {
    let mut rng = XorShift64Star::new((rank as u64) << 32 | (step + 1));
    let mut buf = vec![0u8; len];
    rng.fill_bytes(&mut buf);
    buf
}

/// Per-rank observation: (final clock, full stats, read-back bytes).
type RankTrace = (u64, Stats, Vec<u8>);

/// One run of the parity workload: interleaved-block collective
/// writes then a collective read-back. Returns per-rank traces plus the
/// final file image.
fn parity_run(
    cost: PfsCostModel,
    engine: Engine,
    nprocs: usize,
    blocks: u64,
    steps: u64,
    cb_nodes: usize,
) -> (Vec<RankTrace>, Vec<u8>) {
    let pfs = pfs_with(cost);
    let pfs2 = Arc::clone(&pfs);
    let out = run(nprocs, CostModel::default(), move |rank| {
        let hints = Hints {
            engine,
            cb_nodes: Some(cb_nodes),
            cb_buffer_size: 256, // several cycles per call
            ..Hints::default()
        };
        let mut f = MpiFile::open(rank, &pfs2, "parity", hints).unwrap();
        let block = Datatype::bytes(BLOCK);
        let ftype = Datatype::resized(0, nprocs as u64 * BLOCK, block);
        f.set_view(rank.rank() as u64 * BLOCK, &Datatype::bytes(1), &ftype).unwrap();
        let len = (blocks * BLOCK) as usize;
        for s in 0..steps {
            let data = step_data(rank.rank(), s, len);
            f.write_all(&data, &Datatype::bytes(len as u64), 1).unwrap();
        }
        let mut back = vec![0u8; len];
        f.read_all(&mut back, &Datatype::bytes(len as u64), 1).unwrap();
        f.close().unwrap();
        (rank.now(), rank.stats(), back)
    });
    let image = read_file(&pfs, "parity");
    (out, image)
}

fn assert_phase_sums(out: &[(u64, Stats, Vec<u8>)], label: &str) {
    for (r, (now, s, _)) in out.iter().enumerate() {
        assert_eq!(
            s.phase_ns.iter().sum::<u64>(),
            *now,
            "{label}: rank {r} phase buckets must sum to its clock"
        );
    }
}

#[test]
fn pure_collectives_bit_identical_across_shards() {
    // No file system at all: pure point-to-point and collective traffic,
    // including payload-dependent branches.
    let workload = |r: &flexio::sim::Rank| {
        let p = r.nprocs();
        r.send((r.rank() + 1) % p, 1, &[r.rank() as u8; 48]);
        let got = r.recv((r.rank() + p - 1) % p, 1);
        r.charge_pairs(got.len() as u64);
        r.barrier();
        let seed = r.bcast(0, if r.rank() == 0 { vec![9; 8] } else { vec![] });
        let all = r.allgatherv(&[r.rank() as u8, seed[0]]);
        let blocks: Vec<Vec<u8>> = (0..p).map(|d| vec![(r.rank() + d) as u8; 7]).collect();
        let x = r.alltoallv(blocks);
        let g = r.gatherv(0, &x[(r.rank() + 1) % p]);
        let s = r.scatterv(0, if r.rank() == 0 { g } else { Vec::new() });
        let mut img = s;
        img.extend(all.into_iter().flatten());
        (r.now(), r.stats(), img)
    };
    for p in [2usize, 16, 64] {
        let a = run(p, CostModel::default(), workload);
        let b = run(p, CostModel::default(), workload);
        assert_eq!(a, b, "p={p}: clocks/stats/bytes diverge across runs");
    }
}

#[test]
fn collective_io_bit_identical_across_shards() {
    // Free and timed PFS cost models, single aggregator (cb 1): the
    // smallest I/O-path configuration, both engines.
    let cases = [(PfsCostModel::free(), 8usize), (PfsCostModel::default(), 6)];
    let cb = 1usize;
    for engine in [Engine::Flexible, Engine::Romio] {
        for (cost, nprocs) in cases {
            let (a, a_img) = parity_run(cost, engine, nprocs, 16, 3, cb);
            assert_phase_sums(&a, "first run");
            let (b, b_img) = parity_run(cost, engine, nprocs, 16, 3, cb);
            assert_eq!(a_img, b_img, "{engine:?} cb={cb}: images diverge across runs");
            for r in 0..nprocs {
                assert_eq!(
                    a[r], b[r],
                    "{engine:?} cb={cb}: rank {r} (clock, full Stats, read-back) diverge \
                     across runs"
                );
            }
        }
    }
}

#[test]
fn paper_scale_bit_identical_across_shards() {
    // Timed PFS, several racing aggregators, both engines — the
    // configuration where the retired thread-per-rank backend was *not*
    // clock-deterministic and the old suite had to fall back to
    // order-insensitive work counters. Lowest-clock-first dispatch pins
    // OST service order, so full bit-identity holds.
    for engine in [Engine::Flexible, Engine::Romio] {
        let (a, a_img) = parity_run(PfsCostModel::default(), engine, 16, 24, 3, 4);
        let (b, b_img) = parity_run(PfsCostModel::default(), engine, 16, 24, 3, 4);
        assert_eq!(a_img, b_img, "{engine:?}: file images diverge across runs");
        assert_eq!(a, b, "{engine:?}: event loop not bit-identical across runs");
        assert_phase_sums(&a, "event loop");
    }
}

#[test]
fn exchange_modes_identical_across_shards() {
    // Both exchange flavours, run twice: full bit-identity.
    for exchange in [ExchangeMode::Nonblocking, ExchangeMode::Alltoallw] {
        let run_one = || {
            let pfs = pfs_with(PfsCostModel::free());
            let pfs2 = Arc::clone(&pfs);
            let out = run(8, CostModel::default(), move |rank| {
                let hints = Hints {
                    exchange,
                    cb_nodes: Some(4),
                    cb_buffer_size: 256,
                    ..Hints::default()
                };
                let mut f = MpiFile::open(rank, &pfs2, "xmode", hints).unwrap();
                let block = Datatype::bytes(BLOCK);
                let ftype = Datatype::resized(0, 8 * BLOCK, block);
                f.set_view(rank.rank() as u64 * BLOCK, &Datatype::bytes(1), &ftype).unwrap();
                let data = step_data(rank.rank(), 0, (12 * BLOCK) as usize);
                f.write_all(&data, &Datatype::bytes(data.len() as u64), 1).unwrap();
                f.close().unwrap();
                (rank.now(), rank.stats())
            });
            (out, read_file(&pfs, "xmode"))
        };
        let (a, a_img) = run_one();
        let (b, b_img) = run_one();
        assert_eq!(a_img, b_img, "{exchange:?}: images diverge across runs");
        assert_eq!(a, b, "{exchange:?}: clocks/stats diverge across runs");
    }
}
