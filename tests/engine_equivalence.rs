//! Property-based equivalence: for randomized workloads, the flexible
//! engine (under any hint combination) and the ROMIO baseline must
//! produce byte-identical files, and collective reads must return
//! exactly what collective writes stored.

use flexio::core::{Engine, ExchangeMode, Hints, MpiFile};
use flexio::io::IoMethod;
use flexio::pfs::{Pfs, PfsConfig, PfsCostModel};
use flexio::sim::prop::Runner;
use flexio::sim::{run, CostModel, XorShift64Star};
use flexio::types::Datatype;
use flexio::workload::StridedSpec;
use std::sync::Arc;

/// 2..6 ranks, blocks of 1..48 bytes, gaps of 0..64, 1..24 instances.
fn arb_workload(rng: &mut XorShift64Star) -> StridedSpec {
    let nprocs = 2 + (rng.next_u64() % 4) as usize;
    let block = 1 + rng.next_u64() % 47;
    let gap = rng.next_u64() % 64;
    let count = 1 + rng.next_u64() % 23;
    StridedSpec { nprocs, block, gap, count, disp_unit: block + gap }
}

fn coin(rng: &mut XorShift64Star) -> bool {
    rng.next_u64() % 2 == 1
}

fn test_pfs() -> Arc<Pfs> {
    Pfs::new(PfsConfig {
        n_osts: 3,
        stripe_size: 192,
        page_size: 32,
        locking: false,
        lock_expansion: true,
        client_cache: false,
        cost: PfsCostModel::free(),
    })
}

fn read_file(pfs: &Arc<Pfs>, path: &str) -> Vec<u8> {
    let h = pfs.open(path, usize::MAX - 1);
    let mut out = vec![0u8; h.size() as usize];
    h.read(0, 0, &mut out).unwrap();
    out
}

fn run_write(w: &StridedSpec, hints: Hints) -> Vec<u8> {
    let pfs = test_pfs();
    {
        let pfs = Arc::clone(&pfs);
        let w = w.clone();
        run(w.nprocs, CostModel::free(), move |rank| {
            let mut f = MpiFile::open(rank, &pfs, "eq", hints.clone()).unwrap();
            f.set_view(w.disp(rank.rank()), &Datatype::bytes(1), &w.filetype()).unwrap();
            let data = w.data(rank.rank());
            f.write_all(&data, &Datatype::bytes(w.bytes_per_rank()), 1).unwrap();
            f.close().unwrap();
        });
    }
    read_file(&pfs, "eq")
}

fn check_engines_agree(w: &StridedSpec, cb_pow: u32, aggs: usize) {
    let base = Hints {
        cb_nodes: Some(aggs.min(w.nprocs)),
        cb_buffer_size: 1usize << cb_pow,
        ..Hints::default()
    };
    let flexible = run_write(w, Hints { engine: Engine::Flexible, ..base.clone() });
    let romio = run_write(w, Hints { engine: Engine::Romio, ..base });
    assert_eq!(flexible, romio, "cb 2^{cb_pow}, {aggs} aggregators");
}

/// Flexible and ROMIO engines agree byte for byte.
#[test]
fn engines_agree() {
    Runner::new("engines_agree").cases(24).run(
        |rng| {
            (arb_workload(rng), 6 + (rng.next_u64() % 6) as u32, 1 + (rng.next_u64() % 5) as usize)
        },
        |(w, cb_pow, aggs)| check_engines_agree(w, *cb_pow, *aggs),
    );
}

/// The shrunk counterexample proptest once recorded for this suite,
/// replayed over the whole cb-size and aggregator range of
/// [`engines_agree`].
#[test]
fn engines_agree_on_recorded_counterexample() {
    let w = StridedSpec { nprocs: 5, block: 43, gap: 59, count: 6, disp_unit: 102 };
    for cb_pow in 6..12 {
        for aggs in 1..6 {
            check_engines_agree(&w, cb_pow, aggs);
        }
    }
}

/// Hint combinations never change the bytes, only the timing.
#[test]
fn hints_do_not_change_bytes() {
    Runner::new("hints_do_not_change_bytes").cases(24).run(
        |rng| (arb_workload(rng), coin(rng), coin(rng), coin(rng), coin(rng)),
        |(w, pfr, align, alltoallw, naive)| {
            let reference = run_write(w, Hints::default());
            let hints = Hints {
                persistent_file_realms: *pfr,
                fr_alignment: align.then_some(192),
                exchange: if *alltoallw {
                    ExchangeMode::Alltoallw
                } else {
                    ExchangeMode::Nonblocking
                },
                io_method: if *naive {
                    IoMethod::Naive
                } else {
                    IoMethod::DataSieve { buffer: 128 }
                },
                cb_buffer_size: 256,
                ..Hints::default()
            };
            let shuffled = run_write(w, hints);
            assert_eq!(reference, shuffled);
        },
    );
}

/// write_all then read_all round-trips under random hints.
#[test]
fn write_read_roundtrip() {
    Runner::new("write_read_roundtrip").cases(24).run(
        |rng| (arb_workload(rng), 1 + (rng.next_u64() % 5) as usize, coin(rng)),
        |&(ref w, aggs, romio)| {
            let pfs = test_pfs();
            let w2 = w.clone();
            let outs = run(w.nprocs, CostModel::free(), move |rank| {
                let hints = Hints {
                    engine: if romio { Engine::Romio } else { Engine::Flexible },
                    cb_nodes: Some(aggs.min(w2.nprocs)),
                    cb_buffer_size: 512,
                    ..Hints::default()
                };
                let mut f = MpiFile::open(rank, &pfs, "rt", hints).unwrap();
                f.set_view(w2.disp(rank.rank()), &Datatype::bytes(1), &w2.filetype()).unwrap();
                let data = w2.data(rank.rank());
                f.write_all(&data, &Datatype::bytes(w2.bytes_per_rank()), 1).unwrap();
                let mut back = vec![0u8; data.len()];
                f.read_all(&mut back, &Datatype::bytes(w2.bytes_per_rank()), 1).unwrap();
                f.close().unwrap();
                (data, back)
            });
            for (data, back) in outs {
                assert_eq!(data, back);
            }
        },
    );
}

/// Independent I/O through a view agrees with collective I/O.
#[test]
fn independent_agrees_with_collective() {
    Runner::new("independent_agrees_with_collective").cases(24).run(arb_workload, |w| {
        let collective = run_write(w, Hints::default());
        // Same pattern via independent write_at from each rank in turn.
        let pfs = test_pfs();
        {
            let pfs = Arc::clone(&pfs);
            let w = w.clone();
            run(w.nprocs, CostModel::free(), move |rank| {
                let mut f = MpiFile::open(rank, &pfs, "ind", Hints::default()).unwrap();
                f.set_view(w.disp(rank.rank()), &Datatype::bytes(1), &w.filetype()).unwrap();
                let data = w.data(rank.rank());
                f.write_at(0, &data, &Datatype::bytes(w.bytes_per_rank()), 1).unwrap();
                f.close().unwrap();
            });
        }
        assert_eq!(collective, read_file(&pfs, "ind"));
    });
}
