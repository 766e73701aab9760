//! Integration tests for the supporting API surface: darray/subarray
//! datatypes driving collective I/O, Info-string hints, and profiling.

use flexio::core::{hints_from_info, Engine, Hints, MpiFile, Profile};
use flexio::pfs::{Pfs, PfsConfig, PfsCostModel};
use flexio::sim::{run, CostModel};
use flexio::types::{darray, subarray, Datatype, Distribution};
use std::sync::Arc;

fn free_pfs() -> Arc<Pfs> {
    Pfs::new(PfsConfig {
        n_osts: 4,
        stripe_size: 512,
        page_size: 64,
        locking: false,
        lock_expansion: true,
        client_cache: false,
        cost: PfsCostModel::free(),
    })
}

#[test]
fn darray_block_cyclic_collective_write() {
    // 8x8 matrix of 4-byte elements over a 2x2 grid, cyclic(1) rows x
    // block cols: every rank writes its partition collectively; the file
    // must be a complete, correct matrix.
    let (n, elem) = (8u64, 4u64);
    let pfs = free_pfs();
    {
        let pfs = Arc::clone(&pfs);
        run(4, CostModel::free(), move |rank| {
            let coords = [rank.rank() as u64 / 2, rank.rank() as u64 % 2];
            let dt = darray(
                &[n, n],
                &[Distribution::Cyclic(1), Distribution::Block],
                &[2, 2],
                &coords,
                elem,
            );
            let bytes = dt.size();
            let mut f = MpiFile::open(rank, &pfs, "da", Hints::default()).unwrap();
            f.set_view(0, &Datatype::bytes(elem), &dt).unwrap();
            // Element payload = rank id + 1 in every byte.
            let data = vec![rank.rank() as u8 + 1; bytes as usize];
            f.write_all(&data, &Datatype::bytes(bytes), 1).unwrap();
            f.close().unwrap();
        });
    }
    let h = pfs.open("da", 99);
    assert_eq!(h.size(), n * n * elem);
    let mut img = vec![0u8; (n * n * elem) as usize];
    h.read(0, 0, &mut img).unwrap();
    for r in 0..n {
        for c in 0..n {
            // Owner: row cyclic(1) over 2 -> r % 2; col block -> c / 4.
            let owner = (r % 2) * 2 + c / 4;
            for b in 0..elem {
                let off = ((r * n + c) * elem + b) as usize;
                assert_eq!(img[off], owner as u8 + 1, "element ({r},{c}) byte {b}");
            }
        }
    }
}

#[test]
fn subarray_3d_collective_write() {
    // 4x4x4 cube of 1-byte elements split into 8 octants over 8 ranks.
    let pfs = free_pfs();
    {
        let pfs = Arc::clone(&pfs);
        run(8, CostModel::free(), move |rank| {
            let r = rank.rank() as u64;
            let starts = [(r / 4) * 2, ((r / 2) % 2) * 2, (r % 2) * 2];
            let dt = subarray(&[4, 4, 4], &[2, 2, 2], &starts, 1);
            let mut f = MpiFile::open(rank, &pfs, "cube", Hints::default()).unwrap();
            f.set_view(0, &Datatype::bytes(1), &dt).unwrap();
            let data = vec![rank.rank() as u8 + 1; 8];
            f.write_all(&data, &Datatype::bytes(8), 1).unwrap();
            f.close().unwrap();
        });
    }
    let h = pfs.open("cube", 99);
    let mut img = vec![0u8; 64];
    h.read(0, 0, &mut img).unwrap();
    for z in 0..4u64 {
        for y in 0..4u64 {
            for x in 0..4u64 {
                let owner = (z / 2) * 4 + (y / 2) * 2 + x / 2;
                let off = (z * 16 + y * 4 + x) as usize;
                assert_eq!(img[off], owner as u8 + 1, "({z},{y},{x})");
            }
        }
    }
}

#[test]
fn info_hints_drive_collective() {
    // A full configuration expressed as ROMIO info strings.
    let hints = hints_from_info(
        Hints::default(),
        &[
            ("cb_nodes", "2"),
            ("cb_buffer_size", "4096"),
            ("romio_ds_write", "enable"),
            ("ind_wr_buffer_size", "1024"),
            ("striping_unit", "512"),
            ("flexio_pfr", "enable"),
        ],
    )
    .unwrap();
    let pfs = free_pfs();
    let pfs2 = Arc::clone(&pfs);
    run(4, CostModel::free(), move |rank| {
        let mut f = MpiFile::open(rank, &pfs2, "info", hints.clone()).unwrap();
        let bt = Datatype::bytes(32);
        let ft = Datatype::resized(0, 128, bt.clone());
        f.set_view(rank.rank() as u64 * 32, &bt, &ft).unwrap();
        let data = vec![rank.rank() as u8 + 1; 256];
        f.write_all(&data, &Datatype::bytes(256), 1).unwrap();
        f.close().unwrap();
    });
    let h = pfs.open("info", 99);
    let mut img = vec![0u8; h.size() as usize];
    h.read(0, 0, &mut img).unwrap();
    for (i, &b) in img.iter().enumerate() {
        assert_eq!(b, ((i / 32) % 4) as u8 + 1, "byte {i}");
    }
}

#[test]
fn profile_attributes_engine_costs() {
    // The profile must show the enumerated filetype costing more compute
    // (pair evaluations) than the succinct one — §6.2's MPE attribution.
    let profile_for = |succinct: bool| {
        let pfs = Pfs::new(PfsConfig::default());
        let stats = run(4, CostModel::default(), move |rank| {
            let hints = Hints { cb_nodes: Some(2), ..Hints::default() };
            let mut f = MpiFile::open(rank, &pfs, "p", hints).unwrap();
            let region = 32u64;
            let stride = 4 * 128i64;
            let ft = if succinct {
                Datatype::resized(0, 512, Datatype::bytes(region))
            } else {
                Datatype::hvector(256, 1, stride, Datatype::bytes(region))
            };
            f.set_view(rank.rank() as u64 * 128, &Datatype::bytes(1), &ft).unwrap();
            let data = vec![1u8; (region * 256) as usize];
            f.write_all(&data, &Datatype::bytes(region * 256), 1).unwrap();
            f.close().unwrap();
            rank.stats()
        });
        Profile::from_stats(&stats)
    };
    let succinct = profile_for(true);
    let enumerated = profile_for(false);
    assert!(
        enumerated.pairs_total > succinct.pairs_total * 2,
        "enumerated {} vs succinct {}",
        enumerated.pairs_total,
        succinct.pairs_total
    );
    assert!(enumerated.compute_ns_max > succinct.compute_ns_max);
    // Both moved the same data.
    assert!(succinct.bytes_sent_total > 0);
    assert!(!succinct.summary().is_empty());
}

#[test]
fn set_size_and_preallocate_are_collective() {
    let pfs = free_pfs();
    let pfs2 = Arc::clone(&pfs);
    run(3, CostModel::free(), move |rank| {
        let mut f = MpiFile::open(rank, &pfs2, "sz", Hints::default()).unwrap();
        let bt = Datatype::bytes(8);
        f.set_view(0, &bt, &bt).unwrap();
        if rank.rank() == 0 {
            f.write_at(0, &[1u8; 64], &Datatype::bytes(64), 1).unwrap();
        }
        rank.barrier();
        f.preallocate(256);
        assert_eq!(f.size(), 256);
        // Keep the next collective's rank-0 truncate from racing the
        // other ranks' size check above (real threads, shared metadata).
        rank.barrier();
        f.set_size(32);
        assert_eq!(f.size(), 32);
        // Reads past the new EOF return zeros on every rank.
        let mut buf = vec![9u8; 64];
        f.read_at(0, &mut buf, &Datatype::bytes(64), 1).unwrap();
        assert_eq!(&buf[..32], &[1u8; 32]);
        assert_eq!(&buf[32..], &[0u8; 32]);
        f.close().unwrap();
    });
}

#[test]
fn file_calls_attribute_their_io_time() {
    // Cached, timed PFS: the sync and close flushes, the rank-0 metadata
    // calls and the independent write all cost virtual time, and every
    // nanosecond of it must land in a phase bucket.
    let pfs = Pfs::new(PfsConfig { client_cache: true, locking: true, ..PfsConfig::default() });
    let out = run(3, CostModel::default(), move |rank| {
        let mut f = MpiFile::open(rank, &pfs, "attr", Hints::default()).unwrap();
        let bt = Datatype::bytes(64);
        f.set_view(rank.rank() as u64 * 64, &bt, &Datatype::resized(0, 3 * 64, bt.clone()))
            .unwrap();
        f.write_at(0, &[rank.rank() as u8; 256], &Datatype::bytes(256), 1).unwrap();
        f.sync().unwrap();
        f.write_at(4, &[7u8; 64], &Datatype::bytes(64), 1).unwrap();
        f.preallocate(1 << 20);
        f.set_size(1 << 10);
        f.close().unwrap();
        (rank.now(), rank.stats())
    });
    for (r, (now, s)) in out.iter().enumerate() {
        assert_eq!(s.phase_ns.iter().sum::<u64>(), *now, "rank {r} phase sum");
    }
}

#[test]
fn engines_agree_on_darray_pattern() {
    let images: Vec<Vec<u8>> = [Engine::Flexible, Engine::Romio]
        .into_iter()
        .map(|engine| {
            let pfs = free_pfs();
            {
                let pfs = Arc::clone(&pfs);
                run(4, CostModel::free(), move |rank| {
                    let coords = [rank.rank() as u64 / 2, rank.rank() as u64 % 2];
                    let dt = darray(
                        &[8, 8],
                        &[Distribution::Cyclic(2), Distribution::Cyclic(1)],
                        &[2, 2],
                        &coords,
                        2,
                    );
                    let hints = Hints { engine, cb_nodes: Some(2), ..Hints::default() };
                    let mut f = MpiFile::open(rank, &pfs, "x", hints).unwrap();
                    f.set_view(0, &Datatype::bytes(2), &dt).unwrap();
                    let n = dt.size();
                    let data: Vec<u8> =
                        (0..n).map(|i| (rank.rank() as u64 * 60 + i % 59) as u8).collect();
                    f.write_all(&data, &Datatype::bytes(n), 1).unwrap();
                    f.close().unwrap();
                });
            }
            let h = pfs.open("x", 99);
            let mut img = vec![0u8; h.size() as usize];
            h.read(0, 0, &mut img).unwrap();
            img
        })
        .collect();
    assert_eq!(images[0], images[1]);
    assert_eq!(images[0].len(), 128);
}
