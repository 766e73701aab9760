//! Pipelined-engine tests: double buffering must never change the bytes
//! on disk or the deterministic work counters — only the virtual time.
//! The serial engine (pipeline depth 1) must charge exactly what the
//! pre-pipeline engine charged, and the pipelined engine must harvest
//! measurable overlap on cycle-rich workloads.

use flexio::core::{ExchangeMode, Hints, MpiFile, PipelineDepth};
use flexio::pfs::{Pfs, PfsConfig, PfsCostModel};
use flexio::sim::{run, CostModel, Stats, XorShift64Star};
use flexio::types::Datatype;
use std::sync::Arc;

const BLOCK: u64 = 64;

fn test_pfs() -> Arc<Pfs> {
    Pfs::new(PfsConfig {
        n_osts: 4,
        stripe_size: 1024,
        page_size: 64,
        locking: false,
        lock_expansion: false,
        client_cache: false,
        cost: PfsCostModel::free(),
    })
}

fn timed_pfs() -> Arc<Pfs> {
    Pfs::new(PfsConfig {
        n_osts: 4,
        stripe_size: 1024,
        page_size: 64,
        locking: false,
        lock_expansion: false,
        client_cache: false,
        cost: PfsCostModel::default(),
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

/// Interleaved-block workload: write `steps` collective calls of fresh
/// data, then read the last step back, returning each rank's final
/// virtual clock, stats, and read-back buffer.
fn roundtrip(
    pfs: &Arc<Pfs>,
    path: &str,
    nprocs: usize,
    blocks: u64,
    steps: u64,
    hints: Hints,
) -> Vec<(u64, Stats, Vec<u8>)> {
    let pfs = Arc::clone(pfs);
    let path = path.to_string();
    run(nprocs, CostModel::default(), move |rank| {
        let mut f = MpiFile::open(rank, &pfs, &path, hints.clone()).unwrap();
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
    })
}

#[test]
fn pipelined_byte_identical_to_serial() {
    // Every combination of exchange mode × schedule cache: the pipelined
    // and serial engines must produce byte-identical file images, and the
    // read path must return byte-identical user buffers.
    let (nprocs, blocks, steps) = (8, 24, 3);
    for exchange in [ExchangeMode::Nonblocking, ExchangeMode::Alltoallw] {
        for cache in [true, false] {
            let image = |pipeline_depth: PipelineDepth| {
                let pfs = test_pfs();
                let hints = Hints {
                    pipeline_depth,
                    exchange,
                    schedule_cache: cache,
                    cb_nodes: Some(4),
                    cb_buffer_size: 256, // several cycles per call
                    ..Hints::default()
                };
                let out = roundtrip(&pfs, "pipe", nprocs, blocks, steps, hints);
                (read_file(&pfs, "pipe"), out)
            };
            let (img_p, out_p) = image(PipelineDepth::Auto);
            let (img_s, out_s) = image(PipelineDepth::Fixed(1));
            assert_eq!(
                img_p, img_s,
                "file images diverge ({exchange:?}, cache={cache})"
            );
            for r in 0..nprocs {
                assert_eq!(
                    out_p[r].2, out_s[r].2,
                    "rank {r} read buffers diverge ({exchange:?}, cache={cache})"
                );
                let want = step_data(r, steps - 1, (blocks * BLOCK) as usize);
                assert_eq!(out_p[r].2, want, "rank {r} read wrong bytes");
            }
        }
    }
}

#[test]
fn pipelined_counters_match_serial() {
    // Pipelining reorders virtual time, never work: pairs, copies,
    // messages, and payload bytes must be identical per rank.
    let (nprocs, blocks, steps) = (8, 24, 3);
    for exchange in [ExchangeMode::Nonblocking, ExchangeMode::Alltoallw] {
        let stats = |pipeline_depth: PipelineDepth| {
            let pfs = test_pfs();
            let hints = Hints {
                pipeline_depth,
                exchange,
                cb_nodes: Some(4),
                cb_buffer_size: 256,
                ..Hints::default()
            };
            roundtrip(&pfs, "cnt", nprocs, blocks, steps, hints)
        };
        let pipelined = stats(PipelineDepth::Auto);
        let serial = stats(PipelineDepth::Fixed(1));
        for r in 0..nprocs {
            let (p, s) = (&pipelined[r].1, &serial[r].1);
            assert_eq!(p.pairs_processed, s.pairs_processed, "rank {r} pairs ({exchange:?})");
            assert_eq!(p.memcpy_bytes, s.memcpy_bytes, "rank {r} copies ({exchange:?})");
            assert_eq!(p.msgs_sent, s.msgs_sent, "rank {r} messages ({exchange:?})");
            assert_eq!(p.bytes_sent, s.bytes_sent, "rank {r} payload ({exchange:?})");
        }
    }
}

#[test]
fn serial_engine_never_overlaps() {
    // Pipeline depth 1 is the strictly serial engine: no virtual time
    // may be reported as hidden, on any rank, either direction.
    let pfs = timed_pfs();
    let hints = Hints {
        pipeline_depth: PipelineDepth::Fixed(1),
        cb_nodes: Some(4),
        cb_buffer_size: 256,
        ..Hints::default()
    };
    let out = roundtrip(&pfs, "ser", 8, 24, 3, hints);
    for (r, (_, s, _)) in out.iter().enumerate() {
        assert_eq!(s.overlap_saved_ns, 0, "rank {r} overlapped in serial mode");
    }
}

#[test]
fn pipelined_saves_time_single_aggregator() {
    // One aggregator over a timed PFS is fully deterministic (no shared
    // OST clocks between concurrent aggregators): the pipelined engine
    // must finish strictly earlier than the serial engine and report the
    // hidden time, while the per-phase buckets still sum to elapsed
    // wall-clock on the aggregator.
    let elapsed = |pipeline_depth: PipelineDepth| {
        let pfs = timed_pfs();
        let hints = Hints {
            pipeline_depth,
            cb_nodes: Some(1),
            cb_buffer_size: 512, // many fill/drain cycles
            ..Hints::default()
        };
        let out = roundtrip(&pfs, "sav", 4, 16, 2, hints);
        let now_max = out.iter().map(|(now, _, _)| *now).max().unwrap();
        let saved: u64 = out.iter().map(|(_, s, _)| s.overlap_saved_ns).sum();
        (now_max, saved)
    };
    let (t_pipe, saved_pipe) = elapsed(PipelineDepth::Auto);
    let (t_serial, saved_serial) = elapsed(PipelineDepth::Fixed(1));
    assert_eq!(saved_serial, 0);
    assert!(saved_pipe > 0, "pipelined run hid no time");
    assert!(
        t_pipe < t_serial,
        "pipelined {t_pipe} ns not faster than serial {t_serial} ns"
    );
}

#[test]
fn zero_copy_matches_packed_and_copies_strictly_less() {
    // `flexio_zero_copy` may only change which copies are modeled, never
    // the bytes or the work counters: same file image, same read-backs,
    // same pairs/messages/payload, phase buckets still summing to the
    // clock — and under the non-blocking exchange the staging ledger (and
    // the charged copy bytes) must drop strictly.
    let (nprocs, blocks, steps) = (8, 24, 3);
    let run_with = |zero_copy: bool| {
        let pfs = timed_pfs();
        let hints = Hints {
            zero_copy,
            cb_nodes: Some(4),
            cb_buffer_size: 256,
            ..Hints::default()
        };
        let out = roundtrip(&pfs, "zc", nprocs, blocks, steps, hints);
        (read_file(&pfs, "zc"), out)
    };
    let (img_on, on) = run_with(true);
    let (img_off, off) = run_with(false);
    assert_eq!(img_on, img_off, "zero-copy changed the file image");
    for r in 0..nprocs {
        let (now_on, s_on, back_on) = &on[r];
        let (now_off, s_off, back_off) = &off[r];
        assert_eq!(back_on, back_off, "rank {r} read-back diverged");
        assert_eq!(s_on.pairs_processed, s_off.pairs_processed, "rank {r} pairs");
        assert_eq!(s_on.msgs_sent, s_off.msgs_sent, "rank {r} messages");
        assert_eq!(s_on.bytes_sent, s_off.bytes_sent, "rank {r} payload");
        assert_eq!(s_on.phase_ns.iter().sum::<u64>(), *now_on, "rank {r} ON phase sum");
        assert_eq!(s_off.phase_ns.iter().sum::<u64>(), *now_off, "rank {r} OFF phase sum");
        assert!(
            s_on.bytes_copied < s_off.bytes_copied,
            "rank {r} ledger not strictly lower: {} vs {}",
            s_on.bytes_copied,
            s_off.bytes_copied
        );
        assert!(
            s_on.memcpy_bytes < s_off.memcpy_bytes,
            "rank {r} charged copies not strictly lower"
        );
        // The ledger only tracks engine staging copies; the charged total
        // additionally counts transport self-delivery, so it dominates.
        assert!(s_off.bytes_copied <= s_off.memcpy_bytes, "rank {r} ledger exceeds charges");
    }
}

#[test]
fn alltoallw_zero_copy_is_charge_identical() {
    // The alltoallw exchange already modeled pack-free sends, so flipping
    // `flexio_zero_copy` must not move a single charge there — only the
    // internal staging representation changes.
    let (nprocs, blocks, steps) = (8, 24, 2);
    let run_with = |zero_copy: bool| {
        let pfs = timed_pfs();
        let hints = Hints {
            zero_copy,
            exchange: ExchangeMode::Alltoallw,
            cb_nodes: Some(4),
            cb_buffer_size: 256,
            ..Hints::default()
        };
        let out = roundtrip(&pfs, "a2a", nprocs, blocks, steps, hints);
        (read_file(&pfs, "a2a"), out)
    };
    let (img_on, on) = run_with(true);
    let (img_off, off) = run_with(false);
    assert_eq!(img_on, img_off, "zero-copy changed the file image");
    for r in 0..nprocs {
        let (now_on, s_on, _) = &on[r];
        let (now_off, s_off, _) = &off[r];
        assert_eq!(now_on, now_off, "rank {r} clock moved");
        assert_eq!(s_on.memcpy_bytes, s_off.memcpy_bytes, "rank {r} copies");
        assert_eq!(s_on.bytes_copied, s_off.bytes_copied, "rank {r} ledger");
        assert_eq!(s_on.phase_ns, s_off.phase_ns, "rank {r} phases");
    }
}

#[test]
fn cached_replay_pipelines_identically() {
    // A schedule-cache hit must not change what the pipeline overlaps:
    // steps 2..N (replayed) still hide I/O time, and the bytes stay right.
    let pfs = timed_pfs();
    let hints = Hints {
        cb_nodes: Some(1),
        cb_buffer_size: 512,
        persistent_file_realms: true,
        ..Hints::default()
    };
    let (nprocs, blocks, steps) = (4, 16, 3);
    let out = roundtrip(&pfs, "rep", nprocs, blocks, steps, hints);
    let agg = &out[0].1; // rank 0 is the single aggregator
    assert_eq!(agg.schedule_cache_misses, 1);
    assert!(agg.schedule_cache_hits >= steps, "replays must hit");
    assert!(agg.overlap_saved_ns > 0, "replayed cycles must still overlap");
    for (r, (_, _, back)) in out.iter().enumerate() {
        let want = step_data(r, steps - 1, (blocks * BLOCK) as usize);
        assert_eq!(*back, want, "rank {r} read wrong bytes after replay");
    }
}
