//! Pipeline-depth tests: whatever depth the engine runs at — serial,
//! classic double buffering, deep fixed pipelines, or adaptive — the bytes
//! on disk and the deterministic work counters must be identical; only
//! virtual time may move. Property-tested over random filetypes, world
//! sizes, aggregator counts, and depths against the depth-1 oracle, plus
//! charge-sequence fixtures pinning `flexio_pipeline_depth=2` to the PR 2
//! double-buffered engine and `=1` to the serial engine, number for
//! number.

use flexio::core::{hints_from_info, ExchangeMode, Hints, MpiFile, PipelineDepth};
use flexio::pfs::{Pfs, PfsConfig, PfsCostModel};
use flexio::sim::prop::Runner;
use flexio::sim::{run, CostModel, Stats, XorShift64Star};
use flexio::types::{Datatype, Dt};
use std::sync::Arc;

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

/// How each rank's filetype tiles the file in the property workload.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Classic interleaved blocks: rank r owns bytes `[rB, (r+1)B)` of
    /// every round of `nprocs·B`.
    Tiled,
    /// Each rank's block has a hole: an indexed type writing the first
    /// half and the last quarter of its `B` bytes.
    Split,
    /// Two half-blocks a block apart (hvector), rounds of `2·nprocs·B`.
    Strided,
}

/// One randomly generated collective workload plus the depth under test.
#[derive(Debug, Clone)]
struct Workload {
    nprocs: usize,
    /// Bytes per filetype block; always a multiple of 8.
    block: u64,
    /// Filetype repetitions written per collective call.
    reps: u64,
    steps: u64,
    aggs: usize,
    cb: usize,
    exchange: ExchangeMode,
    shape: Shape,
    depth: PipelineDepth,
}

fn random_workload(rng: &mut XorShift64Star) -> Workload {
    let nprocs = 2 + (rng.next_u64() % 7) as usize; // 2..=8
    Workload {
        nprocs,
        block: 8 * (1 + rng.next_u64() % 12), // 8..=96
        reps: 4 + rng.next_u64() % 29,        // 4..=32
        steps: 1 + rng.next_u64() % 2,
        aggs: 1 + (rng.next_u64() as usize) % nprocs,
        cb: [128, 256, 512, 1024][(rng.next_u64() % 4) as usize],
        exchange: if rng.next_u64().is_multiple_of(2) {
            ExchangeMode::Nonblocking
        } else {
            ExchangeMode::Alltoallw
        },
        shape: [Shape::Tiled, Shape::Split, Shape::Strided][(rng.next_u64() % 3) as usize],
        depth: match rng.next_u64() % 6 {
            0..=4 => PipelineDepth::Fixed(2 + (rng.next_u64() % 5) as u32), // 2..=6
            _ => PipelineDepth::Auto,
        },
    }
}

/// `(displacement for rank, filetype, data bytes per repetition)`.
fn filetype(w: &Workload, rank: usize) -> (u64, Dt, u64) {
    let (b, p, r) = (w.block, w.nprocs as u64, rank as u64);
    match w.shape {
        Shape::Tiled => (r * b, Datatype::resized(0, p * b, Datatype::bytes(b)), b),
        Shape::Split => {
            let inner = Datatype::indexed(
                vec![(0, b / 2), (3 * (b as i64) / 4, b / 4)],
                Datatype::bytes(1),
            );
            (r * b, Datatype::resized(0, p * b, inner), 3 * b / 4)
        }
        Shape::Strided => {
            let inner = Datatype::hvector(2, 1, b as i64, Datatype::bytes(b / 2));
            (2 * r * b, Datatype::resized(0, 2 * p * b, inner), b)
        }
    }
}

/// Each rank's `(elapsed, stats, read-back)` after a roundtrip.
type RankOutcome = (u64, Stats, Vec<u8>);

/// Run `w` at pipeline depth `depth`: `steps` collective writes of fresh
/// data, then read the last step back. Returns the final file image and
/// each rank's outcome.
fn roundtrip(w: &Workload, depth: PipelineDepth) -> (Vec<u8>, Vec<RankOutcome>) {
    let pfs = timed_pfs();
    let hints = Hints {
        pipeline_depth: depth,
        cb_nodes: Some(w.aggs),
        cb_buffer_size: w.cb,
        exchange: w.exchange,
        ..Hints::default()
    };
    let w = w.clone();
    let inner = Arc::clone(&pfs);
    let out = run(w.nprocs, CostModel::default(), move |rank| {
        let mut f = MpiFile::open(rank, &inner, "depth", hints.clone()).unwrap();
        let (disp, ftype, per_rep) = filetype(&w, rank.rank());
        f.set_view(disp, &Datatype::bytes(1), &ftype).unwrap();
        let len = (w.reps * per_rep) as usize;
        for s in 0..w.steps {
            let data = step_data(rank.rank(), s, len);
            f.write_all(&data, &Datatype::bytes(len as u64), 1).unwrap();
        }
        let mut back = vec![0u8; len];
        f.read_all(&mut back, &Datatype::bytes(len as u64), 1).unwrap();
        f.close().unwrap();
        (rank.now(), rank.stats(), back)
    });
    (read_file(&pfs, "depth"), out)
}

/// The tentpole property: any depth, fixed 2..=6 or auto, is
/// indistinguishable from the serial (depth 1) oracle in everything but
/// virtual time — byte-identical file image and read-back, identical
/// overlap-exclusive counters, and phase buckets that still sum to each
/// rank's elapsed clock.
#[test]
fn any_depth_matches_serial_oracle() {
    Runner::new("any_depth_matches_serial_oracle")
        .cases(16)
        .regressions(include_str!("pipeline_depth.proptest-regressions"))
        .run(random_workload, |w| {
            let (img_d, out_d) = roundtrip(w, w.depth);
            let (img_1, out_1) = roundtrip(w, PipelineDepth::Fixed(1));
            assert_eq!(img_d, img_1, "file image diverges from the depth-1 oracle");
            for r in 0..w.nprocs {
                let (now, d, s) = (&out_d[r].0, &out_d[r].1, &out_1[r].1);
                assert_eq!(out_d[r].2, out_1[r].2, "rank {r} read-back diverges");
                assert_eq!(d.pairs_processed, s.pairs_processed, "rank {r} pairs");
                assert_eq!(d.memcpy_bytes, s.memcpy_bytes, "rank {r} copy bytes");
                assert_eq!(d.msgs_sent, s.msgs_sent, "rank {r} messages");
                assert_eq!(d.bytes_sent, s.bytes_sent, "rank {r} payload bytes");
                assert_eq!(
                    d.schedule_cache_misses, s.schedule_cache_misses,
                    "rank {r} cache misses"
                );
                assert_eq!(d.phase_ns.iter().sum::<u64>(), *now, "rank {r} phase sum");
                assert_eq!(out_1[r].1.overlap_saved_ns, 0, "oracle must not overlap");
                assert_eq!(out_1[r].1.derive_overlap_saved_ns, 0, "oracle derive overlap");
            }
        });
}

/// The workload every charge fixture below runs: the single-aggregator
/// interleaved-block pattern `results/ablation_pipeline.txt` was measured
/// with, shrunk to test scale (4 ranks, 16 blocks of 64 B, 2 writes + 1
/// read, 512 B collective buffer, timed PFS).
fn fixture_run(hints: Hints) -> Vec<(u64, Stats)> {
    let pfs = timed_pfs();
    let (nprocs, blocks, steps, block) = (4usize, 16u64, 2u64, 64u64);
    let out = run(nprocs, CostModel::default(), move |rank| {
        let mut f = MpiFile::open(rank, &pfs, "fix", hints.clone()).unwrap();
        let ftype = Datatype::resized(0, nprocs as u64 * block, Datatype::bytes(block));
        f.set_view(rank.rank() as u64 * block, &Datatype::bytes(1), &ftype).unwrap();
        let len = (blocks * block) as usize;
        for s in 0..steps {
            let data = step_data(rank.rank(), s, len);
            f.write_all(&data, &Datatype::bytes(len as u64), 1).unwrap();
        }
        let mut back = vec![0u8; len];
        f.read_all(&mut back, &Datatype::bytes(len as u64), 1).unwrap();
        f.close().unwrap();
        (rank.now(), rank.stats())
    });
    out
}

fn assert_fixture(got: &[(u64, Stats)], want: &[(u64, [u64; 3], u64)], label: &str) {
    for (r, ((now, s), (w_now, w_phase, w_saved))) in got.iter().zip(want).enumerate() {
        assert_eq!(*now, *w_now, "{label}: rank {r} clock");
        assert_eq!(s.phase_ns, *w_phase, "{label}: rank {r} phase buckets");
        assert_eq!(s.overlap_saved_ns, *w_saved, "{label}: rank {r} hidden ns");
        // Work counters are depth-invariant; rank 0 is the aggregator.
        let (pairs, memcpy, msgs, bytes) =
            if r == 0 { (98, 18432, 39, 3720) } else { (34, 3072, 31, 2696) };
        assert_eq!(s.pairs_processed, pairs, "{label}: rank {r} pairs");
        assert_eq!(s.memcpy_bytes, memcpy, "{label}: rank {r} copy bytes");
        assert_eq!(s.msgs_sent, msgs, "{label}: rank {r} messages");
        assert_eq!(s.bytes_sent, bytes, "{label}: rank {r} payload bytes");
        assert_eq!(s.derive_overlap_saved_ns, 0, "{label}: rank {r} derive overlap");
    }
}

/// Per-rank charge sequence of the PR 2 double-buffered engine on the
/// fixture workload, harvested from the commit that produced
/// `results/ablation_pipeline.txt` ("Pipeline buffer cycles ...").
const PR2_FIXTURE: [(u64, [u64; 3], u64); 4] = [
    (3_035_504, [20_976, 1_311_008, 1_703_520], 269_304),
    (3_039_504, [5_616, 3_033_888, 0], 0),
    (3_043_504, [5_616, 3_037_888, 0], 0),
    (2_979_504, [5_616, 2_973_888, 0], 0),
];

/// The serial engine's charge sequence on the same workload.
const SERIAL_FIXTURE: [(u64, [u64; 3], u64); 4] = [
    (3_304_808, [20_976, 1_311_008, 1_972_824], 0),
    (3_308_808, [5_616, 3_303_192, 0], 0),
    (3_312_808, [5_616, 3_307_192, 0], 0),
    (3_248_808, [5_616, 3_243_192, 0], 0),
];

#[test]
fn depth_2_replays_pr2_charge_sequence() {
    let hints = |depth| Hints {
        pipeline_depth: depth,
        cb_nodes: Some(1),
        cb_buffer_size: 512,
        // The fixtures pin the pre-zero-copy packed path's charges.
        zero_copy: false,
        ..Hints::default()
    };
    let out = fixture_run(hints(PipelineDepth::Fixed(2)));
    assert_fixture(&out, &PR2_FIXTURE, "depth 2");
}

#[test]
fn depth_1_replays_serial_charge_sequence() {
    // Depth 1 and its `flexio_double_buffer disable` alias (whatever the
    // depth hint says) are both the serial engine, charge for charge.
    // The fixtures pin the pre-zero-copy packed path's charges.
    let base =
        Hints { cb_nodes: Some(1), cb_buffer_size: 512, zero_copy: false, ..Hints::default() };
    let out = fixture_run(Hints {
        pipeline_depth: PipelineDepth::Fixed(1),
        ..base.clone()
    });
    assert_fixture(&out, &SERIAL_FIXTURE, "depth 1");
    let deep = Hints { pipeline_depth: PipelineDepth::Fixed(4), ..base };
    let alias = hints_from_info(deep, &[("flexio_double_buffer", "disable")]).unwrap();
    let out = fixture_run(alias);
    assert_fixture(&out, &SERIAL_FIXTURE, "flexio_double_buffer disable");
}

#[test]
fn depth_watermark_respects_the_cap() {
    let stats = |depth| {
        fixture_run(Hints {
            pipeline_depth: depth,
            cb_nodes: Some(1),
            cb_buffer_size: 512,
            ..Hints::default()
        })
    };
    for (depth, cap) in [(PipelineDepth::Fixed(1), 1), (PipelineDepth::Fixed(2), 2), (PipelineDepth::Fixed(4), 4)]
    {
        let out = stats(depth);
        let deepest = out.iter().map(|(_, s)| s.pipeline_depth_used).max().unwrap();
        assert!(deepest <= cap, "{depth:?} exceeded its cap: reached {deepest}");
        assert!(deepest >= 1, "{depth:?} recorded no pipeline depth at all");
    }
    // On this workload the I/O dwarfs the exchange, so auto must go
    // beyond classic double buffering on the aggregator.
    let out = stats(PipelineDepth::Auto);
    let deepest = out.iter().map(|(_, s)| s.pipeline_depth_used).max().unwrap();
    assert!(deepest > 2, "auto depth never exceeded double buffering ({deepest})");
}

#[test]
fn derive_overlap_needs_a_deep_pipeline_and_a_miss() {
    let stats = |depth| {
        fixture_run(Hints {
            pipeline_depth: depth,
            cb_nodes: Some(1),
            cb_buffer_size: 512,
            ..Hints::default()
        })
    };
    // Depths 1 and 2 must stay bit-identical to the reference engines, so
    // the derive never overlaps there (the fixtures above also pin this).
    for depth in [PipelineDepth::Fixed(1), PipelineDepth::Fixed(2)] {
        let out = stats(depth);
        assert!(out.iter().all(|(_, s)| s.derive_overlap_saved_ns == 0), "{depth:?}");
    }
    // Deep and auto pipelines hide derivation behind the first exchange
    // on a miss; replays (cache hits) have nothing left to hide, so the
    // counter stops growing after the first call of each direction.
    for depth in [PipelineDepth::Fixed(4), PipelineDepth::Auto] {
        let out = stats(depth);
        let total: u64 = out.iter().map(|(_, s)| s.derive_overlap_saved_ns).sum();
        assert!(total > 0, "{depth:?} hid no derivation time");
    }
}

#[test]
fn depth_hint_parses_and_rejects() {
    let h = hints_from_info(Hints::default(), &[("flexio_pipeline_depth", "3")]).unwrap();
    assert_eq!(h.pipeline_depth, PipelineDepth::Fixed(3));
    let h = hints_from_info(Hints::default(), &[("flexio_pipeline_depth", "auto")]).unwrap();
    assert_eq!(h.pipeline_depth, PipelineDepth::Auto);
    for bad in ["0", "-1", "deep", ""] {
        let err = hints_from_info(Hints::default(), &[("flexio_pipeline_depth", bad)])
            .expect_err(bad)
            .to_string();
        assert!(err.contains("flexio_pipeline_depth"), "undescriptive error {err:?}");
    }
    // validate_for rejects a zero depth like validate does.
    assert!(Hints { pipeline_depth: PipelineDepth::Fixed(0), ..Hints::default() }
        .validate_for(4)
        .is_err());
}
