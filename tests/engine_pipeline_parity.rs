//! Differential parity suite for the shared pipeline core: the ROMIO
//! baseline and the flexible engine now run their buffer cycles on the
//! same `CycleDriver` drive loops, so pipelining must be *semantically
//! invisible* on both — at every depth, in every exchange mode, with the
//! schedule cache on or off, and under injected faults:
//!
//! * pipelined ROMIO at any depth is byte-identical (file image and
//!   read-back) to the serial (depth 1) ROMIO oracle,
//! * both engines land byte-identical file images for the same workload,
//! * work counters (pairs, copies, messages, payload bytes) are
//!   depth-invariant, `pipeline_depth_used` and the PFS
//!   `nb_inflight_peak` respect the requested cap, the serial oracle
//!   hides nothing, and every rank's phase buckets sum to its clock,
//! * ROMIO at depth 1 charges *exactly* what the pre-refactor serial
//!   ROMIO loop charged, pinned number for number by harvested fixtures.

use flexio::core::{hints_from_info, Engine, ExchangeMode, Hints, PipelineDepth};
use flexio::pfs::{FaultPlan, Pfs, PfsConfig, PfsCostModel};
use flexio::sim::prop::Runner;
use flexio::sim::{Stats, XorShift64Star};
use flexio::workload::{env_zero_copy, read_file, run_tiled, RankOutcome, TiledShape};
use std::sync::Arc;

fn timed_pfs(faults: Option<&FaultPlan>) -> Arc<Pfs> {
    let cfg = PfsConfig {
        n_osts: 4,
        stripe_size: 1024,
        page_size: 64,
        locking: false,
        lock_expansion: false,
        client_cache: false,
        cost: PfsCostModel::default(),
    };
    match faults {
        Some(plan) => Pfs::with_faults(cfg, plan.clone()),
        None => Pfs::new(cfg),
    }
}

/// One randomized parity case: a tiled collective workload plus the
/// pipeline depth, exchange mode, cache setting, and fault plan to run it
/// under — everything but the engine, which the property sweeps itself.
#[derive(Debug, Clone)]
struct Parity {
    nprocs: usize,
    /// Bytes per filetype block.
    block: u64,
    /// Filetype repetitions per collective call.
    reps: u64,
    /// Collective writes before the final collective read.
    steps: u64,
    aggs: usize,
    cb: usize,
    exchange: ExchangeMode,
    cache: bool,
    depth: PipelineDepth,
    /// `None` for a fault-free case.
    plan: Option<FaultPlan>,
}

fn random_parity(rng: &mut XorShift64Star) -> Parity {
    let nprocs = 2 + (rng.next_u64() % 7) as usize; // 2..=8
    Parity {
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
        cache: rng.next_u64().is_multiple_of(2),
        depth: match rng.next_u64() % 6 {
            0..=3 => PipelineDepth::Fixed(2 + (rng.next_u64() % 5) as u32), // 2..=6
            _ => PipelineDepth::Auto,
        },
        plan: if rng.next_u64().is_multiple_of(3) {
            // Modest transient rate with a generous retry budget (the
            // hints below allow 12): calls still succeed, so `unwrap`-free
            // comparison against the fault-free oracle stays simple.
            Some(FaultPlan::transient(rng.next_u64(), (rng.next_u64() % 101) as f64 / 1000.0))
        } else {
            None
        },
    }
}

/// Run `p`'s workload (`steps` collective writes, one collective read)
/// under `engine` at `depth` with the zero-copy datatype path on or off.
/// Returns the file image, every rank's outcome, and the PFS
/// nonblocking-queue high-water mark.
fn roundtrip(
    p: &Parity,
    engine: Engine,
    depth: PipelineDepth,
    zero_copy: bool,
) -> (Vec<u8>, Vec<RankOutcome>, u64) {
    let pfs = timed_pfs(p.plan.as_ref());
    let hints = Hints {
        engine,
        pipeline_depth: depth,
        cb_nodes: Some(p.aggs),
        cb_buffer_size: p.cb,
        exchange: p.exchange,
        schedule_cache: p.cache,
        zero_copy,
        io_retries: 12,
        ..Hints::default()
    };
    let shape = TiledShape { nprocs: p.nprocs, block: p.block, reps: p.reps, steps: p.steps };
    let out = run_tiled(&pfs, "parity", shape, &hints, true);
    let img = read_file(&pfs, "parity");
    (img, out, pfs.stats().nb_inflight_peak)
}

/// The cap a depth hint promises: `pipeline_depth_used` may not exceed the
/// depth, and the PFS may never see more than `depth - 1` outstanding
/// nonblocking ops from any one handle. `None` for Auto (bounded only by
/// the engine's internal ceiling).
fn depth_cap(depth: PipelineDepth) -> Option<u64> {
    match depth {
        PipelineDepth::Fixed(d) => Some(u64::from(d)),
        PipelineDepth::Auto => None,
    }
}

/// The tentpole differential property. For each random case, run BOTH
/// engines at the case's depth and at depth 1, and require that within an
/// engine pipelining changed nothing but virtual time, and that across
/// engines the bytes agree.
#[test]
fn pipelined_engines_match_their_serial_oracles() {
    Runner::new("pipelined_engines_match_their_serial_oracles")
        .cases(12)
        .regressions(include_str!("engine_pipeline_parity.proptest-regressions"))
        .run(random_parity, |p| {
            let mut images: Vec<Vec<u8>> = Vec::new();
            for engine in [Engine::Romio, Engine::Flexible] {
                let zc = env_zero_copy();
                let (img_d, out_d, peak_d) = roundtrip(p, engine, p.depth, zc);
                let (img_1, out_1, peak_1) = roundtrip(p, engine, PipelineDepth::Fixed(1), zc);
                assert_eq!(
                    img_d, img_1,
                    "{engine:?}: file image diverges from the depth-1 oracle"
                );
                assert_eq!(peak_1, 0, "{engine:?}: serial oracle queued nb ops");
                if let Some(cap) = depth_cap(p.depth) {
                    assert!(
                        peak_d <= cap.saturating_sub(1),
                        "{engine:?}: nb queue {peak_d} exceeds depth {cap} cap"
                    );
                }
                let lead = &out_d[0].2;
                for r in 0..p.nprocs {
                    let (now, d, s) = (&out_d[r].0, &out_d[r].1, &out_1[r].1);
                    assert_eq!(out_d[r].2, *lead, "{engine:?}: rank {r} outcome split");
                    assert_eq!(out_d[r].2, out_1[r].2, "{engine:?}: rank {r} outcomes");
                    assert_eq!(out_d[r].3, out_1[r].3, "{engine:?}: rank {r} read-back");
                    assert_eq!(d.pairs_processed, s.pairs_processed, "{engine:?}: rank {r} pairs");
                    assert_eq!(d.memcpy_bytes, s.memcpy_bytes, "{engine:?}: rank {r} copies");
                    assert_eq!(d.msgs_sent, s.msgs_sent, "{engine:?}: rank {r} messages");
                    assert_eq!(d.bytes_sent, s.bytes_sent, "{engine:?}: rank {r} payload");
                    assert_eq!(d.phase_ns.iter().sum::<u64>(), *now, "{engine:?}: rank {r} phase sum");
                    assert_eq!(
                        out_1[r].1.overlap_saved_ns, 0,
                        "{engine:?}: rank {r} serial oracle overlapped"
                    );
                    assert!(s.pipeline_depth_used <= 1, "{engine:?}: rank {r} oracle depth");
                    if let Some(cap) = depth_cap(p.depth) {
                        assert!(
                            d.pipeline_depth_used <= cap,
                            "{engine:?}: rank {r} depth {} over cap {cap}",
                            d.pipeline_depth_used
                        );
                    }
                }
                images.push(img_d);
            }
            assert_eq!(images[0], images[1], "engines disagree on the bytes");
        });
}

/// Zero-copy differential property: for each random case (including the
/// fault-plan cases), both engines run the same workload with
/// `flexio_zero_copy` on and off. Disabling it must reproduce the packed
/// staging path byte for byte, and zero-copy may only *remove* staging
/// copies — never add messages, pairs, or payload bytes, and never move
/// different bytes. Under `Alltoallw` the packed path already models no
/// staging copies, so there the two settings must charge identically.
#[test]
fn zero_copy_parity_with_packed_staging() {
    Runner::new("zero_copy_parity_with_packed_staging").cases(10).run(random_parity, |p| {
        for engine in [Engine::Romio, Engine::Flexible] {
            let (img_on, out_on, _) = roundtrip(p, engine, p.depth, true);
            let (img_off, out_off, _) = roundtrip(p, engine, p.depth, false);
            assert_eq!(img_on, img_off, "{engine:?}: zero-copy changed the bytes on disk");
            for r in 0..p.nprocs {
                let (now_on, on) = (&out_on[r].0, &out_on[r].1);
                let (now_off, off) = (&out_off[r].0, &out_off[r].1);
                assert_eq!(out_on[r].2, out_off[r].2, "{engine:?}: rank {r} outcome split");
                assert_eq!(out_on[r].3, out_off[r].3, "{engine:?}: rank {r} read-back");
                assert_eq!(on.pairs_processed, off.pairs_processed, "{engine:?}: rank {r} pairs");
                assert_eq!(on.msgs_sent, off.msgs_sent, "{engine:?}: rank {r} messages");
                assert_eq!(on.bytes_sent, off.bytes_sent, "{engine:?}: rank {r} payload");
                assert_eq!(
                    on.phase_ns.iter().sum::<u64>(),
                    *now_on,
                    "{engine:?}: rank {r} zero-copy phase sum"
                );
                assert_eq!(
                    off.phase_ns.iter().sum::<u64>(),
                    *now_off,
                    "{engine:?}: rank {r} packed phase sum"
                );
                assert!(
                    on.bytes_copied <= off.bytes_copied,
                    "{engine:?}: rank {r} zero-copy raised the staging ledger ({} > {})",
                    on.bytes_copied,
                    off.bytes_copied
                );
                assert!(
                    on.memcpy_bytes <= off.memcpy_bytes,
                    "{engine:?}: rank {r} zero-copy raised copy charges ({} > {})",
                    on.memcpy_bytes,
                    off.memcpy_bytes
                );
                // ROMIO ignores the exchange hint (always point-to-point
                // staging), so the copy-free Alltoallw identity is a
                // flexible-engine property only. Clocks are not compared:
                // overlapped cycles at shared OSTs make virtual time
                // schedule-order sensitive; the work counters are not.
                if engine == Engine::Flexible && matches!(p.exchange, ExchangeMode::Alltoallw) {
                    assert_eq!(
                        on.memcpy_bytes, off.memcpy_bytes,
                        "{engine:?}: rank {r} alltoallw copies"
                    );
                    assert_eq!(
                        on.bytes_copied, off.bytes_copied,
                        "{engine:?}: rank {r} alltoallw ledger"
                    );
                }
            }
        }
    });
}

/// The fixture workload every ROMIO charge fixture below runs — the same
/// geometry as `tests/pipeline_depth.rs`'s flexible-engine fixtures (4
/// ranks, 16 interleaved 64 B blocks, 2 writes + 1 read, 512 B collective
/// buffer, timed PFS), so the engines' fixtures stay comparable.
fn fixture_run(hints: Hints) -> Vec<(u64, Stats)> {
    let pfs = timed_pfs(None);
    let shape = TiledShape { nprocs: 4, block: 64, reps: 16, steps: 2 };
    run_tiled(&pfs, "fix", shape, &hints, true)
        .into_iter()
        .map(|(now, stats, results, _)| {
            assert!(results.iter().all(|r| r.is_ok()), "fixture op failed");
            (now, stats)
        })
        .collect()
}

/// Per-rank `(clock, phase buckets, hidden ns, pairs, copy bytes,
/// messages, payload bytes)`.
type ChargeRow = (u64, [u64; 3], u64, u64, u64, u64, u64);

fn assert_charges(got: &[(u64, Stats)], want: &[ChargeRow], label: &str) {
    for (r, ((now, s), (w_now, w_phase, w_saved, w_pairs, w_copy, w_msgs, w_bytes))) in
        got.iter().zip(want).enumerate()
    {
        assert_eq!(*now, *w_now, "{label}: rank {r} clock");
        assert_eq!(s.phase_ns, *w_phase, "{label}: rank {r} phase buckets");
        assert_eq!(s.overlap_saved_ns, *w_saved, "{label}: rank {r} hidden ns");
        assert_eq!(s.pairs_processed, *w_pairs, "{label}: rank {r} pairs");
        assert_eq!(s.memcpy_bytes, *w_copy, "{label}: rank {r} copy bytes");
        assert_eq!(s.msgs_sent, *w_msgs, "{label}: rank {r} messages");
        assert_eq!(s.bytes_sent, *w_bytes, "{label}: rank {r} payload bytes");
        assert_eq!(s.derive_overlap_saved_ns, 0, "{label}: rank {r} derive overlap");
    }
}

/// ROMIO's charge sequence on the fixture workload with one aggregator,
/// harvested from the pre-refactor serial loop (commit "Fault injection,
/// collective error agreement, and straggler degradation") — the trace
/// depth 1 on the shared pipeline must replay number for number.
const ROMIO_SERIAL_1AGG: [ChargeRow; 4] = [
    (4_663_928, [44_640, 2_646_464, 1_972_824], 0, 292, 19_200, 57, 3_360),
    (4_667_928, [13_536, 4_654_392, 0], 0, 100, 3_072, 49, 3_104),
    (4_671_928, [13_536, 4_658_392, 0], 0, 100, 3_072, 49, 3_104),
    (4_607_928, [13_536, 4_594_392, 0], 0, 100, 3_072, 49, 3_104),
];

/// Same, with two aggregators (ranks 0 and 2).
const ROMIO_SERIAL_2AGG: [ChargeRow; 4] = [
    (4_151_948, [29_088, 3_136_448, 986_412], 0, 196, 11_136, 53, 3_232),
    (4_151_948, [13_536, 4_138_412, 0], 0, 100, 3_072, 49, 3_104),
    (4_159_884, [29_088, 3_144_384, 986_412], 0, 196, 11_136, 53, 3_232),
    (4_147_948, [13_536, 4_134_412, 0], 0, 100, 3_072, 49, 3_104),
];

#[test]
fn romio_depth_1_replays_pre_refactor_charge_sequence() {
    for (aggs, want) in [(1usize, &ROMIO_SERIAL_1AGG), (2, &ROMIO_SERIAL_2AGG)] {
        // The fixtures replay the pre-zero-copy packed path: pin it.
        let base = Hints {
            engine: Engine::Romio,
            cb_nodes: Some(aggs),
            cb_buffer_size: 512,
            zero_copy: false,
            ..Hints::default()
        };
        let out = fixture_run(Hints {
            pipeline_depth: PipelineDepth::Fixed(1),
            ..base.clone()
        });
        assert_charges(&out, want, &format!("romio {aggs} agg depth 1"));
        // Its `flexio_double_buffer disable` alias is the same serial
        // engine, whatever the depth hint says.
        let deep = Hints { pipeline_depth: PipelineDepth::Fixed(4), ..base };
        let alias = hints_from_info(deep, &[("flexio_double_buffer", "disable")]).unwrap();
        let out = fixture_run(alias);
        assert_charges(&out, want, &format!("romio {aggs} agg flexio_double_buffer disable"));
    }
}

#[test]
fn romio_pipeline_hides_time_and_respects_the_cap() {
    let stats = |depth| {
        fixture_run(Hints {
            engine: Engine::Romio,
            pipeline_depth: depth,
            cb_nodes: Some(1),
            cb_buffer_size: 512,
            // Compared against the packed-path fixture constants below.
            zero_copy: false,
            ..Hints::default()
        })
    };
    for (depth, cap) in
        [(PipelineDepth::Fixed(1), 1), (PipelineDepth::Fixed(2), 2), (PipelineDepth::Fixed(4), 4)]
    {
        let out = stats(depth);
        let deepest = out.iter().map(|(_, s)| s.pipeline_depth_used).max().unwrap();
        assert!(deepest <= cap, "{depth:?} exceeded its cap: reached {deepest}");
        assert!(deepest >= 1, "{depth:?} recorded no pipeline depth at all");
        let saved: u64 = out.iter().map(|(_, s)| s.overlap_saved_ns).sum();
        if cap == 1 {
            assert_eq!(saved, 0, "serial ROMIO must hide nothing");
        } else {
            assert!(saved > 0, "{depth:?} hid no time on a cycle-rich workload");
        }
        // Work counters stay depth-invariant (also pinned by the fixtures).
        for (r, (_, s)) in out.iter().enumerate() {
            let want = ROMIO_SERIAL_1AGG[r];
            assert_eq!(s.pairs_processed, want.3, "rank {r} pairs at {depth:?}");
            assert_eq!(s.memcpy_bytes, want.4, "rank {r} copies at {depth:?}");
        }
    }
    // I/O dwarfs the exchange on this workload, so Auto must go beyond
    // classic double buffering on the aggregator — same adaptation the
    // flexible engine shows, because it IS the same code now.
    let out = stats(PipelineDepth::Auto);
    let deepest = out.iter().map(|(_, s)| s.pipeline_depth_used).max().unwrap();
    assert!(deepest > 2, "auto depth never exceeded double buffering ({deepest})");
}
