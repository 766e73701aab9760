//! Pinned virtual results for a message-heavy world.
//!
//! The parity suites compare reruns and engine variants with each other,
//! so a runtime change that altered message matching or wake order in
//! every run alike would still pass them. This test pins the
//! absolute result instead: an FNV-1a digest over every rank's final
//! virtual clock and `Stats` for a 256-rank fine-grained HPIO write under
//! `ExchangeMode::Alltoallw` — the allgatherv of filetype metadata, one
//! alltoallv per buffer cycle and the open/close barriers all feed it.
//!
//! A change that is meant to touch host time only (mailboxes, scheduler
//! bookkeeping, collective tags) must leave the constant alone. A change
//! to the virtual model re-harvests it and says so.

use flexio::core::{ExchangeMode, Hints, MpiFile};
use flexio::hpio::{HpioSpec, TypeStyle};
use flexio::pfs::{Pfs, PfsConfig};
use flexio::sim::{run, CostModel, Stats};
use flexio::types::Datatype;

/// Digest of the 256-rank world below.
const PINNED_DIGEST: u64 = 0xa299_35a7_8ed0_1be0;

/// Messages the 256-rank world sends in total.
const PINNED_MSGS: u64 = 658_944;

/// 64-bit FNV-1a, fed field by field.
struct Fnv(u64);

impl Fnv {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Every counter of `s`, in declaration order. The exhaustive pattern
/// makes a new `Stats` field a compile error here, not a silent gap.
fn hash_stats(h: &mut Fnv, s: &Stats) {
    let Stats {
        msgs_sent,
        bytes_sent,
        pairs_processed,
        memcpy_bytes,
        bytes_copied,
        phase_ns,
        schedule_cache_hits,
        schedule_cache_misses,
        schedule_cache_patches,
        flatten_cache_hits,
        flatten_cache_misses,
        overlap_saved_ns,
        derive_overlap_saved_ns,
        pipeline_depth_used,
        io_retries,
        degraded_cycles,
        realms_rebalanced,
        ranks_recovered,
    } = s;
    for v in [
        msgs_sent,
        bytes_sent,
        pairs_processed,
        memcpy_bytes,
        bytes_copied,
        &phase_ns[0],
        &phase_ns[1],
        &phase_ns[2],
        schedule_cache_hits,
        schedule_cache_misses,
        schedule_cache_patches,
        flatten_cache_hits,
        flatten_cache_misses,
        overlap_saved_ns,
        derive_overlap_saved_ns,
        pipeline_depth_used,
        io_retries,
        degraded_cycles,
        realms_rebalanced,
        ranks_recovered,
    ] {
        h.u64(*v);
    }
}

#[test]
fn fine_alltoallw_write_matches_pinned_digest() {
    let nprocs = 256;
    // The fine-grained fig4 write of the host-scaling benchmark: 16
    // regions of 8 B per rank, a 512 B collective buffer, p/2 aggregators.
    let spec = HpioSpec {
        region_size: 8,
        region_count: 16,
        region_spacing: 128,
        mem_noncontig: true,
        file_noncontig: true,
        nprocs,
    };
    let hints = Hints {
        cb_nodes: Some(nprocs / 2),
        cb_buffer_size: 512,
        exchange: ExchangeMode::Alltoallw,
        ..Hints::default()
    };
    let pfs = Pfs::new(PfsConfig::default());
    let fs = std::sync::Arc::clone(&pfs);
    let out = run(nprocs, CostModel::default(), move |rank| {
        let mut f = MpiFile::open(rank, &fs, "pin", hints.clone()).unwrap();
        let (disp, ftype) = spec.file_view(rank.rank(), TypeStyle::Succinct);
        f.set_view(disp, &Datatype::bytes(1), &ftype).unwrap();
        let buf = spec.make_buffer(rank.rank());
        f.write_all(&buf, &spec.mem_type(), spec.mem_count()).unwrap();
        f.close().unwrap();
        (rank.now(), rank.stats())
    });

    let h = pfs.open("pin", usize::MAX - 1);
    let mut image = vec![0u8; h.size() as usize];
    h.read(0, 0, &mut image).unwrap();
    assert_eq!(spec.verify(&image), Ok(()), "file image wrong");

    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for (clock, stats) in &out {
        h.u64(*clock);
        hash_stats(&mut h, stats);
    }
    let msgs: u64 = out.iter().map(|(_, s)| s.msgs_sent).sum();
    assert_eq!(msgs, PINNED_MSGS, "message count moved");
    assert_eq!(
        h.0, PINNED_DIGEST,
        "virtual clocks or Stats moved: {:#018x} vs pinned {:#018x}",
        h.0, PINNED_DIGEST
    );
}
