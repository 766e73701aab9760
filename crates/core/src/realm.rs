//! Datatype-described file realms and pluggable realm assignment (§5.2).
//!
//! A [`FileRealm`] is "a datatype and a file offset (similar to a file
//! view)": the set of file bytes one aggregator is exclusively responsible
//! for. Realms are *streams*: deciding what realm a byte belongs to is a
//! search, not an O(1) calculation — the generality/performance tradeoff
//! the paper discusses. [`RealmAssigner`] is the plug-in point: the default
//! reproduces ROMIO's even aggregate-access-region split; alternatives
//! implement boundary alignment (§6.4), persistent whole-file realms
//! (§5.2), and data-balanced boundaries (the §7 "future work" assigner).

use crate::meta::ClientAccess;
use flexio_types::{FileView, FlatType, Seg};
use std::sync::Arc;

/// The file bytes owned by one aggregator, as a (possibly tiled) datatype
/// stream, optionally clipped to a file range.
#[derive(Debug, Clone)]
pub struct FileRealm {
    view: FileView,
    /// Clip to `[lo, hi)` in file space (contiguous per-call realms).
    bound: Option<(u64, u64)>,
}

impl FileRealm {
    /// A contiguous realm covering `[lo, hi)`. `lo == hi` makes an empty
    /// realm (a legal assignment: the aggregator idles).
    pub fn contiguous(lo: u64, hi: u64) -> FileRealm {
        FileRealm { view: FileView::contiguous(lo), bound: Some((lo, hi)) }
    }

    /// An unbounded realm: `pattern` tiled forever from `disp`. Used by
    /// persistent file realms, which must cover the entire (growing) file.
    pub fn tiled(pattern: Arc<FlatType>, disp: u64) -> FileRealm {
        FileRealm {
            view: FileView::new(disp, pattern, 1).expect("invalid realm pattern"),
            bound: None,
        }
    }

    /// Build from any monotonic flattened datatype, clipped to a range.
    pub fn from_pattern(pattern: Arc<FlatType>, disp: u64, bound: Option<(u64, u64)>) -> FileRealm {
        FileRealm {
            view: FileView::new(disp, pattern, 1).expect("invalid realm pattern"),
            bound,
        }
    }

    /// `D` of the realm's datatype: pairs per tile.
    pub fn d(&self) -> usize {
        self.view.d()
    }

    /// True if this realm owns zero bytes.
    pub fn is_empty(&self) -> bool {
        matches!(self.bound, Some((lo, hi)) if lo >= hi)
    }

    fn clamp(&self, off: u64) -> u64 {
        match self.bound {
            Some((lo, hi)) => off.clamp(lo, hi),
            None => off,
        }
    }

    /// Realm-data position of the first owned byte at or after file
    /// offset `off` (a search: O(log D)).
    pub fn data_lower(&self, off: u64) -> u64 {
        self.view.file_to_data_lower(self.clamp(off))
    }

    /// Owned bytes within `[lo, hi)` of file space.
    pub fn owned_between(&self, lo: u64, hi: u64) -> u64 {
        if lo >= hi {
            return 0;
        }
        self.data_lower(hi).saturating_sub(self.data_lower(lo))
    }

    /// File segments of realm-data `[d0, d1)`, merged and sorted. Realm
    /// data positions come from [`FileRealm::data_lower`].
    pub fn segments(&self, d0: u64, d1: u64) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        if d0 >= d1 {
            return out;
        }
        let mut cur = self.view.cursor(d0);
        let mut remaining = d1 - d0;
        while remaining > 0 {
            let p = cur.take(remaining);
            match out.last_mut() {
                Some(last) if last.0 + last.1 == p.file_off => last.1 += p.len,
                _ => out.push((p.file_off, p.len)),
            }
            remaining -= p.len;
        }
        out
    }

    /// The tiling of an unbounded realm: its absolute per-period file
    /// segments and the period (pattern extent). `None` for clipped
    /// per-call realms, which have no meaningful period. This is what the
    /// straggler-rebalance path uses to recover the current ownership
    /// split so it can move bytes between aggregators.
    pub fn tile(&self) -> Option<(Vec<(u64, u64)>, u64)> {
        if self.bound.is_some() {
            return None;
        }
        let ft = self.view.ftype();
        let segs =
            ft.segs.iter().map(|s| (self.view.disp() + s.off as u64, s.len)).collect();
        Some((segs, ft.extent))
    }

    /// Does this realm own file offset `off`?
    pub fn owns(&self, off: u64) -> bool {
        if let Some((lo, hi)) = self.bound {
            if off < lo || off >= hi {
                return false;
            }
        }
        self.view.file_to_data_lower(off) != self.view.file_to_data_lower(off + 1)
    }
}

/// Inputs available when assigning realms for one collective call.
#[derive(Debug)]
pub struct AssignCtx<'a> {
    /// Aggregate access region `[lo, hi)` of this collective call.
    pub aar: (u64, u64),
    /// Number of aggregators to produce realms for.
    pub n_aggregators: usize,
    /// Requested boundary alignment in bytes (`fr_alignment` hint).
    pub alignment: Option<u64>,
    /// Every rank's access (for data-aware assignment).
    pub clients: &'a [ClientAccess],
}

/// Pluggable file-realm assignment (§5.2): "one can easily plug in a new
/// optimization function to determine the file realms in a completely
/// different scheme."
pub trait RealmAssigner: Send + Sync {
    /// Produce exactly `ctx.n_aggregators` realms that jointly cover the
    /// aggregate access region (realms must be pairwise disjoint).
    fn assign(&self, ctx: &AssignCtx<'_>) -> Vec<FileRealm>;
    /// Human-readable name for logs and benches.
    fn name(&self) -> &'static str;
}

fn align_down(x: u64, a: u64) -> u64 {
    x - x % a
}

fn align_up(x: u64, a: u64) -> u64 {
    x.div_ceil(a) * a
}

/// ROMIO's default: split the aggregate access region evenly; optionally
/// snap interior boundaries down to the alignment.
#[derive(Debug, Default, Clone, Copy)]
pub struct EvenAar;

impl RealmAssigner for EvenAar {
    fn assign(&self, ctx: &AssignCtx<'_>) -> Vec<FileRealm> {
        let (lo, hi) = ctx.aar;
        let a = ctx.n_aggregators as u64;
        let len = hi.saturating_sub(lo);
        let mut bounds = Vec::with_capacity(ctx.n_aggregators + 1);
        for i in 0..=a {
            let mut b = lo + len * i / a;
            if let Some(al) = ctx.alignment {
                if i == 0 {
                    b = align_down(b, al);
                } else if i == a {
                    b = align_up(b, al);
                } else {
                    b = align_down(b, al).max(align_down(lo, al));
                }
            }
            // Keep boundaries monotone after rounding.
            if let Some(&prev) = bounds.last() {
                b = b.max(prev);
            }
            bounds.push(b);
        }
        // Guarantee full coverage of the AAR.
        *bounds.last_mut().unwrap() = (*bounds.last().unwrap()).max(hi);
        (0..ctx.n_aggregators)
            .map(|i| FileRealm::contiguous(bounds[i], bounds[i + 1]))
            .collect()
    }

    fn name(&self) -> &'static str {
        "even-aar"
    }
}

/// Persistent file realms (§5.2/§6.4): block-cyclic over the whole file,
/// anchored at byte zero, so they never change between collective calls.
/// The block size is derived from the first call's AAR (rounded up to the
/// alignment when given).
#[derive(Debug, Default, Clone, Copy)]
pub struct PersistentBlockCyclic;

impl RealmAssigner for PersistentBlockCyclic {
    fn assign(&self, ctx: &AssignCtx<'_>) -> Vec<FileRealm> {
        let (lo, hi) = ctx.aar;
        let a = ctx.n_aggregators as u64;
        let mut block = (hi.saturating_sub(lo)).div_ceil(a).max(1);
        if let Some(al) = ctx.alignment {
            block = align_up(block, al);
        }
        (0..ctx.n_aggregators)
            .map(|i| {
                let pattern = FlatType {
                    segs: vec![Seg::new(0, block)],
                    lb: 0,
                    extent: block * a,
                    size: block,
                    monotonic: true,
                    contiguous: true,
                    prefix: vec![0, block],
                };
                FileRealm::tiled(Arc::new(pattern), i as u64 * block)
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "persistent-block-cyclic"
    }
}

/// Data-balanced contiguous realms (the paper's §7 "better I/O aggregator
/// load balancing" future-work direction): boundaries are chosen so every
/// aggregator owns roughly the same number of *accessed* bytes, not the
/// same span of file. Helps sparse clustered accesses, where the even
/// split leaves some aggregators idle.
#[derive(Debug, Default, Clone, Copy)]
pub struct BalancedLoad;

impl BalancedLoad {
    /// Accessed bytes at file offsets below `x`, across all clients.
    fn cumulative(clients: &[ClientAccess], x: u64) -> u64 {
        clients
            .iter()
            .filter(|c| c.data_len > 0)
            .map(|c| {
                let pos = c.view.file_to_data_lower(x);
                pos.clamp(c.data_start, c.data_end()) - c.data_start
            })
            .sum()
    }
}

impl RealmAssigner for BalancedLoad {
    fn assign(&self, ctx: &AssignCtx<'_>) -> Vec<FileRealm> {
        let (lo, hi) = ctx.aar;
        let a = ctx.n_aggregators as u64;
        let total = Self::cumulative(ctx.clients, hi);
        let mut bounds = vec![lo];
        for i in 1..a {
            let target = total * i / a;
            // Binary search the smallest offset with cumulative >= target.
            let (mut l, mut r) = (lo, hi);
            while l < r {
                let mid = l + (r - l) / 2;
                if Self::cumulative(ctx.clients, mid) < target {
                    l = mid + 1;
                } else {
                    r = mid;
                }
            }
            let mut b = l;
            if let Some(al) = ctx.alignment {
                b = align_down(b, al).max(lo);
            }
            b = b.max(*bounds.last().unwrap());
            bounds.push(b);
        }
        bounds.push(hi.max(*bounds.last().unwrap()));
        (0..ctx.n_aggregators)
            .map(|i| FileRealm::contiguous(bounds[i], bounds[i + 1]))
            .collect()
    }

    fn name(&self) -> &'static str {
        "balanced-load"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexio_sim::prop::Runner;
    use flexio_types::{flatten, Datatype};

    fn ctx(aar: (u64, u64), a: usize, alignment: Option<u64>) -> AssignCtx<'static> {
        AssignCtx { aar, n_aggregators: a, alignment, clients: &[] }
    }

    #[test]
    fn contiguous_realm_basics() {
        let r = FileRealm::contiguous(100, 200);
        assert!(!r.is_empty());
        assert_eq!(r.owned_between(0, 1000), 100);
        assert_eq!(r.owned_between(150, 160), 10);
        assert_eq!(r.owned_between(0, 100), 0);
        assert!(r.owns(100));
        assert!(r.owns(199));
        assert!(!r.owns(200));
        assert!(!r.owns(99));
    }

    #[test]
    fn contiguous_realm_segments() {
        let r = FileRealm::contiguous(100, 200);
        let d0 = r.data_lower(120);
        let d1 = r.data_lower(150);
        assert_eq!(r.segments(d0, d1), vec![(120, 30)]);
    }

    #[test]
    fn empty_realm() {
        let r = FileRealm::contiguous(50, 50);
        assert!(r.is_empty());
        assert_eq!(r.owned_between(0, 100), 0);
    }

    #[test]
    fn tiled_realm_block_cyclic() {
        // blocks of 10 every 30 bytes starting at 10 (aggregator 1 of 3).
        let pattern = FlatType {
            segs: vec![Seg::new(0, 10)],
            lb: 0,
            extent: 30,
            size: 10,
            monotonic: true,
            contiguous: true,
            prefix: vec![0, 10],
        };
        let r = FileRealm::tiled(Arc::new(pattern), 10);
        assert!(r.owns(10));
        assert!(r.owns(19));
        assert!(!r.owns(20));
        assert!(!r.owns(9));
        assert!(r.owns(40));
        assert_eq!(r.owned_between(0, 90), 30);
        let d0 = r.data_lower(0);
        let d1 = r.data_lower(90);
        assert_eq!(r.segments(d0, d1), vec![(10, 10), (40, 10), (70, 10)]);
    }

    #[test]
    fn even_aar_covers_and_splits() {
        let realms = EvenAar.assign(&ctx((100, 500), 4, None));
        assert_eq!(realms.len(), 4);
        let mut covered = 0;
        for r in &realms {
            covered += r.owned_between(100, 500);
        }
        assert_eq!(covered, 400);
        assert!(realms[0].owns(100));
        assert!(realms[3].owns(499));
        // Disjoint: each byte owned exactly once.
        for off in (100..500).step_by(7) {
            let owners = realms.iter().filter(|r| r.owns(off)).count();
            assert_eq!(owners, 1, "offset {off}");
        }
    }

    #[test]
    fn even_aar_aligned_boundaries() {
        let realms = EvenAar.assign(&AssignCtx {
            aar: (100, 1000),
            n_aggregators: 3,
            alignment: Some(256),
            clients: &[],
        });
        // Boundaries snap to 256 multiples; coverage preserved.
        let mut covered = 0;
        for r in &realms {
            covered += r.owned_between(100, 1000);
        }
        assert_eq!(covered, 900);
        // Interior boundary must be 256-aligned: realm 1 start.
        let d = realms[1].data_lower(0);
        let segs = realms[1].segments(d, d + 1);
        if let Some(&(off, _)) = segs.first() {
            assert_eq!(off % 256, 0, "unaligned interior boundary {off}");
        }
    }

    #[test]
    fn even_aar_alignment_may_empty_some_realms() {
        // Tiny AAR, huge alignment: all interior boundaries collapse.
        let realms = EvenAar.assign(&AssignCtx {
            aar: (0, 100),
            n_aggregators: 4,
            alignment: Some(1 << 20),
            clients: &[],
        });
        let covered: u64 = realms.iter().map(|r| r.owned_between(0, 100)).sum();
        assert_eq!(covered, 100);
        assert!(realms[1].is_empty() || realms[1].owned_between(0, 100) == 0);
    }

    #[test]
    fn persistent_block_cyclic_covers_everything() {
        let realms = PersistentBlockCyclic.assign(&ctx((0, 300), 3, None));
        for off in (0..2000).step_by(13) {
            let owners = realms.iter().filter(|r| r.owns(off)).count();
            assert_eq!(owners, 1, "offset {off}");
        }
        // Anchored at zero: realm 0 owns byte 0 regardless of the AAR.
        let realms = PersistentBlockCyclic.assign(&ctx((1000, 1300), 3, None));
        assert!(realms[0].owns(0));
    }

    #[test]
    fn persistent_blocks_align() {
        let realms = PersistentBlockCyclic.assign(&AssignCtx {
            aar: (0, 1000),
            n_aggregators: 4,
            alignment: Some(256),
            clients: &[],
        });
        // Block = ceil(250 -> 256); realm 1 starts at 256.
        assert!(realms[1].owns(256));
        assert!(!realms[1].owns(255));
    }

    #[test]
    fn balanced_load_equalizes_sparse_clusters() {
        use crate::meta::ClientAccess;
        // One client with all data clustered in [0, 100) of a [0, 1000) AAR.
        let dt = Datatype::bytes(100);
        let client = ClientAccess {
            view: flexio_types::FileView::new(0, Arc::new(flatten(&dt)), 1).unwrap(),
            data_start: 0,
            data_len: 100,
        };
        let clients = vec![client];
        let ctx = AssignCtx {
            aar: (0, 1000),
            n_aggregators: 2,
            alignment: None,
            clients: &clients,
        };
        let even = EvenAar.assign(&ctx);
        let bal = BalancedLoad.assign(&ctx);
        // Even split: realm 1 gets nothing useful.
        assert_eq!(even[1].owned_between(500, 1000), 500); // span, but
        // Balanced: the boundary lands inside the cluster (~byte 50).
        let b1_start = {
            let d = bal[1].data_lower(0);
            bal[1].segments(d, d + 1)[0].0
        };
        assert!((40..=60).contains(&b1_start), "boundary at {b1_start}");
    }

    fn check_partition(assigner: &dyn RealmAssigner, ctx: &AssignCtx<'_>) -> Result<(), String> {
        let realms = assigner.assign(ctx);
        if realms.len() != ctx.n_aggregators {
            return Err(format!("{}: wrong realm count", assigner.name()));
        }
        let (lo, hi) = ctx.aar;
        // Sampled ownership: every AAR byte owned by exactly one realm.
        let step = ((hi - lo) / 257).max(1);
        let mut off = lo;
        while off < hi {
            let owners = realms.iter().filter(|r| r.owns(off)).count();
            if owners != 1 {
                return Err(format!("{}: offset {off} owned {owners} times", assigner.name()));
            }
            off += step;
        }
        // Coverage accounting.
        let covered: u64 = realms.iter().map(|r| r.owned_between(lo, hi)).sum();
        if covered != hi - lo {
            return Err(format!("{}: covered {covered} of {}", assigner.name(), hi - lo));
        }
        Ok(())
    }

    /// Every built-in assigner partitions the AAR: full coverage,
    /// pairwise-disjoint ownership, for arbitrary regions, aggregator
    /// counts, and alignments.
    #[test]
    fn assigners_partition_the_aar() {
        Runner::new("assigners_partition_the_aar").cases(64).run(
            |rng| {
                let lo = rng.next_u64() % 100_000;
                let len = 1 + rng.next_u64() % 499_999;
                let aggs = 1 + (rng.next_u64() % 11) as usize;
                let align_pow = (rng.next_u64() % 2 == 1).then(|| 4 + (rng.next_u64() % 12) as u32);
                (lo, len, aggs, align_pow)
            },
            |&(lo, len, aggs, align_pow)| {
                let ctx = AssignCtx {
                    aar: (lo, lo + len),
                    n_aggregators: aggs,
                    alignment: align_pow.map(|p| 1u64 << p),
                    clients: &[],
                };
                check_partition(&EvenAar, &ctx).unwrap();
                check_partition(&PersistentBlockCyclic, &ctx).unwrap();
                check_partition(&BalancedLoad, &ctx).unwrap();
            },
        );
    }

    /// Persistent realms own every byte of the file, not just the AAR.
    #[test]
    fn persistent_realms_cover_whole_file() {
        Runner::new("persistent_realms_cover_whole_file").cases(64).run(
            |rng| {
                let lo = rng.next_u64() % 10_000;
                let len = 1 + rng.next_u64() % 99_999;
                let aggs = 1 + (rng.next_u64() % 7) as usize;
                (lo, len, aggs, rng.next_u64() % 1_000_000)
            },
            |&(lo, len, aggs, probe)| {
                let realms = PersistentBlockCyclic.assign(&ctx((lo, lo + len), aggs, None));
                let owners = realms.iter().filter(|r| r.owns(probe)).count();
                assert_eq!(owners, 1, "byte {probe} owned {owners} times");
            },
        );
    }

    /// Realm segments reconstruct exactly the owned byte count.
    #[test]
    fn realm_segments_consistent() {
        Runner::new("realm_segments_consistent").cases(64).run(
            |rng| {
                let lo = rng.next_u64() % 1000;
                let len = 1 + rng.next_u64() % 9_999;
                (lo, len, 1 + (rng.next_u64() % 5) as usize)
            },
            |&(lo, len, aggs)| {
                for r in PersistentBlockCyclic.assign(&ctx((lo, lo + len), aggs, None)) {
                    let d0 = r.data_lower(lo);
                    let d1 = r.data_lower(lo + len);
                    let segs = r.segments(d0, d1);
                    let total: u64 = segs.iter().map(|(_, l)| l).sum();
                    assert_eq!(total, d1 - d0);
                    // Sorted, disjoint.
                    for w in segs.windows(2) {
                        assert!(w[0].0 + w[0].1 <= w[1].0);
                    }
                }
            },
        );
    }
}
