//! Property suites for the two bottom layers of the stack, on the
//! in-repo `flexio::sim::prop` harness: datatype flattening and file
//! views (`flexio-types`), and the striped file system against a flat
//! byte-array reference model (`flexio-pfs`). They live here rather than
//! in the crates because `flexio-sim`, which owns the harness, itself
//! depends on `flexio-types`.

use flexio::sim::prop::Runner;
use flexio::sim::XorShift64Star;

mod types {
    use super::*;
    use flexio::types::{flatten, Datatype, Dt, FileView, FlatType, MemLayout};
    use std::sync::Arc;

    /// Random datatype of bounded size: a leaf of 1..16 bytes under at
    /// most `depth` contiguous / vector / hvector constructors, or an
    /// indexed type of 2-byte elements.
    fn arb_dt(rng: &mut XorShift64Star, depth: u32) -> Dt {
        let variant = if depth == 0 { 0 } else { rng.next_u64() % 5 };
        match variant {
            0 => Datatype::bytes(1 + rng.next_u64() % 15),
            1 => {
                let c = 1 + rng.next_u64() % 4;
                Datatype::contiguous(c, arb_dt(rng, depth - 1))
            }
            2 => {
                let (c, b, s) =
                    (1 + rng.next_u64() % 3, 1 + rng.next_u64() % 2, 1 + rng.next_u64() % 4);
                Datatype::vector(c, b, (s as i64).max(b as i64), arb_dt(rng, depth - 1))
            }
            3 => {
                let (c, b) = (1 + rng.next_u64() % 3, 1 + rng.next_u64() % 2);
                let ch = arb_dt(rng, depth - 1);
                let ext = ch.extent() as i64;
                Datatype::hvector(c, b, (b as i64 * ext).max(1) + 3, ch)
            }
            _ => {
                let mut blocks: Vec<(i64, u64)> = (0..1 + rng.next_u64() % 3)
                    .map(|_| ((rng.next_u64() % 6) as i64, 1 + rng.next_u64() % 2))
                    .collect();
                // Keep displacements monotonic & non-overlapping so the
                // result is view-compatible.
                blocks.sort_unstable();
                let mut cur = 0i64;
                let fixed: Vec<(i64, u64)> = blocks
                    .into_iter()
                    .map(|(d, bl)| {
                        let place = cur.max(d);
                        cur = place + bl as i64;
                        (place, bl)
                    })
                    .collect();
                Datatype::indexed(fixed, Datatype::bytes(2))
            }
        }
    }

    /// Whether `f` can tile a file view: non-empty, monotonic, no segment
    /// below the view origin or past the extent.
    fn view_compatible(f: &FlatType) -> bool {
        let ub = f.segs.last().map(|s| s.end()).unwrap_or(0);
        f.size > 0
            && f.monotonic
            && f.segs.first().map(|s| s.off >= 0).unwrap_or(true)
            && f.extent as i64 >= ub
    }

    /// size() always equals the sum of flattened segment lengths.
    #[test]
    fn size_matches_flatten() {
        Runner::new("size_matches_flatten")
            .cases(256)
            .run(|rng| arb_dt(rng, 3), |dt| assert_eq!(flatten(dt).size, dt.size()));
    }

    /// All flattened segments lie within [lb, ub).
    #[test]
    fn segs_within_bounds() {
        Runner::new("segs_within_bounds").cases(256).run(
            |rng| arb_dt(rng, 3),
            |dt| {
                let (lb, ub) = dt.bounds();
                for s in &flatten(dt).segs {
                    assert!(s.off >= lb, "seg {s:?} below lb {lb}");
                    assert!(s.end() <= ub, "seg {s:?} above ub {ub}");
                }
            },
        );
    }

    /// Wire round-trip is lossless.
    #[test]
    fn wire_roundtrip() {
        Runner::new("wire_roundtrip").cases(256).run(
            |rng| arb_dt(rng, 3),
            |dt| {
                let f = flatten(dt);
                assert_eq!(FlatType::from_wire(&f.to_wire()), f);
            },
        );
    }

    /// data_to_file is strictly increasing and file_to_data_lower inverts it.
    #[test]
    fn view_mapping_bijective() {
        Runner::new("view_mapping_bijective").cases(256).run(
            |rng| (arb_dt(rng, 3), rng.next_u64() % 64),
            |(dt, disp)| {
                let f = flatten(dt);
                if !view_compatible(&f) {
                    return;
                }
                let v = FileView::new(*disp, Arc::new(f), 1).unwrap();
                let mut prev = None;
                for d in 0..64u64 {
                    let off = v.data_to_file(d);
                    if let Some(p) = prev {
                        assert!(off > p, "offsets must be strictly increasing");
                    }
                    prev = Some(off);
                    assert_eq!(v.file_to_data_lower(off), d);
                }
            },
        );
    }

    /// Cursor streaming visits exactly the bytes data_to_file enumerates.
    #[test]
    fn cursor_agrees_with_mapping() {
        Runner::new("cursor_agrees_with_mapping").cases(256).run(
            |rng| (arb_dt(rng, 3), rng.next_u64() % 32, 1 + rng.next_u64() % 6),
            |(dt, start, chunk)| {
                let f = flatten(dt);
                if !view_compatible(&f) {
                    return;
                }
                let v = FileView::new(3, Arc::new(f), 1).unwrap();
                let mut c = v.cursor(*start);
                let mut d = *start;
                for _ in 0..40 {
                    let p = c.take(*chunk);
                    assert_eq!(p.data_pos, d);
                    for k in 0..p.len {
                        assert_eq!(v.data_to_file(d + k), p.file_off + k);
                    }
                    d += p.len;
                }
            },
        );
    }

    /// advance_to_file positions exactly at file_to_data_lower's answer.
    #[test]
    fn advance_matches_lower_bound() {
        Runner::new("advance_matches_lower_bound").cases(256).run(
            |rng| (arb_dt(rng, 3), rng.next_u64() % 512),
            |(dt, target)| {
                let f = flatten(dt);
                if !view_compatible(&f) {
                    return;
                }
                let v = FileView::new(0, Arc::new(f), 1).unwrap();
                let mut c = v.cursor(0);
                c.advance_to_file(*target);
                assert_eq!(c.data_pos(), v.file_to_data_lower(*target));
            },
        );
    }

    /// Gather followed by scatter into a fresh buffer restores data bytes.
    #[test]
    fn gather_scatter_roundtrip() {
        Runner::new("gather_scatter_roundtrip").cases(256).run(
            |rng| (arb_dt(rng, 3), 1 + rng.next_u64() % 3),
            |(dt, count)| {
                let f = flatten(dt);
                if f.size == 0 || f.segs.iter().any(|s| s.off < 0) {
                    return;
                }
                let m = MemLayout::new(Arc::new(f), *count);
                let span = m.span() as usize;
                let buf: Vec<u8> = (0..span).map(|i| (i % 251) as u8).collect();
                let total = m.total() as usize;
                let mut packed = vec![0u8; total];
                m.gather(&buf, 0, &mut packed);
                let mut restored = vec![0u8; span];
                m.scatter(&mut restored, 0, &packed);
                let mut packed2 = vec![0u8; total];
                m.gather(&restored, 0, &mut packed2);
                assert_eq!(packed, packed2);
            },
        );
    }
}

mod pfs {
    use super::*;
    use flexio::pfs::{Pfs, PfsConfig, PfsCostModel};

    #[derive(Debug, Clone)]
    struct Op {
        write: bool,
        off: u64,
        len: usize,
    }

    /// 1..40 reads and writes of 1..120 bytes at offsets below 600.
    fn arb_ops(rng: &mut XorShift64Star) -> Vec<Op> {
        (0..1 + rng.next_u64() % 39)
            .map(|_| Op {
                write: rng.next_u64() % 2 == 1,
                off: rng.next_u64() % 600,
                len: 1 + (rng.next_u64() % 119) as usize,
            })
            .collect()
    }

    fn check_against_reference(cfg: PfsConfig, ops: &[Op]) {
        let pfs = Pfs::new(cfg);
        let h = pfs.open("f", 0);
        let mut reference = vec![0u8; 1024];
        let mut t = 0u64;
        let mut stamp = 1u8;
        for op in ops {
            if op.write {
                let data: Vec<u8> = (0..op.len).map(|i| stamp.wrapping_add(i as u8)).collect();
                stamp = stamp.wrapping_add(17);
                t = h.write(t, op.off, &data).unwrap();
                reference[op.off as usize..op.off as usize + op.len].copy_from_slice(&data);
            } else {
                let mut buf = vec![0u8; op.len];
                t = h.read(t, op.off, &mut buf).unwrap();
                assert_eq!(
                    buf,
                    &reference[op.off as usize..op.off as usize + op.len],
                    "read mismatch at {op:?}"
                );
            }
        }
        let t2 = h.close(t).unwrap();
        assert!(t2 >= t);
    }

    fn cached_locked() -> PfsConfig {
        PfsConfig { locking: true, client_cache: true, ..PfsConfig::test_tiny() }
    }

    /// Uncached path matches a flat byte-array reference model.
    #[test]
    fn uncached_matches_reference() {
        Runner::new("uncached_matches_reference")
            .cases(48)
            .run(arb_ops, |ops| check_against_reference(PfsConfig::test_tiny(), ops));
    }

    /// Cached+locked path matches the same reference model.
    #[test]
    fn cached_matches_reference() {
        Runner::new("cached_matches_reference")
            .cases(48)
            .run(arb_ops, |ops| check_against_reference(cached_locked(), ops));
    }

    /// Two clients with disjoint halves, cached: flush order can't
    /// corrupt; final contents exact after closes.
    #[test]
    fn two_client_disjoint_cached() {
        Runner::new("two_client_disjoint_cached").cases(48).run(
            |rng| rng.next_u64() % 500,
            |&seed| {
                let pfs = Pfs::new(cached_locked());
                let a = pfs.open("f", 0);
                let b = pfs.open("f", 1);
                // Client 0 owns [0, 512), client 1 owns [512, 1024).
                for i in 0..8u64 {
                    let o = (seed + i * 37) % 448;
                    a.write(i, o, &[i as u8 + 1; 64]).unwrap();
                    b.write(i, 512 + o, &[i as u8 + 101; 64]).unwrap();
                }
                a.close(100).unwrap();
                b.close(100).unwrap();
                let c = pfs.open("f", 2);
                let mut buf = vec![0u8; 1024];
                c.read(0, 0, &mut buf).unwrap();
                // Every written byte must be one of the stamps from the correct half.
                for (i, &v) in buf.iter().enumerate() {
                    if v != 0 {
                        if i < 512 {
                            assert!((1..=8).contains(&v), "byte {i} = {v}");
                        } else {
                            assert!((101..=108).contains(&v), "byte {i} = {v}");
                        }
                    }
                }
            },
        );
    }

    /// Virtual completion times are monotone in `now`.
    #[test]
    fn time_monotone() {
        Runner::new("time_monotone").cases(48).run(
            |rng| (rng.next_u64() % 10_000_000, 1 + (rng.next_u64() % 199) as usize),
            |&(now, len)| {
                let pfs =
                    Pfs::new(PfsConfig { cost: PfsCostModel::default(), ..PfsConfig::test_tiny() });
                let h = pfs.open("f", 0);
                let t = h.write(now, 0, &vec![1u8; len]).unwrap();
                assert!(t > now);
                let t2 = h.read(t, 0, &mut vec![0u8; len]).unwrap();
                assert!(t2 > t);
            },
        );
    }
}
