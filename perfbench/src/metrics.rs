//! Metric values, the virtual-time summary of a run, and its digest.

use crate::workloads::Prepared;
use crate::world::{Dir, WorldOut};
use flexio_bench::mbps;
use flexio_core::Profile;
use flexio_pfs::StatsSnapshot;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, unit: &str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
        }
    }
}

/// Median of `v` (mean of the middle two for even lengths; 0 if empty).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The highest percentile of `v` with at least ten samples above it, as
/// `(percentile, value)`; `None` with fewer than eleven samples.
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    let n = v.len();
    if n < 11 {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    Some((100.0 * (n - 10) as f64 / n as f64, s[n - 11]))
}

/// Peak resident set size of this process, MB (`getrusage` maximum RSS).
pub fn peak_rss_mb() -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timeval {
        sec: c_long,
        usec: c_long,
    }
    /// `struct rusage` of Linux: two timevals, then fourteen longs, of
    /// which the first is the maximum RSS in KiB.
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: c_long,
        rest: [c_long; 13],
    }
    extern "C" {
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }
    const RUSAGE_SELF: c_int = 0;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the C
    // layout Linux defines, and `getrusage` writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    usage.maxrss as f64 * 1024.0 / 1e6
}

/// Everything a run produced in virtual time and counts. Equal on every
/// run of one workload: the event loop is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Virtual {
    /// FNV-1a over every rank's clock and `Stats` and every
    /// `Pfs::stats()` snapshot, world by world.
    pub digest: u64,
    /// Useful bytes written.
    pub write_bytes: u64,
    /// Useful bytes read.
    pub read_bytes: u64,
    /// Sum over write calls of the slowest rank's virtual ns.
    pub write_ns: u64,
    /// Sum over read calls of the slowest rank's virtual ns.
    pub read_ns: u64,
    /// Messages sent inside write calls.
    pub write_msgs: u64,
    /// Largest world.
    pub max_nprocs: usize,
    /// One profile per world (worlds run one after another, so their
    /// phase maxima add up).
    pub profiles: Vec<Profile>,
    /// Flatten-cache hits and misses.
    pub flatten_cache: (u64, u64),
    /// Schedule-cache hits and misses.
    pub schedule_cache: (u64, u64),
    /// Sum over worlds of the largest virtual ns any rank's clock ran
    /// ahead of its phase buckets.
    pub unattributed_ns: u64,
    /// Final `Pfs::stats()` of every file system.
    pub pfs: Vec<StatsSnapshot>,
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl Virtual {
    /// Summarize a run's worlds (`outs[system][world]`, `None` for a
    /// world that panicked).
    pub fn from_outs(prepared: &Prepared, outs: &[Vec<Option<WorldOut>>]) -> Virtual {
        let (write_bytes, read_bytes) = prepared.useful_bytes();
        let mut v = Virtual {
            write_bytes,
            read_bytes,
            ..Virtual::default()
        };
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        for sys in outs {
            let mut last_pfs = StatsSnapshot::default();
            for out in sys {
                let Some(o) = out else {
                    h.write(b"panicked");
                    continue;
                };
                v.max_nprocs = v.max_nprocs.max(o.clocks.len());
                for (clock, stats) in o.clocks.iter().zip(&o.stats) {
                    h.write(&clock.to_le_bytes());
                    h.write(format!("{stats:?}").as_bytes());
                    v.flatten_cache.0 += stats.flatten_cache_hits;
                    v.flatten_cache.1 += stats.flatten_cache_misses;
                    v.schedule_cache.0 += stats.schedule_cache_hits;
                    v.schedule_cache.1 += stats.schedule_cache_misses;
                }
                h.write(format!("{:?}", o.pfs_stats).as_bytes());
                for c in &o.calls {
                    match c.dir {
                        Dir::Write => {
                            v.write_ns += c.slowest_ns;
                            v.write_msgs += c.msgs;
                        }
                        Dir::Read => v.read_ns += c.slowest_ns,
                    }
                }
                v.profiles.push(Profile::from_stats(&o.stats));
                v.unattributed_ns += o
                    .clocks
                    .iter()
                    .zip(&o.stats)
                    .map(|(clock, s)| clock.saturating_sub(s.phase_ns.iter().sum()))
                    .max()
                    .unwrap_or(0);
                last_pfs = o.pfs_stats;
            }
            v.pfs.push(last_pfs);
        }
        v.digest = h.0;
        v
    }

    /// `f` summed over the worlds' profiles.
    pub fn total(&self, f: fn(&Profile) -> u64) -> u64 {
        self.profiles.iter().map(f).sum()
    }

    /// The paper's bandwidth: useful bytes written over the summed
    /// slowest-rank virtual time of the write calls, MB/s.
    pub fn write_mbps(&self) -> f64 {
        rate(self.write_bytes, self.write_ns)
    }

    /// The same for reads (0 when the workload reads nothing).
    pub fn read_mbps(&self) -> f64 {
        rate(self.read_bytes, self.read_ns)
    }

    /// Per-layer counts and virtual times.
    pub fn layer_counts(&self) -> Vec<Metric> {
        let p = |f: fn(&Profile) -> u64| self.total(f) as f64;
        let p_ms = |f: fn(&Profile) -> u64| self.total(f) as f64 / 1e6;
        let fs = |f: fn(&StatsSnapshot) -> u64| self.pfs.iter().map(f).sum::<u64>() as f64;
        let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
        let hit_ratio = |(hits, misses): (u64, u64)| ratio(hits as f64, (hits + misses) as f64);
        let depth = self
            .profiles
            .iter()
            .map(|p| p.pipeline_depth_max)
            .max()
            .unwrap_or(0);
        let nb_peak = self
            .pfs
            .iter()
            .map(|s| s.nb_inflight_peak)
            .max()
            .unwrap_or(0);
        let moved = fs(|s| s.bytes_written) + fs(|s| s.bytes_read);
        vec![
            Metric::new("sim.msgs", "count", p(|p| p.msgs_total)),
            Metric::new("sim.bytes_sent", "B", p(|p| p.bytes_sent_total)),
            Metric::new("sim.comm_virtual_ms", "ms", p_ms(|p| p.comm_ns_max)),
            Metric::new("types.pairs", "count", p(|p| p.pairs_total)),
            Metric::new(
                "types.flatten_cache_hit_ratio",
                "ratio",
                hit_ratio(self.flatten_cache),
            ),
            Metric::new("core.compute_virtual_ms", "ms", p_ms(|p| p.compute_ns_max)),
            Metric::new(
                "core.schedule_cache_hit_ratio",
                "ratio",
                hit_ratio(self.schedule_cache),
            ),
            Metric::new("core.memcpy_bytes", "B", p(|p| p.memcpy_total)),
            Metric::new("core.bytes_copied", "B", p(|p| p.bytes_copied_total)),
            Metric::new(
                "core.overlap_saved_virtual_ms",
                "ms",
                p_ms(|p| p.overlap_saved_total_ns),
            ),
            Metric::new("core.pipeline_depth_max", "count", depth as f64),
            Metric::new("core.io_retries", "count", p(|p| p.io_retries_total)),
            Metric::new(
                "core.unattributed_virtual_ms",
                "ms",
                self.unattributed_ns as f64 / 1e6,
            ),
            Metric::new(
                "io.useful_byte_ratio",
                "ratio",
                ratio((self.write_bytes + self.read_bytes) as f64, moved),
            ),
            Metric::new("pfs.io_virtual_ms", "ms", p_ms(|p| p.io_ns_max)),
            Metric::new("pfs.ost_requests", "count", fs(|s| s.ost_requests)),
            Metric::new("pfs.seeks", "count", fs(|s| s.seeks)),
            Metric::new("pfs.bytes_written", "B", fs(|s| s.bytes_written)),
            Metric::new("pfs.bytes_read", "B", fs(|s| s.bytes_read)),
            Metric::new("pfs.rmw_page_reads", "count", fs(|s| s.rmw_page_reads)),
            Metric::new("pfs.lock_grants", "count", fs(|s| s.lock_grants)),
            Metric::new("pfs.lock_revocations", "count", fs(|s| s.lock_revocations)),
            Metric::new("pfs.flush_bytes", "B", fs(|s| s.flush_bytes)),
            Metric::new("pfs.cache_fills", "count", fs(|s| s.cache_fills)),
            Metric::new("pfs.nb_inflight_peak", "count", nb_peak as f64),
        ]
    }
}

fn rate(bytes: u64, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        mbps(bytes, ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(tail(&[1.0; 10]), None);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        // Ten samples (11..=20) lie above the 50th percentile's 10.
        assert_eq!(tail(&v), Some((50.0, 10.0)));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
