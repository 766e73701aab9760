//! Layer probes: host-time measurements of single crates, taken from
//! outside through their public functions.

use crate::metrics::{median, Virtual};
use crate::trace::Trace;
use flexio_pfs::{Pfs, PfsConfig};
use flexio_sim::{run, CostModel};
use flexio_types::flatten::reset_flatten_cache;
use flexio_types::{flatten, Dt};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Repetitions of each sim probe (the median is reported).
const PROBE_REPS: usize = 3;

/// The `sim` probes at a workload's rank count and payload sizes.
#[derive(Debug, Clone, Copy)]
pub struct SimProbes {
    /// One `alltoallv` round, world spawn and join excluded, ms.
    pub alltoallv_ms: f64,
    /// One `allgatherv` round, world spawn and join excluded, ms.
    pub allgatherv_ms: f64,
    /// `run(n, |_| {})`, ms.
    pub spawn_join_ms: f64,
    /// Host ns per message over both collective probes.
    pub host_ns_per_msg: f64,
}

/// Time one world of `nprocs` ranks running `body`; returns the host
/// time and the messages the world sent.
fn time_world(nprocs: usize, body: impl Fn(&flexio_sim::Rank) + Sync) -> (Duration, u64) {
    let t = Instant::now();
    let msgs = run(nprocs, CostModel::default(), |rank| {
        body(rank);
        rank.stats().msgs_sent
    });
    (t.elapsed(), msgs.iter().sum())
}

/// Run the `sim` probes at the largest world of `virt`: `alltoallv` blocks
/// of the workload's mean message size, `allgatherv` payloads of
/// `wire_bytes` (the mean flattened-filetype wire size). Each probe
/// execution is recorded in `trace` under run id `run`.
pub fn sim_probes(
    virt: &Virtual,
    wire_bytes: usize,
    trace: &mut Trace,
    run_id: usize,
) -> SimProbes {
    let p = virt.max_nprocs.max(1);
    let msgs = virt.total(|p| p.msgs_total).max(1);
    let block = (virt.total(|p| p.bytes_sent_total) as f64 / msgs as f64).round() as usize;
    let mut record = |name: &'static str, body: &(dyn Fn(&flexio_sim::Rank) + Sync)| {
        let mut times = Vec::with_capacity(PROBE_REPS);
        let mut msgs = 0;
        for _ in 0..PROBE_REPS {
            let t0 = trace.now();
            let (d, m) = time_world(p, body);
            trace.push(run_id, None, "sim", name, t0, t0 + d);
            times.push(d.as_secs_f64() * 1e3);
            msgs = m;
        }
        (median(&times), msgs)
    };
    let (spawn_join_ms, _) = record("probe.spawn_join", &|_| {});
    let (a2a, a2a_msgs) = record("probe.alltoallv", &|rank| {
        black_box(rank.alltoallv(vec![vec![0u8; block]; p]));
    });
    let (agv, agv_msgs) = record("probe.allgatherv", &|rank| {
        black_box(rank.allgatherv(&vec![0u8; wire_bytes]));
    });
    let alltoallv_ms = (a2a - spawn_join_ms).max(0.0);
    let allgatherv_ms = (agv - spawn_join_ms).max(0.0);
    let msgs = (a2a_msgs + agv_msgs).max(1);
    SimProbes {
        alltoallv_ms,
        allgatherv_ms,
        spawn_join_ms,
        host_ns_per_msg: (alltoallv_ms + allgatherv_ms) * 1e6 / msgs as f64,
    }
}

/// Cold `flatten()` of every filetype and memtype after
/// `reset_flatten_cache()`; returns the time and the mean wire size of
/// the flattened filetypes.
pub fn flatten_cold(filetypes: &[Dt], memtypes: &[Dt]) -> (Duration, usize) {
    reset_flatten_cache();
    let t = Instant::now();
    for dt in filetypes.iter().chain(memtypes) {
        black_box(flatten(black_box(dt)));
    }
    let elapsed = t.elapsed();
    let wire: usize = filetypes.iter().map(|dt| flatten(dt).to_wire().len()).sum();
    (elapsed, wire / filetypes.len().max(1))
}

/// Write `image` through `Pfs::open` + `FileHandle::write` (then close)
/// on a fresh file system with `cfg`; returns the host time.
pub fn replay_image(cfg: &PfsConfig, image: &[u8]) -> Duration {
    let pfs = Pfs::new(*cfg);
    let handle = pfs.open("replay", 0);
    let t = Instant::now();
    let now = handle.write(0, 0, image).expect("fault-free file system");
    handle.close(now).expect("fault-free file system");
    t.elapsed()
}
