//! One simulated world of a workload: every rank opens the shared file,
//! runs its script of collective calls through [`MpiFile`], and closes.
//!
//! The runner only observes: it reads virtual clocks and [`Stats`]
//! snapshots around each call and, when traced, host timestamps. It adds
//! no barriers and no messages, so a traced world charges exactly the
//! virtual time an untraced one does.

use crate::trace::{CallName, RankSpan};
use flexio_core::{Hints, IoError, MpiFile};
use flexio_pfs::{Pfs, StatsSnapshot};
use flexio_sim::{run, CostModel, Stats};
use flexio_types::{Datatype, Dt};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Direction of one collective data call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// `write_all_at`.
    Write,
    /// `read_all_at`.
    Read,
}

/// One step of a rank's script on its open file.
pub enum Step {
    /// `set_view(disp, byte etype, filetype)`.
    SetView {
        /// View displacement, bytes.
        disp: u64,
        /// Filetype.
        filetype: Dt,
    },
    /// `write_all_at(offset, buf, memtype, count)`.
    Write {
        /// Offset into the view, etypes (bytes).
        offset: u64,
        /// The user buffer.
        buf: Vec<u8>,
        /// Memory datatype.
        memtype: Dt,
        /// Memtype instances.
        count: u64,
    },
    /// `read_all_at(offset, zeroed buffer of len, memtype, count)`.
    Read {
        /// Offset into the view, etypes (bytes).
        offset: u64,
        /// Length of the zeroed user buffer.
        len: usize,
        /// Memory datatype.
        memtype: Dt,
        /// Memtype instances.
        count: u64,
    },
}

impl Step {
    fn dir(&self) -> Option<Dir> {
        match self {
            Step::SetView { .. } => None,
            Step::Write { .. } => Some(Dir::Write),
            Step::Read { .. } => Some(Dir::Read),
        }
    }
}

/// A world to run: hints, the shared file's path, one script per rank.
/// Every script issues the same sequence of collective calls.
pub struct WorldSpec {
    /// Hints every rank opens the file with.
    pub hints: Hints,
    /// Path of the shared file.
    pub path: &'static str,
    /// One script per rank (`scripts.len()` is the world size).
    pub scripts: Vec<Vec<Step>>,
}

impl WorldSpec {
    /// World size.
    pub fn nprocs(&self) -> usize {
        self.scripts.len()
    }

    /// Directions of the world's collective data calls, in call order.
    pub fn call_dirs(&self) -> Vec<Dir> {
        self.scripts[0].iter().filter_map(Step::dir).collect()
    }
}

/// One collective data call, aggregated over the world's ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallOut {
    /// Write or read.
    pub dir: Dir,
    /// Every rank's call returned `Ok`.
    pub ok: bool,
    /// The slowest rank's virtual ns inside the call.
    pub slowest_ns: u64,
    /// Messages sent inside the call, summed over ranks.
    pub msgs: u64,
}

/// Everything one world produced.
pub struct WorldOut {
    /// Final virtual clock per rank.
    pub clocks: Vec<u64>,
    /// Final counters per rank.
    pub stats: Vec<Stats>,
    /// Clock and counters per rank after its last collective data call,
    /// before `close`.
    pub before_close: Vec<(u64, Stats)>,
    /// Per rank, every collective call's result, in call order.
    pub outcomes: Vec<Vec<Result<(), IoError>>>,
    /// Per rank, the buffers its read calls filled, in call order.
    pub reads: Vec<Vec<Vec<u8>>>,
    /// The world's collective calls, aggregated over ranks.
    pub calls: Vec<CallOut>,
    /// Every rank's open, set_view and close returned `Ok`.
    pub setup_ok: bool,
    /// `Pfs::stats()` right after the world ended.
    pub pfs_stats: StatsSnapshot,
    /// Host time from spawning the world to joining it.
    pub host: Duration,
    /// Host spans of every rank's `MpiFile` calls (traced worlds only),
    /// relative to the world's start.
    pub spans: Vec<RankSpan>,
}

struct RankOut {
    clock: u64,
    stats: Stats,
    before_close: (u64, Stats),
    setup_ok: bool,
    outcomes: Vec<Result<(), IoError>>,
    virt_ns: Vec<u64>,
    msgs: Vec<u64>,
    reads: Vec<Vec<u8>>,
    spans: Vec<RankSpan>,
}

/// Host-time recorder for one rank: a no-op unless the world is traced.
struct Recorder {
    epoch: Option<Instant>,
    rank: usize,
    spans: Vec<RankSpan>,
}

impl Recorder {
    fn time<T>(&mut self, name: CallName, call: impl FnOnce() -> T) -> T {
        let Some(epoch) = self.epoch else {
            return call();
        };
        let start = epoch.elapsed();
        let out = call();
        let end = epoch.elapsed();
        self.spans.push(RankSpan {
            rank: self.rank,
            name,
            start,
            end,
        });
        out
    }
}

/// Run one world against `pfs` on the default sequential event loop.
/// Returns `None` if the world panicked (a rank panic or a deadlock),
/// which the caller counts as a failure of every call in it.
pub fn run_world(pfs: &Arc<Pfs>, spec: &WorldSpec, traced: bool) -> Option<WorldOut> {
    let t0 = Instant::now();
    let epoch = traced.then_some(t0);
    let ranks = catch_unwind(AssertUnwindSafe(|| {
        run(spec.nprocs(), CostModel::default(), |rank| {
            run_rank(rank, pfs, spec, epoch)
        })
    }))
    .ok()?;
    let host = t0.elapsed();
    let pfs_stats = pfs.stats();

    let dirs = spec.call_dirs();
    let mut calls: Vec<CallOut> = dirs
        .iter()
        .map(|&dir| CallOut {
            dir,
            ok: true,
            slowest_ns: 0,
            msgs: 0,
        })
        .collect();
    let mut out = WorldOut {
        clocks: Vec::with_capacity(ranks.len()),
        stats: Vec::with_capacity(ranks.len()),
        before_close: Vec::with_capacity(ranks.len()),
        outcomes: Vec::with_capacity(ranks.len()),
        reads: Vec::with_capacity(ranks.len()),
        calls: Vec::new(),
        setup_ok: true,
        pfs_stats,
        host,
        spans: Vec::new(),
    };
    for r in ranks {
        for (k, call) in calls.iter_mut().enumerate() {
            // A rank whose open failed never reached its calls.
            call.ok &= r.outcomes.get(k).is_some_and(Result::is_ok);
            call.slowest_ns = call.slowest_ns.max(r.virt_ns.get(k).copied().unwrap_or(0));
            call.msgs += r.msgs.get(k).copied().unwrap_or(0);
        }
        out.setup_ok &= r.setup_ok;
        out.clocks.push(r.clock);
        out.stats.push(r.stats);
        out.before_close.push(r.before_close);
        out.outcomes.push(r.outcomes);
        out.reads.push(r.reads);
        out.spans.extend(r.spans);
    }
    out.calls = calls;
    Some(out)
}

fn run_rank(
    rank: &flexio_sim::Rank,
    pfs: &Arc<Pfs>,
    spec: &WorldSpec,
    epoch: Option<Instant>,
) -> RankOut {
    let mut rec = Recorder {
        epoch,
        rank: rank.rank(),
        spans: Vec::new(),
    };
    let mut out = RankOut {
        clock: 0,
        stats: Stats::default(),
        before_close: (0, Stats::default()),
        setup_ok: true,
        outcomes: Vec::new(),
        virt_ns: Vec::new(),
        msgs: Vec::new(),
        reads: Vec::new(),
        spans: Vec::new(),
    };
    let opened = rec.time(CallName::Open, || {
        MpiFile::open(rank, pfs, spec.path, spec.hints.clone())
    });
    match opened {
        Ok(mut file) => {
            for step in &spec.scripts[rank.rank()] {
                let (v0, m0) = (rank.now(), rank.stats().msgs_sent);
                let result = match step {
                    Step::SetView { disp, filetype } => {
                        let r = rec.time(CallName::SetView, || {
                            file.set_view(*disp, &Datatype::bytes(1), filetype)
                        });
                        out.setup_ok &= r.is_ok();
                        continue;
                    }
                    Step::Write {
                        offset,
                        buf,
                        memtype,
                        count,
                    } => rec.time(CallName::WriteAll, || {
                        file.write_all_at(*offset, buf, memtype, *count)
                    }),
                    Step::Read {
                        offset,
                        len,
                        memtype,
                        count,
                    } => {
                        let mut buf = vec![0u8; *len];
                        let r = rec.time(CallName::ReadAll, || {
                            file.read_all_at(*offset, &mut buf, memtype, *count)
                        });
                        out.reads.push(buf);
                        r
                    }
                };
                out.outcomes.push(result);
                out.virt_ns.push(rank.now() - v0);
                out.msgs.push(rank.stats().msgs_sent - m0);
            }
            out.before_close = (rank.now(), rank.stats());
            out.setup_ok &= rec.time(CallName::Close, || file.close()).is_ok();
        }
        Err(_) => out.setup_ok = false,
    }
    out.clock = rank.now();
    out.stats = rank.stats();
    out.spans = rec.spans;
    out
}
