//! The three workloads: what each sets up, runs and checks.
//!
//! All run the flexible engine (the default) on the sequential event
//! loop. The seed changes the bytes written, never the access pattern,
//! so virtual results do not depend on it.

use crate::world::{Step, WorldOut, WorldSpec};
use flexio_core::{ExchangeMode, Hints};
use flexio_hpio::{HpioSpec, TimeStepSpec, TypeStyle};
use flexio_io::IoMethod;
use flexio_pfs::{Pfs, PfsConfig, PfsCostModel};
use flexio_sim::XorShift64Star;
use flexio_types::{Datatype, Dt};
use flexio_workload::{
    check_invariants, checkpoint_spec, eq_padded, read_file, restart_spec, Oracle, PfsShape,
    PhaseOp, PhaseResult, RunOutcome, WorkloadSpec,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fine-grained fig4 write at 1024 ranks: message-bound.
    FineWeak,
    /// Paper-scale checkpoint (5 epochs + read-back), then a 64→48 restart:
    /// data-bound, schedule-cache hits.
    CheckpointRestart,
    /// The Fig. 6/7 time-step pattern with PFR, locks and client caches:
    /// schedule-cache misses, page fills, sieve read-modify-write.
    TimestepPfr,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::FineWeak,
        Workload::CheckpointRestart,
        Workload::TimestepPfr,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FineWeak => "fine_weak",
            Workload::CheckpointRestart => "checkpoint_restart",
            Workload::TimestepPfr => "timestep_pfr",
        }
    }

    /// Parse a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem size: `Full` is the benchmark, `Tiny` keeps the benchmark's
/// own tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Same shapes at a few ranks and KiB of data.
    Tiny,
}

impl Scale {
    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }
}

/// A file system and the worlds that run against it, in order.
pub struct FileSystem {
    /// The file system (fresh for every run).
    pub pfs: Arc<Pfs>,
    /// Worlds sharing it, run one after another.
    pub worlds: Vec<WorldSpec>,
}

/// Everything a run needs, built before the measured section.
pub struct Prepared {
    /// File systems, each with its worlds.
    pub systems: Vec<FileSystem>,
    /// Host time the set-up spent in `Oracle::from_spec`.
    pub oracle_time: Duration,
    check: Check,
}

/// The reference each file system's outputs are checked against.
enum Check {
    Hpio {
        spec: HpioSpec,
        seed: u64,
    },
    TimeStep {
        spec: TimeStepSpec,
        seed: u64,
    },
    /// One `WorkloadSpec` (and its oracle) per file system.
    Specs(Vec<(WorkloadSpec, Oracle)>),
}

/// Seeded bytes XORed over the workloads' own stamps: the seed changes
/// every byte written without changing the access pattern.
fn keystream(seed: u64, rank: usize, step: u64, len: u64) -> Vec<u8> {
    let mut key = vec![0u8; len as usize];
    let mix = seed
        ^ (rank as u64).wrapping_mul(0xA24B_AED4_963E_E407)
        ^ step.wrapping_mul(0x9FB2_1C65_1E98_DF25);
    XorShift64Star::new(mix).fill_bytes(&mut key);
    key
}

/// The fine_weak HPIO pattern: 16 regions of 8 B per rank, 128 B spacing.
fn hpio_spec(nprocs: usize) -> HpioSpec {
    HpioSpec {
        region_size: 8,
        region_count: 16,
        region_spacing: 128,
        mem_noncontig: true,
        file_noncontig: true,
        nprocs,
    }
}

/// Build the inputs of `w` at `scale` from `seed`, with fresh file
/// systems.
pub fn prepare(w: Workload, scale: Scale, seed: u64) -> Prepared {
    match w {
        Workload::FineWeak => {
            let nprocs = if scale == Scale::Full { 1024 } else { 16 };
            let spec = hpio_spec(nprocs);
            let hints = Hints {
                cb_nodes: Some((nprocs / 2).max(1)),
                cb_buffer_size: 512,
                exchange: ExchangeMode::Alltoallw,
                ..Hints::default()
            };
            let scripts = (0..nprocs)
                .map(|r| {
                    let (disp, filetype) = spec.file_view(r, TypeStyle::Succinct);
                    let mut buf = spec.make_buffer(r);
                    let key = keystream(seed, r, 0, spec.bytes_per_proc());
                    for (idx, k) in key.iter().enumerate() {
                        buf[hpio_mem_pos(&spec, idx as u64)] ^= k;
                    }
                    vec![
                        Step::SetView { disp, filetype },
                        Step::Write {
                            offset: 0,
                            buf,
                            memtype: spec.mem_type(),
                            count: spec.mem_count(),
                        },
                    ]
                })
                .collect();
            Prepared {
                systems: vec![FileSystem {
                    pfs: Pfs::new(PfsConfig::default()),
                    worlds: vec![WorldSpec {
                        hints,
                        path: "fine_weak",
                        scripts,
                    }],
                }],
                oracle_time: Duration::ZERO,
                check: Check::Hpio { spec, seed },
            }
        }
        Workload::CheckpointRestart => {
            let specs = checkpoint_restart_specs(scale, seed);
            let t = Instant::now();
            let oracles: Vec<Oracle> = specs.iter().map(Oracle::from_spec).collect();
            let oracle_time = t.elapsed();
            let systems = specs.iter().map(spec_system).collect();
            Prepared {
                systems,
                oracle_time,
                check: Check::Specs(specs.into_iter().zip(oracles).collect()),
            }
        }
        Workload::TimestepPfr => {
            let spec = match scale {
                Scale::Full => TimeStepSpec::fig7(64),
                Scale::Tiny => TimeStepSpec {
                    elem_size: 32,
                    elems_per_point: 20,
                    points: 16,
                    steps: 4,
                    nprocs: 8,
                },
            };
            let stripe = if scale == Scale::Full {
                2 << 20
            } else {
                16 << 10
            };
            let pfs = Pfs::new(PfsConfig {
                stripe_size: stripe,
                page_size: 4096,
                locking: true,
                lock_expansion: true,
                client_cache: true,
                ..PfsConfig::default()
            });
            let hints = Hints {
                persistent_file_realms: true,
                fr_alignment: Some(stripe),
                cb_nodes: Some((spec.nprocs / 2).max(1)),
                io_method: IoMethod::DataSieve { buffer: 512 << 10 },
                ..Hints::default()
            };
            let scripts = (0..spec.nprocs)
                .map(|r| {
                    let mut steps = Vec::with_capacity(2 * spec.steps as usize);
                    for t in 0..spec.steps {
                        let (disp, filetype) = spec.file_view(r, t);
                        let mut buf = spec.make_buffer(r, t);
                        let key = keystream(seed, r, t, buf.len() as u64);
                        buf.iter_mut().zip(&key).for_each(|(b, k)| *b ^= k);
                        let n = buf.len() as u64;
                        steps.push(Step::SetView { disp, filetype });
                        steps.push(Step::Write {
                            offset: 0,
                            buf,
                            memtype: Datatype::bytes(n.max(1)),
                            count: (n > 0) as u64,
                        });
                    }
                    steps
                })
                .collect();
            Prepared {
                systems: vec![FileSystem {
                    pfs,
                    worlds: vec![WorldSpec {
                        hints,
                        path: "timestep",
                        scripts,
                    }],
                }],
                oracle_time: Duration::ZERO,
                check: Check::TimeStep { spec, seed },
            }
        }
    }
}

/// Buffer position of HPIO data byte `idx`.
fn hpio_mem_pos(spec: &HpioSpec, idx: u64) -> usize {
    let (region, within) = (idx / spec.region_size, idx % spec.region_size);
    (if spec.mem_noncontig {
        region * spec.unit() + within
    } else {
        idx
    }) as usize
}

/// The `scenario_suite --paper` checkpoint and restart members (smaller
/// tiles at tiny scale), PFS shape and collective buffer as there.
fn checkpoint_restart_specs(scale: Scale, seed: u64) -> Vec<WorkloadSpec> {
    let mut specs = match scale {
        Scale::Full => vec![
            checkpoint_spec(seed, 64, 256 << 10, 4, 5),
            restart_spec(seed ^ 0xBEEF, 64, 48, 64 << 20, 1, 1 << 20),
        ],
        Scale::Tiny => vec![
            checkpoint_spec(seed, 8, 4 << 10, 4, 3),
            restart_spec(seed ^ 0xBEEF, 8, 6, 256 << 10, 1, 16 << 10),
        ],
    };
    for s in &mut specs {
        s.pfs = match scale {
            Scale::Full => PfsShape {
                n_osts: 8,
                stripe: 1 << 20,
                page: 4096,
            },
            Scale::Tiny => PfsShape {
                n_osts: 4,
                stripe: 64 << 10,
                page: 4096,
            },
        };
        s.cb = if scale == Scale::Full {
            4 << 20
        } else {
            64 << 10
        };
        s.pfr = true;
    }
    specs
}

/// A spec's file system and worlds, configured as `flexio_workload::run_spec`
/// configures them (locking off, no fault plan, zero copy on).
fn spec_system(spec: &WorkloadSpec) -> FileSystem {
    let pfs = Pfs::new(PfsConfig {
        n_osts: spec.pfs.n_osts,
        stripe_size: spec.pfs.stripe,
        page_size: spec.pfs.page,
        locking: false,
        lock_expansion: false,
        client_cache: false,
        cost: PfsCostModel::default(),
    });
    let worlds = spec
        .phases
        .iter()
        .map(|phase| {
            let hints = Hints {
                cb_nodes: Some(phase.aggs),
                cb_buffer_size: spec.cb,
                exchange: spec.exchange,
                persistent_file_realms: spec.pfr,
                schedule_cache: spec.cache,
                pipeline_depth: spec.depth,
                zero_copy: true,
                io_retries: 12,
                retry_backoff_us: 20,
                ..Hints::default()
            };
            let scripts = phase
                .plans
                .iter()
                .map(|plan| {
                    let mut steps = vec![Step::SetView {
                        disp: plan.disp,
                        filetype: plan.filetype.clone(),
                    }];
                    match phase.op {
                        PhaseOp::Write => steps.extend((0..phase.steps).map(|s| Step::Write {
                            offset: plan.offset_etypes,
                            buf: plan.step_buffer(s),
                            memtype: plan.memtype.clone(),
                            count: plan.mem_count,
                        })),
                        PhaseOp::Read => steps.push(Step::Read {
                            offset: plan.offset_etypes,
                            len: plan.buf_len(),
                            memtype: plan.memtype.clone(),
                            count: plan.mem_count,
                        }),
                    }
                    steps
                })
                .collect();
            WorldSpec {
                hints,
                path: "workload",
                scripts,
            }
        })
        .collect();
    FileSystem { pfs, worlds }
}

impl Prepared {
    /// Useful bytes one run writes and reads: `(written, read)`.
    pub fn useful_bytes(&self) -> (u64, u64) {
        let mut w = 0;
        let mut r = 0;
        for step in self.steps() {
            match step {
                Step::Write { memtype, count, .. } => w += memtype.size() * count,
                Step::Read { memtype, count, .. } => r += memtype.size() * count,
                Step::SetView { .. } => {}
            }
        }
        (w, r)
    }

    /// Check one file system's outputs: its final image, every read-back
    /// and the run invariants. Returns, per world, whether it passed.
    /// `outs[i]` is `None` for a world that panicked.
    pub fn verify(&self, system: usize, outs: &[Option<WorldOut>]) -> Vec<bool> {
        let pfs = &self.systems[system].pfs;
        let worlds = &self.systems[system].worlds;
        let mut ok: Vec<bool> = outs
            .iter()
            .map(|o| o.as_ref().is_some_and(|o| o.setup_ok && invariants_hold(o)))
            .collect();
        // A world that never finished leaves no trustworthy image.
        if outs.iter().any(Option::is_none) {
            return vec![false; outs.len()];
        }
        let image = read_file(pfs, worlds[0].path);
        match &self.check {
            Check::Hpio { spec, seed } => ok[0] &= hpio_image_ok(spec, *seed, &image),
            Check::TimeStep { spec, seed } => ok[0] &= timestep_image_ok(spec, *seed, &image),
            Check::Specs(specs) => {
                let (spec, oracle) = &specs[system];
                for (i, (phase, out)) in spec.phases.iter().zip(outs).enumerate() {
                    let out = out.as_ref().expect("panicked worlds returned above");
                    ok[i] &= match phase.op {
                        PhaseOp::Write => eq_padded(&image, oracle.image()),
                        PhaseOp::Read => phase.plans.iter().zip(&out.reads).all(|(plan, got)| {
                            got.len() == 1 && got[0] == oracle.expected_read(plan)
                        }),
                    };
                }
            }
        }
        ok
    }

    /// Every filetype and every memtype the scripts use: `(filetypes,
    /// memtypes)`.
    pub fn datatypes(&self) -> (Vec<Dt>, Vec<Dt>) {
        let mut filetypes = Vec::new();
        let mut memtypes = Vec::new();
        for step in self.steps() {
            match step {
                Step::SetView { filetype, .. } => filetypes.push(filetype.clone()),
                Step::Write { memtype, .. } | Step::Read { memtype, .. } => {
                    memtypes.push(memtype.clone())
                }
            }
        }
        (filetypes, memtypes)
    }

    /// Free the write buffers, keeping every call's shape.
    pub fn drop_buffers(&mut self) {
        for world in self.systems.iter_mut().flat_map(|s| &mut s.worlds) {
            for step in world.scripts.iter_mut().flatten() {
                if let Step::Write { buf, .. } = step {
                    *buf = Vec::new();
                }
            }
        }
    }

    fn steps(&self) -> impl Iterator<Item = &Step> {
        self.systems
            .iter()
            .flat_map(|s| &s.worlds)
            .flat_map(|w| &w.scripts)
            .flatten()
    }

    /// The final image of file system `system`, read back in one call.
    pub fn image(&self, system: usize) -> Vec<u8> {
        read_file(
            &self.systems[system].pfs,
            self.systems[system].worlds[0].path,
        )
    }
}

/// `flexio_workload::check_invariants` on one world (phase-time buckets
/// sum to the clock, copy ledger within charged memcpy, collective
/// agreement), with its assertion turned into a verdict. Checked as of
/// the last collective call: `MpiFile::close` advances the clock for its
/// cache flush without attributing a phase (the gap is reported as
/// `core.unattributed_virtual_ms`).
fn invariants_hold(out: &WorldOut) -> bool {
    let outcome = RunOutcome {
        image: Vec::new(),
        file_size: 0,
        phases: vec![PhaseResult {
            clocks: out.before_close.iter().map(|(clock, _)| *clock).collect(),
            stats: out
                .before_close
                .iter()
                .map(|(_, stats)| stats.clone())
                .collect(),
            outcomes: out.outcomes.clone(),
            read_backs: Vec::new(),
        }],
    };
    let agree = out.outcomes.iter().all(|o| o.len() == out.calls.len());
    agree && catch_unwind(AssertUnwindSafe(|| check_invariants(&outcome, "perfbench"))).is_ok()
}

/// Every HPIO data byte sits at its file offset, equal to the stamp XOR
/// the seed's keystream (`HpioSpec::verify` with seeded bytes).
fn hpio_image_ok(spec: &HpioSpec, seed: u64, image: &[u8]) -> bool {
    (0..spec.nprocs).all(|r| {
        let key = keystream(seed, r, 0, spec.bytes_per_proc());
        key.iter().enumerate().all(|(idx, k)| {
            let idx = idx as u64;
            let got = image
                .get(spec.file_offset(r, idx) as usize)
                .copied()
                .unwrap_or(0);
            got == spec.stamp(r, idx) ^ k
        })
    })
}

/// `TimeStepSpec::verify` with seeded bytes, one element (whose bytes are
/// contiguous in the file) at a time.
fn timestep_image_ok(spec: &TimeStepSpec, seed: u64, image: &[u8]) -> bool {
    (0..spec.nprocs).all(|r| {
        (0..spec.steps).all(|t| {
            let key = keystream(seed, r, t, spec.bytes_per_rank_step(r));
            key.chunks(spec.elem_size as usize)
                .enumerate()
                .all(|(e, keys)| {
                    let first = e as u64 * spec.elem_size;
                    let off = spec.file_offset(r, t, first) as usize;
                    keys.iter().enumerate().all(|(i, k)| {
                        let got = image.get(off + i).copied().unwrap_or(0);
                        got == spec.stamp(r, t, first + i as u64) ^ k
                    })
                })
        })
    })
}
