//! # flexio-perfbench — the repository benchmark
//!
//! One command runs one named workload through the public API
//! (`flexio_sim::run`, `MpiFile`, the `flexio-hpio` and
//! `flexio-workload` generators) for a fixed host-time budget, checks
//! every output, and reports either the end-to-end metrics (untraced) or
//! the per-layer metrics (traced). See `README.md` in this directory for
//! why each workload exists and which layer metric should move which
//! end-to-end metric.
//!
//! The budget is spent on *samples*: one set-up, one run of every world
//! of the workload, one verification. The command takes each sample in
//! a fresh process, so every sample starts from the same allocator and
//! page-cache state; in one long-lived process later samples reuse freed
//! heap and get steadily faster, which would tie the reported median to
//! how many samples fit in the budget.

#![warn(missing_docs)]

pub mod metrics;
pub mod probe;
pub mod trace;
pub mod workloads;
pub mod world;

use metrics::{median, Metric, Virtual};
use std::time::{Duration, Instant};
use trace::{CallName, Trace};
use workloads::{prepare, Scale, Workload};
use world::{run_world, WorldOut};

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, checked by the tests like the default one.
pub const HELD_OUT_SEED: u64 = 7_340_033;
/// The end-to-end metrics, in report order.
pub const END_TO_END: [&str; 4] = ["wall_s", "write_mbps", "peak_rss_mb", "setup_s"];
/// Host time of a traced sample's worlds (the numerator of
/// `trace.overhead_ratio`; not reported on its own).
const TRACED_WALL: &str = "traced_wall_s";

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Problem size.
    pub scale: Scale,
    /// Input seed.
    pub seed: u64,
    /// Host-time budget; samples stop once the next would overrun it (at
    /// least one untraced sample, and one traced sample when tracing).
    pub seconds: f64,
    /// Report per-layer metrics (untraced and traced samples) instead of
    /// end-to-end ones (untraced samples only).
    pub trace: bool,
}

/// One set-up, run and verification (plus spans and probes when traced),
/// as flat name/unit/value metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Taken with spans recorded.
    pub traced: bool,
    /// Virtual fingerprint: every rank's clock and `Stats` and every
    /// `Pfs::stats()` snapshot.
    pub digest: u64,
    /// Collective calls attempted.
    pub attempted: u64,
    /// Collective calls that returned `Err` on a rank or whose world
    /// failed verification (a world that panicked fails all its calls).
    pub failed: u64,
    /// Problems found, one line each.
    pub problems: Vec<String>,
    /// Everything measured.
    pub metrics: Vec<Metric>,
}

impl Sample {
    /// The value of metric `name`, if measured.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Line-oriented text form, read back by [`Sample::parse`].
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "traced {}\ndigest {}\nattempted {}\nfailed {}\n",
            self.traced as u8, self.digest, self.attempted, self.failed
        );
        for p in &self.problems {
            out += &format!("problem {p}\n");
        }
        for m in &self.metrics {
            out += &format!("metric {} {} {:?}\n", m.name, m.unit, m.value);
        }
        out
    }

    /// Parse [`Sample::to_text`] output.
    pub fn parse(text: &str) -> Result<Sample, String> {
        let mut s = Sample {
            traced: false,
            digest: 0,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Vec::new(),
        };
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{v:?}: {e}"));
        for line in text.lines() {
            let (key, rest) = line
                .split_once(' ')
                .ok_or_else(|| format!("bad line {line:?}"))?;
            match key {
                "traced" => s.traced = rest == "1",
                "digest" => s.digest = num(rest)?,
                "attempted" => s.attempted = num(rest)?,
                "failed" => s.failed = num(rest)?,
                "problem" => s.problems.push(rest.to_string()),
                "metric" => {
                    let mut f = rest.split(' ');
                    let (Some(name), Some(unit), Some(v), None) =
                        (f.next(), f.next(), f.next(), f.next())
                    else {
                        return Err(format!("bad metric line {line:?}"));
                    };
                    let value = v.parse().map_err(|e| format!("{v:?}: {e}"))?;
                    s.metrics.push(Metric::new(name, unit, value));
                }
                _ => return Err(format!("unknown line {line:?}")),
            }
        }
        Ok(s)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Take one sample of the workload in this process. A traced sample
/// records spans into `trace` under run id `run_id` and runs the probes.
pub fn sample(opts: &Options, traced: bool, run_id: usize, trace: &mut Trace) -> Sample {
    let t0 = trace.now();
    let setup_start = Instant::now();
    let mut prepared = prepare(opts.workload, opts.scale, opts.seed);
    let setup = setup_start.elapsed();
    let root = traced.then(|| {
        let root = trace.push(run_id, None, "bench", "sample", t0, t0);
        trace.push(run_id, Some(root), "workload", "setup", t0, trace.now());
        root
    });

    let mut wall = Duration::ZERO;
    let mut calls = [Duration::ZERO; 5];
    let mut outs: Vec<Vec<Option<WorldOut>>> = Vec::new();
    for sys in &prepared.systems {
        let mut sys_outs = Vec::new();
        for world in &sys.worlds {
            let w0 = trace.now();
            let out = run_world(&sys.pfs, world, traced);
            let host = out.as_ref().map_or(Duration::ZERO, |o| o.host);
            wall += host;
            if let (Some(root), Some(o)) = (root, &out) {
                let ws = trace.push(run_id, Some(root), "sim", "world", w0, w0 + host);
                for (name, d) in trace.push_world(run_id, ws, w0, &o.spans) {
                    calls[name as usize] += d;
                }
            }
            sys_outs.push(out);
        }
        outs.push(sys_outs);
    }
    let types = if traced {
        prepared.datatypes()
    } else {
        Default::default()
    };
    // The inputs are spent; free them before the images are read back.
    prepared.drop_buffers();

    let mut s = Sample {
        traced,
        digest: 0,
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        metrics: Vec::new(),
    };
    let tv = trace.now();
    let v0 = Instant::now();
    for (si, sys_outs) in outs.iter().enumerate() {
        let verdicts = prepared.verify(si, sys_outs);
        for ((out, ok), world) in sys_outs
            .iter()
            .zip(verdicts)
            .zip(&prepared.systems[si].worlds)
        {
            let ncalls = world.call_dirs().len() as u64;
            s.attempted += ncalls;
            s.failed += match out {
                Some(o) if ok => o.calls.iter().filter(|c| !c.ok).count() as u64,
                _ => ncalls,
            };
        }
    }
    let verify = v0.elapsed();
    if s.failed > 0 {
        s.problems.push(format!(
            "{} of {} collective calls failed",
            s.failed, s.attempted
        ));
    }
    let virt = Virtual::from_outs(&prepared, &outs);
    s.digest = virt.digest;
    s.metrics
        .push(Metric::new("setup_s", "s", setup.as_secs_f64()));
    s.metrics.extend(virt.layer_counts());
    s.metrics
        .push(Metric::new("read_mbps", "MB/s", virt.read_mbps()));

    let Some(root) = root else {
        s.metrics.extend([
            Metric::new("wall_s", "s", wall.as_secs_f64()),
            Metric::new("write_mbps", "MB/s", virt.write_mbps()),
            Metric::new("peak_rss_mb", "MB", metrics::peak_rss_mb()),
            Metric::new("workload.oracle_ms", "ms", ms(prepared.oracle_time)),
            Metric::new("workload.verify_ms", "ms", ms(verify)),
        ]);
        return s;
    };

    trace.push(run_id, Some(root), "workload", "verify", tv, tv + verify);
    let f0 = trace.now();
    let (flatten, wire_bytes) = probe::flatten_cold(&types.0, &types.1);
    trace.push(run_id, Some(root), "types", "flatten", f0, f0 + flatten);
    let r0 = trace.now();
    let replay: Duration = (0..prepared.systems.len())
        .map(|i| probe::replay_image(prepared.systems[i].pfs.config(), &prepared.image(i)))
        .sum();
    trace.push(run_id, Some(root), "pfs", "replay", r0, trace.now());
    trace.spans[root].end = trace.now();
    let self_by_layer = trace.self_time_by_layer(run_id);
    let self_ms = |layer: &str| {
        self_by_layer
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |(_, d)| ms(*d))
    };
    let probes = probe::sim_probes(&virt, wire_bytes, trace, run_id);
    let call_ms = |name: CallName| ms(calls[name as usize]);
    s.metrics.extend([
        Metric::new(TRACED_WALL, "s", wall.as_secs_f64()),
        Metric::new("sim.host_ns_per_msg", "ns", probes.host_ns_per_msg),
        Metric::new("sim.alltoallv_ms", "ms", probes.alltoallv_ms),
        Metric::new("sim.allgatherv_ms", "ms", probes.allgatherv_ms),
        Metric::new("sim.spawn_join_ms", "ms", probes.spawn_join_ms),
        Metric::new("sim.self_ms", "ms", self_ms("sim")),
        Metric::new("types.flatten_ms", "ms", ms(flatten)),
        Metric::new("core.open_ms", "ms", call_ms(CallName::Open)),
        Metric::new("core.set_view_ms", "ms", call_ms(CallName::SetView)),
        Metric::new("core.write_all_ms", "ms", call_ms(CallName::WriteAll)),
        Metric::new("core.read_all_ms", "ms", call_ms(CallName::ReadAll)),
        Metric::new("core.close_ms", "ms", call_ms(CallName::Close)),
        Metric::new(
            "core.derive_residual_ms",
            "ms",
            call_ms(CallName::WriteAll) - probes.host_ns_per_msg * virt.write_msgs as f64 / 1e6,
        ),
        Metric::new("pfs.replay_ms", "ms", ms(replay)),
        Metric::new("workload.self_ms", "ms", self_ms("workload")),
    ]);
    s
}

/// The outcome of one benchmark command.
#[derive(Debug)]
pub struct Report {
    /// Every output matched its reference and every sample produced the
    /// same virtual results.
    pub correct: bool,
    /// Collective calls attempted over all samples.
    pub attempted: u64,
    /// Collective calls failed over all samples.
    pub failed: u64,
    /// The samples' virtual fingerprint (`virtual_digest`).
    pub digest: u64,
    /// `wall_s` of every untraced sample.
    pub wall_samples: Vec<f64>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Problems found, one line each.
    pub problems: Vec<String>,
}

/// Take samples with `take(traced)` until the next would overrun the
/// budget, then report medians.
pub fn run_bench(opts: &Options, mut take: impl FnMut(bool) -> Sample) -> Report {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut samples = Vec::new();
    loop {
        let s0 = Instant::now();
        samples.push(take(false));
        if opts.trace {
            samples.push(take(true));
        }
        if start.elapsed() + s0.elapsed() > budget {
            break;
        }
    }
    summarize(opts, &samples)
}

/// Medians over `samples` of the metrics `opts` asks for.
pub fn summarize(opts: &Options, samples: &[Sample]) -> Report {
    let mut problems: Vec<String> = samples.iter().flat_map(|s| s.problems.clone()).collect();
    let digest = samples[0].digest;
    if let Some(other) = samples.iter().find(|s| s.digest != digest) {
        problems.push(format!(
            "virtual results differ between samples: digest {digest:016x} vs {:016x}",
            other.digest
        ));
    }
    let values = |name: &str, traced: Option<bool>| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| traced.is_none_or(|t| s.traced == t))
            .filter_map(|s| s.value(name))
            .collect()
    };
    let wall_samples = values("wall_s", Some(false));
    let unit_of = |name: &str| {
        samples
            .iter()
            .flat_map(|s| &s.metrics)
            .find(|m| m.name == name)
            .map(|m| m.unit.clone())
    };
    let names: Vec<String> = if opts.trace {
        let mut names: Vec<String> = Vec::new();
        for m in samples.iter().flat_map(|s| &s.metrics) {
            let e2e = END_TO_END.contains(&m.name.as_str()) || m.name == TRACED_WALL;
            if !e2e && !names.contains(&m.name) {
                names.push(m.name.clone());
            }
        }
        names
    } else {
        END_TO_END.iter().map(|n| n.to_string()).collect()
    };
    let mut metrics: Vec<Metric> = names
        .iter()
        .map(|n| Metric::new(n, &unit_of(n).unwrap_or_default(), median(&values(n, None))))
        .collect();
    if opts.trace {
        let ratio = median(&values(TRACED_WALL, Some(true))) / median(&wall_samples);
        metrics.push(Metric::new("trace.overhead_ratio", "ratio", ratio));
    }
    Report {
        correct: problems.is_empty(),
        attempted: samples.iter().map(|s| s.attempted).sum(),
        failed: samples.iter().map(|s| s.failed).sum(),
        digest,
        wall_samples,
        metrics,
        problems,
    }
}

/// Take one sample in a fresh process: run this program's executable
/// with `child_args`, which must make it print [`Sample::to_text`].
pub fn sample_in_child(exe: &std::path::Path, child_args: &[String]) -> Sample {
    // A sample process that did not report counts as one failed call.
    let failed = |problem: String| Sample {
        traced: false,
        digest: 0,
        attempted: 1,
        failed: 1,
        problems: vec![problem],
        metrics: Vec::new(),
    };
    match std::process::Command::new(exe)
        .args(child_args)
        .stderr(std::process::Stdio::inherit())
        .output()
    {
        Ok(out) if out.status.success() => match String::from_utf8(out.stdout) {
            Ok(text) => {
                Sample::parse(&text).unwrap_or_else(|e| failed(format!("sample output: {e}")))
            }
            Err(e) => failed(format!("sample output is not UTF-8: {e}")),
        },
        Ok(out) => failed(format!("sample process exited with {}", out.status)),
        Err(e) => failed(format!("could not start a sample process: {e}")),
    }
}
