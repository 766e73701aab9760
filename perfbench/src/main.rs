//! `flexio-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! [--scale full|tiny]`
//!
//! Runs one workload for about `S` host seconds, checks every output,
//! prints each metric by name with its unit, then one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer metrics and writes
//! the spans to `trace-out/` in this package's directory. Exits 1 if any
//! output failed verification, 2 on a usage error.
//!
//! Each sample runs in a child process: this program re-executed with
//! `--child <k>`, which takes sample `k` and prints it as text.

use flexio_perfbench::metrics::tail;
use flexio_perfbench::trace::Trace;
use flexio_perfbench::workloads::{Scale, Workload};
use flexio_perfbench::{run_bench, sample, sample_in_child, Options, Report, DEFAULT_SEED};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("error: {msg}");
    eprintln!(
        "usage: flexio-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--scale full|tiny]",
        names.join("|")
    );
    ExitCode::from(2)
}

/// Parsed command line: the options, and the sample index when this
/// process is a child taking one sample.
fn parse(args: &[String]) -> Result<(Options, Option<usize>), String> {
    let mut opts = Options {
        workload: Workload::FineWeak,
        scale: Scale::Full,
        seed: DEFAULT_SEED,
        seconds: 40.0,
        trace: false,
    };
    let mut workload = None;
    let mut child = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::from_name(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                opts.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes an integer".to_string())?
            }
            "--seconds" => {
                opts.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            "--scale" => {
                opts.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    v => return Err(format!("--scale takes full or tiny, got {v:?}")),
                }
            }
            "--child" => {
                child = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--child takes an index".to_string())?,
                )
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok((opts, child))
}

fn print_report(opts: &Options, r: &Report) {
    println!(
        "# workload {} | seed {} | {} | {} untraced sample(s)",
        opts.workload.name(),
        opts.seed,
        if opts.trace { "traced" } else { "untraced" },
        r.wall_samples.len()
    );
    let n = r.wall_samples.len();
    let shown: Vec<String> = r
        .wall_samples
        .iter()
        .take(16)
        .map(|s| format!("{s:.4}"))
        .collect();
    match tail(&r.wall_samples) {
        Some((p, v)) => println!(
            "# wall_s samples: {n}, p{p:.0} {v:.6} s [{}]",
            shown.join(" ")
        ),
        None => println!(
            "# wall_s samples: {n} [{}] (a tail percentile needs at least 11)",
            shown.join(" ")
        ),
    }
    for m in &r.metrics {
        println!("{:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let ratio = r.failed as f64 / r.attempted.max(1) as f64;
    println!(
        "{:<34} {:>18.6} ratio ({} of {} calls)",
        "op_fail_ratio", ratio, r.failed, r.attempted
    );
    println!(
        "{:<34} {:>18} hex",
        "virtual_digest",
        format!("{:016x}", r.digest)
    );
    for p in &r.problems {
        println!("# FAILED: {p}");
    }
}

fn json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// Take sample `k` in this process, print it, and write its spans.
fn child_main(opts: &Options, k: usize) -> ExitCode {
    let mut trace = Trace::new();
    let s = sample(opts, opts.trace, k, &mut trace);
    if opts.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("trace-out");
        let file = dir.join(format!(
            "{}-seed{}-sample{k}.tsv",
            opts.workload.name(),
            opts.seed
        ));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&file, trace.to_tsv()))
        {
            eprintln!("warning: could not write {}: {e}", file.display());
        }
    }
    print!("{}", s.to_text());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, child) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => return usage(&e),
    };
    // The benchmark measures the sequential event loop; a sharded pool
    // selected through the environment would silently measure another
    // runtime.
    if let Ok(v) = std::env::var("FLEXIO_SIM_SHARDS") {
        if !matches!(v.trim(), "" | "0" | "1") {
            eprintln!(
                "error: FLEXIO_SIM_SHARDS={v:?} selects the sharded pool; unset it to benchmark"
            );
            return ExitCode::from(2);
        }
    }
    if let Some(k) = child {
        return child_main(&opts, k);
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this executable to take samples: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut k = 0;
    let report = run_bench(&opts, |traced| {
        k += 1;
        let args: Vec<String> = [
            "--workload",
            opts.workload.name(),
            "--seed",
            &opts.seed.to_string(),
            "--scale",
            opts.scale.name(),
            "--trace",
            if traced { "1" } else { "0" },
            "--child",
            &k.to_string(),
        ]
        .iter()
        .map(|a| a.to_string())
        .collect();
        sample_in_child(&exe, &args)
    });
    print_report(&opts, &report);
    println!("{}", json(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
