//! Tests of the benchmark itself, at tiny scale: the metric set matches
//! `BENCHMARK.json`, virtual results repeat bit for bit, and broken
//! outputs are caught.

use flexio_perfbench::trace::Trace;
use flexio_perfbench::workloads::{prepare, Scale, Workload};
use flexio_perfbench::world::run_world;
use flexio_perfbench::{sample, Options, Sample, DEFAULT_SEED, HELD_OUT_SEED};
use std::collections::BTreeMap;
use std::process::Command;

/// A parsed JSON value (just enough for `BENCHMARK.json` and the result
/// line).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing characters after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key:?}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("not an array: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at byte {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k:?}");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => {
                let start = self.i + 1;
                let end = start
                    + self.s[start..]
                        .iter()
                        .position(|&c| c == b'"')
                        .expect("unterminated string");
                self.i = end + 1;
                let s = std::str::from_utf8(&self.s[start..end]).expect("utf-8");
                assert!(!s.contains('\\'), "escapes are not used here");
                Json::Str(s.to_string())
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at byte {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

/// `(name, unit)` of every metric the manifest lists under `section`.
fn manifest_metrics(m: &Json, section: &str) -> Vec<(String, String)> {
    m.get(section)
        .arr()
        .iter()
        .map(|e| {
            (
                e.get("name").str().to_string(),
                e.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn run_binary(args: &[&str], env: &[(&str, &str)]) -> (Option<i32>, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_flexio-perfbench"));
    cmd.args(args).env_remove("FLEXIO_SIM_SHARDS");
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("benchmark binary runs");
    (
        out.status.code(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

#[test]
fn manifest_names_the_workloads() {
    let names: Vec<String> = manifest()
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str().to_string())
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names, ours);
}

#[test]
fn every_manifest_metric_prints_with_its_unit_and_a_finite_value() {
    let m = manifest();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = manifest_metrics(&m, section);
        for w in Workload::ALL {
            let args = [
                "--workload",
                w.name(),
                "--seconds",
                "0.01",
                "--trace",
                trace,
                "--scale",
                "tiny",
            ];
            let (code, stdout) = run_binary(&args, &[]);
            assert_eq!(
                code,
                Some(0),
                "{} --trace {trace} failed:\n{stdout}",
                w.name()
            );
            let result = Json::parse(stdout.lines().last().expect("a result line"));
            assert_eq!(result.get("correct"), &Json::Bool(true));
            assert_eq!(result.get("failed"), &Json::Num(0.0));
            let Json::Obj(got) = result.get("metrics") else {
                panic!("metrics must be an object")
            };
            let got_names: Vec<&String> = got.keys().collect();
            let mut want_names: Vec<&String> = want.iter().map(|(n, _)| n).collect();
            want_names.sort();
            assert_eq!(
                got_names,
                want_names,
                "{} --trace {trace}: metric set",
                w.name()
            );
            for (name, unit) in &want {
                let metric = &got[name];
                assert_eq!(
                    metric.get("unit").str(),
                    unit,
                    "{}: unit of {name}",
                    w.name()
                );
                let Json::Num(v) = metric.get("value") else {
                    panic!("{name}: value must be a number")
                };
                assert!(v.is_finite(), "{}: {name} = {v}", w.name());
                // The human-readable lines carry the same name and unit.
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.starts_with(&format!("{name} "))
                            && l.ends_with(&format!(" {unit}"))),
                    "{}: no printed line for {name} [{unit}]",
                    w.name()
                );
            }
            assert!(stdout.contains("op_fail_ratio"), "op_fail_ratio is printed");
            assert!(
                stdout.contains("virtual_digest"),
                "virtual_digest is printed"
            );
        }
    }
}

#[test]
fn end_to_end_bounds_keep_setup_largest() {
    let m = manifest();
    let bounds: Vec<(String, f64)> = m
        .get("end_to_end")
        .arr()
        .iter()
        .map(|e| {
            let Json::Num(b) = e.get("bound") else {
                panic!("bound must be a number")
            };
            (e.get("name").str().to_string(), *b)
        })
        .collect();
    let setup = bounds
        .iter()
        .find(|(n, _)| n == "setup_s")
        .expect("setup_s is listed")
        .1;
    assert!(bounds
        .iter()
        .all(|(_, b)| *b > 0.0 && *b <= 0.25 && *b <= setup));
}

/// The sample's virtual results: every count and virtual-time metric.
fn virtual_part(s: &Sample) -> (u64, Vec<(String, f64)>) {
    let host = |n: &str| {
        n.ends_with("_s")
            || (n.ends_with("_ms") && !n.ends_with("virtual_ms"))
            || n.ends_with("_ns_per_msg")
            || n == "peak_rss_mb"
    };
    let values = s
        .metrics
        .iter()
        .filter(|m| !host(&m.name))
        .map(|m| (m.name.clone(), m.value))
        .collect();
    (s.digest, values)
}

#[test]
fn virtual_results_repeat_across_runs_modes_and_seeds() {
    for w in Workload::ALL {
        let mut digests = Vec::new();
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let opts = Options {
                workload: w,
                scale: Scale::Tiny,
                seed,
                seconds: 1.0,
                trace: true,
            };
            let mut trace = Trace::new();
            let runs: Vec<Sample> = [false, false, true, true]
                .iter()
                .enumerate()
                .map(|(k, &t)| sample(&opts, t, k, &mut trace))
                .collect();
            for s in &runs {
                assert!(
                    s.problems.is_empty(),
                    "{} seed {seed}: {:?}",
                    w.name(),
                    s.problems
                );
                assert_eq!(s.failed, 0);
                assert!(s.attempted > 0);
            }
            let first = virtual_part(&runs[0]);
            assert!(first.1.iter().any(|(n, _)| n == "write_mbps"));
            for s in &runs[1..] {
                let v = virtual_part(s);
                assert_eq!(
                    v.0,
                    first.0,
                    "{} seed {seed}: digest differs (traced: {})",
                    w.name(),
                    s.traced
                );
                for (name, value) in &v.1 {
                    if let Some((_, want)) = first.1.iter().find(|(n, _)| n == name) {
                        assert_eq!(value, want, "{} seed {seed}: {name} differs", w.name());
                    }
                }
            }
            digests.push(first.0);
        }
        // The seed changes the bytes, never the access pattern or timing.
        assert_eq!(
            digests[0],
            digests[1],
            "{}: digest depends on the seed",
            w.name()
        );
    }
}

#[test]
fn samples_round_trip_through_text() {
    let opts = Options {
        workload: Workload::CheckpointRestart,
        scale: Scale::Tiny,
        seed: 5,
        seconds: 1.0,
        trace: true,
    };
    let s = sample(&opts, true, 0, &mut Trace::new());
    assert_eq!(Sample::parse(&s.to_text()), Ok(s));
}

#[test]
fn a_corrupted_image_fails_verification() {
    for w in Workload::ALL {
        let prepared = prepare(w, Scale::Tiny, DEFAULT_SEED);
        let sys = &prepared.systems[0];
        let outs: Vec<_> = sys
            .worlds
            .iter()
            .map(|world| run_world(&sys.pfs, world, false))
            .collect();
        assert!(
            prepared.verify(0, &outs).iter().all(|&ok| ok),
            "{}: clean run must verify",
            w.name()
        );
        let image = prepared.image(0);
        let at = image
            .iter()
            .position(|&b| b != 0)
            .expect("the run wrote data");
        sys.pfs
            .open(sys.worlds[0].path, 0)
            .write(0, at as u64, &[!image[at]])
            .unwrap();
        assert!(
            !prepared.verify(0, &outs)[0],
            "{}: corrupted byte {at} went unnoticed",
            w.name()
        );
    }
}

#[test]
fn refuses_the_sharded_pool_and_bad_arguments() {
    let args = [
        "--workload",
        "fine_weak",
        "--seconds",
        "0.01",
        "--scale",
        "tiny",
    ];
    let (code, stdout) = run_binary(&args, &[("FLEXIO_SIM_SHARDS", "4")]);
    assert_eq!(code, Some(2));
    assert!(stdout.is_empty(), "no result is printed: {stdout}");
    let (code, stdout) = run_binary(&["--workload", "nope"], &[]);
    assert_eq!(code, Some(2));
    assert!(stdout.is_empty());
    let (code, _) = run_binary(&args, &[("FLEXIO_SIM_SHARDS", "1")]);
    assert_eq!(code, Some(0), "one shard is the sequential loop");
}
