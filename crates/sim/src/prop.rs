//! A minimal in-repo property-testing harness.
//!
//! The external `proptest` crate is unavailable in offline builds, so
//! every property suite in the workspace uses this harness instead:
//! random cases from the deterministic
//! [`XorShift64Star`], a fixed default seed so CI is reproducible, and a
//! proptest-compatible regressions file (`cc <hex-seed>` lines) whose
//! cases replay before any fresh ones.
//!
//! Environment knobs (both optional):
//!
//! * `PROPTEST_CASES` — number of fresh cases per property (default 32;
//!   `scripts/verify.sh --thorough` sets 512);
//! * `FLEXIO_PROP_SEED` — base seed, decimal or `0x`-prefixed hex. The
//!   default is a fixed constant, so runs are reproducible unless a seed
//!   is supplied explicitly.
//!
//! On failure the harness reports the case seed as a ready-to-commit
//! `cc <seed>` regressions line together with the generated value, then
//! greedily *shrinks*: the same seed is replayed at rising shrink levels
//! (every PRNG draw right-shifted, so `base + draw % range` generators
//! yield fewer ranks, fewer regions, smaller sizes), and the deepest
//! still-failing derived case is reported as a `cc <seed> s<level>` line —
//! the regressions format accepts the optional `s<level>` token, so the
//! shrunk case replays verbatim. Finally the panic is re-raised so the
//! test still fails normally.

use crate::prng::{XorShift64Star, MAX_SHRINK};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Base seed used when `FLEXIO_PROP_SEED` is not set: FNV-1a of
/// "flexio-prop" — stable, and obviously arbitrary.
pub const DEFAULT_SEED: u64 = default_seed();

const fn default_seed() -> u64 {
    let name = b"flexio-prop";
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut i = 0;
    while i < name.len() {
        h ^= name[i] as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        i += 1;
    }
    h
}

/// One property's runner: case count, base seed, and regression cases
/// (`(seed, shrink level)` pairs).
#[derive(Debug, Clone)]
pub struct Runner {
    name: &'static str,
    cases: u64,
    seed: u64,
    regressions: Vec<(u64, u32)>,
}

/// Shrink levels tried on failure, shallowest first: each level right-
/// shifts every PRNG draw by that many bits, so the derived cases get
/// monotonically simpler. The greedy pass keeps the deepest level that
/// still fails.
const SHRINK_LEVELS: [u32; 6] = [16, 32, 48, 56, 60, MAX_SHRINK];

/// Parse one regressions-file line: `cc <hex-seed> [s<level>]`, with
/// proptest-style trailing comments tolerated. Returns `None` for
/// non-`cc` lines (comments, blanks).
fn parse_regression_line(line: &str) -> Option<(u64, u32)> {
    let rest = line.trim().strip_prefix("cc ")?;
    let mut toks = rest.split_whitespace();
    let tok = toks.next().unwrap_or("");
    let seed = u64::from_str_radix(tok.trim_start_matches("0x"), 16)
        .unwrap_or_else(|_| panic!("bad regression seed {tok:?}"));
    let level = match toks.next().and_then(|t| t.strip_prefix('s')) {
        Some(lvl) => lvl
            .parse()
            .unwrap_or_else(|_| panic!("bad regression shrink level in line {line:?}")),
        None => 0,
    };
    Some((seed, level))
}

/// RAII guard that silences the global panic hook while shrink attempts
/// replay the failing property (each attempt panics by design; dozens of
/// backtraces would bury the report). The previous hook is restored on
/// drop. The hook is process-global, so a *concurrently* failing test in
/// the same binary could print nothing during this window — a benign race
/// on an already-failing run.
type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;

struct QuietPanics(Option<PanicHook>);

impl QuietPanics {
    fn install() -> Self {
        let old = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        QuietPanics(Some(old))
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        if let Some(old) = self.0.take() {
            std::panic::set_hook(old);
        }
    }
}

/// splitmix64: decorrelates (base seed, property name, case index) into
/// per-case seeds so neighbouring cases share no PRNG state.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn env_u64(key: &str) -> Option<u64> {
    let v = std::env::var(key).ok()?;
    let v = v.trim();
    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    match parsed {
        Ok(n) => Some(n),
        Err(_) => panic!("{key} must be a decimal or 0x-hex integer, got {v:?}"),
    }
}

impl Runner {
    /// A runner for the property called `name`, honouring
    /// `PROPTEST_CASES` and `FLEXIO_PROP_SEED`.
    pub fn new(name: &'static str) -> Self {
        Runner {
            name,
            cases: env_u64("PROPTEST_CASES").unwrap_or(32),
            seed: env_u64("FLEXIO_PROP_SEED").unwrap_or(DEFAULT_SEED),
            regressions: Vec::new(),
        }
    }

    /// Override the fresh-case count (tests that are expensive per case).
    pub fn cases(mut self, cases: u64) -> Self {
        self.cases = env_u64("PROPTEST_CASES").unwrap_or(cases);
        self
    }

    /// Parse a proptest-style regressions file's *contents* (commit the
    /// file and pass it via `include_str!`): every `cc <seed>` line adds
    /// one case replayed before fresh generation, exactly like proptest's
    /// own `.proptest-regressions` handling. An optional `s<level>` token
    /// after the seed replays the case at that shrink level (the harness
    /// emits such lines when a shrunk derived case still fails).
    pub fn regressions(mut self, file_contents: &str) -> Self {
        self.regressions.extend(file_contents.lines().filter_map(parse_regression_line));
        self
    }

    /// Run the property: generate a case from each seed with `gen`, check
    /// it with `prop` (a panic is a failure). Regression cases run first,
    /// then `cases` fresh ones derived from the base seed and the
    /// property name. On failure, greedily shrink before re-raising.
    pub fn run<T: std::fmt::Debug>(
        &self,
        generate: impl Fn(&mut XorShift64Star) -> T,
        prop: impl Fn(&T),
    ) {
        let name_mix = fnv1a(self.name.as_bytes());
        let fresh = (0..self.cases).map(|i| (splitmix64(self.seed ^ name_mix ^ splitmix64(i)), 0));
        for (kind, (case_seed, level)) in self
            .regressions
            .iter()
            .copied()
            .map(|s| ("regression", s))
            .chain(fresh.map(|s| ("fresh", s)))
        {
            let mut rng = XorShift64Star::with_shrink(case_seed, level);
            let value = generate(&mut rng);
            if let Err(panic) = catch_unwind(AssertUnwindSafe(|| prop(&value))) {
                let line = if level == 0 {
                    format!("cc {case_seed:016x}")
                } else {
                    format!("cc {case_seed:016x} s{level}")
                };
                eprintln!(
                    "property '{}' failed on {kind} case seed (add to the \
                     .proptest-regressions file to pin):\n{line}\nvalue: {value:#?}",
                    self.name
                );
                match shrink(&generate, &prop, case_seed, level) {
                    Some((lvl, shrunk_value, shrunk_panic)) => {
                        eprintln!(
                            "shrunk: seed {case_seed:016x} still fails at shrink level {lvl} \
                             (simpler derived case) — pin this line instead:\n\
                             cc {case_seed:016x} s{lvl}\nvalue: {shrunk_value:#?}"
                        );
                        resume_unwind(shrunk_panic);
                    }
                    None => resume_unwind(panic),
                }
            }
        }
    }
}

/// Greedy shrink: replay `seed` at every level deeper than `from_level`
/// and keep the deepest derived case that still fails the property.
/// Generation itself may panic at deep levels (degenerate parameters);
/// such levels are skipped, not reported.
#[allow(clippy::type_complexity)]
fn shrink<T: std::fmt::Debug>(
    generate: &impl Fn(&mut XorShift64Star) -> T,
    prop: &impl Fn(&T),
    seed: u64,
    from_level: u32,
) -> Option<(u32, T, Box<dyn std::any::Any + Send>)> {
    let _quiet = QuietPanics::install();
    let mut best = None;
    for &level in SHRINK_LEVELS.iter().filter(|&&l| l > from_level) {
        let Ok(value) = catch_unwind(AssertUnwindSafe(|| {
            let mut rng = XorShift64Star::with_shrink(seed, level);
            generate(&mut rng)
        })) else {
            continue;
        };
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| prop(&value))) {
            best = Some((level, value, panic));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn regression_lines_parse_with_optional_level() {
        let file = "# comment\ncc 00ff s8\n\ncc 0x0abc\ncc 12 s60 # trailing note\n";
        let r = Runner::new("parse_test").regressions(file);
        assert_eq!(r.regressions, vec![(0xff, 8), (0xabc, 0), (0x12, 60)]);
    }

    #[test]
    #[should_panic(expected = "bad regression shrink level")]
    fn malformed_shrink_level_rejected() {
        parse_regression_line("cc 00ff sdeep");
    }

    #[test]
    fn failing_property_is_shrunk_to_a_simpler_case() {
        // The property always fails; the generator records every derived
        // case, so after the run we can see the greedy pass produced
        // progressively simpler cases from the same seed.
        let _quiet = QuietPanics::install();
        let seen = Mutex::new(Vec::new());
        let result = catch_unwind(AssertUnwindSafe(|| {
            Runner { name: "shrink_test", cases: 1, seed: 1234, regressions: Vec::new() }.run(
                |rng| {
                    let v = 2 + rng.next_u64() % 1000;
                    seen.lock().unwrap().push(v);
                    v
                },
                |_| panic!("always fails"),
            );
        }));
        assert!(result.is_err(), "a failing property must still fail");
        let seen = seen.into_inner().unwrap();
        // Original case + one per shrink level; the deepest level bounds
        // the draw to [0, 4), so the final derived case is near-minimal.
        assert_eq!(seen.len(), 1 + SHRINK_LEVELS.len());
        assert!(*seen.last().unwrap() <= 2 + 3, "deepest case must be near-minimal: {seen:?}");
    }

    #[test]
    fn shrunk_regression_line_replays_at_its_level() {
        // A `cc <seed> s<level>` line must regenerate the *shrunk* case.
        let seen = Mutex::new(Vec::new());
        Runner { name: "replay_test", cases: 0, seed: 0, regressions: vec![(1234, 60)] }.run(
            |rng| {
                let v = rng.next_u64() % 1000;
                seen.lock().unwrap().push(v);
                v
            },
            |_| {},
        );
        let direct = XorShift64Star::with_shrink(1234, 60).next_u64() % 1000;
        assert_eq!(*seen.lock().unwrap(), vec![direct]);
    }

    #[test]
    fn passing_property_never_shrinks() {
        let count = Mutex::new(0u64);
        Runner { name: "pass_test", cases: 8, seed: 7, regressions: Vec::new() }.run(
            |rng| rng.next_u64(),
            |_| {
                *count.lock().unwrap() += 1;
            },
        );
        assert_eq!(*count.lock().unwrap(), 8);
    }
}
