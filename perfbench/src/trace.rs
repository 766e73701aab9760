//! In-memory span recording for the traced run.
//!
//! Spans are recorded from the benchmark's own code around the calls it
//! makes into each crate; nothing inside the program is instrumented. A
//! world runs every rank as a fiber on one host thread, so one rank's
//! `write_all` span also covers the time other ranks ran while it was
//! parked. The collective span of a call is therefore the hull of its
//! rank spans (first entry to last exit), clipped to start no earlier
//! than the previous collective call's hull ended, so the hulls of one
//! world are disjoint. A span's self time is its duration minus the
//! union of its children's intervals.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The `MpiFile` calls the world runner times (discriminants index
/// per-call arrays).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallName {
    /// `MpiFile::open`.
    Open,
    /// `MpiFile::set_view`.
    SetView,
    /// `MpiFile::write_all_at`.
    WriteAll,
    /// `MpiFile::read_all_at`.
    ReadAll,
    /// `MpiFile::close`.
    Close,
}

impl CallName {
    /// The method name.
    pub fn as_str(self) -> &'static str {
        match self {
            CallName::Open => "open",
            CallName::SetView => "set_view",
            CallName::WriteAll => "write_all",
            CallName::ReadAll => "read_all",
            CallName::Close => "close",
        }
    }
}

/// One rank's span around one `MpiFile` call, relative to its world's
/// start. A rank's spans are recorded in call order.
#[derive(Debug, Clone, Copy)]
pub struct RankSpan {
    /// Rank id.
    pub rank: usize,
    /// Which call.
    pub name: CallName,
    /// Entry.
    pub start: Duration,
    /// Exit.
    pub end: Duration,
}

/// Layer of a span whose self time is not summed (per-rank detail).
const RANK_LAYER: &str = "rank";

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Which traced run (iteration) or probe pass the span belongs to.
    pub run: usize,
    /// Enclosing span, by index into the trace.
    pub parent: Option<usize>,
    /// Crate the span's calls go into.
    pub layer: &'static str,
    /// What was called.
    pub name: String,
    /// Start, relative to the trace's epoch.
    pub start: Duration,
    /// End, relative to the trace's epoch.
    pub end: Duration,
}

/// Every span of one benchmark process, kept in memory until the run
/// ends.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    /// The spans, parents before children.
    pub spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Trace {
        Trace::new()
    }
}

impl Trace {
    /// An empty trace whose epoch is now.
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Host time since the epoch.
    pub fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// Record a span; returns its index for use as a parent.
    pub fn push(
        &mut self,
        run: usize,
        parent: Option<usize>,
        layer: &'static str,
        name: impl Into<String>,
        start: Duration,
        end: Duration,
    ) -> usize {
        self.spans.push(Span {
            run,
            parent,
            layer,
            name: name.into(),
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Record a world's rank spans under the world span `world`, which
    /// started at `offset`: one collective hull per call (layer `core`),
    /// each parenting its rank spans. Returns `(call, hull duration)` per
    /// collective call, in call order.
    pub fn push_world(
        &mut self,
        run: usize,
        world: usize,
        offset: Duration,
        spans: &[RankSpan],
    ) -> Vec<(CallName, Duration)> {
        // A rank's k-th span is its part of the world's k-th call.
        let mut per_call: Vec<Vec<RankSpan>> = Vec::new();
        let mut seen: Vec<usize> = Vec::new();
        for s in spans {
            if seen.len() <= s.rank {
                seen.resize(s.rank + 1, 0);
            }
            let k = seen[s.rank];
            seen[s.rank] += 1;
            if per_call.len() <= k {
                per_call.resize(k + 1, Vec::new());
            }
            per_call[k].push(*s);
        }
        let mut out = Vec::with_capacity(per_call.len());
        let mut prev_end = Duration::ZERO;
        for call in per_call {
            let name = call[0].name;
            let first = call.iter().map(|s| s.start).min().unwrap_or_default();
            let last = call.iter().map(|s| s.end).max().unwrap_or_default();
            let start = first.max(prev_end);
            let end = last.max(start);
            prev_end = end;
            let hull = self.push(
                run,
                Some(world),
                "core",
                name.as_str(),
                offset + start,
                offset + end,
            );
            for s in &call {
                self.push(
                    run,
                    Some(hull),
                    RANK_LAYER,
                    format!("{}@{}", name.as_str(), s.rank),
                    offset + s.start,
                    offset + s.end,
                );
            }
            out.push((name, end - start));
        }
        out
    }

    /// Self time summed per layer over the spans of `run` (rank spans
    /// excluded), as `(layer, duration)` in first-seen layer order.
    pub fn self_time_by_layer(&self, run: usize) -> Vec<(&'static str, Duration)> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                if s.layer != RANK_LAYER {
                    children[p].push(i);
                }
            }
        }
        let mut totals: Vec<(&'static str, Duration)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.run != run || s.layer == RANK_LAYER {
                continue;
            }
            let mut kids: Vec<(Duration, Duration)> = children[i]
                .iter()
                .map(|&c| (self.spans[c].start, self.spans[c].end))
                .collect();
            let own = (s.end - s.start).saturating_sub(union_len(&mut kids, s.start, s.end));
            match totals.iter_mut().find(|(l, _)| *l == s.layer) {
                Some((_, d)) => *d += own,
                None => totals.push((s.layer, own)),
            }
        }
        totals
    }

    /// Tab-separated dump: one span per line with its run, index, parent,
    /// layer, name, and start/end in ns from the epoch.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("run\tid\tparent\tlayer\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.run,
                s.layer,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        out
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(Duration, Duration)], lo: Duration, hi: Duration) -> Duration {
    intervals.sort_unstable();
    let mut total = Duration::ZERO;
    let mut cur: Option<(Duration, Duration)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn hulls_are_clipped_to_be_disjoint() {
        let spans = [
            RankSpan {
                rank: 0,
                name: CallName::Open,
                start: ms(0),
                end: ms(4),
            },
            RankSpan {
                rank: 1,
                name: CallName::Open,
                start: ms(1),
                end: ms(5),
            },
            RankSpan {
                rank: 0,
                name: CallName::WriteAll,
                start: ms(4),
                end: ms(9),
            },
            RankSpan {
                rank: 1,
                name: CallName::WriteAll,
                start: ms(6),
                end: ms(10),
            },
        ];
        let mut t = Trace::new();
        let w = t.push(0, None, "sim", "world", ms(100), ms(112));
        let calls = t.push_world(0, w, ms(100), &spans);
        assert_eq!(
            calls,
            vec![(CallName::Open, ms(5)), (CallName::WriteAll, ms(5))]
        );
        let by_layer = t.self_time_by_layer(0);
        assert_eq!(by_layer, vec![("sim", ms(2)), ("core", ms(10))]);
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        let mut iv = vec![
            (ms(5), ms(8)),
            (ms(0), ms(3)),
            (ms(2), ms(4)),
            (ms(9), ms(20)),
        ];
        assert_eq!(union_len(&mut iv, ms(1), ms(10)), ms(3) + ms(3) + ms(1));
    }
}
