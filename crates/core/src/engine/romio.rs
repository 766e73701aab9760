//! Faithful re-implementation of the *original* ROMIO two-phase code path,
//! used as the paper's baseline ("old+vector" in Fig. 4).
//!
//! Characteristics (§5.3):
//! * each client **flattens its entire access** into `M` offset/length
//!   pairs up front and ships each aggregator its relevant sub-list — the
//!   metadata volume is O(M), but processing is O(M) too;
//! * file realms are always the even aggregate-access-region split —
//!   no alignment, no persistence, no pluggable assigners;
//! * data sieving is **integrated**: the collective buffer *is* the sieve
//!   buffer, so there is one less copy than the flexible engine, but the
//!   buffer-to-file method cannot be changed, and gap data lives in the
//!   collective buffer.
//!
//! The buffer cycles run on the shared pipeline core
//! ([`crate::engine::pipeline`]), so `flexio_pipeline_depth` means the
//! same thing here as under the flexible engine — depth 1 charges exactly
//! like the historical serial loop (fixture-enforced), deeper pipelines
//! overlap each cycle's *final* buffer-to-file request with the next
//! cycle's exchange. A write cycle's sieving *read* stays blocking at any
//! depth: it is the read half of a read-modify-write, and the payloads
//! can only be placed after it lands.

use crate::engine::common::{agree_error, retry_io, Piece};
use crate::engine::flexible::DataBuf;
use crate::engine::pipeline::{self, CapPolicy, CycleDriver};
use crate::error::{IoError, Result};
use crate::hints::{aggregator_ranks, Hints};
use crate::meta::ClientAccess;
use flexio_io::IoCompletion;
use flexio_pfs::{FileHandle, PfsError};
use flexio_sim::{Phase, Rank};
use flexio_types::MemLayout;

fn encode_pairs(pieces: &[Piece]) -> Vec<u8> {
    let mut out = Vec::with_capacity(pieces.len() * 16);
    for p in pieces {
        out.extend_from_slice(&p.file_off.to_le_bytes());
        out.extend_from_slice(&p.len.to_le_bytes());
    }
    out
}

fn decode_pairs(buf: &[u8]) -> Vec<(u64, u64)> {
    buf.chunks_exact(16)
        .map(|c| {
            (
                u64::from_le_bytes(c[0..8].try_into().unwrap()),
                u64::from_le_bytes(c[8..16].try_into().unwrap()),
            )
        })
        .collect()
}

/// Take the pieces of `list[*idx..]` that start below `win_end`, splitting
/// a piece that crosses the boundary. `split_tail` holds a partially
/// consumed piece carried between cycles.
fn take_below_window(
    list: &[Piece],
    idx: &mut usize,
    split_tail: &mut Option<Piece>,
    win_end: u64,
) -> Vec<Piece> {
    let mut out = Vec::new();
    if let Some(tail) = split_tail.take() {
        if tail.file_off < win_end {
            let take = tail.len.min(win_end - tail.file_off);
            out.push(Piece { file_off: tail.file_off, data_pos: tail.data_pos, len: take });
            if take < tail.len {
                *split_tail = Some(Piece {
                    file_off: tail.file_off + take,
                    data_pos: tail.data_pos + take,
                    len: tail.len - take,
                });
                return out;
            }
        } else {
            *split_tail = Some(tail);
            return out;
        }
    }
    while *idx < list.len() && list[*idx].file_off < win_end {
        let p = list[*idx];
        *idx += 1;
        let take = p.len.min(win_end - p.file_off);
        out.push(Piece { file_off: p.file_off, data_pos: p.data_pos, len: take });
        if take < p.len {
            *split_tail = Some(Piece {
                file_off: p.file_off + take,
                data_pos: p.data_pos + take,
                len: p.len - take,
            });
            break;
        }
    }
    out
}

/// One precomputed buffer cycle: this rank's pieces per aggregator
/// (client role) and each client's requests inside my window (aggregator
/// role). The historical loop derived these lazily from per-cycle
/// cursors; deriving them up front charges nothing extra — the cursor
/// walks were never charged (their pair processing was paid when the
/// lists were built and decoded) — and lets the pipelined drive loop
/// prefetch future cycles' reads.
struct RomioCycle {
    my_cycle: Vec<Vec<Piece>>,
    agg_cycle: Vec<Vec<(u64, u64)>>,
}

/// Run one collective read/write with the original ROMIO algorithm.
#[allow(clippy::too_many_lines)]
pub fn run(
    rank: &Rank,
    handle: &FileHandle,
    my: &ClientAccess,
    mem: &MemLayout,
    mut buf: DataBuf<'_>,
    hints: &Hints,
) -> Result<()> {
    let nprocs = rank.nprocs();
    let is_write = matches!(buf, DataBuf::Write(_));

    // ---- flatten the ENTIRE access into M offset/length pairs ------------
    let mut all_pieces: Vec<Piece> = Vec::new();
    if my.data_len > 0 {
        let mut cur = my.view.cursor(my.data_start);
        let end = my.data_end();
        while cur.data_pos() < end {
            let p = cur.take(end - cur.data_pos());
            all_pieces.push(Piece { file_off: p.file_off, data_pos: p.data_pos, len: p.len });
        }
        rank.charge_pairs(cur.evaluated());
    }
    let m = all_pieces.len() as u64;

    // ---- aggregate access region (scalar allgather) -----------------------
    let (first, end) = match my.file_range() {
        Some((a, b)) => (a, b),
        None => (u64::MAX, 0),
    };
    let mut scalar = Vec::with_capacity(16);
    scalar.extend_from_slice(&first.to_le_bytes());
    scalar.extend_from_slice(&end.to_le_bytes());
    let ranges = rank.allgatherv(&scalar);
    let mut lo = u64::MAX;
    let mut hi = 0u64;
    for r in &ranges {
        let a = u64::from_le_bytes(r[0..8].try_into().unwrap());
        let b = u64::from_le_bytes(r[8..16].try_into().unwrap());
        if b > 0 {
            lo = lo.min(a);
            hi = hi.max(b);
        }
    }
    if hi <= lo {
        return Ok(());
    }

    // ---- even AAR realms; ship each aggregator its pair sub-list ----------
    // The old code's realms are always the unaligned even split of the
    // aggregate access region: boundaries are a closed formula.
    let n_agg = hints.aggregators(nprocs);
    let agg_ranks = aggregator_ranks(n_agg, nprocs);
    let len_aar = hi - lo;
    let bounds: Vec<u64> =
        (0..=n_agg as u64).map(|i| lo + len_aar * i / n_agg as u64).collect();

    // Partition my pieces by realm (splitting boundary-crossers), O(M).
    let mut per_agg: Vec<Vec<Piece>> = vec![Vec::new(); n_agg];
    for p in &all_pieces {
        let mut off = p.file_off;
        let mut data = p.data_pos;
        let mut len = p.len;
        while len > 0 {
            let a = bounds[1..n_agg].partition_point(|&b| b <= off);
            let realm_end = bounds[a + 1];
            let take = len.min(realm_end - off);
            per_agg[a].push(Piece { file_off: off, data_pos: data, len: take });
            off += take;
            data += take;
            len -= take;
        }
    }
    rank.charge_pairs(m);

    // Send every aggregator its offset/length list (O(M) metadata bytes).
    let blocks: Vec<Vec<u8>> = {
        let mut b = vec![Vec::new(); nprocs];
        for (a, list) in per_agg.iter().enumerate() {
            if !list.is_empty() {
                b[agg_ranks[a]] = encode_pairs(list);
            }
        }
        b
    };
    let lists_in = rank.alltoallv(blocks);

    // Aggregator: decode everyone's requests for my realm.
    let my_agg_idx = agg_ranks.iter().position(|&r| r == rank.rank());
    let mut others: Vec<Vec<(u64, u64)>> = Vec::new();
    let (mut st, mut en) = (u64::MAX, 0u64);
    if my_agg_idx.is_some() {
        others = lists_in.iter().map(|b| decode_pairs(b)).collect();
        let m_recv: u64 = others.iter().map(|l| l.len() as u64).sum();
        rank.charge_pairs(m_recv);
        for l in &others {
            if let Some(&(o, _)) = l.first() {
                st = st.min(o);
            }
            if let Some(&(o, len)) = l.last() {
                en = en.max(o + len);
            }
        }
    }

    // Everyone learns each aggregator's actual data bounds.
    let mut bscal = Vec::with_capacity(16);
    bscal.extend_from_slice(&st.to_le_bytes());
    bscal.extend_from_slice(&en.to_le_bytes());
    let all_bounds = rank.allgatherv(&bscal);
    let agg_bounds: Vec<(u64, u64)> = agg_ranks
        .iter()
        .map(|&ar| {
            let b = &all_bounds[ar];
            (
                u64::from_le_bytes(b[0..8].try_into().unwrap()),
                u64::from_le_bytes(b[8..16].try_into().unwrap()),
            )
        })
        .collect();

    let cb = hints.cb_buffer_size as u64;
    let ntimes = agg_bounds
        .iter()
        .map(|&(s, e)| if e > s { (e - s).div_ceil(cb) } else { 0 })
        .max()
        .unwrap_or(0);

    // ---- precompute every cycle's piece lists ------------------------------
    // Client side: per-aggregator index + split carry into my lists.
    let mut cli_idx = vec![0usize; n_agg];
    let mut cli_tail: Vec<Option<Piece>> = vec![None; n_agg];
    // Aggregator side: per-client index + split carry into received lists.
    let mut agg_idx = vec![0usize; nprocs];
    let mut agg_tail: Vec<Option<(u64, u64)>> = vec![None; nprocs];
    let mut cycles: Vec<RomioCycle> = Vec::with_capacity(ntimes as usize);
    for t in 0..ntimes {
        // Window per aggregator, in file space (the old code cycles over
        // the realm's file extent, not its data stream).
        let windows: Vec<Option<(u64, u64)>> = agg_bounds
            .iter()
            .map(|&(s, e)| {
                if e <= s {
                    return None;
                }
                let w0 = s + t * cb;
                let w1 = (s + (t + 1) * cb).min(e);
                if w0 >= w1 {
                    None
                } else {
                    Some((w0, w1))
                }
            })
            .collect();

        // Client: pieces to each aggregator this cycle.
        let mut my_cycle: Vec<Vec<Piece>> = Vec::with_capacity(n_agg);
        for a in 0..n_agg {
            let pieces = match windows[a] {
                Some((_, w1)) => {
                    take_below_window(&per_agg[a], &mut cli_idx[a], &mut cli_tail[a], w1)
                }
                None => Vec::new(),
            };
            my_cycle.push(pieces);
        }

        // Aggregator: requests from each client this cycle.
        let mut agg_cycle: Vec<Vec<(u64, u64)>> = vec![Vec::new(); nprocs];
        if let Some(ai) = my_agg_idx {
            if let Some((_, w1)) = windows[ai] {
                for (c, list) in others.iter().enumerate() {
                    let mut out = Vec::new();
                    if let Some((o, l)) = agg_tail[c].take() {
                        if o < w1 {
                            let take = l.min(w1 - o);
                            out.push((o, take));
                            if take < l {
                                agg_tail[c] = Some((o + take, l - take));
                            }
                        } else {
                            agg_tail[c] = Some((o, l));
                        }
                    }
                    if agg_tail[c].is_none() {
                        while agg_idx[c] < list.len() && list[agg_idx[c]].0 < w1 {
                            let (o, l) = list[agg_idx[c]];
                            agg_idx[c] += 1;
                            let take = l.min(w1 - o);
                            out.push((o, take));
                            if take < l {
                                agg_tail[c] = Some((o + take, l - take));
                                break;
                            }
                        }
                    }
                    agg_cycle[c] = out;
                }
            }
        }
        cycles.push(RomioCycle { my_cycle, agg_cycle });
    }

    // ---- buffer cycles on the shared pipeline ------------------------------
    // No straggler watch (ROMIO has no realms to rebalance) and no
    // derive-overlap (the flattening cost was all charged up front), so
    // those slots stay empty; the depth semantics are exactly the
    // flexible engine's.
    let policy = CapPolicy::resolve(hints, handle.pfs().config().n_osts, agg_ranks.len());
    let outcome = if is_write {
        let mut driver = RomioWrite {
            rank,
            handle,
            my,
            mem,
            buf: &buf,
            hints,
            agg_ranks: &agg_ranks,
            cycles: &cycles,
            my_agg_idx,
            prefetch: None,
        };
        pipeline::drive_write(rank, handle, &mut driver, policy, None, None)
    } else {
        let mut driver = RomioRead {
            rank,
            handle,
            my,
            mem,
            buf: &mut buf,
            hints,
            agg_ranks: &agg_ranks,
            cycles: &cycles,
            my_agg_idx,
        };
        pipeline::drive_read(rank, handle, &mut driver, policy, None, None)
    };
    let first_err = outcome.err;

    // ---- collective error agreement ---------------------------------------
    // Same gate as the flexible engine: a fault plan is the only source of
    // request errors, and its presence is identical on every rank, so
    // fault-free runs pay no extra communication and faulted runs always
    // reach the same verdict together.
    if handle.pfs().fault_plan().is_some() {
        if let Some(e) = agree_error(rank, first_err) {
            return Err(IoError::Transient(e));
        }
    } else {
        debug_assert!(first_err.is_none(), "a fault was reported without a fault plan");
    }
    Ok(())
}

/// Spanning range of one cycle's requests at this aggregator:
/// `(blo, span, holes)`, or `None` when the cycle holds no data here.
fn cycle_span(agg_cycle: &[Vec<(u64, u64)>]) -> Option<(u64, u64, bool)> {
    let mut blo = u64::MAX;
    let mut bhi = 0u64;
    let mut covered = 0u64;
    for l in agg_cycle {
        for &(o, len) in l {
            blo = blo.min(o);
            bhi = bhi.max(o + len);
            covered += len;
        }
    }
    if blo == u64::MAX {
        return None;
    }
    Some((blo, bhi - blo, covered < bhi - blo))
}

/// Gap data for an upcoming cycle's read-modify-write, fetched
/// nonblockingly behind the current cycle's commit window
/// (`flexio_sieve_prefetch`). Holding it here instead of re-reading at
/// the cycle itself turns the one blocking read in the ROMIO write path
/// into overlappable I/O.
struct SievePrefetch {
    /// Cycle index the buffer belongs to.
    cycle: usize,
    /// File offset the spanning read started at.
    blo: u64,
    /// The spanning range's bytes as of the prefetch.
    buf: Vec<u8>,
}

/// One write cycle's exchanged payloads, awaiting the integrated
/// sieve-and-commit. The received buffers ARE the stage: placement into
/// the collective buffer needs the sieving read first, so it happens in
/// the issue half.
struct RomioWriteStage {
    /// Spanning range start of this cycle's requests.
    blo: u64,
    /// Spanning range length — the collective/sieve buffer size.
    span: u64,
    /// Whether the requests leave gaps (forcing the sieving read).
    holes: bool,
    received: Vec<(usize, Vec<u8>)>,
}

/// [`CycleDriver`] for the ROMIO write direction, over the precomputed
/// cycle lists.
struct RomioWrite<'a> {
    rank: &'a Rank,
    handle: &'a FileHandle,
    my: &'a ClientAccess,
    mem: &'a MemLayout,
    buf: &'a DataBuf<'a>,
    hints: &'a Hints,
    agg_ranks: &'a [usize],
    cycles: &'a [RomioCycle],
    my_agg_idx: Option<usize>,
    /// Next cycle's gap data, when `flexio_sieve_prefetch` fetched it.
    prefetch: Option<SievePrefetch>,
}

impl CycleDriver for RomioWrite<'_> {
    type Stage = RomioWriteStage;

    fn n_cycles(&self) -> usize {
        self.cycles.len()
    }

    fn exchange(&mut self, i: usize, _incoming: Option<RomioWriteStage>) -> Option<RomioWriteStage> {
        let RomioCycle { my_cycle, agg_cycle } = &self.cycles[i];
        let user = match self.buf {
            DataBuf::Write(b) => *b,
            DataBuf::Read(_) => unreachable!(),
        };
        // Client -> aggregator payloads (non-blocking exchange, as the old
        // code does). The packed path gathers into a staging buffer and
        // charges the copy; zero-copy sends an iovec run list borrowed
        // off the flattened view, so the `Vec` below is only the wire
        // representation — nothing charged, nothing in the ledger.
        let mut sends: Vec<(usize, Vec<u8>)> = Vec::new();
        for (a, pieces) in my_cycle.iter().enumerate() {
            if pieces.is_empty() {
                continue;
            }
            let total: u64 = pieces.iter().map(|p| p.len).sum();
            let mut payload = vec![0u8; total as usize];
            let mut pos = 0usize;
            for p in pieces {
                self.mem.gather(
                    user,
                    p.data_pos - self.my.data_start,
                    &mut payload[pos..pos + p.len as usize],
                );
                pos += p.len as usize;
            }
            if !self.hints.zero_copy {
                self.rank.charge_memcpy(total);
                self.rank.note_bytes_copied(total);
            }
            sends.push((self.agg_ranks[a], payload));
        }
        let recv_from: Vec<usize> = agg_cycle
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.is_empty())
            .map(|(c, _)| c)
            .collect();
        let received = self.rank.exchange(&sends, &recv_from);
        if self.my_agg_idx.is_none() || recv_from.is_empty() {
            return None;
        }
        // Spanning range of this cycle's requests (pure arithmetic over
        // already-charged pairs).
        let (blo, span, holes) = cycle_span(agg_cycle).expect("non-empty recv list spans bytes");
        Some(RomioWriteStage { blo, span, holes, received })
    }

    fn issue(
        &mut self,
        i: usize,
        outgoing: Option<RomioWriteStage>,
    ) -> Option<(IoCompletion, Option<RomioWriteStage>)> {
        let stage = outgoing.expect("write issue needs an exchanged stage");
        let agg_cycle = &self.cycles[i].agg_cycle;
        let mut err: Option<PfsError> = None;
        let pre = match self.prefetch.take() {
            Some(p) if p.cycle == i && p.blo == stage.blo && p.buf.len() == stage.span as usize => {
                Some(p)
            }
            _ => None,
        };
        let t0;
        let mut t_done;
        if self.hints.zero_copy && !stage.holes {
            // The requests tile the spanning range exactly, so the
            // collective buffer adds nothing: sort the received payloads'
            // request runs by file offset and commit them as one gathered
            // write — the placement copy and its charge disappear. With
            // holes the buffer IS the sieve buffer and the packed path
            // below stays (the read-modify-write needs contiguous bytes).
            let mut plan: Vec<(u64, usize, usize, usize)> = Vec::new();
            for (ri, (src, _)) in stage.received.iter().enumerate() {
                let mut pos = 0usize;
                for &(o, len) in &agg_cycle[*src] {
                    plan.push((o, ri, pos, len as usize));
                    pos += len as usize;
                }
            }
            plan.sort_unstable_by_key(|r| r.0);
            let slices: Vec<&[u8]> = plan
                .iter()
                .map(|&(_, ri, pos, len)| &stage.received[ri].1[pos..pos + len])
                .collect();
            t0 = self.rank.now();
            let (nt, e) = retry_io(self.rank, self.hints, t0, |at| {
                self.handle.pwritev_nb(at, stage.blo, &slices).wait(at)
            });
            t_done = nt;
            err = err.or(e);
        } else {
            // Integrated sieve: single buffer spanning [blo, blo+span).
            let mut cbuf = match pre {
                // The gap data was prefetched behind the previous cycle's
                // commit window; no blocking read this cycle.
                Some(p) => p.buf,
                None => {
                    let mut fresh = vec![0u8; stage.span as usize];
                    if stage.holes {
                        // The read half of the read-modify-write blocks at
                        // ANY pipeline depth: payloads cannot be placed
                        // over gap data that has not arrived. Only the
                        // commit write below overlaps.
                        let rt0 = self.rank.now();
                        let (nt, e) = retry_io(self.rank, self.hints, rt0, |at| {
                            self.handle.read(at, stage.blo, &mut fresh)
                        });
                        err = err.or(e);
                        self.rank.advance_to(nt);
                        self.rank.note_phase(Phase::Io, nt - rt0);
                    }
                    fresh
                }
            };
            // Place every client's payload directly into the collective
            // buffer (this IS the sieve buffer: one copy total).
            let mut total_placed = 0u64;
            for (src, payload) in &stage.received {
                let mut pos = 0usize;
                for &(o, len) in &agg_cycle[*src] {
                    cbuf[(o - stage.blo) as usize..(o - stage.blo + len) as usize]
                        .copy_from_slice(&payload[pos..pos + len as usize]);
                    pos += len as usize;
                    total_placed += len;
                }
            }
            self.rank.charge_memcpy(total_placed);
            self.rank.note_bytes_copied(total_placed);
            t0 = self.rank.now();
            let (nt, e) =
                retry_io(self.rank, self.hints, t0, |at| self.handle.write(at, stage.blo, &cbuf));
            t_done = nt;
            err = err.or(e);
        }
        // Sieve prefetch (`flexio_sieve_prefetch`): fetch the NEXT
        // cycle's gap data now, nonblockingly alongside this cycle's
        // commit, so its read-modify-write no longer starts with a
        // blocking read. The window rides this cycle's I/O completion,
        // which the pipeline already overlaps with the next exchange.
        // Safe because each cycle's spanning range is a disjoint slice of
        // this aggregator's realm — nothing written later can change the
        // prefetched bytes. A faulted prefetch is dropped (the fallback
        // blocking read retries on its own schedule); its wire time still
        // extends the window, as a real speculative read would.
        if self.hints.sieve_prefetch && i + 1 < self.cycles.len() {
            if let Some((nblo, nspan, true)) = cycle_span(&self.cycles[i + 1].agg_cycle) {
                let mut buf = vec![0u8; nspan as usize];
                let op = self.handle.pread_nb(t0, nblo, &mut buf);
                t_done = t_done.max(op.done_at());
                if op.error().is_none() {
                    self.prefetch = Some(SievePrefetch { cycle: i + 1, blo: nblo, buf });
                }
            }
        }
        Some((IoCompletion::span(t0, t_done).or_error(err), None))
    }
}

/// One read cycle's collective buffer, read from the file and awaiting
/// slicing + distribution.
struct RomioReadStage {
    blo: u64,
    cbuf: Vec<u8>,
}

/// [`CycleDriver`] for the ROMIO read direction: issue prefetches a
/// cycle's spanning sieve read, exchange slices and distributes it.
struct RomioRead<'a, 'b> {
    rank: &'a Rank,
    handle: &'a FileHandle,
    my: &'a ClientAccess,
    mem: &'a MemLayout,
    buf: &'a mut DataBuf<'b>,
    hints: &'a Hints,
    agg_ranks: &'a [usize],
    cycles: &'a [RomioCycle],
    my_agg_idx: Option<usize>,
}

impl CycleDriver for RomioRead<'_, '_> {
    type Stage = RomioReadStage;

    fn n_cycles(&self) -> usize {
        self.cycles.len()
    }

    fn issue(
        &mut self,
        i: usize,
        _outgoing: Option<RomioReadStage>,
    ) -> Option<(IoCompletion, Option<RomioReadStage>)> {
        let agg_cycle = &self.cycles[i].agg_cycle;
        if self.my_agg_idx.is_none() || agg_cycle.iter().all(|l| l.is_empty()) {
            return None;
        }
        // One sieving read of the spanning range.
        let mut blo = u64::MAX;
        let mut bhi = 0u64;
        for l in agg_cycle {
            for &(o, len) in l {
                blo = blo.min(o);
                bhi = bhi.max(o + len);
            }
        }
        let mut cbuf = vec![0u8; (bhi - blo) as usize];
        let t0 = self.rank.now();
        let (t, e) = retry_io(self.rank, self.hints, t0, |at| self.handle.read(at, blo, &mut cbuf));
        Some((IoCompletion::span(t0, t).or_error(e), Some(RomioReadStage { blo, cbuf })))
    }

    fn exchange(&mut self, i: usize, incoming: Option<RomioReadStage>) -> Option<RomioReadStage> {
        let RomioCycle { my_cycle, agg_cycle } = &self.cycles[i];
        // Aggregator: slice the collective buffer per client. The buffer
        // persists in the stage, so zero-copy sends each client an iovec
        // run list pointing straight into it — the slicing pass below is
        // then wire representation only, not a charged copy.
        let mut sends: Vec<(usize, Vec<u8>)> = Vec::new();
        if let Some(stage) = incoming {
            let mut total = 0u64;
            for (c, l) in agg_cycle.iter().enumerate() {
                if l.is_empty() {
                    continue;
                }
                let mut payload = Vec::with_capacity(l.iter().map(|&(_, n)| n as usize).sum());
                for &(o, len) in l {
                    payload.extend_from_slice(
                        &stage.cbuf[(o - stage.blo) as usize..(o - stage.blo + len) as usize],
                    );
                    total += len;
                }
                sends.push((c, payload));
            }
            if !self.hints.zero_copy {
                self.rank.charge_memcpy(total);
                self.rank.note_bytes_copied(total);
            }
        }
        let recv_from: Vec<usize> = my_cycle
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.is_empty())
            .map(|(a, _)| self.agg_ranks[a])
            .collect();
        let received = self.rank.exchange(&sends, &recv_from);
        let user = match self.buf {
            DataBuf::Read(b) => &mut **b,
            DataBuf::Write(_) => unreachable!(),
        };
        let mut by_src: std::collections::HashMap<usize, Vec<u8>> = received.into_iter().collect();
        for (a, pieces) in my_cycle.iter().enumerate() {
            if pieces.is_empty() {
                continue;
            }
            let payload = by_src.remove(&self.agg_ranks[a]).expect("missing payload");
            let mut pos = 0usize;
            let mut total = 0u64;
            for p in pieces {
                self.mem.scatter(
                    user,
                    p.data_pos - self.my.data_start,
                    &payload[pos..pos + p.len as usize],
                );
                pos += p.len as usize;
                total += p.len;
            }
            if !self.hints.zero_copy {
                // Zero-copy receives into the user buffer's runs directly.
                self.rank.charge_memcpy(total);
                self.rank.note_bytes_copied(total);
            }
        }
        None
    }
}
