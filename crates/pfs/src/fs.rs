//! The striped file system: OST timing, data storage, lock/cache coherence.
//!
//! Data is stored exactly (a growable byte image per file) so correctness
//! is always byte-accurate; *time* is modelled per OST with per-request,
//! seek, per-byte and page read-modify-write charges. All operations take
//! the caller's virtual `now` and return the virtual completion time — the
//! sim rank advances its own clock with the result.

use crate::cache::ClientCache;
use crate::config::PfsConfig;
use crate::fault::{FaultInjector, FaultPlan, PfsError, PfsErrorKind};
use crate::lock::LockTable;
use std::sync::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Global file-system counters (all monotonically increasing).
#[derive(Debug, Default)]
pub struct PfsStats {
    /// OST requests issued (one per stripe chunk).
    pub ost_requests: AtomicU64,
    /// Requests that paid the seek charge.
    pub seeks: AtomicU64,
    /// Payload bytes written (excluding RMW page reads).
    pub bytes_written: AtomicU64,
    /// Payload bytes read.
    pub bytes_read: AtomicU64,
    /// Page reads forced by unaligned write edges.
    pub rmw_page_reads: AtomicU64,
    /// Lock grants (excluding already-held fast paths).
    pub lock_grants: AtomicU64,
    /// Lock revocations.
    pub lock_revocations: AtomicU64,
    /// Bytes flushed from client caches (revocation + explicit flush).
    pub flush_bytes: AtomicU64,
    /// Page fills into client caches.
    pub cache_fills: AtomicU64,
    /// High-water mark of nonblocking ops outstanding on any one handle
    /// (see [`FileHandle::nb_issued`]) — how deep callers actually queue
    /// the nb API, e.g. the collective engine's pipeline depth.
    pub nb_inflight_peak: AtomicU64,
    /// Transient OST request errors injected by the fault plan.
    pub faults_injected: AtomicU64,
    /// Torn writes injected by the fault plan (prefix persisted).
    pub torn_writes: AtomicU64,
    /// Extra service ns charged by straggler-OST windows.
    pub straggler_ns: AtomicU64,
}

/// Plain-value snapshot of [`PfsStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// OST requests issued.
    pub ost_requests: u64,
    /// Requests that paid the seek charge.
    pub seeks: u64,
    /// Payload bytes written.
    pub bytes_written: u64,
    /// Payload bytes read.
    pub bytes_read: u64,
    /// Page reads forced by unaligned write edges.
    pub rmw_page_reads: u64,
    /// Lock grants.
    pub lock_grants: u64,
    /// Lock revocations.
    pub lock_revocations: u64,
    /// Bytes flushed from client caches.
    pub flush_bytes: u64,
    /// Page fills into client caches.
    pub cache_fills: u64,
    /// High-water mark of nonblocking ops outstanding on any one handle.
    pub nb_inflight_peak: u64,
    /// Transient OST request errors injected by the fault plan.
    pub faults_injected: u64,
    /// Torn writes injected by the fault plan (prefix persisted).
    pub torn_writes: u64,
    /// Extra service ns charged by straggler-OST windows.
    pub straggler_ns: u64,
}

struct OstState {
    clock: u64,
    /// Last byte-end serviced per file, for seek detection.
    last_end: HashMap<u64, u64>,
}

/// Lock table + client caches for one file, under a single mutex so that
/// revocation (which flushes a *victim's* pages) is atomic with respect to
/// the victim's own cache operations.
struct Coherency {
    table: LockTable,
    caches: HashMap<usize, ClientCache>,
}

/// One file: exact byte image, logical size, coherence state.
pub struct FileObj {
    id: u64,
    content: RwLock<Vec<u8>>,
    size: AtomicU64,
    coherency: Mutex<Coherency>,
    /// Serializes whole read-modify-write cycles (data sieving) against
    /// other clients' writes — the fcntl byte-range lock ROMIO takes
    /// around sieving writes. Plain reads/writes hold it briefly; a sieve
    /// chunk commit holds it across its read + patch + write.
    serial: Mutex<()>,
}

impl FileObj {
    /// Logical file size (highest byte ever written + 1).
    pub fn size(&self) -> u64 {
        self.size.load(Ordering::SeqCst)
    }
}

/// The shared file system.
pub struct Pfs {
    cfg: PfsConfig,
    osts: Vec<Mutex<OstState>>,
    files: Mutex<HashMap<String, Arc<FileObj>>>,
    next_id: AtomicU64,
    stats: PfsStats,
    /// Installed fault injector; `None` (the default) is the fault-free
    /// fast path, charge-identical to a file system built before fault
    /// injection existed.
    fault: Option<FaultInjector>,
}

impl Pfs {
    /// Create a fault-free file system with the given configuration.
    pub fn new(cfg: PfsConfig) -> Arc<Pfs> {
        Self::build(cfg, None)
    }

    /// Create a file system with a seeded fault plan installed.
    pub fn with_faults(cfg: PfsConfig, plan: FaultPlan) -> Arc<Pfs> {
        let inj = FaultInjector::new(plan, cfg.n_osts);
        Self::build(cfg, Some(inj))
    }

    fn build(cfg: PfsConfig, fault: Option<FaultInjector>) -> Arc<Pfs> {
        cfg.validate();
        Arc::new(Pfs {
            cfg,
            osts: (0..cfg.n_osts)
                .map(|_| Mutex::new(OstState { clock: 0, last_end: HashMap::new() }))
                .collect(),
            files: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            stats: PfsStats::default(),
            fault,
        })
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref().map(|f| f.plan())
    }

    /// The configuration.
    pub fn config(&self) -> &PfsConfig {
        &self.cfg
    }

    /// Open (creating if needed) `path` on behalf of `client`.
    pub fn open(self: &Arc<Self>, path: &str, client: usize) -> FileHandle {
        let file = {
            let mut files = self.files.lock().unwrap();
            Arc::clone(files.entry(path.to_string()).or_insert_with(|| {
                Arc::new(FileObj {
                    id: self.next_id.fetch_add(1, Ordering::SeqCst),
                    content: RwLock::new(Vec::new()),
                    size: AtomicU64::new(0),
                    coherency: Mutex::new(Coherency {
                        table: LockTable::new(self.cfg.lock_expansion),
                        caches: HashMap::new(),
                    }),
                    serial: Mutex::new(()),
                })
            }))
        };
        FileHandle { pfs: Arc::clone(self), file, client, nb_inflight: Arc::new(AtomicU64::new(0)) }
    }

    /// Delete a file (for test isolation).
    pub fn unlink(&self, path: &str) {
        self.files.lock().unwrap().remove(path);
    }

    /// Snapshot of the global counters.
    pub fn stats(&self) -> StatsSnapshot {
        let s = &self.stats;
        StatsSnapshot {
            ost_requests: s.ost_requests.load(Ordering::SeqCst),
            seeks: s.seeks.load(Ordering::SeqCst),
            bytes_written: s.bytes_written.load(Ordering::SeqCst),
            bytes_read: s.bytes_read.load(Ordering::SeqCst),
            rmw_page_reads: s.rmw_page_reads.load(Ordering::SeqCst),
            lock_grants: s.lock_grants.load(Ordering::SeqCst),
            lock_revocations: s.lock_revocations.load(Ordering::SeqCst),
            flush_bytes: s.flush_bytes.load(Ordering::SeqCst),
            cache_fills: s.cache_fills.load(Ordering::SeqCst),
            nb_inflight_peak: s.nb_inflight_peak.load(Ordering::SeqCst),
            faults_injected: s.faults_injected.load(Ordering::SeqCst),
            torn_writes: s.torn_writes.load(Ordering::SeqCst),
            straggler_ns: s.straggler_ns.load(Ordering::SeqCst),
        }
    }

    /// Time one OST chunk (a request confined to a single stripe) and
    /// update that OST's pipeline clock. Returns the completion time at
    /// the client, or the injected fault detected at that time. A failed
    /// request still occupies the server for its full service time (the
    /// OST did the work and lost the reply, or failed at commit), so OST
    /// clocks advance identically either way.
    fn ost_chunk(
        &self,
        file: &FileObj,
        now: u64,
        off: u64,
        len: u64,
        is_write: bool,
        rmw_pages: u64,
    ) -> Result<u64, PfsError> {
        let c = &self.cfg.cost;
        let ost_idx = self.cfg.ost_of(off);
        let send_bytes = if is_write { len } else { 0 };
        let arrival = now + c.net_ns + (send_bytes as f64 * c.net_ns_per_byte) as u64;
        let span = self.cfg.page_ceil(off + len) - self.cfg.page_floor(off);
        let mut ost = self.osts[ost_idx].lock().unwrap();
        let start = ost.clock.max(arrival);
        let last = ost.last_end.get(&file.id).copied();
        let seek = if last == Some(self.cfg.page_floor(off)) { 0 } else { c.seek_ns };
        if seek > 0 {
            self.stats.seeks.fetch_add(1, Ordering::Relaxed);
        }
        let rmw_ns = (rmw_pages * self.cfg.page_size) as f64 * c.ns_per_byte;
        let dur = c.request_ns + seek + (span as f64 * c.ns_per_byte) as u64 + rmw_ns as u64;
        ost.clock = start + dur;
        ost.last_end.insert(file.id, self.cfg.page_ceil(off + len));
        let done = ost.clock;
        drop(ost);
        self.stats.ost_requests.fetch_add(1, Ordering::Relaxed);
        self.stats.rmw_page_reads.fetch_add(rmw_pages, Ordering::Relaxed);
        let recv_bytes = if is_write { 0 } else { len };
        let mut client_done = done + c.net_ns + (recv_bytes as f64 * c.net_ns_per_byte) as u64;
        if let Some(inj) = &self.fault {
            // A straggler window models elevated per-request latency at a
            // degraded target (RAID rebuild, congested OSS reply path):
            // the requester waits multiplier x the service time, but the
            // target's internal pipeline is not occupied for the extra
            // span, so requests from *different* aggregators still
            // overlap. That overlap is precisely what realm rebalancing
            // exploits to route around a straggler.
            let extra = inj.straggler_extra(ost_idx, start, dur);
            if extra > 0 {
                self.stats.straggler_ns.fetch_add(extra, Ordering::Relaxed);
                client_done += extra;
            }
        }
        if let Some(inj) = &self.fault {
            if inj.roll_transient(ost_idx) {
                self.stats.faults_injected.fetch_add(1, Ordering::Relaxed);
                return Err(PfsError {
                    kind: PfsErrorKind::TransientOst,
                    ost: ost_idx,
                    at: client_done,
                });
            }
        }
        Ok(client_done)
    }

    /// RMW page reads needed for a direct write of `[off, off+len)`:
    /// unaligned edges whose pages already contain file data.
    fn rmw_pages_for(&self, file: &FileObj, off: u64, len: u64) -> u64 {
        let size = file.size();
        let end = off + len;
        let mut n = 0;
        let first_page = self.cfg.page_floor(off);
        if !off.is_multiple_of(self.cfg.page_size) && first_page < size {
            n += 1;
        }
        let last_page = self.cfg.page_floor(end);
        if !end.is_multiple_of(self.cfg.page_size) && last_page < size && last_page != first_page {
            n += 1;
        }
        // A single partial page counts once (handled by the first test).
        if !off.is_multiple_of(self.cfg.page_size)
            && !end.is_multiple_of(self.cfg.page_size)
            && last_page == first_page
        {
            // already counted once above
        }
        n
    }

    /// Issue a raw (uncached) I/O spanning stripes; returns completion or
    /// the first injected fault. Every stripe chunk is issued regardless —
    /// the op's data and server-side time are fully committed either way,
    /// so a retry of the whole op is idempotent — and a returned error
    /// carries the op's would-be completion time in [`PfsError::at`].
    fn raw_io(
        &self,
        file: &FileObj,
        now: u64,
        off: u64,
        len: u64,
        is_write: bool,
    ) -> Result<u64, PfsError> {
        if len == 0 {
            return Ok(now);
        }
        let mut finish = now;
        let mut err: Option<PfsError> = None;
        let mut pos = off;
        let end = off + len;
        while pos < end {
            let stripe_end = (pos / self.cfg.stripe_size + 1) * self.cfg.stripe_size;
            let chunk_end = end.min(stripe_end);
            let rmw = if is_write { self.rmw_pages_for(file, pos, chunk_end - pos) } else { 0 };
            match self.ost_chunk(file, now, pos, chunk_end - pos, is_write, rmw) {
                Ok(t) => finish = finish.max(t),
                Err(e) => {
                    finish = finish.max(e.at);
                    err.get_or_insert(e);
                }
            }
            pos = chunk_end;
        }
        if is_write {
            self.stats.bytes_written.fetch_add(len, Ordering::Relaxed);
        } else {
            self.stats.bytes_read.fetch_add(len, Ordering::Relaxed);
        }
        match err {
            Some(e) => Err(PfsError { at: finish, ..e }),
            None => Ok(finish),
        }
    }

    /// [`Pfs::raw_io`] for internal coherence traffic (lock-revocation
    /// victim flushes): the lock manager retries transient errors
    /// internally, so only the time matters to the caller.
    fn raw_io_infallible(&self, file: &FileObj, now: u64, off: u64, len: u64, is_write: bool) -> u64 {
        match self.raw_io(file, now, off, len, is_write) {
            Ok(t) => t,
            Err(e) => e.at,
        }
    }

    fn store(&self, file: &FileObj, off: u64, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let end = off as usize + data.len();
        let mut content = file.content.write().unwrap();
        if content.len() < end {
            content.resize(end, 0);
        }
        content[off as usize..end].copy_from_slice(data);
        drop(content);
        file.size.fetch_max(end as u64, Ordering::SeqCst);
    }

    fn load(&self, file: &FileObj, off: u64, buf: &mut [u8]) {
        let content = file.content.read().unwrap();
        let flen = content.len();
        for (i, b) in buf.iter_mut().enumerate() {
            let p = off as usize + i;
            *b = if p < flen { content[p] } else { 0 };
        }
    }
}

/// A nonblocking PFS operation in flight. The data movement has already
/// happened (file contents are byte-exact the moment the op is issued —
/// this is a virtual-time model, not a concurrency model); only the op's
/// *time* — and, under fault injection, its *outcome* — is pending. The
/// handle carries the virtual window the op occupies so callers can
/// overlap it with other work and charge `max(windows)` instead of the
/// sum; an injected fault is reported when the op is waited on.
#[must_use = "a nonblocking op must be waited on to charge its virtual time"]
#[derive(Debug, Clone)]
pub struct NbOp {
    issued_at: u64,
    done_at: u64,
    err: Option<PfsError>,
}

impl NbOp {
    fn from_result(issued_at: u64, res: Result<u64, PfsError>) -> NbOp {
        match res {
            Ok(done_at) => NbOp { issued_at, done_at, err: None },
            Err(e) => NbOp { issued_at, done_at: e.at, err: Some(e) },
        }
    }

    /// Virtual time the op was issued at.
    pub fn issued_at(&self) -> u64 {
        self.issued_at
    }

    /// Virtual time the op completes at (successfully or with an error).
    pub fn done_at(&self) -> u64 {
        self.done_at
    }

    /// The op's virtual duration.
    pub fn duration(&self) -> u64 {
        self.done_at.saturating_sub(self.issued_at)
    }

    /// The fault this op will report at completion, if any.
    pub fn error(&self) -> Option<PfsError> {
        self.err
    }

    /// Block until the op completes: the later of `now` and the op's
    /// completion time, or the op's injected fault. Consumes the op, so a
    /// double wait is a compile error rather than a silent double charge.
    pub fn wait(self, now: u64) -> Result<u64, PfsError> {
        match self.err {
            Some(e) => Err(PfsError { at: now.max(e.at), ..e }),
            None => Ok(now.max(self.done_at)),
        }
    }
}

/// RAII tally of one outstanding nonblocking op, handed out by
/// [`FileHandle::nb_issued`]. Dropping it retires the op from the
/// handle's inflight count — including drops on early-exit/error paths
/// that never reach an explicit wait, which used to leak
/// [`PfsStats::nb_inflight_peak`] accounting.
#[derive(Debug)]
pub struct NbGuard {
    inflight: Arc<AtomicU64>,
}

impl Drop for NbGuard {
    fn drop(&mut self) {
        let prev = self.inflight.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prev > 0, "NbGuard dropped with zero inflight");
    }
}

/// A per-client handle to an open file.
pub struct FileHandle {
    pfs: Arc<Pfs>,
    file: Arc<FileObj>,
    client: usize,
    /// Nonblocking ops issued on this handle and not yet retired. The data
    /// already landed at issue time, so this bounds nothing — it is pure
    /// telemetry a caller maintains by holding the [`NbGuard`]s from
    /// [`FileHandle::nb_issued`] so queueing depth shows up in
    /// [`PfsStats`].
    nb_inflight: Arc<AtomicU64>,
}

impl FileHandle {
    /// The client id this handle belongs to.
    pub fn client(&self) -> usize {
        self.client
    }

    /// Logical file size.
    pub fn size(&self) -> u64 {
        self.file.size()
    }

    /// The file system.
    pub fn pfs(&self) -> &Arc<Pfs> {
        &self.pfs
    }

    /// Acquire coherence locks for `[off, off+len)` (stripe-expanded, as
    /// Lustre does), flushing and invalidating conflicting clients' cached
    /// pages. Returns the new virtual time.
    fn acquire_locks(&self, now: u64, off: u64, len: u64) -> u64 {
        if !self.pfs.cfg.locking || len == 0 {
            return now;
        }
        let ss = self.pfs.cfg.stripe_size;
        let lstart = off / ss * ss;
        let lend = (off + len).div_ceil(ss) * ss;
        let mut t = now;
        let mut coh = self.file.coherency.lock().unwrap();
        let acq = coh.table.acquire(self.client, lstart, lend);
        if acq.already_held {
            return t;
        }
        self.pfs.stats.lock_grants.fetch_add(1, Ordering::Relaxed);
        for (victim, s, e) in &acq.revoked {
            self.pfs.stats.lock_revocations.fetch_add(1, Ordering::Relaxed);
            t += self.pfs.cfg.cost.lock_revoke_ns;
            if let Some(cache) = coh.caches.get_mut(victim) {
                let runs = cache.take_dirty(*s, *e);
                for run in runs {
                    self.pfs
                        .stats
                        .flush_bytes
                        .fetch_add(run.data.len() as u64, Ordering::Relaxed);
                    let fin = self
                        .pfs
                        .raw_io_infallible(&self.file, t, run.off, run.data.len() as u64, true);
                    self.pfs.store(&self.file, run.off, &run.data);
                    t = t.max(fin);
                }
                cache.invalidate(*s, *e);
            }
        }
        t += self.pfs.cfg.cost.lock_grant_ns;
        if let Some(inj) = &self.pfs.fault {
            t += inj.lock_stall();
        }
        t
    }

    /// Explicitly acquire coherence locks covering `[off, off+len)`, as
    /// ROMIO does around a data-sieving read-modify-write. Subsequent
    /// reads/writes inside the range find the lock already held. Returns
    /// the virtual completion time (a no-op without locking). Lock
    /// traffic is retried internally and never surfaces a fault, but the
    /// signature is fallible for uniformity with the data path.
    pub fn lock_range(&self, now: u64, off: u64, len: u64) -> Result<u64, PfsError> {
        Ok(self.acquire_locks(now, off, len))
    }

    /// Write `data` at `off`, starting at virtual time `now`; returns the
    /// completion time. Under fault injection a transient OST error is
    /// returned instead; the data still lands (the server committed it and
    /// lost the reply), so retrying the same write is idempotent, and
    /// [`PfsError::at`] carries the failed op's completion time so the
    /// caller's clock advances identically either way.
    pub fn write(&self, now: u64, off: u64, data: &[u8]) -> Result<u64, PfsError> {
        let _serial = self.file.serial.lock().unwrap();
        self.write_locked(now, off, data)
    }

    fn write_locked(&self, now: u64, off: u64, data: &[u8]) -> Result<u64, PfsError> {
        if data.is_empty() {
            return Ok(now);
        }
        let mut t = self.acquire_locks(now, off, data.len() as u64);
        if self.pfs.cfg.client_cache {
            let mut coh = self.file.coherency.lock().unwrap();
            let ps = self.pfs.cfg.page_size;
            let size_before = self.file.size();
            let cache = coh
                .caches
                .entry(self.client)
                .or_insert_with(|| ClientCache::new(ps));
            // Fill partially-overwritten pages that hold existing data.
            let end = off + data.len() as u64;
            let mut fills: Vec<u64> = Vec::new();
            if !off.is_multiple_of(ps) || !end.is_multiple_of(ps) {
                for page in cache.missing_pages(off, data.len() as u64) {
                    let p_start = page * ps;
                    let p_covered = off <= p_start && end >= p_start + ps;
                    if !p_covered && p_start < size_before {
                        fills.push(page);
                    }
                }
            }
            let mut err: Option<PfsError> = None;
            for page in fills {
                let p_start = page * ps;
                let fin = match self.pfs.raw_io(&self.file, t, p_start, ps, false) {
                    Ok(fin) => fin,
                    Err(e) => {
                        err.get_or_insert(e);
                        e.at
                    }
                };
                let mut buf = vec![0u8; ps as usize];
                self.pfs.load(&self.file, p_start, &mut buf);
                let cache = coh.caches.get_mut(&self.client).unwrap();
                cache.fill(page, buf);
                cache.note_miss();
                self.pfs.stats.cache_fills.fetch_add(1, Ordering::Relaxed);
                t = t.max(fin);
            }
            let cache = coh.caches.get_mut(&self.client).unwrap();
            // Zero-fill pages that are partial but beyond EOF.
            for page in cache.missing_pages(off, data.len() as u64) {
                let p_start = page * ps;
                let p_covered = off <= p_start && end >= p_start + ps;
                if !p_covered {
                    cache.fill(page, vec![0u8; ps as usize]);
                }
            }
            cache.write(off, data);
            t += (data.len() as f64 * self.pfs.cfg.cost.cache_copy_ns_per_byte) as u64;
            self.file.size.fetch_max(end, Ordering::SeqCst);
            match err {
                Some(e) => Err(PfsError { at: t, ..e }),
                None => Ok(t),
            }
        } else {
            let res = self.pfs.raw_io(&self.file, t, off, data.len() as u64, true);
            // Torn-write injection applies to the direct (uncached) write
            // path only — the path durable collective data and epoch
            // headers take. Cached writes land in volatile client memory
            // where tearing has no durable meaning (coherence flushes are
            // lock-manager traffic, retried internally). On a tear the OST
            // persisted a deterministically drawn prefix and failed the
            // request: a full rewrite of the same range is the idempotent
            // heal. The OST index reported is the request's first stripe
            // chunk.
            if let Some(inj) = &self.pfs.fault {
                let ost = self.pfs.cfg.ost_of(off);
                if let Some(frac) = inj.roll_torn(ost) {
                    let keep = (data.len() as f64 * frac) as usize;
                    self.pfs.store(&self.file, off, &data[..keep]);
                    self.pfs.stats.torn_writes.fetch_add(1, Ordering::Relaxed);
                    let at = match &res {
                        Ok(fin) => t.max(*fin),
                        Err(e) => t.max(e.at),
                    };
                    return Err(PfsError { kind: PfsErrorKind::TornWrite, ost, at });
                }
            }
            self.pfs.store(&self.file, off, data);
            res.map(|fin| t.max(fin))
        }
    }

    /// Read into `buf` at `off`, starting at virtual time `now`; returns
    /// the completion time. Reads beyond EOF yield zeros. Under fault
    /// injection a transient OST error is returned instead; `buf` is
    /// still filled correctly (the contents are exact, the *request*
    /// failed), so retrying is idempotent.
    pub fn read(&self, now: u64, off: u64, buf: &mut [u8]) -> Result<u64, PfsError> {
        let _serial = self.file.serial.lock().unwrap();
        self.read_locked(now, off, buf)
    }

    fn read_locked(&self, now: u64, off: u64, buf: &mut [u8]) -> Result<u64, PfsError> {
        if buf.is_empty() {
            return Ok(now);
        }
        let mut t = self.acquire_locks(now, off, buf.len() as u64);
        if self.pfs.cfg.client_cache {
            let mut coh = self.file.coherency.lock().unwrap();
            let ps = self.pfs.cfg.page_size;
            let cache = coh
                .caches
                .entry(self.client)
                .or_insert_with(|| ClientCache::new(ps));
            let missing = cache.missing_pages(off, buf.len() as u64);
            let mut err: Option<PfsError> = None;
            // Fetch missing pages as coalesced runs.
            let mut i = 0;
            while i < missing.len() {
                let mut j = i;
                while j + 1 < missing.len() && missing[j + 1] == missing[j] + 1 {
                    j += 1;
                }
                let run_off = missing[i] * ps;
                let run_len = (missing[j] + 1) * ps - run_off;
                let fin = match self.pfs.raw_io(&self.file, t, run_off, run_len, false) {
                    Ok(fin) => fin,
                    Err(e) => {
                        err.get_or_insert(e);
                        e.at
                    }
                };
                t = t.max(fin);
                let mut data = vec![0u8; run_len as usize];
                self.pfs.load(&self.file, run_off, &mut data);
                let cache = coh.caches.get_mut(&self.client).unwrap();
                for (k, page) in (missing[i]..=missing[j]).enumerate() {
                    cache.fill(page, data[k * ps as usize..(k + 1) * ps as usize].to_vec());
                    cache.note_miss();
                    self.pfs.stats.cache_fills.fetch_add(1, Ordering::Relaxed);
                }
                i = j + 1;
            }
            let cache = coh.caches.get_mut(&self.client).unwrap();
            cache.read(off, buf);
            t += (buf.len() as f64 * self.pfs.cfg.cost.cache_copy_ns_per_byte) as u64;
            match err {
                Some(e) => Err(PfsError { at: t, ..e }),
                None => Ok(t),
            }
        } else {
            let res = self.pfs.raw_io(&self.file, t, off, buf.len() as u64, false);
            self.pfs.load(&self.file, off, buf);
            res.map(|fin| t.max(fin))
        }
    }

    /// Atomic data-sieving chunk commit (read-modify-write): read
    /// `[off, off+len)`, overlay the caller's packed segments, and write
    /// the whole range back — all while holding the file's RMW lock, so no
    /// other client's write can interleave between the pre-read and the
    /// write-back (ROMIO wraps sieving writes in an fcntl lock for exactly
    /// this reason). `segs` are absolute `(offset, len)` runs inside the
    /// chunk, `packed` their concatenated bytes. When `covered` the
    /// pre-read is skipped.
    pub fn sieve_chunk_write(
        &self,
        now: u64,
        off: u64,
        len: u64,
        segs: &[(u64, u64)],
        packed: &[u8],
        covered: bool,
    ) -> Result<u64, PfsError> {
        let _serial = self.file.serial.lock().unwrap();
        let mut buf = vec![0u8; len as usize];
        let mut t = now;
        let mut err: Option<PfsError> = None;
        if !covered {
            t = match self.read_locked(t, off, &mut buf) {
                Ok(t) => t,
                Err(e) => {
                    err = Some(e);
                    e.at
                }
            };
        }
        let mut pos = 0usize;
        for &(so, sl) in segs {
            debug_assert!(so >= off && so + sl <= off + len, "segment outside chunk");
            buf[(so - off) as usize..(so - off + sl) as usize]
                .copy_from_slice(&packed[pos..pos + sl as usize]);
            pos += sl as usize;
        }
        match self.write_locked(t, off, &buf) {
            Ok(t) => match err {
                Some(e) => Err(PfsError { at: t, ..e }),
                None => Ok(t),
            },
            Err(e) => Err(PfsError { at: e.at, ..err.unwrap_or(e) }),
        }
    }

    /// Record that one more nonblocking op is outstanding on this handle
    /// (call when queueing an [`NbOp`]/completion for later waiting, not
    /// when waiting immediately); feeds [`PfsStats::nb_inflight_peak`].
    /// The returned guard retires the op when dropped — hold it while the
    /// op is queued, drop it when the op is waited on (or when an error
    /// path abandons the queue; the drop keeps the count honest either
    /// way).
    pub fn nb_issued(&self) -> NbGuard {
        let depth = self.nb_inflight.fetch_add(1, Ordering::SeqCst) + 1;
        self.pfs.stats.nb_inflight_peak.fetch_max(depth, Ordering::SeqCst);
        NbGuard { inflight: Arc::clone(&self.nb_inflight) }
    }

    /// Nonblocking ops currently outstanding on this handle.
    pub fn nb_inflight(&self) -> u64 {
        self.nb_inflight.load(Ordering::SeqCst)
    }

    /// Nonblocking [`FileHandle::write`]: issues the write at `now` and
    /// returns a completion handle instead of blocking the caller's clock
    /// until `done_at`. Contents are stored immediately; an injected
    /// fault is carried in the handle and reported by [`NbOp::wait`].
    pub fn pwrite_nb(&self, now: u64, off: u64, data: &[u8]) -> NbOp {
        NbOp::from_result(now, self.write(now, off, data))
    }

    /// Nonblocking [`FileHandle::read`]: issues the read at `now`; `buf`
    /// is filled immediately, the returned handle carries the virtual
    /// completion time (and any injected fault).
    pub fn pread_nb(&self, now: u64, off: u64, buf: &mut [u8]) -> NbOp {
        NbOp::from_result(now, self.read(now, off, buf))
    }

    /// Gathered nonblocking write: the concatenation of `bufs` lands at
    /// `off` as one request — the PFS client ships an iovec run list, so
    /// callers holding scattered source runs (borrowed user-buffer or
    /// received-payload slices) need no intermediate packed copy. Charged
    /// exactly like a [`FileHandle::pwrite_nb`] of the same span; the
    /// assembly below is wire representation, not modeled data movement.
    pub fn pwritev_nb(&self, now: u64, off: u64, bufs: &[&[u8]]) -> NbOp {
        let total: usize = bufs.iter().map(|b| b.len()).sum();
        let mut joined = Vec::with_capacity(total);
        for b in bufs {
            joined.extend_from_slice(b);
        }
        NbOp::from_result(now, self.write(now, off, &joined))
    }

    /// Scattered nonblocking read: one request for the span starting at
    /// `off`, delivered straight into the caller's run list (`dests`
    /// filled in order) — the read-side iovec twin of
    /// [`FileHandle::pwritev_nb`], charged exactly like a
    /// [`FileHandle::pread_nb`] of the same span.
    pub fn preadv_nb(&self, now: u64, off: u64, dests: &mut [&mut [u8]]) -> NbOp {
        let total: usize = dests.iter().map(|d| d.len()).sum();
        let mut span = vec![0u8; total];
        let op = NbOp::from_result(now, self.read(now, off, &mut span));
        let mut pos = 0usize;
        for d in dests.iter_mut() {
            d.copy_from_slice(&span[pos..pos + d.len()]);
            pos += d.len();
        }
        op
    }

    /// Nonblocking [`FileHandle::sieve_chunk_write`]: the whole
    /// read-modify-write commits atomically at issue time; the handle
    /// carries its virtual window (and any injected fault).
    pub fn sieve_chunk_write_nb(
        &self,
        now: u64,
        off: u64,
        len: u64,
        segs: &[(u64, u64)],
        packed: &[u8],
        covered: bool,
    ) -> NbOp {
        NbOp::from_result(now, self.sieve_chunk_write(now, off, len, segs, packed, covered))
    }

    /// Truncate or extend the file to exactly `size` bytes. Shrinking
    /// discards content and invalidates every client's cached pages beyond
    /// the new end; extending is a metadata-only operation (reads of the
    /// new region return zeros).
    pub fn set_size(&self, now: u64, size: u64) -> u64 {
        let _serial = self.file.serial.lock().unwrap();
        let mut coh = self.file.coherency.lock().unwrap();
        let old = self.file.size();
        if size < old {
            let mut content = self.file.content.write().unwrap();
            content.truncate(size as usize);
            for cache in coh.caches.values_mut() {
                // Dirty pages past the new end are discarded, not flushed.
                let _ = cache.take_dirty(size, u64::MAX);
                cache.invalidate(size, u64::MAX);
            }
        }
        drop(coh);
        self.file.size.store(size, Ordering::SeqCst);
        now + self.pfs.cfg.cost.request_ns
    }

    /// Preallocate storage up to `size` bytes (never shrinks). Charged as
    /// one OST pass over the newly allocated span.
    pub fn preallocate(&self, now: u64, size: u64) -> u64 {
        let old = self.file.size();
        if size <= old {
            return now + self.pfs.cfg.cost.request_ns;
        }
        self.file.size.fetch_max(size, Ordering::SeqCst);
        {
            let mut content = self.file.content.write().unwrap();
            if content.len() < size as usize {
                content.resize(size as usize, 0);
            }
        }
        // Allocation cost: one request per stripe in the new span.
        let c = &self.pfs.cfg.cost;
        let stripes = (size - old).div_ceil(self.pfs.cfg.stripe_size);
        now + c.request_ns * stripes.max(1)
    }

    /// Flush this client's dirty pages to storage; returns completion
    /// time. Data always lands even when a transient fault is reported
    /// (so a failed flush cannot lose dirty pages); the error tells the
    /// caller the *request* outcome.
    pub fn flush(&self, now: u64) -> Result<u64, PfsError> {
        let mut t = now;
        if !self.pfs.cfg.client_cache {
            return Ok(t);
        }
        let mut err: Option<PfsError> = None;
        let mut coh = self.file.coherency.lock().unwrap();
        if let Some(cache) = coh.caches.get_mut(&self.client) {
            for run in cache.take_all_dirty() {
                self.pfs
                    .stats
                    .flush_bytes
                    .fetch_add(run.data.len() as u64, Ordering::Relaxed);
                let fin = match self.pfs.raw_io(&self.file, t, run.off, run.data.len() as u64, true)
                {
                    Ok(fin) => fin,
                    Err(e) => {
                        err.get_or_insert(e);
                        e.at
                    }
                };
                self.pfs.store(&self.file, run.off, &run.data);
                t = t.max(fin);
            }
        }
        match err {
            Some(e) => Err(PfsError { at: t, ..e }),
            None => Ok(t),
        }
    }

    /// Flush, invalidate the cache, and release this client's locks.
    pub fn close(&self, now: u64) -> Result<u64, PfsError> {
        let res = self.flush(now);
        let mut coh = self.file.coherency.lock().unwrap();
        if let Some(cache) = coh.caches.get_mut(&self.client) {
            cache.invalidate(0, u64::MAX);
        }
        coh.table.release_all(self.client);
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PfsCostModel;

    fn tiny() -> Arc<Pfs> {
        Pfs::new(PfsConfig::test_tiny())
    }

    #[test]
    fn write_read_roundtrip() {
        let pfs = tiny();
        let h = pfs.open("f", 0);
        let data: Vec<u8> = (0..200).map(|i| (i % 256) as u8).collect();
        h.write(0, 13, &data).unwrap();
        let mut buf = vec![0u8; 200];
        h.read(0, 13, &mut buf).unwrap();
        assert_eq!(buf, data);
        assert_eq!(h.size(), 213);
    }

    #[test]
    fn read_beyond_eof_zeros() {
        let pfs = tiny();
        let h = pfs.open("f", 0);
        h.write(0, 0, &[1, 2, 3]).unwrap();
        let mut buf = [9u8; 6];
        h.read(0, 0, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 0, 0, 0]);
    }

    #[test]
    fn two_handles_share_file() {
        let pfs = tiny();
        let a = pfs.open("f", 0);
        let b = pfs.open("f", 1);
        a.write(0, 0, b"hello").unwrap();
        let mut buf = [0u8; 5];
        b.read(0, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn unlink_resets() {
        let pfs = tiny();
        let a = pfs.open("f", 0);
        a.write(0, 0, b"x").unwrap();
        pfs.unlink("f");
        let b = pfs.open("f", 0);
        assert_eq!(b.size(), 0);
    }

    #[test]
    fn striped_write_hits_multiple_osts() {
        let pfs = Pfs::new(PfsConfig {
            cost: PfsCostModel::default(),
            ..PfsConfig::test_tiny()
        });
        let h = pfs.open("f", 0);
        // stripe=64: a 200-byte write spans 4 chunks
        h.write(0, 0, &[7u8; 200]).unwrap();
        assert_eq!(pfs.stats().ost_requests, 4);
        let mut buf = vec![0u8; 200];
        h.read(0, 0, &mut buf).unwrap();
        assert_eq!(buf, vec![7u8; 200]);
    }

    #[test]
    fn sequential_access_avoids_seeks() {
        let pfs = Pfs::new(PfsConfig {
            n_osts: 1,
            stripe_size: 1 << 20,
            page_size: 16,
            locking: false,
            lock_expansion: true,
            client_cache: false,
            cost: PfsCostModel::default(),
        });
        let h = pfs.open("f", 0);
        let mut t = 0;
        for i in 0..10u64 {
            t = h.write(t, i * 16, &[0u8; 16]).unwrap();
        }
        // First write seeks, the rest are sequential.
        assert_eq!(pfs.stats().seeks, 1);
        // Now a discontiguous write.
        h.write(t, 1000, &[0u8; 16]).unwrap();
        assert_eq!(pfs.stats().seeks, 2);
    }

    #[test]
    fn unaligned_write_pays_rmw() {
        let pfs = Pfs::new(PfsConfig {
            n_osts: 1,
            stripe_size: 1 << 20,
            page_size: 16,
            locking: false,
            lock_expansion: true,
            client_cache: false,
            cost: PfsCostModel::default(),
        });
        let h = pfs.open("f", 0);
        // Pre-extend the file so pages exist.
        h.write(0, 0, &vec![0u8; 256]).unwrap();
        let before = pfs.stats().rmw_page_reads;
        h.write(0, 5, &[1u8; 6]).unwrap(); // one partial page
        assert_eq!(pfs.stats().rmw_page_reads - before, 1);
        h.write(0, 5, &[1u8; 30]).unwrap(); // two partial edges
        assert_eq!(pfs.stats().rmw_page_reads - before, 3);
        h.write(0, 16, &[1u8; 32]).unwrap(); // fully aligned
        assert_eq!(pfs.stats().rmw_page_reads - before, 3);
    }

    #[test]
    fn fresh_file_extension_no_rmw() {
        let pfs = Pfs::new(PfsConfig {
            n_osts: 1,
            stripe_size: 1 << 20,
            page_size: 16,
            locking: false,
            lock_expansion: true,
            client_cache: false,
            cost: PfsCostModel::default(),
        });
        let h = pfs.open("f", 0);
        h.write(0, 5, &[1u8; 6]).unwrap(); // unaligned but beyond EOF
        assert_eq!(pfs.stats().rmw_page_reads, 0);
    }

    #[test]
    fn io_advances_time() {
        let pfs = Pfs::new(PfsConfig {
            cost: PfsCostModel::default(),
            ..PfsConfig::test_tiny()
        });
        let h = pfs.open("f", 0);
        let t = h.write(1000, 0, &[0u8; 32]).unwrap();
        assert!(t > 1000 + 50_000, "write too fast: {t}");
    }

    #[test]
    fn ost_pipeline_serializes() {
        let pfs = Pfs::new(PfsConfig {
            n_osts: 1,
            stripe_size: 1 << 20,
            page_size: 16,
            locking: false,
            lock_expansion: true,
            client_cache: false,
            cost: PfsCostModel::default(),
        });
        let h = pfs.open("f", 0);
        let t1 = h.write(0, 0, &[0u8; 16]).unwrap();
        // Second request issued at time 0 on another handle must queue
        // behind the first on the same OST.
        let h2 = pfs.open("f", 1);
        let t2 = h2.write(0, 16, &[0u8; 16]).unwrap();
        assert!(t2 > t1, "second op did not queue: {t2} vs {t1}");
    }

    // ---- locking & caching ------------------------------------------------

    fn locking_cfg(cache: bool) -> PfsConfig {
        PfsConfig {
            n_osts: 2,
            stripe_size: 64,
            page_size: 16,
            locking: true,
            lock_expansion: false,
            client_cache: cache,
            cost: PfsCostModel::default(),
        }
    }

    #[test]
    fn nb_ops_carry_blocking_window() {
        let pfs = Pfs::new(PfsConfig {
            cost: PfsCostModel::default(),
            ..PfsConfig::test_tiny()
        });
        let h = pfs.open("f", 0);
        let op = h.pwrite_nb(1000, 0, &[7u8; 64]);
        assert_eq!(op.issued_at(), 1000);
        assert!(op.done_at() > 1000);
        assert_eq!(op.duration(), op.done_at() - 1000);
        // Data is visible before the op is waited on.
        let mut buf = [0u8; 64];
        let r = h.pread_nb(op.done_at(), 0, &mut buf);
        assert_eq!(buf, [7u8; 64]);
        // wait() is max(now, done_at) in both directions; it consumes the
        // op (double-wait is a compile error), so probe via a clone.
        let done = r.done_at();
        assert_eq!(r.clone().wait(0).unwrap(), done);
        assert_eq!(r.wait(done + 5).unwrap(), done + 5);
    }

    #[test]
    fn nb_matches_blocking_times() {
        // Same op sequence on two identically-configured file systems: the
        // nonblocking variants must report the exact completion times the
        // blocking calls return.
        let mk = || {
            Pfs::new(PfsConfig {
                cost: PfsCostModel::default(),
                ..PfsConfig::test_tiny()
            })
        };
        let (pa, pb) = (mk(), mk());
        let (a, b) = (pa.open("f", 0), pb.open("f", 0));
        let t1 = a.write(500, 3, &[1u8; 100]).unwrap();
        let o1 = b.pwrite_nb(500, 3, &[1u8; 100]);
        assert_eq!(t1, o1.done_at());
        let mut ba = [0u8; 100];
        let mut bb = [0u8; 100];
        let t2 = a.read(t1, 3, &mut ba).unwrap();
        let o2 = b.pread_nb(o1.done_at(), 3, &mut bb);
        assert_eq!(t2, o2.done_at());
        assert_eq!(ba, bb);
        let segs = [(8u64, 16u64)];
        let t3 = a.sieve_chunk_write(t2, 0, 64, &segs, &[9u8; 16], false).unwrap();
        let o3 = b.sieve_chunk_write_nb(o2.done_at(), 0, 64, &segs, &[9u8; 16], false);
        assert_eq!(t3, o3.done_at());
    }

    #[test]
    fn nb_inflight_tracks_peak_per_handle() {
        let pfs = tiny();
        let a = pfs.open("f", 0);
        let b = pfs.open("f", 1);
        assert_eq!(pfs.stats().nb_inflight_peak, 0);
        let ops: Vec<(NbOp, NbGuard)> = (0..3)
            .map(|i| {
                let op = a.pwrite_nb(0, i * 64, &[1u8; 64]);
                (op, a.nb_issued())
            })
            .collect();
        assert_eq!(a.nb_inflight(), 3);
        // A second handle's queue is independent.
        let _op = b.pwrite_nb(0, 512, &[2u8; 64]);
        let bg = b.nb_issued();
        assert_eq!(b.nb_inflight(), 1);
        drop(bg);
        for (op, guard) in ops {
            let _ = op.wait(0).unwrap();
            drop(guard);
        }
        assert_eq!(a.nb_inflight(), 0);
        assert_eq!(pfs.stats().nb_inflight_peak, 3, "peak is the deepest single-handle queue");
    }

    #[test]
    fn nb_guard_drop_retires_without_wait() {
        // Early-exit paths that abandon queued ops (e.g. an engine error
        // return) must not leak the inflight count: dropping the guards —
        // without ever waiting on the ops — retires them.
        let pfs = tiny();
        let a = pfs.open("f", 0);
        let guards: Vec<NbGuard> = (0..4)
            .map(|i| {
                let _op = a.pwrite_nb(0, i * 64, &[1u8; 64]);
                a.nb_issued()
            })
            .collect();
        assert_eq!(a.nb_inflight(), 4);
        drop(guards); // simulate bailing out of the pipeline early
        assert_eq!(a.nb_inflight(), 0, "guard drop must retire the counter");
        assert_eq!(pfs.stats().nb_inflight_peak, 4, "peak still records the high-water mark");
        // A later queue ramp starts from zero, not from the leaked base.
        let g = a.nb_issued();
        assert_eq!(a.nb_inflight(), 1);
        drop(g);
    }

    // ---- fault injection --------------------------------------------------

    #[test]
    fn disabled_faults_charge_identical() {
        // A Pfs without a fault plan and one with an all-zero plan must
        // produce identical completion times and counters (the fault-free
        // fast path is the charge-identity contract).
        let mk_plain = || Pfs::new(PfsConfig { cost: PfsCostModel::default(), ..PfsConfig::test_tiny() });
        let mk_noop = || {
            Pfs::with_faults(
                PfsConfig { cost: PfsCostModel::default(), ..PfsConfig::test_tiny() },
                FaultPlan::default(),
            )
        };
        let (pa, pb) = (mk_plain(), mk_noop());
        assert!(pa.fault_plan().is_none());
        assert!(pb.fault_plan().is_some());
        let (a, b) = (pa.open("f", 0), pb.open("f", 0));
        let mut ta = 0;
        let mut tb = 0;
        for i in 0..6u64 {
            ta = a.write(ta, i * 100, &[i as u8; 90]).unwrap();
            tb = b.write(tb, i * 100, &[i as u8; 90]).unwrap();
        }
        let mut ba = [0u8; 300];
        let mut bb = [0u8; 300];
        ta = a.read(ta, 50, &mut ba).unwrap();
        tb = b.read(tb, 50, &mut bb).unwrap();
        assert_eq!(ta, tb, "a no-op plan must not perturb time");
        assert_eq!(ba, bb);
        assert_eq!(pa.stats(), pb.stats());
        assert_eq!(pb.stats().faults_injected, 0);
        assert_eq!(pb.stats().straggler_ns, 0);
    }

    #[test]
    fn transient_fault_reported_but_data_lands() {
        let pfs = Pfs::with_faults(
            PfsConfig { cost: PfsCostModel::default(), ..PfsConfig::test_tiny() },
            FaultPlan::transient(11, 1.0),
        );
        let h = pfs.open("f", 0);
        let err = h.write(0, 0, &[3u8; 32]).unwrap_err();
        assert_eq!(err.kind, crate::fault::PfsErrorKind::TransientOst);
        assert!(err.at > 0, "error carries the op's completion time");
        assert!(pfs.stats().faults_injected >= 1);
        // The data landed anyway: a retry is idempotent and a reader (on a
        // fault-free mirror decision path) sees the bytes.
        let mut buf = [0u8; 32];
        let res = h.read(err.at, 0, &mut buf);
        assert_eq!(buf, [3u8; 32]);
        assert!(res.is_err(), "rate-1.0 plan fails reads too");
    }

    #[test]
    fn nb_op_carries_fault_to_wait() {
        let pfs = Pfs::with_faults(
            PfsConfig { cost: PfsCostModel::default(), ..PfsConfig::test_tiny() },
            FaultPlan::transient(5, 1.0),
        );
        let h = pfs.open("f", 0);
        let op = h.pwrite_nb(100, 0, &[9u8; 16]);
        assert!(op.error().is_some(), "error known at issue in virtual time");
        let done = op.done_at();
        let err = op.wait(0).unwrap_err();
        assert_eq!(err.at, done, "wait surfaces the fault at completion time");
    }

    #[test]
    fn torn_write_persists_prefix_only() {
        let pfs = Pfs::with_faults(
            PfsConfig { cost: PfsCostModel::default(), ..PfsConfig::test_tiny() },
            FaultPlan { seed: 9, torn_rate: 1.0, ..FaultPlan::default() },
        );
        let h = pfs.open("f", 0);
        let data: Vec<u8> = (1..=40).collect();
        let err = h.write(0, 0, &data).unwrap_err();
        assert_eq!(err.kind, crate::fault::PfsErrorKind::TornWrite);
        assert!(err.at > 0, "error carries the op's completion time");
        assert_eq!(pfs.stats().torn_writes, 1);
        // Only a strict prefix landed: file size tells us how much.
        let keep = h.size() as usize;
        assert!(keep < data.len(), "a torn write must not persist fully");
        let mut buf = vec![0u8; data.len()];
        // Reads don't tear; rate-1.0 torn plans leave reads fault-free.
        h.read(err.at, 0, &mut buf).unwrap();
        assert_eq!(&buf[..keep], &data[..keep]);
        assert_eq!(&buf[keep..], &vec![0u8; data.len() - keep][..], "suffix must be unwritten");
    }

    #[test]
    fn torn_write_heals_on_retry() {
        // With a sub-1.0 rate the torn stream is deterministic per request
        // index, so retrying the identical write eventually persists it in
        // full — the idempotent-heal contract the engine retry loop needs.
        let pfs = Pfs::with_faults(
            PfsConfig { cost: PfsCostModel::default(), ..PfsConfig::test_tiny() },
            FaultPlan { seed: 3, torn_rate: 0.5, ..FaultPlan::default() },
        );
        let h = pfs.open("f", 0);
        let data: Vec<u8> = (0..100u32).map(|i| (i % 251) as u8 + 1).collect();
        let mut t = 0u64;
        let mut tears = 0;
        let healed = (0..20).any(|_| match h.write(t, 0, &data) {
            Ok(fin) => {
                t = fin;
                true
            }
            Err(e) => {
                assert_eq!(e.kind, crate::fault::PfsErrorKind::TornWrite);
                tears += 1;
                t = e.at;
                false
            }
        });
        assert!(healed, "20 retries at rate 0.5 should heal (seeded, deterministic)");
        let mut buf = vec![0u8; data.len()];
        h.read(t, 0, &mut buf).unwrap();
        assert_eq!(buf, data, "full rewrite must heal the tear");
        assert_eq!(pfs.stats().torn_writes, tears);
    }

    #[test]
    fn straggler_slows_only_its_ost_and_window() {
        let cfg = PfsConfig { cost: PfsCostModel::default(), ..PfsConfig::test_tiny() };
        // stripe 64, 4 OSTs: offset 0 → OST 0, offset 64 → OST 1.
        let plain = Pfs::new(cfg);
        let slow = Pfs::with_faults(
            cfg,
            FaultPlan {
                stragglers: vec![crate::fault::StragglerSpec {
                    ost: 0,
                    multiplier: 4.0,
                    from_ns: 0,
                    until_ns: u64::MAX,
                }],
                ..FaultPlan::default()
            },
        );
        let (hp, hs) = (plain.open("f", 0), slow.open("f", 0));
        let tp0 = hp.write(0, 0, &[1u8; 64]).unwrap();
        let ts0 = hs.write(0, 0, &[1u8; 64]).unwrap();
        assert!(ts0 > tp0, "straggler OST must be slower: {ts0} vs {tp0}");
        assert!(slow.stats().straggler_ns > 0);
        let extra = slow.stats().straggler_ns;
        // OST 1 is unaffected: same service time on both file systems.
        let tp1 = hp.write(tp0, 64, &[2u8; 64]).unwrap();
        let ts1 = hs.write(ts0, 64, &[2u8; 64]).unwrap();
        assert_eq!(tp1 - tp0, ts1 - ts0, "other OSTs must be unaffected");
        assert_eq!(slow.stats().straggler_ns, extra);
    }

    #[test]
    fn lock_stall_charged_on_grant() {
        let mk = |stall| {
            let pfs = if stall > 0 {
                Pfs::with_faults(
                    locking_cfg(false),
                    FaultPlan { lock_stall_ns: stall, ..FaultPlan::default() },
                )
            } else {
                Pfs::new(locking_cfg(false))
            };
            let h = pfs.open("f", 0);
            h.write(0, 0, &[1u8; 16]).unwrap()
        };
        let base = mk(0);
        let stalled = mk(10_000);
        assert_eq!(stalled, base + 10_000, "stall charged once per grant");
    }

    #[test]
    fn set_size_truncates_and_extends() {
        let pfs = tiny();
        let h = pfs.open("f", 0);
        h.write(0, 0, &[7u8; 100]).unwrap();
        h.set_size(0, 40);
        assert_eq!(h.size(), 40);
        let mut buf = [9u8; 60];
        h.read(0, 0, &mut buf).unwrap();
        assert_eq!(&buf[..40], &[7u8; 40]);
        assert_eq!(&buf[40..], &[0u8; 20], "truncated region must read zero");
        h.set_size(0, 200);
        assert_eq!(h.size(), 200);
    }

    #[test]
    fn truncate_discards_cached_dirty_pages() {
        let pfs = Pfs::new(locking_cfg(true));
        let h = pfs.open("f", 0);
        h.write(0, 0, &[5u8; 64]).unwrap(); // cached dirty
        h.set_size(0, 16);
        h.flush(0).unwrap();
        let g = pfs.open("f", 1);
        let mut buf = [1u8; 64];
        g.read(0, 0, &mut buf).unwrap();
        assert_eq!(&buf[..16], &[5u8; 16]);
        assert_eq!(&buf[16..], &[0u8; 48], "dirty pages past EOF must not resurrect");
    }

    #[test]
    fn preallocate_extends_without_shrinking() {
        let pfs = tiny();
        let h = pfs.open("f", 0);
        h.write(0, 0, &[3u8; 32]).unwrap();
        h.preallocate(0, 512);
        assert_eq!(h.size(), 512);
        h.preallocate(0, 100); // never shrinks
        assert_eq!(h.size(), 512);
        let mut buf = [9u8; 8];
        h.read(0, 0, &mut buf).unwrap();
        assert_eq!(buf, [3u8; 8]);
    }

    #[test]
    fn lock_reacquire_free() {
        let pfs = Pfs::new(locking_cfg(false));
        let h = pfs.open("f", 0);
        h.write(0, 0, &[0u8; 64]).unwrap();
        assert_eq!(pfs.stats().lock_grants, 1);
        h.write(0, 0, &[0u8; 64]).unwrap();
        assert_eq!(pfs.stats().lock_grants, 1, "covered reacquire must be free");
    }

    #[test]
    fn conflicting_clients_revoke() {
        let pfs = Pfs::new(locking_cfg(false));
        let a = pfs.open("f", 0);
        let b = pfs.open("f", 1);
        a.write(0, 0, &[1u8; 32]).unwrap();
        b.write(0, 32, &[2u8; 32]).unwrap(); // same stripe -> conflict
        assert_eq!(pfs.stats().lock_revocations, 1);
        // Different stripes -> no new conflict.
        let before = pfs.stats().lock_revocations;
        a.write(0, 64, &[1u8; 16]).unwrap();
        assert_eq!(pfs.stats().lock_revocations, before);
    }

    #[test]
    fn cached_write_read_roundtrip() {
        let pfs = Pfs::new(locking_cfg(true));
        let h = pfs.open("f", 0);
        let data: Vec<u8> = (0..100u32).map(|i| (i % 251) as u8).collect();
        h.write(0, 7, &data).unwrap();
        let mut buf = vec![0u8; 100];
        h.read(0, 7, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn cached_writes_defer_ost_io() {
        let pfs = Pfs::new(locking_cfg(true));
        let h = pfs.open("f", 0);
        h.write(0, 0, &[1u8; 64]).unwrap(); // page-aligned, fresh file: no OST traffic
        assert_eq!(pfs.stats().ost_requests, 0);
        let t = h.flush(0).unwrap();
        assert!(pfs.stats().ost_requests > 0);
        assert!(t > 0);
        assert_eq!(pfs.stats().flush_bytes, 64);
    }

    #[test]
    fn revocation_flushes_victim_cache() {
        let pfs = Pfs::new(locking_cfg(true));
        let a = pfs.open("f", 0);
        let b = pfs.open("f", 1);
        a.write(0, 0, &[5u8; 32]).unwrap(); // cached dirty in a
        // b reads the same stripe: revokes a's lock, forcing the flush.
        let mut buf = [0u8; 32];
        b.read(0, 0, &mut buf).unwrap();
        assert_eq!(buf, [5u8; 32]);
        assert_eq!(pfs.stats().lock_revocations, 1);
        assert_eq!(pfs.stats().flush_bytes, 32);
    }

    #[test]
    fn close_flushes_and_releases() {
        let pfs = Pfs::new(locking_cfg(true));
        let a = pfs.open("f", 0);
        a.write(0, 0, &[3u8; 16]).unwrap();
        a.close(0).unwrap();
        // Data persisted.
        let b = pfs.open("f", 1);
        let mut buf = [0u8; 16];
        b.read(0, 0, &mut buf).unwrap();
        assert_eq!(buf, [3u8; 16]);
        // No revocation needed: a's locks were released.
        assert_eq!(pfs.stats().lock_revocations, 0);
    }

    #[test]
    fn cached_partial_page_fill_reads_existing_data() {
        let pfs = Pfs::new(locking_cfg(true));
        let a = pfs.open("f", 0);
        a.write(0, 0, &[9u8; 64]).unwrap();
        a.close(0).unwrap();
        let before = pfs.stats().cache_fills;
        let b = pfs.open("f", 1);
        b.write(0, 4, &[1u8; 4]).unwrap(); // partial page over existing data
        assert_eq!(pfs.stats().cache_fills - before, 1);
        let mut buf = [0u8; 16];
        b.read(0, 0, &mut buf).unwrap();
        assert_eq!(&buf[..8], &[9, 9, 9, 9, 1, 1, 1, 1]);
    }

    #[test]
    fn pfr_style_repeat_writes_no_lock_traffic() {
        // Two clients each repeatedly writing their own stripe-aligned
        // region: one grant each, zero revocations — the PFR+align regime.
        let pfs = Pfs::new(locking_cfg(true));
        let a = pfs.open("f", 0);
        let b = pfs.open("f", 1);
        for step in 0..10u64 {
            a.write(step, 0, &[1u8; 64]).unwrap();
            b.write(step, 64, &[2u8; 64]).unwrap();
        }
        assert_eq!(pfs.stats().lock_grants, 2);
        assert_eq!(pfs.stats().lock_revocations, 0);
    }

    #[test]
    fn shifting_regions_cause_lock_ping_pong() {
        // The no-PFR, no-alignment regime: each step the two clients'
        // regions shift so they land on each other's previous stripes.
        let pfs = Pfs::new(locking_cfg(true));
        let a = pfs.open("f", 0);
        let b = pfs.open("f", 1);
        for step in 0..6u64 {
            let base = step * 32; // shifts across the 64-byte stripes
            a.write(step, base, &[1u8; 64]).unwrap();
            b.write(step, base + 64, &[2u8; 64]).unwrap();
        }
        assert!(
            pfs.stats().lock_revocations >= 5,
            "expected ping-pong, got {} revocations",
            pfs.stats().lock_revocations
        );
    }
}
