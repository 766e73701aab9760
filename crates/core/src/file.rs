//! The MPI-IO-like file object: open, set_view, collective and
//! independent reads/writes, close.

use crate::engine::schedule::ExchangeSchedule;
use crate::engine::{self, DataBuf};
use crate::error::{IoError, Result};
use crate::hints::{Engine, Hints};
use crate::meta::ClientAccess;
use crate::realm::FileRealm;
use flexio_io::{read_packed, write_packed};
use flexio_pfs::{FileHandle, Pfs};
use flexio_sim::{Phase, Rank};
use flexio_types::{flatten_shared, Datatype, FileView, MemLayout};
use std::cell::RefCell;
use std::sync::Arc;

/// An open file with MPI-IO semantics, bound to one rank of a simulated
/// world. All `*_all` operations are collective: every rank of the world
/// must call them in the same order.
///
/// ```no_run
/// use flexio_core::{Hints, MpiFile};
/// use flexio_pfs::{Pfs, PfsConfig};
/// use flexio_sim::{run, CostModel};
/// use flexio_types::Datatype;
///
/// let pfs = Pfs::new(PfsConfig::default());
/// run(4, CostModel::default(), |rank| {
///     let mut f = MpiFile::open(rank, &pfs, "out", Hints::default()).unwrap();
///     // Interleave 64-byte blocks from the 4 ranks.
///     let block = Datatype::bytes(64);
///     let ftype = Datatype::resized(0, 4 * 64, block.clone());
///     f.set_view((rank.rank() * 64) as u64, &block, &ftype).unwrap();
///     let data = vec![rank.rank() as u8; 1024];
///     f.write_all(&data, &Datatype::bytes(1024), 1).unwrap();
///     f.close().unwrap();
/// });
/// ```
pub struct MpiFile<'r> {
    rank: &'r Rank,
    handle: FileHandle,
    view: FileView,
    hints: Hints,
    pfr_realms: RefCell<Option<Vec<FileRealm>>>,
    /// Last collective call's exchange schedule (flexible engine);
    /// invalidated by `set_view` and hint changes, revalidated per call by
    /// its input digest.
    sched_cache: RefCell<Option<ExchangeSchedule>>,
}

impl<'r> MpiFile<'r> {
    /// Collectively open (creating if necessary) `path`.
    pub fn open(rank: &'r Rank, pfs: &Arc<Pfs>, path: &str, hints: Hints) -> Result<Self> {
        hints.validate_for(rank.nprocs())?;
        let handle = pfs.open(path, rank.rank());
        rank.barrier();
        Ok(MpiFile {
            rank,
            handle,
            view: FileView::contiguous(0),
            hints,
            pfr_realms: RefCell::new(None),
            sched_cache: RefCell::new(None),
        })
    }

    /// The hints in effect.
    pub fn hints(&self) -> &Hints {
        &self.hints
    }

    /// Replace the hints (e.g. to switch engine or I/O method mid-run).
    /// Drops the cached exchange schedule: hints shape realm assignment
    /// and data movement, so a schedule derived under the old hints must
    /// not be replayed under the new ones.
    pub fn set_hints(&mut self, hints: Hints) -> Result<()> {
        hints.validate_for(self.rank.nprocs())?;
        self.hints = hints;
        *self.sched_cache.borrow_mut() = None;
        Ok(())
    }

    /// The current file view.
    pub fn view(&self) -> &FileView {
        &self.view
    }

    /// Logical file size in bytes.
    pub fn size(&self) -> u64 {
        self.handle.size()
    }

    /// Collective `MPI_File_set_view`: tile `filetype` from byte `disp`.
    /// The etype defines the offset unit for the `*_at` operations.
    ///
    /// Flattening goes through the content-addressed cache: the first view
    /// of a datatype charges its full `D` pairs, repeat views of an equal
    /// type share the existing `Arc<FlatType>` and charge one probe pair.
    /// Any view change drops the cached exchange schedule.
    pub fn set_view(&mut self, disp: u64, etype: &Datatype, filetype: &Datatype) -> Result<()> {
        let (flat, hit) = flatten_shared(filetype);
        self.rank.note_flatten_cache(hit);
        self.rank.charge_pairs(if hit { 1 } else { flat.segs.len() as u64 });
        self.view = FileView::new(disp, flat, etype.size())?;
        *self.sched_cache.borrow_mut() = None;
        self.rank.barrier();
        Ok(())
    }

    fn access_for(&self, offset_etypes: u64, total: u64) -> ClientAccess {
        ClientAccess {
            view: self.view.clone(),
            data_start: offset_etypes * self.view.etype_size(),
            data_len: total,
        }
    }

    fn mem_layout(&self, buf_len: usize, memtype: &Datatype, count: u64) -> Result<MemLayout> {
        let (flat, hit) = flatten_shared(memtype);
        self.rank.note_flatten_cache(hit);
        let mem = MemLayout::new(flat, count);
        let needed = mem.span();
        if needed > buf_len as u64 {
            return Err(IoError::BufferTooSmall { needed, got: buf_len as u64 });
        }
        Ok(mem)
    }

    /// Collective write of `count` instances of `memtype` from `buf`,
    /// starting at the view's origin (etype offset 0).
    pub fn write_all(&self, buf: &[u8], memtype: &Datatype, count: u64) -> Result<()> {
        self.write_all_at(0, buf, memtype, count)
    }

    /// Collective write at an explicit etype offset into the view.
    pub fn write_all_at(
        &self,
        offset_etypes: u64,
        buf: &[u8],
        memtype: &Datatype,
        count: u64,
    ) -> Result<()> {
        let mem = self.mem_layout(buf.len(), memtype, count)?;
        let acc = self.access_for(offset_etypes, mem.total());
        self.run_engine(&acc, &mem, DataBuf::Write(buf))
    }

    /// Collective read of `count` instances of `memtype` into `buf`,
    /// starting at the view's origin.
    pub fn read_all(&self, buf: &mut [u8], memtype: &Datatype, count: u64) -> Result<()> {
        self.read_all_at(0, buf, memtype, count)
    }

    /// Collective read at an explicit etype offset into the view.
    pub fn read_all_at(
        &self,
        offset_etypes: u64,
        buf: &mut [u8],
        memtype: &Datatype,
        count: u64,
    ) -> Result<()> {
        let mem = self.mem_layout(buf.len(), memtype, count)?;
        let acc = self.access_for(offset_etypes, mem.total());
        self.run_engine(&acc, &mem, DataBuf::Read(buf))
    }

    fn run_engine(&self, acc: &ClientAccess, mem: &MemLayout, mut buf: DataBuf<'_>) -> Result<()> {
        match self.hints.engine {
            Engine::Flexible => {
                let mut pfr = self.pfr_realms.borrow_mut();
                let mut sched = self.sched_cache.borrow_mut();
                // Under a crash-scheduling fault plan the call runs inside
                // the recovery loop (entry detection + survivor replay);
                // without crashes the plain engine path is byte- and
                // charge-identical to before the crash machinery existed.
                let crashes =
                    self.handle.pfs().fault_plan().is_some_and(|p| !p.crashes.is_empty());
                if crashes {
                    engine::recovery::run(
                        self.rank,
                        &self.handle,
                        acc,
                        mem,
                        &mut buf,
                        &self.hints,
                        &mut pfr,
                        &mut sched,
                    )
                } else {
                    engine::flexible::run(
                        self.rank,
                        &self.handle,
                        acc,
                        mem,
                        &mut buf,
                        &self.hints,
                        &mut pfr,
                        &mut sched,
                    )
                }
            }
            Engine::Romio => {
                // The baseline engine has no crash checkpoints or recovery
                // protocol; running it under a crash schedule would let the
                // scheduled crashes silently never fire.
                if self.handle.pfs().fault_plan().is_some_and(|p| !p.crashes.is_empty()) {
                    return Err(IoError::BadHints(
                        "crash-stop fault plans require the flexible engine",
                    ));
                }
                engine::romio::run(self.rank, &self.handle, acc, mem, buf, &self.hints)
            }
        }
    }

    /// Independent (non-collective) write through the view at an etype
    /// offset, using the hinted independent I/O method (data sieving /
    /// naive / conditional).
    pub fn write_at(
        &self,
        offset_etypes: u64,
        buf: &[u8],
        memtype: &Datatype,
        count: u64,
    ) -> Result<()> {
        let mem = self.mem_layout(buf.len(), memtype, count)?;
        let total = mem.total();
        if total == 0 {
            return Ok(());
        }
        let (segs, packed) = self.flatten_access(offset_etypes, total, Some((buf, &mem)));
        let t0 = self.rank.now();
        let res = write_packed(
            &self.handle,
            t0,
            &segs,
            &packed,
            &self.hints.io_method,
            self.view.ftype().extent,
        );
        // Charge the op's full window whether or not it faulted (the error
        // carries the would-be completion time), then surface the fault —
        // independent I/O has no retry loop or collective agreement.
        self.wait_io(t0, res.unwrap_or_else(|e| e.at));
        res.map(|_| ()).map_err(IoError::Pfs)
    }

    /// Independent read through the view at an etype offset.
    pub fn read_at(
        &self,
        offset_etypes: u64,
        buf: &mut [u8],
        memtype: &Datatype,
        count: u64,
    ) -> Result<()> {
        let mem = self.mem_layout(buf.len(), memtype, count)?;
        let total = mem.total();
        if total == 0 {
            return Ok(());
        }
        let (segs, mut packed) = self.flatten_access(offset_etypes, total, None);
        let t0 = self.rank.now();
        let res = read_packed(
            &self.handle,
            t0,
            &segs,
            &mut packed,
            &self.hints.io_method,
            self.view.ftype().extent,
        );
        self.wait_io(t0, *res.as_ref().unwrap_or_else(|e| &e.at));
        if let Err(e) = res {
            // The packed bytes are exact even on a faulted request, but an
            // independent read has no retry loop: report it without
            // scattering, like a failed MPI_File_read_at.
            return Err(IoError::Pfs(e));
        }
        // Scatter the packed bytes into user memory piece by piece.
        let start = offset_etypes * self.view.etype_size();
        let mut cur = self.view.cursor(start);
        let mut pos = 0usize;
        while pos < packed.len() {
            let p = cur.take(total - pos as u64);
            mem.scatter(buf, p.data_pos - start, &packed[pos..pos + p.len as usize]);
            pos += p.len as usize;
        }
        self.rank.charge_memcpy(total);
        Ok(())
    }

    /// Flatten an access into sorted file segments; when `gather` is given,
    /// also pack the user data (write case).
    fn flatten_access(
        &self,
        offset_etypes: u64,
        total: u64,
        gather: Option<(&[u8], &MemLayout)>,
    ) -> (Vec<(u64, u64)>, Vec<u8>) {
        let start = offset_etypes * self.view.etype_size();
        let mut cur = self.view.cursor(start);
        let mut segs: Vec<(u64, u64)> = Vec::new();
        let mut packed = vec![0u8; total as usize];
        let mut done = 0u64;
        while done < total {
            let p = cur.take(total - done);
            match segs.last_mut() {
                Some(last) if last.0 + last.1 == p.file_off => last.1 += p.len,
                _ => segs.push((p.file_off, p.len)),
            }
            if let Some((buf, mem)) = gather {
                mem.gather(
                    buf,
                    p.data_pos - start,
                    &mut packed[done as usize..(done + p.len) as usize],
                );
            }
            done += p.len;
        }
        self.rank.charge_pairs(cur.evaluated());
        if gather.is_some() {
            self.rank.charge_memcpy(total);
        }
        (segs, packed)
    }

    /// Move the clock to `t`, the completion of a file-system request
    /// issued at `t0`, and charge the wait to the I/O phase, so the phase
    /// buckets keep summing to the clock.
    fn wait_io(&self, t0: u64, t: u64) {
        self.rank.advance_to(t);
        self.rank.note_phase(Phase::Io, t - t0);
    }

    /// Collective `MPI_File_set_size`: truncate or extend to `size` bytes.
    pub fn set_size(&self, size: u64) {
        // Collective: rank 0 performs the metadata operation.
        if self.rank.rank() == 0 {
            let t0 = self.rank.now();
            self.wait_io(t0, self.handle.set_size(t0, size));
        }
        self.rank.barrier();
    }

    /// Collective `MPI_File_preallocate`: ensure storage for `size` bytes.
    pub fn preallocate(&self, size: u64) {
        if self.rank.rank() == 0 {
            let t0 = self.rank.now();
            self.wait_io(t0, self.handle.preallocate(t0, size));
        }
        self.rank.barrier();
    }

    /// Flush this rank's cached pages (if client caching is on). Dirty
    /// pages always land even on a faulted flush request; the error
    /// reports the request outcome, as `MPI_File_sync` would.
    pub fn sync(&self) -> Result<()> {
        let t0 = self.rank.now();
        let res = self.handle.flush(t0);
        self.wait_io(t0, *res.as_ref().unwrap_or_else(|e| &e.at));
        res.map(|_| ()).map_err(IoError::Pfs)
    }

    /// Collective close: flush, release locks, barrier. The file is fully
    /// closed (locks released, cache invalidated) even when the final
    /// flush request faults.
    pub fn close(self) -> Result<()> {
        let t0 = self.rank.now();
        let res = self.handle.close(t0);
        self.wait_io(t0, *res.as_ref().unwrap_or_else(|e| &e.at));
        self.rank.barrier();
        res.map(|_| ()).map_err(IoError::Pfs)
    }
}
