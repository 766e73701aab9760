//! MPI-Info-style hints controlling the collective I/O machinery.

use crate::realm::RealmAssigner;
use flexio_io::IoMethod;
use std::sync::Arc;

/// Which two-phase engine services collective calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The paper's new flexible implementation: datatype-described file
    /// realms, flattened-filetype metadata exchange, pluggable buffer-to-
    /// file methods per cycle.
    #[default]
    Flexible,
    /// Faithful re-implementation of the original ROMIO code path: even
    /// aggregate-access-region partition, fully flattened access metadata,
    /// data sieving integrated with the collective buffer.
    Romio,
}

/// How the data exchange phase moves bytes (§5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExchangeMode {
    /// Sparse non-blocking sends/receives, overlapped with address
    /// computation; packing/assembly copies are charged.
    #[default]
    Nonblocking,
    /// `MPI_Alltoallw`-style dense collective operating directly on user /
    /// collective buffers: no packing or assembly copies, but one message
    /// per peer pair regardless of sparsity.
    Alltoallw,
}

/// How many buffer cycles an engine keeps in flight
/// (`flexio_pipeline_depth`). Depth *d* means up to `d − 1` cycles of file
/// I/O outstanding while the next exchange runs: 1 is the strictly serial
/// engine, 2 the classic double buffering, deeper pipelines pay off when
/// one cycle's I/O takes longer than one cycle's exchange. Both engines
/// run on the same pipeline core, so the hint means the same thing under
/// the flexible engine and the ROMIO baseline (ROMIO's read-modify-write
/// pass still blocks inside each cycle; only the final write overlaps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PipelineDepth {
    /// Choose per buffer cycle from the measured I/O:exchange time ratio,
    /// clamped to `[2, 8]` and bounded by the aggregator's share of the
    /// file system's stripe width (outstanding I/O beyond that only
    /// queues on OSTs other aggregators are driving). Waiting on
    /// in-flight I/O is purely local, so each rank adapts independently
    /// without collective agreement.
    #[default]
    Auto,
    /// Exactly this many cycles in flight. `Fixed(1)` reproduces the
    /// serial engine and `Fixed(2)` the two-stage pipeline, charge for
    /// charge; values above 8 are clamped.
    Fixed(u32),
}

/// Tunables for collective and independent I/O, ROMIO-hint style.
#[derive(Clone)]
pub struct Hints {
    /// Number of I/O aggregators (`cb_nodes`). `None` = every rank.
    pub cb_nodes: Option<usize>,
    /// Collective buffer size per aggregator per cycle (`cb_buffer_size`).
    pub cb_buffer_size: usize,
    /// How aggregators move the collective buffer to/from the file
    /// (flexible engine only; the ROMIO engine always sieves, §5.1).
    pub io_method: IoMethod,
    /// Align file-realm boundaries to this many bytes (the paper's new
    /// alignment hint, §6.4). Typically the stripe or page size.
    pub fr_alignment: Option<u64>,
    /// Keep file realms fixed across collective calls, anchored at byte 0
    /// (persistent file realms, §5.2/§6.4).
    pub persistent_file_realms: bool,
    /// Data exchange flavour (§5.4).
    pub exchange: ExchangeMode,
    /// Cache the derived exchange schedule (windows + piece lists) across
    /// collective calls with identical inputs, replaying it on a hit
    /// instead of re-deriving every client↔realm intersection. On (the
    /// default) it pays for itself on any repeated call — the steady state
    /// under persistent file realms; off reproduces the pre-cache engine
    /// exactly (useful for ablations).
    pub schedule_cache: bool,
    /// Pipeline depth policy (`flexio_pipeline_depth`): how many buffer
    /// cycles may be in flight at once; see [`PipelineDepth`].
    pub pipeline_depth: PipelineDepth,
    /// How many times an aggregator retries a transiently failed file-
    /// system request before the collective gives up and agrees on an
    /// error (`flexio_io_retries`). 0 fails fast on the first fault.
    pub io_retries: u32,
    /// Base backoff before the first retry, microseconds
    /// (`flexio_retry_backoff_us`); doubles on each subsequent retry and
    /// is charged in virtual time like any other wait.
    pub retry_backoff_us: u64,
    /// Zero-copy datatype path (`flexio_zero_copy`): move user data as
    /// borrowed iovec-style segment runs through the exchange and the
    /// vectored PFS interface instead of packing it into intermediate
    /// buffers. On (the default) the steady-state collective path moves
    /// each byte once — pack, collective-buffer assembly, and
    /// distribution copies disappear from the charge stream and the
    /// [`flexio_sim::Stats::bytes_copied`] ledger; sieve-resolved groups
    /// still pack (the RMW patch needs a contiguous stream) and charge
    /// that one copy. Off reproduces the packed path byte- and
    /// charge-identically.
    pub zero_copy: bool,
    /// Prefetch the ROMIO engine's data-sieving RMW pre-read one pipeline
    /// cycle ahead (`flexio_sieve_prefetch`), overlapping it with the
    /// previous cycle instead of blocking inside `issue`. Off by default;
    /// the bytes are identical either way (cycle windows are disjoint per
    /// aggregator), only the virtual timing moves.
    pub sieve_prefetch: bool,
    /// Survive crash-stopped ranks (`flexio_crash_recovery`): when a rank
    /// dies mid-collective, survivors agree on the dead set, re-elect
    /// aggregators and re-partition realms over the shrunk group, and
    /// replay the interrupted call idempotently. Off (the default) the
    /// collective terminates with [`IoError::RanksFailed`] on every
    /// survivor instead of hanging.
    ///
    /// [`IoError::RanksFailed`]: crate::error::IoError::RanksFailed
    pub crash_recovery: bool,
    /// Failure-detection watchdog, microseconds of virtual time
    /// (`flexio_watchdog_us`): how long a rank waits at a collective
    /// boundary for a peer's heartbeat before suspecting it dead. Only
    /// consulted when the installed fault plan schedules crashes; must
    /// comfortably exceed per-cycle clock skew between ranks or a slow
    /// peer is falsely declared dead. Virtual-time cost only.
    pub watchdog_us: u64,
    /// Engine selection.
    pub engine: Engine,
    /// Custom file-realm assigner; overrides the built-in choice
    /// (even/aligned/persistent) when set. The paper's "plug in a new
    /// optimization function to determine the file realms" (§5.2).
    pub realm_assigner: Option<Arc<dyn RealmAssigner>>,
}

impl Default for Hints {
    fn default() -> Self {
        Hints {
            cb_nodes: None,
            cb_buffer_size: 4 << 20,
            io_method: IoMethod::default(),
            fr_alignment: None,
            persistent_file_realms: false,
            exchange: ExchangeMode::default(),
            schedule_cache: true,
            pipeline_depth: PipelineDepth::default(),
            io_retries: 4,
            retry_backoff_us: 100,
            zero_copy: true,
            sieve_prefetch: false,
            crash_recovery: false,
            watchdog_us: 200_000,
            engine: Engine::default(),
            realm_assigner: None,
        }
    }
}

impl std::fmt::Debug for Hints {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hints")
            .field("cb_nodes", &self.cb_nodes)
            .field("cb_buffer_size", &self.cb_buffer_size)
            .field("io_method", &self.io_method)
            .field("fr_alignment", &self.fr_alignment)
            .field("persistent_file_realms", &self.persistent_file_realms)
            .field("exchange", &self.exchange)
            .field("schedule_cache", &self.schedule_cache)
            .field("pipeline_depth", &self.pipeline_depth)
            .field("io_retries", &self.io_retries)
            .field("retry_backoff_us", &self.retry_backoff_us)
            .field("zero_copy", &self.zero_copy)
            .field("sieve_prefetch", &self.sieve_prefetch)
            .field("crash_recovery", &self.crash_recovery)
            .field("watchdog_us", &self.watchdog_us)
            .field("engine", &self.engine)
            .field("realm_assigner", &self.realm_assigner.as_ref().map(|_| "custom"))
            .finish()
    }
}

impl Hints {
    /// Number of aggregators for a world of `nprocs` ranks.
    pub fn aggregators(&self, nprocs: usize) -> usize {
        self.cb_nodes.unwrap_or(nprocs).clamp(1, nprocs)
    }

    /// Validate hint consistency.
    pub fn validate(&self) -> crate::error::Result<()> {
        if self.cb_buffer_size == 0 {
            return Err(crate::error::IoError::BadHints("cb_buffer_size must be nonzero"));
        }
        if self.cb_nodes == Some(0) {
            return Err(crate::error::IoError::BadHints("cb_nodes must be nonzero"));
        }
        if self.fr_alignment == Some(0) {
            return Err(crate::error::IoError::BadHints("fr_alignment must be nonzero"));
        }
        if self.pipeline_depth == PipelineDepth::Fixed(0) {
            return Err(crate::error::IoError::BadHints(
                "flexio_pipeline_depth must be a positive integer or auto (0 disables nothing; \
                 use depth 1 for the serial engine)",
            ));
        }
        if self.io_retries > 32 {
            return Err(crate::error::IoError::BadHints(
                "flexio_io_retries must be at most 32 (the backoff doubles per retry)",
            ));
        }
        if self.watchdog_us == 0 {
            return Err(crate::error::IoError::BadHints(
                "flexio_watchdog_us must be nonzero (a zero watchdog suspects every peer)",
            ));
        }
        Ok(())
    }

    /// Validate hint consistency against a concrete world size: everything
    /// [`Hints::validate`] checks, plus bounds that only make sense once
    /// `nprocs` is known. This is what `MpiFile::open`/`set_hints` use, so
    /// an oversized `cb_nodes` is a proper error at the API boundary
    /// instead of a silently clamped schedule.
    pub fn validate_for(&self, nprocs: usize) -> crate::error::Result<()> {
        self.validate()?;
        if let Some(n) = self.cb_nodes {
            if n > nprocs {
                return Err(crate::error::IoError::BadHints("cb_nodes exceeds world size"));
            }
        }
        Ok(())
    }
}

/// Evenly spread `a` aggregator ranks over `nprocs` ranks (ROMIO picks one
/// rank per node; we spread across the rank space).
pub fn aggregator_ranks(a: usize, nprocs: usize) -> Vec<usize> {
    assert!(a >= 1 && a <= nprocs);
    (0..a).map(|i| i * nprocs / a).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_hints_valid() {
        let h = Hints::default();
        h.validate().unwrap();
        assert_eq!(h.aggregators(16), 16);
    }

    #[test]
    fn cb_nodes_clamped() {
        // aggregators() still clamps defensively even though validate_for
        // rejects out-of-range cb_nodes at the API boundary.
        let h = Hints { cb_nodes: Some(100), ..Hints::default() };
        assert_eq!(h.aggregators(8), 8);
        let h = Hints { cb_nodes: Some(0), ..Hints::default() };
        assert_eq!(h.aggregators(8), 1);
    }

    #[test]
    fn bad_hints_rejected() {
        assert!(Hints { cb_buffer_size: 0, ..Hints::default() }.validate().is_err());
        assert!(Hints { fr_alignment: Some(0), ..Hints::default() }.validate().is_err());
        assert!(Hints { cb_nodes: Some(0), ..Hints::default() }.validate().is_err());
        assert!(
            Hints { pipeline_depth: PipelineDepth::Fixed(0), ..Hints::default() }
                .validate()
                .is_err()
        );
        // validate_for inherits the depth check.
        assert!(
            Hints { pipeline_depth: PipelineDepth::Fixed(0), ..Hints::default() }
                .validate_for(4)
                .is_err()
        );
        Hints { pipeline_depth: PipelineDepth::Fixed(1), ..Hints::default() }.validate().unwrap();
        Hints { pipeline_depth: PipelineDepth::Fixed(6), ..Hints::default() }
            .validate_for(4)
            .unwrap();
        assert!(Hints { io_retries: 33, ..Hints::default() }.validate().is_err());
        Hints { io_retries: 0, retry_backoff_us: 0, ..Hints::default() }.validate().unwrap();
        Hints { io_retries: 32, ..Hints::default() }.validate().unwrap();
    }

    #[test]
    fn validate_for_bounds_cb_nodes() {
        let h = Hints { cb_nodes: Some(8), ..Hints::default() };
        h.validate_for(8).unwrap();
        assert!(h.validate_for(7).is_err());
        assert!(Hints { cb_nodes: Some(0), ..Hints::default() }.validate_for(4).is_err());
        Hints::default().validate_for(1).unwrap();
    }

    #[test]
    fn validate_for_rejections_are_descriptive_bad_hints() {
        use crate::error::IoError;
        // Oversized cb_nodes names the actual constraint.
        match (Hints { cb_nodes: Some(5), ..Hints::default() }).validate_for(4) {
            Err(IoError::BadHints(msg)) => assert!(msg.contains("world size"), "got {msg:?}"),
            other => panic!("expected BadHints, got {other:?}"),
        }
        // World-free checks run first, so a doubly-bad hint set reports
        // the world-independent problem.
        match (Hints { cb_buffer_size: 0, cb_nodes: Some(100), ..Hints::default() }).validate_for(1)
        {
            Err(IoError::BadHints(msg)) => assert!(msg.contains("cb_buffer_size"), "got {msg:?}"),
            other => panic!("expected BadHints, got {other:?}"),
        }
        match (Hints { fr_alignment: Some(0), ..Hints::default() }).validate_for(2) {
            Err(IoError::BadHints(msg)) => assert!(msg.contains("fr_alignment"), "got {msg:?}"),
            other => panic!("expected BadHints, got {other:?}"),
        }
        // The boundary case passes: exactly one aggregator per rank.
        Hints { cb_nodes: Some(4), ..Hints::default() }.validate_for(4).unwrap();
    }

    #[test]
    fn crash_recovery_defaults_and_watchdog_bounds() {
        let h = Hints::default();
        assert!(!h.crash_recovery, "recovery must be opt-in");
        assert!(h.watchdog_us > 0);
        assert!(Hints { watchdog_us: 0, ..Hints::default() }.validate().is_err());
        Hints { crash_recovery: true, watchdog_us: 1, ..Hints::default() }.validate().unwrap();
    }

    #[test]
    fn aggregator_ranks_spread() {
        assert_eq!(aggregator_ranks(4, 8), vec![0, 2, 4, 6]);
        assert_eq!(aggregator_ranks(8, 8), (0..8).collect::<Vec<_>>());
        assert_eq!(aggregator_ranks(1, 5), vec![0]);
        assert_eq!(aggregator_ranks(3, 7), vec![0, 2, 4]);
    }
}
