//! One rank of the traced job: `procs::run_rank`'s body rebuilt from
//! the program's public API with every seam wrapped, and canonical
//! mergesort's phases called one by one so each can be timed.

use crate::seams::{SeamStats, TimedBackend, TimedBlockService, TimedTransport};
use demsort_bench::procs::TcpBlockService;
use demsort_core::alltoall::{exchange_splitters, external_alltoall};
use demsort_core::ctx::{ClusterStorage, PhaseRecorder};
use demsort_core::extselect::select_rank_external;
use demsort_core::localmerge::final_merge;
use demsort_core::recio::read_records;
use demsort_core::rundir::build_directory;
use demsort_core::runform::{form_runs, ingest_input, LocalInput};
use demsort_core::striped::striped_mergesort;
use demsort_net::tcp::{TcpOptions, TcpTransport};
use demsort_net::Communicator;
use demsort_storage::{BlockId, DiskModel, PeStorage};
use demsort_types::wire::RankReport;
use demsort_types::{
    ranks, BufferPool, Error, JobConfig, Phase, PoolCounters, Record as _, Record100, Result,
    SortAlgo, SortConfig,
};
use std::io::{Read, Seek, SeekFrom, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall time of one timed stretch of a rank, and the part of it not
/// spent waiting at the transport or block-service seams.
#[derive(Clone, Copy, Default)]
pub struct Span {
    /// Seconds from start to end.
    pub secs: f64,
    /// `secs` minus the seam waits inside the stretch.
    pub self_secs: f64,
}

/// What one traced rank's sort measured.
pub struct Sorted {
    /// The program's own per-rank counters.
    pub report: RankReport,
    /// The whole sort call (after ingest, before output).
    pub sort: Span,
    /// Canonical phase spans, keyed by phase; empty for striped.
    pub phases: Vec<(Phase, Span)>,
    /// Blocks multiway selection fetched (canonical only).
    pub probes: u64,
}

/// What one traced rank measured.
pub struct RankOut {
    /// The sort's own measurements.
    pub sorted: Sorted,
    /// Counters of the buffer pool this rank's storage and transport
    /// share.
    pub pool: PoolCounters,
    /// The seam meters.
    pub seams: Arc<SeamStats>,
}

/// Times a stretch of a rank's work against its seam meters.
struct Stopwatch<'a> {
    stats: &'a SeamStats,
    start: Instant,
    waits: f64,
}

impl<'a> Stopwatch<'a> {
    fn start(stats: &'a SeamStats) -> Self {
        Self { stats, start: Instant::now(), waits: stats.wait_secs() }
    }

    fn stop(self) -> Span {
        let secs = self.start.elapsed().as_secs_f64();
        Span { secs, self_secs: secs - (self.stats.wait_secs() - self.waits) }
    }
}

/// Run rank `rank` of `job` over the listener bound at `addrs[rank]`.
pub fn run(
    rank: usize,
    addrs: &[SocketAddr],
    listener: TcpListener,
    job: &JobConfig,
) -> Result<RankOut> {
    let p = job.machine.pes;
    let opts = TcpOptions {
        read_timeout: Duration::from_millis(job.read_timeout_ms),
        ..TcpOptions::default()
    };
    let tcp = TcpTransport::connect_mesh(rank, addrs, listener, opts)?;
    let seams = Arc::new(SeamStats::default());

    let pool =
        BufferPool::new(job.machine.block_bytes, job.algo.effective_pool_blocks(&job.machine));
    tcp.set_buffer_pool(pool.clone());
    let st = PeStorage::with_backend_pool(
        job.machine.disks_per_pe,
        job.machine.block_bytes,
        DiskModel::paper(),
        Arc::new(TimedBackend::new(job.machine.disks_per_pe, Arc::clone(&seams))),
        pool.clone(),
    );
    let storage = ClusterStorage::single(
        rank,
        p,
        st,
        Box::new(TimedBlockService::new(TcpBlockService(tcp.clone()), Arc::clone(&seams))),
    );

    // Serve peers' block reads and stores out of this rank's storage,
    // exactly as the worker does; the guard breaks the handler ↔
    // storage cycle on every exit path.
    struct HandlerGuard(TcpTransport);
    impl Drop for HandlerGuard {
        fn drop(&mut self) {
            self.0.clear_block_handler();
            self.0.clear_store_handler();
        }
    }
    let serve = Arc::clone(&storage);
    tcp.set_block_handler(Arc::new(move |disk, slot| {
        serve
            .pe(rank)
            .engine()
            .read_sync(BlockId::new(disk, slot))
            .map(|b| b.into_vec())
            .map_err(|e| e.to_string())
    }));
    let keep = Arc::clone(&storage);
    tcp.set_store_handler(Arc::new(move |disk_hint, data| {
        let st = keep.pe(rank);
        let id = st.alloc().alloc_on(disk_hint as usize % st.disks());
        st.engine()
            .write_sync(id, data.to_vec().into_boxed_slice())
            .map(|()| (id.disk, id.slot))
            .map_err(|e| e.to_string())
    }));
    let _guard = HandlerGuard(tcp.clone());

    let total_records = std::fs::metadata(&job.input)
        .map_err(|e| Error::io(format!("stat {}: {e}", job.input)))?
        .len()
        / Record100::BYTES as u64;
    let shard = ranks::owned_range(rank, p, total_records);
    let mut f = std::fs::File::open(&job.input)
        .map_err(|e| Error::io(format!("open {}: {e}", job.input)))?;
    f.seek(SeekFrom::Start(shard.start * Record100::BYTES as u64))?;
    let mut bytes = vec![0u8; (shard.end - shard.start) as usize * Record100::BYTES];
    f.read_exact(&mut bytes)?;
    let mut recs = Vec::with_capacity((shard.end - shard.start) as usize);
    Record100::decode_slice(&bytes, &mut recs);
    drop(bytes);

    let comm = Communicator::new(Box::new(TimedTransport::new(tcp.clone(), Arc::clone(&seams))));
    let cfg = SortConfig::new(job.machine.clone(), job.algo.clone())?;
    let input = ingest_input(storage.pe(rank), &recs)?;
    drop(recs);
    let sorted = match job.algorithm {
        SortAlgo::Canonical => canonical(&comm, &storage, &cfg, input, job, total_records, &seams)?,
        SortAlgo::Striped => striped(&comm, &storage, &cfg, input, job, &seams)?,
    };
    comm.barrier()?;
    Ok(RankOut { sorted, pool: pool.counters(), seams })
}

/// Canonical mergesort, phase by phase, as `canonical_mergesort`
/// composes it; then this rank's slice of the output file.
fn canonical(
    comm: &Communicator,
    storage: &ClusterStorage,
    cfg: &SortConfig,
    input: LocalInput,
    job: &JobConfig,
    total_records: u64,
    seams: &SeamStats,
) -> Result<Sorted> {
    let me = comm.rank();
    let st = storage.pe(me);
    let cores = job.machine.cores_per_pe;
    let mut rec = PhaseRecorder::new(me, st.counters(), comm.counters());
    let mut phases = Vec::new();
    let sort = Stopwatch::start(seams);

    let sw = Stopwatch::start(seams);
    let formed = form_runs::<Record100>(comm, st, cfg, input, cores)?;
    rec.add_cpu(formed.cpu);
    let dir = build_directory(comm, formed.local)?;
    let runs = dir.num_runs();
    rec.finish_phase(Phase::RunFormation, st.counters(), comm.counters());
    phases.push((Phase::RunFormation, sw.stop()));

    let mut probes = 0;
    let output = if runs == 1 {
        dir.local.into_iter().next().ok_or_else(|| Error::config("no run formed"))?
    } else {
        let sw = Stopwatch::start(seams);
        let n = dir.total_elems();
        let boundary = ranks::owned_range(me, comm.size(), n).start;
        let (splitters, sel) = select_rank_external(storage, me, &dir, boundary, &cfg.algo)?;
        rec.add_comm(sel.comm());
        probes = sel.probes();
        let all_splitters = exchange_splitters(comm, &splitters)?;
        rec.finish_phase(Phase::MultiwaySelection, st.counters(), comm.counters());
        phases.push((Phase::MultiwaySelection, sw.stop()));

        let sw = Stopwatch::start(seams);
        let moved = external_alltoall::<Record100>(comm, st, cfg, &dir, &all_splitters)?;
        rec.finish_phase(Phase::AllToAll, st.counters(), comm.counters());
        phases.push((Phase::AllToAll, sw.stop()));

        let sw = Stopwatch::start(seams);
        let (output, merge_cpu) = final_merge::<Record100>(st, moved.merge_inputs, cores)?;
        rec.add_cpu(merge_cpu);
        for b in moved.stragglers {
            st.free_block(b);
        }
        rec.finish_phase(Phase::FinalMerge, st.counters(), comm.counters());
        phases.push((Phase::FinalMerge, sw.stop()));
        output
    };
    let sort = sort.stop();

    let recs = read_records::<Record100>(st, &output.run, output.elems)?;
    let own = ranks::owned_range(me, comm.size(), total_records);
    let mut file = open_output(&job.output)?;
    file.seek(SeekFrom::Start(own.start * Record100::BYTES as u64))?;
    let mut w = std::io::BufWriter::new(&mut file);
    let mut buf = vec![0u8; Record100::BYTES];
    for r in &recs {
        r.encode(&mut buf);
        w.write_all(&buf)?;
    }
    w.flush()?;

    Ok(Sorted {
        report: RankReport {
            rank: me,
            elems: output.elems,
            runs,
            phases: rec.into_stats(),
            error: None,
        },
        sort,
        phases,
        probes,
    })
}

/// Striped mergesort as one call; then the blocks of the striped output
/// this rank owns.
fn striped(
    comm: &Communicator,
    storage: &ClusterStorage,
    cfg: &SortConfig,
    input: LocalInput,
    job: &JobConfig,
    seams: &SeamStats,
) -> Result<Sorted> {
    let me = comm.rank();
    let sw = Stopwatch::start(seams);
    let outcome =
        striped_mergesort::<Record100>(comm, storage, cfg, input, job.machine.cores_per_pe, None)?;
    let sort = sw.stop();

    let run = &outcome.output;
    let st = storage.pe(me);
    let mut file = open_output(&job.output)?;
    let mut at = 0u64;
    let mut elems = 0u64;
    for (g, &id) in run.blocks.iter().enumerate() {
        let count = run.counts[g] as u64;
        if run.owners[g] as usize == me {
            let data = st.engine().read_sync(id)?;
            file.seek(SeekFrom::Start(at * Record100::BYTES as u64))?;
            file.write_all(&data[..count as usize * Record100::BYTES])?;
            elems += count;
        }
        at += count;
    }

    Ok(Sorted {
        report: RankReport {
            rank: me,
            elems,
            runs: outcome.runs,
            phases: outcome.phases,
            error: None,
        },
        sort,
        phases: Vec::new(),
        probes: 0,
    })
}

/// The shared output file, already sized by the caller; ranks write
/// disjoint ranges of it.
fn open_output(path: &str) -> Result<std::fs::File> {
    std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| Error::io(format!("open {path}: {e}")))
}
