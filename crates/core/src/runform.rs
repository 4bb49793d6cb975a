//! Phase 1: randomized, overlapped run formation (Sections IV, IV-E).
//!
//! `R = ⌈N/M⌉` *global* runs are formed. For each run, every PE
//! contributes `m = M/P` bytes of its local input, the run is sorted
//! across all PEs with the distributed internal sort
//! ([`crate::psort`]), and each PE writes its canonical slice of the
//! run back to *local* disk (no striping — this is what saves
//! communication over the Section III algorithm).
//!
//! * **Randomization** — "each PE chooses its participating blocks for
//!   the run randomly. This is implemented by randomly shuffling the
//!   IDs of the local input blocks in a preprocessing step." With
//!   similar per-run input distributions, most elements land on their
//!   final PE already during run formation (Appendix C analyzes how
//!   much data the all-to-all still has to move).
//! * **Sampling** — every `K`-th element of each written slice is kept
//!   as a sample to warm-start multiway selection (Section IV-A).
//! * **Overlapping** — "While run `i` is globally sorted internally, we
//!   first write the (already sorted) run `i−1` before fetching the
//!   data for run `i+1`." The async engine makes this real: writes of
//!   slice `i−1` and reads of run `i+1` are queued (in that order, so
//!   writes get disk priority) before the sort of run `i` starts.
//! * **Single-run special case** — if everything fits in memory
//!   (`R = 1`), each block is sorted immediately after it arrives while
//!   the disk fetches the rest, and the sorted blocks are merged at the
//!   end instead of sorting from scratch.
//! * **In-place** — input blocks are freed as they are read; slice
//!   writes reuse them.

use crate::merge::{merge_work, par_merge_k_into};
use crate::psort::{parallel_sort, parallel_sort_presorted};
use crate::recio::{records_per_block, FinishedRun, RecordRunWriter};
use crate::seqsort::sort_in_node;
use demsort_net::Communicator;
use demsort_storage::{PeStorage, Run, RunWriter};
use demsort_types::{CpuCounters, Error, Record, Result, SortConfig};
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};
use std::io::Read;

/// This PE's on-disk input: a run of `elems` records.
#[derive(Clone, Debug)]
pub struct LocalInput {
    /// Input blocks (record-aligned layout).
    pub run: Run,
    /// Number of records.
    pub elems: u64,
}

/// Result of run formation on one PE.
pub struct RunFormOutcome<R: Record> {
    /// This PE's sorted slice of each run (with samples and prediction
    /// keys).
    pub local: Vec<FinishedRun<R>>,
    /// CPU work done in this phase.
    pub cpu: CpuCounters,
}

/// Form all runs. Collective; returns this PE's slices.
pub fn form_runs<R: Record + Ord>(
    comm: &Communicator,
    st: &PeStorage,
    cfg: &SortConfig,
    input: LocalInput,
    cores: usize,
) -> Result<RunFormOutcome<R>> {
    let rpb = records_per_block::<R>(st.block_bytes());
    let full_blocks = (input.elems / rpb as u64) as usize;
    let tail_elems = (input.elems % rpb as u64) as usize;
    debug_assert_eq!(
        input.run.blocks.len(),
        full_blocks + usize::from(tail_elems > 0),
        "input run must be record-aligned"
    );

    // Randomized (or identity) assignment of local blocks to runs.
    let mut order: Vec<usize> = (0..full_blocks).collect();
    if cfg.algo.randomize {
        let mut rng =
            StdRng::seed_from_u64(cfg.algo.seed ^ (comm.rank() as u64).wrapping_mul(0x9E37_79B9));
        order.shuffle(&mut rng);
    }

    // Group into runs of `m/B` blocks; the partial tail block (if any)
    // joins the last group.
    let bpr = cfg.machine.mem_blocks_per_pe().max(1);
    let local_groups = full_blocks.div_ceil(bpr).max(usize::from(tail_elems > 0));
    let num_runs = comm.allreduce_max(local_groups as u64)?.max(1) as usize;

    let mut cpu_total = CpuCounters::default();
    let mut finished: Vec<FinishedRun<R>> = Vec::with_capacity(num_runs);
    // Slice of the previous run, not yet written (overlap mode defers
    // it so its writes can be queued ahead of the next run's reads).
    let mut to_write: Option<Vec<R>> = None;
    // Writer whose async writes are in flight under the current sort.
    let mut writing: Option<RecordRunWriter<'_, R>> = None;

    // Prefetch the first run's blocks.
    let mut pending = issue_group_reads(st, &input, &order, 0, bpr, rpb, full_blocks, tail_elems);

    for j in 0..num_runs {
        // Fetch + decode (or sort-on-arrival) run j's local data.
        let single_run = num_runs == 1 && cfg.algo.overlap;
        let (data, arrive_cpu) = collect_group::<R>(pending, single_run, cores)?;
        cpu_total = cpu_total.merge(&arrive_cpu);

        // The paper's overlap schedule: while run j is globally sorted,
        // "we first write the (already sorted) run j−1 before fetching
        // the data for run j+1" — queue slice j−1's writes, then run
        // j+1's reads (FIFO disk queues give the writes priority), and
        // only then start the sort, which overlaps both.
        if let Some(recs) = to_write.take() {
            let mut w = RecordRunWriter::with_window(st, cfg.algo.sample_every, recs.len());
            w.push_all(&recs)?;
            writing = Some(w);
        }
        pending = issue_group_reads(st, &input, &order, j + 1, bpr, rpb, full_blocks, tail_elems);

        // Globally sort run j (CPU + communication, overlapping disk).
        let (slice, sort_cpu) = if single_run {
            parallel_sort_presorted(comm, data, cores, CpuCounters::default())?
        } else {
            parallel_sort(comm, data, cores)?
        };
        cpu_total = cpu_total.merge(&sort_cpu);

        // Slice j−1's writes had the whole sort to retire; collect them.
        if let Some(w) = writing.take() {
            finished.push(w.finish()?);
        }

        if cfg.algo.overlap {
            to_write = Some(slice); // defer writing slice j to overlap run j+1
        } else {
            let mut w = RecordRunWriter::new(st, cfg.algo.sample_every);
            w.push_all(&slice)?;
            finished.push(w.finish()?);
            st.engine().drain()?;
        }
    }
    if let Some(recs) = to_write.take() {
        let mut w = RecordRunWriter::with_window(st, cfg.algo.sample_every, recs.len());
        w.push_all(&recs)?;
        finished.push(w.finish()?);
    }
    debug_assert!(pending.is_empty(), "no reads may remain after the last run");

    Ok(RunFormOutcome { local: finished, cpu: cpu_total })
}

/// One in-flight block read: handle plus the number of valid records.
type PendingBlock = (demsort_storage::IoHandle, usize);

/// Issue async reads (freeing blocks — in-place) for group `j`.
#[allow(clippy::too_many_arguments)]
fn issue_group_reads(
    st: &PeStorage,
    input: &LocalInput,
    order: &[usize],
    j: usize,
    bpr: usize,
    rpb: usize,
    full_blocks: usize,
    tail_elems: usize,
) -> Vec<PendingBlock> {
    let lo = (j * bpr).min(full_blocks);
    let hi = ((j + 1) * bpr).min(full_blocks);
    let mut pending = Vec::with_capacity(hi - lo + 1);
    for &b in &order[lo..hi] {
        let id = input.run.blocks[b];
        pending.push((st.engine().read(id), rpb));
        st.alloc().free(id); // block slot reusable once the read retires
    }
    // The partial tail block joins the last group that has room — i.e.
    // the group covering the final full blocks (or group 0 if none).
    let is_last_group = hi == full_blocks && (lo < hi || full_blocks == 0);
    if tail_elems > 0 && is_last_group && j * bpr <= full_blocks {
        let id = *input.run.blocks.last().expect("tail block exists");
        pending.push((st.engine().read(id), tail_elems));
        st.alloc().free(id);
    }
    pending
}

/// Wait for a group's blocks and decode them; in the single-run special
/// case, sort each block as it arrives and merge at the end.
fn collect_group<R: Record + Ord>(
    pending: Vec<PendingBlock>,
    sort_on_arrival: bool,
    cores: usize,
) -> Result<(Vec<R>, CpuCounters)> {
    let mut cpu = CpuCounters::default();
    if !sort_on_arrival {
        let mut data = Vec::new();
        for (h, valid) in pending {
            let buf = h.wait()?;
            R::decode_slice(&buf[..valid * R::BYTES], &mut data);
        }
        return Ok((data, cpu));
    }
    // Single-run case: each block is sorted the moment it arrives
    // ("immediately after a block is read from disk, it is sorted,
    // while the disk is busy with subsequent blocks").
    let mut sorted_blocks: Vec<Vec<R>> = Vec::with_capacity(pending.len());
    for (h, valid) in pending {
        let buf = h.wait()?;
        let mut recs = Vec::with_capacity(valid);
        R::decode_slice(&buf[..valid * R::BYTES], &mut recs);
        cpu = cpu.merge(&sort_in_node(&mut recs, cores));
        sorted_blocks.push(recs);
    }
    let views: Vec<&[R]> = sorted_blocks.iter().map(|b| b.as_slice()).collect();
    let total: usize = views.iter().map(|v| v.len()).sum();
    let mut data = Vec::with_capacity(total);
    let pm = par_merge_k_into(&views, cores, &mut data);
    cpu.elements_merged += total as u64;
    cpu.merge_work += merge_work(total as u64, views.len());
    cpu.split_probes += pm.split_probes;
    Ok((data, cpu))
}

/// Write a PE's input records to its local disks (experiment setup;
/// not part of the measured sort).
pub fn ingest_input<R: Record>(st: &PeStorage, recs: &[R]) -> Result<LocalInput> {
    let fr = crate::recio::write_records(st, recs)?;
    Ok(LocalInput { run: fr.run, elems: fr.elems })
}

/// Write a PE's input of `elems` records straight from their encoded
/// bytes in `src`: each block's worth is read into a pooled block
/// buffer and written through the engine, with no decode/encode round
/// trip, so memory stays O(write-behind · B) however large the shard.
/// The blocks are exactly those [`ingest_input`] writes for the decoded
/// records: record-aligned, with a zero-padded tail.
pub fn ingest_stream<R: Record>(
    st: &PeStorage,
    src: &mut impl Read,
    elems: u64,
) -> Result<LocalInput> {
    let rpb = records_per_block::<R>(st.block_bytes()) as u64;
    let mut w = RunWriter::new(st);
    let mut done = 0u64;
    while done < elems {
        let n = (elems - done).min(rpb) as usize;
        // Recycled buffers keep old contents: zero the padding.
        let mut block = st.pool().get();
        let (recs, pad) = block.split_at_mut(n * R::BYTES);
        src.read_exact(recs).map_err(|e| {
            Error::io(format!("read input records {done}..{} of {elems}: {e}", done + n as u64))
        })?;
        pad.fill(0);
        w.push_block(block)?;
        done += n as u64;
    }
    Ok(LocalInput { run: w.finish()?, elems })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::ClusterStorage;
    use crate::recio::read_records;
    use demsort_net::run_cluster;
    use demsort_storage::{DiskModel, MemBackend};
    use demsort_types::{AlgoConfig, Element16, MachineConfig, Record100};
    use demsort_workloads::{checksum_elements, generate_all, generate_pe_input, InputSpec};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use std::sync::Arc;

    fn config(pes: usize, randomize: bool, overlap: bool) -> SortConfig {
        let machine = MachineConfig::tiny(pes);
        let algo = AlgoConfig { randomize, overlap, sample_every: 8, ..AlgoConfig::default() };
        SortConfig::new(machine, algo).expect("valid config")
    }

    /// Form runs on a cluster and return each PE's slices (decoded).
    fn run_form(
        spec: InputSpec,
        cfg: &SortConfig,
        local_n: usize,
    ) -> Vec<Vec<(Vec<Element16>, FinishedRun<Element16>)>> {
        let p = cfg.machine.pes;
        let storage = ClusterStorage::new_mem(&cfg.machine);
        let storage = &storage;
        let cfg2 = cfg.clone();
        run_cluster(p, move |c| {
            let st = storage.pe(c.rank());
            let recs = generate_pe_input(spec, 7, c.rank(), p, local_n);
            let input = ingest_input(st, &recs).expect("ingest");
            let out = form_runs::<Element16>(&c, st, &cfg2, input, 1).expect("form runs");
            out.local
                .into_iter()
                .map(|fr| {
                    let recs = read_records::<Element16>(st, &fr.run, fr.elems).expect("read");
                    (recs, fr)
                })
                .collect::<Vec<_>>()
        })
    }

    /// Each run must be globally sorted (slice i < slice i+1, each slice
    /// sorted) and the union of all runs a permutation of the input.
    fn check_runs(spec: InputSpec, cfg: &SortConfig, local_n: usize) {
        let p = cfg.machine.pes;
        let per_pe = run_form(spec, cfg, local_n);
        let num_runs = per_pe[0].len();
        assert!(per_pe.iter().all(|s| s.len() == num_runs), "same run count everywhere");

        let mut all: Vec<Element16> = Vec::new();
        for j in 0..num_runs {
            let mut run_concat: Vec<Element16> = Vec::new();
            for pe in per_pe.iter() {
                let (recs, _) = &pe[j];
                run_concat.extend_from_slice(recs);
            }
            assert!(
                run_concat.windows(2).all(|w| w[0].key <= w[1].key),
                "run {j} must be globally key-sorted ({spec:?})"
            );
            all.extend_from_slice(&run_concat);
        }
        let input = generate_all(spec, 7, p, local_n);
        assert_eq!(all.len(), input.len());
        assert_eq!(checksum_elements(&all), checksum_elements(&input), "permutation");
    }

    #[test]
    fn forms_sorted_runs_uniform() {
        // tiny(): 256-byte blocks, 16 elems/block, 16 blocks of memory
        // → runs of 256 elements per PE.
        let cfg = config(3, true, true);
        check_runs(InputSpec::Uniform, &cfg, 700); // ⌈700/256⌉ = 3 runs
    }

    #[test]
    fn forms_runs_without_randomization_or_overlap() {
        for (rand, ovl) in [(false, false), (false, true), (true, false)] {
            let cfg = config(2, rand, ovl);
            check_runs(InputSpec::Banded { block_elems: 16 }, &cfg, 600);
        }
    }

    #[test]
    fn single_run_fits_in_memory() {
        let cfg = config(2, true, true);
        check_runs(InputSpec::Uniform, &cfg, 200); // 200 < 256 → R = 1
    }

    #[test]
    fn ragged_input_with_partial_tail_block() {
        let cfg = config(2, true, true);
        check_runs(InputSpec::Uniform, &cfg, 300 + 7); // tail of 7 elems
    }

    #[test]
    fn empty_input() {
        let cfg = config(2, true, true);
        check_runs(InputSpec::Uniform, &cfg, 0);
    }

    #[test]
    fn slices_carry_samples_and_prediction_keys() {
        let cfg = config(2, true, true);
        let per_pe = run_form(InputSpec::Uniform, &cfg, 512);
        for slices in &per_pe {
            for (recs, fr) in slices {
                if recs.is_empty() {
                    continue;
                }
                assert!(!fr.samples.is_empty(), "samples collected");
                for s in &fr.samples {
                    assert_eq!(s.rec, recs[s.pos as usize], "sample matches slice");
                }
                assert_eq!(
                    fr.block_first_keys.len(),
                    fr.run.blocks.len(),
                    "one prediction key per block"
                );
            }
        }
    }

    #[test]
    fn in_place_operation_reuses_input_blocks() {
        // After run formation the input blocks must have been recycled:
        // allocator usage equals the written slices only.
        let cfg = config(2, true, true);
        let p = 2;
        let storage = ClusterStorage::new_mem(&cfg.machine);
        let storage = &storage;
        let cfg2 = cfg.clone();
        let high_waters = run_cluster(p, move |c| {
            let st = storage.pe(c.rank());
            let recs = generate_pe_input(InputSpec::Uniform, 3, c.rank(), p, 640);
            let input = ingest_input(st, &recs).expect("ingest");
            let blocks_input = st.alloc().in_use();
            form_runs::<Element16>(&c, st, &cfg2, input, 1).expect("form");
            (blocks_input, st.alloc().in_use(), st.alloc().high_water())
        });
        for (input_blocks, in_use, high) in high_waters {
            // Slices hold the same data volume as the input (±1 block
            // per run for partial tails).
            assert!(in_use <= input_blocks + 3, "in-place: {in_use} vs input {input_blocks}");
            // Peak usage stays well below 2× input (read-then-write
            // without recycling would need 2×).
            assert!(
                high <= input_blocks + input_blocks / 2 + 4,
                "high water {high} vs input {input_blocks}"
            );
        }
    }

    #[test]
    fn randomization_mixes_bands_within_runs() {
        // Banded worst case: without randomization, run j holds only
        // band j; with randomization, each run spans many bands.
        let cfg_rand = config(2, true, true);
        let cfg_det = config(2, false, true);
        let bands_of = |per_pe: Vec<Vec<(Vec<Element16>, FinishedRun<Element16>)>>| -> Vec<usize> {
            let num_runs = per_pe[0].len();
            (0..num_runs)
                .map(|j| {
                    let mut bands: Vec<u64> =
                        per_pe.iter().flat_map(|s| s[j].0.iter().map(|e| e.key >> 40)).collect();
                    bands.sort_unstable();
                    bands.dedup();
                    bands.len()
                })
                .collect()
        };
        let spec = InputSpec::Banded { block_elems: 16 };
        let det = bands_of(run_form(spec, &cfg_det, 1024));
        let rand = bands_of(run_form(spec, &cfg_rand, 1024));
        let det_max = det.iter().max().copied().unwrap_or(0);
        let rand_min = rand.iter().min().copied().unwrap_or(0);
        assert!(
            rand_min > det_max,
            "randomized runs must span more bands: det {det:?} vs rand {rand:?}"
        );
    }

    /// Ingest `n` gensort records both ways — decoded through
    /// [`ingest_input`] and streamed from their bytes through
    /// [`ingest_stream`] — on fresh 3-disk storages with 256-byte
    /// blocks (2 records and 56 bytes of padding per block).
    fn ingest_both_ways(n: u64) -> std::result::Result<(), TestCaseError> {
        let storage =
            || PeStorage::with_backend(3, 256, DiskModel::paper(), Arc::new(MemBackend::new(3)));
        let recs: Vec<Record100> =
            (0..n).map(|i| demsort_workloads::gensort_record(5, i)).collect();
        let mut bytes = vec![0u8; recs.len() * Record100::BYTES];
        Record100::encode_slice(&recs, &mut bytes);
        let (decoded, streamed) = (storage(), storage());
        // Recycled pool buffers carry stale bytes: the padding must
        // still come out zero.
        decoded.pool().put(vec![0xAB; 256].into_boxed_slice());
        streamed.pool().put(vec![0xAB; 256].into_boxed_slice());
        let want = ingest_input(&decoded, &recs).expect("ingest_input");
        let got = ingest_stream::<Record100>(&streamed, &mut &bytes[..], n).expect("stream");
        prop_assert_eq!(got.elems, want.elems);
        prop_assert_eq!(&got.run, &want.run, "same block ids, count and byte length");
        for &id in &want.run.blocks {
            let a = decoded.engine().read_sync(id).expect("read decoded");
            let b = streamed.engine().read_sync(id).expect("read streamed");
            prop_assert_eq!(a, b, "block {:?}", id);
        }
        Ok(())
    }

    #[test]
    fn stream_ingest_matches_at_edge_lengths() {
        // Empty shard, exactly one full block, a partial tail block.
        for n in [0, 2, 5] {
            ingest_both_ways(n).expect("streamed ingest equals ingest_input");
        }
    }

    #[test]
    fn stream_ingest_reports_a_short_source() {
        let st = PeStorage::with_backend(2, 256, DiskModel::paper(), Arc::new(MemBackend::new(2)));
        let bytes = vec![7u8; 3 * Record100::BYTES];
        let err = ingest_stream::<Record100>(&st, &mut &bytes[..], 4).expect_err("one short");
        assert!(err.to_string().contains("records 2..4 of 4"), "{err}");
    }

    proptest! {
        /// For any shard length the streamed ingest writes the same
        /// blocks, block count and record count as `ingest_input`.
        #[test]
        fn stream_ingest_matches_ingest_input(n in 0u64..64) {
            ingest_both_ways(n)?;
        }
    }
}
