//! Distributed internal-memory parallel mergesort (Section IV-B).
//!
//! "Each node sorts its local data. Then, the internal memory variant
//! of the multiway selection algorithm is used to split the `P` sorted
//! sequences into `P` pieces of equal size. An all-to-all communication
//! is used to move the pieces to the right PE. Note that in the best
//! case, this is the only time when the data is actually communicated."
//!
//! Steps on each PE:
//!
//! 1. sort local data with the in-node parallel sort
//!    ([`crate::seqsort`], the MCSTL stand-in);
//! 2. exact splitters via distributed multiway selection
//!    ([`crate::distselect`]);
//! 3. `alltoallv` the pieces (through the chunked variant that lifts
//!    MPI's 2 GiB limit, Section V);
//! 4. `P`-way merge of the received sorted pieces.
//!
//! The exchange copies each record once, when it is encoded into its
//! outgoing message. The all-to-all hands the message buffers through
//! (see [`chunked_alltoallv`]), and the merge reads the received bytes
//! in place through [`Record::view_slice`]. No per-piece decode or
//! fresh allocation is needed where the record layout allows it.
//!
//! The output is *canonical*: PE `i` ends up with the elements of
//! global ranks `⌊i·N/P⌋ .. ⌊(i+1)·N/P⌋`.

use crate::distselect::dist_split;
use crate::merge::{merge_cpu, par_merge_k_into};
use crate::seqsort::sort_in_node;
use demsort_net::{chunked_alltoallv, Communicator, MPI_VOLUME_LIMIT};
use demsort_types::{CpuCounters, Record, Result};
use std::borrow::Cow;

/// Sort `data` across all PEs of `comm`; returns this PE's canonical
/// slice of the global sorted order plus CPU counters.
///
/// Every PE must call this collectively. Local input sizes may differ;
/// output sizes differ by at most one element.
///
/// # Errors
/// [`Error::Comm`](demsort_types::Error) if a peer dies during the
/// splitter selection or the all-to-all exchange.
pub fn parallel_sort<R: Record + Ord>(
    comm: &Communicator,
    mut data: Vec<R>,
    cores: usize,
) -> Result<(Vec<R>, CpuCounters)> {
    let cpu = sort_in_node(&mut data, cores);
    parallel_sort_presorted(comm, data, cores, cpu)
}

/// [`parallel_sort`] for data that is already locally sorted (used by
/// the single-run sort-on-arrival optimization of Section IV-E, where
/// blocks are sorted as they arrive from disk and merged afterwards).
///
/// `cpu` carries the counters of however the local sort was achieved;
/// the splitter/exchange/merge counters are added to it. The final
/// P-way merge of the received pieces runs on up to `cores` threads.
///
/// # Errors
/// See [`parallel_sort`].
pub fn parallel_sort_presorted<R: Record + Ord>(
    comm: &Communicator,
    data: Vec<R>,
    cores: usize,
    mut cpu: CpuCounters,
) -> Result<(Vec<R>, CpuCounters)> {
    debug_assert!(data.windows(2).all(|w| w[0] <= w[1]), "input must be locally sorted");
    if comm.size() == 1 {
        return Ok((data, cpu));
    }

    // Exact equal-size splitters over the P distributed sorted runs.
    let cuts = dist_split(comm, &data, comm.size())?;

    // Exchange the pieces: piece p of every PE goes to PE p.
    let msgs: Vec<Vec<u8>> = cuts
        .windows(2)
        .map(|w| {
            let piece = &data[w[0]..w[1]];
            let mut buf = vec![0u8; piece.len() * R::BYTES];
            R::encode_slice(piece, &mut buf);
            buf
        })
        .collect();
    let received = chunked_alltoallv(comm, msgs, MPI_VOLUME_LIMIT)?;
    drop(data);

    // Merge the P sorted pieces straight out of the received buffers
    // (they arrive indexed by source rank, which is exactly the
    // canonical (key, pe) tie-break order).
    let pieces: Vec<Cow<'_, [R]>> = received.iter().map(|buf| R::view_slice(buf)).collect();
    let views: Vec<&[R]> = pieces.iter().map(|p| p.as_ref()).collect();
    let total: usize = views.iter().map(|v| v.len()).sum();
    let mut out = Vec::with_capacity(total);
    let pm = par_merge_k_into(&views, cores, &mut out);

    cpu = cpu.merge(&merge_cpu(out.len() as u64, comm.size()));
    cpu.split_probes += pm.split_probes;
    Ok((out, cpu))
}

#[cfg(test)]
mod tests {
    use super::*;
    use demsort_net::run_cluster;
    use demsort_types::{Element16, Record100};
    use demsort_workloads::{
        checksum_elements, checksum_records, generate_all, generate_pe_input, gensort_records,
        InputSpec,
    };

    /// Run a parallel sort and verify the three output properties:
    /// locally sorted, globally ordered across PEs, and a permutation
    /// of the input.
    fn check_psort(spec: InputSpec, p: usize, local_n: usize) {
        let outputs = run_cluster(p, move |c| {
            let data = generate_pe_input(spec, 99, c.rank(), p, local_n);
            let (out, _) = parallel_sort(&c, data, 2).expect("sort");
            out
        });

        let mut reference = generate_all(spec, 99, p, local_n);
        reference.sort_unstable();

        // Balanced canonical sizes.
        let n = (p * local_n) as u64;
        for (pe, out) in outputs.iter().enumerate() {
            let expect = demsort_types::ranks::owned_len(pe, p, n);
            assert_eq!(out.len() as u64, expect, "PE {pe} size");
        }
        // Concatenation equals the sequential reference sort.
        let concat: Vec<Element16> = outputs.concat();
        assert_eq!(concat, reference, "global order ({spec:?}, P={p})");
        assert_eq!(
            checksum_elements(&concat),
            checksum_elements(&generate_all(spec, 99, p, local_n)),
            "permutation"
        );
    }

    #[test]
    fn sorts_uniform_inputs() {
        for p in [1, 2, 3, 4, 8] {
            check_psort(InputSpec::Uniform, p, 500);
        }
    }

    #[test]
    fn sorts_record100_through_in_place_views() {
        // The SortBenchmark record takes the borrowed `view_slice` path
        // on every target; Element16 above takes it when aligned.
        let local_n = 400;
        for p in [1, 2, 3] {
            let outputs = run_cluster(p, move |c| {
                let data = gensort_records(7, (c.rank() * local_n) as u64, local_n);
                parallel_sort(&c, data, 2).expect("sort").0
            });
            let input = gensort_records(7, 0, p * local_n);
            let mut reference = input.clone();
            reference.sort_unstable();
            for (pe, out) in outputs.iter().enumerate() {
                let expect = demsort_types::ranks::owned_len(pe, p, (p * local_n) as u64);
                assert_eq!(out.len() as u64, expect, "PE {pe} size (P={p})");
            }
            let concat: Vec<Record100> = outputs.concat();
            assert!(concat == reference, "global order (P={p})");
            assert_eq!(checksum_records(&concat), checksum_records(&input), "permutation");
        }
    }

    #[test]
    fn sorts_adversarial_inputs() {
        check_psort(InputSpec::Sorted, 4, 300);
        check_psort(InputSpec::ReverseSorted, 4, 300);
        check_psort(InputSpec::SkewedToOne, 4, 300);
        check_psort(InputSpec::Constant, 4, 300);
        check_psort(InputSpec::Banded { block_elems: 50 }, 4, 300);
    }

    #[test]
    fn tiny_inputs_and_more_pes_than_elements() {
        check_psort(InputSpec::Uniform, 4, 1);
        check_psort(InputSpec::Uniform, 3, 0);
        check_psort(InputSpec::Uniform, 2, 2);
    }

    #[test]
    fn communication_is_single_pass_for_presorted() {
        // A globally sorted input needs *zero* data movement: every
        // piece stays home. ("in the best case, this is the only time
        // when the data is actually communicated" — and for sorted
        // input even that is a self-message.)
        let p = 4;
        let sent_at = |local_n: usize| {
            let counters = run_cluster(p, move |c| {
                let data = generate_pe_input(InputSpec::Sorted, 1, c.rank(), p, local_n);
                let before = c.counters();
                let _ = parallel_sort(&c, data, 1).expect("sort");
                c.counters().delta_since(&before)
            });
            counters.iter().map(|c| c.bytes_sent).max().expect("nonempty")
        };
        // Only selection control traffic (O(P log N) tiny messages), no
        // bulk data: far below the 16 KiB of local payload, and growing
        // only logarithmically when the input grows 8-fold.
        let small = sent_at(1000);
        let big = sent_at(8000);
        assert!(small < 16_000, "control traffic too large: {small} bytes");
        assert!(
            (big as f64) < (small as f64) * 1.5,
            "control traffic must not scale with N: {small} -> {big}"
        );
    }

    #[test]
    fn uniform_input_communicates_about_once() {
        // Random input: ~ (P-1)/P of the data crosses the network once.
        let p = 4;
        let local_n = 2000usize;
        let counters = run_cluster(p, move |c| {
            let data = generate_pe_input(InputSpec::Uniform, 5, c.rank(), p, local_n);
            let before = c.counters();
            let _ = parallel_sort(&c, data, 1).expect("sort");
            c.counters().delta_since(&before)
        });
        let total_sent: u64 = counters.iter().map(|c| c.bytes_sent).sum();
        let n_bytes = (p * local_n * 16) as u64;
        let ratio = total_sent as f64 / n_bytes as f64;
        assert!(
            (0.5..=1.1).contains(&ratio),
            "expected ~0.75 N communicated, got ratio {ratio:.2}"
        );
    }
}
