//! `sortfile` — externally sort a file of SortBenchmark records.
//!
//! ```text
//! sortfile [--transport local|tcp] [--algo canonical|striped]
//!          [--pes P] [--mem-mib M] [--block-kib K] [--disks D]
//!          [--seed S] [--comm-timeout MS] [--cores C]
//!          [--worker-bin PATH] [--scratch DIR] INPUT OUTPUT
//! ```
//!
//! The file is split evenly over `P` PEs and sorted; OUTPUT is
//! globally sorted either way. `--mem-mib` bounds each PE's sort
//! memory. With `--transport tcp` (and in `demsort-launch`) every rank
//! keeps its runs in files under `--scratch DIR` (default: OUTPUT's
//! directory), so files much larger than `P × M` are sorted genuinely
//! externally. `--transport local` keeps every PE's blocks in RAM: it
//! is the in-process cluster for experiments, not a RAM-bounded
//! sorter, and it ignores `--scratch`.
//!
//! `--algo` selects the paper's algorithm: `canonical`
//! (CANONICALMERGESORT, Section IV — per-PE outputs concatenate into
//! OUTPUT) or `striped` (mergesort with global striping, Section III —
//! the globally striped blocks interleave into OUTPUT).
//!
//! `--transport` selects the cluster substrate:
//!
//! * `local` (default) — the in-process cluster: one thread per PE
//!   over the channel mesh.
//! * `tcp` — the multi-process cluster: one `demsort-worker` process
//!   per rank over the loopback TCP mesh (`--ranks` is an alias for
//!   `--pes` in this mode). Identical SPMD code path, identical
//!   counters, real process isolation. The job-building flags are the
//!   same as `demsort-launch`'s (shared via `demsort_bench::procs`).

use demsort_bench::procs::{launch_and_report, TcpJobCli};
use demsort_core::canonical::sort_cluster;
use demsort_core::recio::read_record_blocks;
use demsort_core::striped::{read_striped_blocks, striped_sort_cluster};
use demsort_types::{Error, Record as _, Record100, SortAlgo, SortConfig};
use std::io::{Read, Seek, SeekFrom, Write};

fn main() {
    const BIN: &str = "sortfile";
    let mut cli = TcpJobCli::default();
    let mut transport = "local".to_string();
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if cli.try_flag(BIN, &a, &mut args) {
            continue;
        }
        match a.as_str() {
            "--transport" => {
                transport = args.next().unwrap_or_else(|| die("--transport local|tcp"))
            }
            "--help" | "-h" => {
                println!(
                    "sortfile [--transport local|tcp] [flags] INPUT OUTPUT\n{}",
                    TcpJobCli::FLAG_HELP
                );
                return;
            }
            other => positional.push(other.to_string()),
        }
    }
    let [input, output] = positional.as_slice() else {
        die("usage: sortfile [--transport local|tcp] [flags] INPUT OUTPUT (see --help)");
    };

    match transport.as_str() {
        "local" => {
            // The same job config the TCP path would ship, validated the
            // same way (bad --pool-blocks etc. die with the config error).
            let job = cli.job(input, output);
            let cfg =
                SortConfig::new(job.machine, job.algo).unwrap_or_else(|e| die(&e.to_string()));
            match cli.algorithm {
                SortAlgo::Canonical => sort_local(cfg, input, output),
                SortAlgo::Striped => sort_local_striped(cfg, input, output),
            }
        }
        "tcp" => {
            let job = cli.job(input, output);
            let worker = cli.worker(BIN);
            launch_and_report(BIN, &job, &worker)
        }
        other => die(&format!("unknown transport {other} (expected local or tcp)")),
    }
}

/// Validate the input file and split it into per-PE shard loaders (the
/// same `⌊i·n/p⌋` boundaries the TCP workers use).
fn shard_loader(input: &str) -> (usize, impl Fn(usize, usize) -> Vec<Record100> + Send + Sync) {
    let meta = std::fs::metadata(input).unwrap_or_else(|e| die(&format!("stat {input}: {e}")));
    if !meta.len().is_multiple_of(Record100::BYTES as u64) {
        die(&format!("input {input} must be whole 100-byte records"));
    }
    let total_records = (meta.len() / Record100::BYTES as u64) as usize;
    let input_path = input.to_string();
    let load = move |pe: usize, p: usize| {
        let shard = demsort_types::ranks::owned_range(pe, p, total_records as u64);
        let mut f = std::fs::File::open(&input_path).expect("open input");
        f.seek(SeekFrom::Start(shard.start * Record100::BYTES as u64)).expect("seek");
        let mut bytes = vec![0u8; (shard.end - shard.start) as usize * Record100::BYTES];
        f.read_exact(&mut bytes).expect("read shard");
        let mut recs = Vec::with_capacity((shard.end - shard.start) as usize);
        Record100::decode_slice(&bytes, &mut recs);
        recs
    };
    (total_records, load)
}

/// The in-process cluster: one thread per PE over the channel mesh.
fn sort_local(cfg: SortConfig, input: &str, output: &str) {
    let (total_records, load) = shard_loader(input);
    let pes = cfg.machine.pes;
    eprintln!(
        "sorting {total_records} records on {pes} in-process PEs ({} each)",
        demsort_types::fmtsize::fmt_bytes(cfg.machine.mem_bytes_per_pe as u64)
    );
    let outcome = sort_cluster::<Record100, _>(&cfg, load).unwrap_or_else(|e| {
        eprintln!("sortfile: {e}");
        std::process::exit(1);
    });

    // Concatenate the canonical outputs, block by block: globally
    // sorted by key.
    let out =
        std::fs::File::create(output).unwrap_or_else(|e| die(&format!("create {output}: {e}")));
    let mut out = std::io::BufWriter::new(out);
    for (pe, o) in outcome.per_pe.iter().enumerate() {
        let st = outcome.storage.pe(pe);
        read_record_blocks::<Record100>(st, &o.output.run, o.output.elems, |b| {
            out.write_all(b).map_err(|e| Error::io(format!("write {output}: {e}")))
        })
        .unwrap_or_else(|e| die(&e.to_string()));
    }
    out.flush().expect("flush");
    eprintln!(
        "done: {} runs, I/O volume {:.2} N, communication {:.2} N",
        outcome.per_pe[0].runs,
        outcome.report.io_volume_over_n(),
        outcome.report.comm_volume_over_n(),
    );
}

/// The in-process striped sort (Section III): globally striped output
/// read back through the cluster block service in block order.
fn sort_local_striped(cfg: SortConfig, input: &str, output: &str) {
    let (total_records, load) = shard_loader(input);
    let pes = cfg.machine.pes;
    eprintln!(
        "striped-sorting {total_records} records on {pes} in-process PEs ({} each)",
        demsort_types::fmtsize::fmt_bytes(cfg.machine.mem_bytes_per_pe as u64)
    );
    let outcome = striped_sort_cluster::<Record100, _>(&cfg, load, None).unwrap_or_else(|e| {
        eprintln!("sortfile: {e}");
        std::process::exit(1);
    });

    // Stream the globally striped output through the core block
    // reader: global block order, bounded read-ahead window, so memory
    // stays O(window · B) — not O(N) — while the async engine overlaps
    // reads across every PE's disks (blocks hold raw encoded records,
    // so bytes go straight to the file).
    let run = &outcome.per_pe[0].output;
    let out =
        std::fs::File::create(output).unwrap_or_else(|e| die(&format!("create {output}: {e}")));
    let mut out = std::io::BufWriter::new(out);
    read_striped_blocks(&outcome.storage, run, Record100::BYTES, |bytes| {
        out.write_all(bytes).map_err(|e| Error::io(format!("write {output}: {e}")))
    })
    .unwrap_or_else(|e| die(&e.to_string()));
    out.flush().expect("flush");
    eprintln!(
        "done: {} runs, {} merge passes, I/O volume {:.2} N, communication {:.2} N",
        outcome.per_pe[0].runs,
        outcome.per_pe[0].passes,
        outcome.report.io_volume_over_n(),
        outcome.report.comm_volume_over_n(),
    );
}

fn die(msg: &str) -> ! {
    demsort_bench::procs::cli_die("sortfile", msg)
}
