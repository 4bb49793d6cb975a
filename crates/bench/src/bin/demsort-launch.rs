//! `demsort-launch` — spawn a local multi-process demsort cluster and
//! sort a file (the suite's `mpirun`).
//!
//! ```text
//! demsort-launch [--algo canonical|striped] [--ranks P] [--mem-mib M]
//!                [--block-kib K] [--disks D] [--seed S] [--comm-timeout MS]
//!                [--cores C] [--replication F] [--pool-blocks N]
//!                [--worker-bin PATH] [--trace DIR] [--scratch DIR]
//!                INPUT OUTPUT
//! ```
//!
//! `--algo` selects the paper's algorithm: `canonical`
//! (CANONICALMERGESORT, Section IV — the ranks' outputs concatenate
//! into OUTPUT) or `striped` (mergesort with global striping, Section
//! III — the globally striped blocks interleave into OUTPUT). Any other
//! `-`-prefixed argument is rejected by name.
//!
//! Spawns `P` `demsort-worker` processes, rendezvouses them over a
//! loopback coordinator port, distributes the job, and aggregates the
//! per-rank reports. The workers run the identical SPMD code path as
//! the in-process reference cluster (`sort_cluster`,
//! `striped_sort_cluster`) — same algorithms, same counters, same
//! output bytes.
//!
//! Each rank keeps its runs in files under a per-job directory the
//! launcher makes in `--scratch DIR` (default: OUTPUT's directory, which
//! then needs room for about the input's size) and removes after every
//! outcome. Each worker prints its peak RSS as `rank K: peak RSS X MiB`.
//! After the `done:` summary the launcher prints the job's wall time,
//! from spawning the workers to their last report, as
//! `wall X.XX s, Y records/s`.
//!
//! On failure the exit code is non-zero and the error names the failed
//! rank(s): a rank that died without reporting (crash, SIGKILL) leads
//! the message, followed by surviving ranks' structured comm failures.

use demsort_bench::procs::{launch, TcpJobCli};

fn main() {
    const BIN: &str = "demsort-launch";
    let mut cli = TcpJobCli::default();
    let mut positional: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if cli.try_flag(BIN, &a, &mut args) {
            continue;
        }
        match a.as_str() {
            "--help" | "-h" => {
                println!("demsort-launch [flags] INPUT OUTPUT\n{}", TcpJobCli::FLAG_HELP);
                return;
            }
            other if other.starts_with('-') => die(&format!("unknown flag {other} (see --help)")),
            other => positional.push(other.to_string()),
        }
    }
    let [input, output] = positional.as_slice() else {
        die("usage: demsort-launch [flags] INPUT OUTPUT (see --help)");
    };

    let job = cli.job(input, output);
    let worker = cli.worker(BIN);
    eprintln!(
        "launching {} worker processes ({} each) via {}",
        job.machine.pes,
        demsort_types::fmtsize::fmt_bytes(job.machine.mem_bytes_per_pe as u64),
        worker.display()
    );
    let started = std::time::Instant::now();
    match launch(&job, &worker) {
        Ok(outcome) => {
            let wall = started.elapsed().as_secs_f64();
            for rep in &outcome.per_rank {
                eprintln!("  rank {}: {} records, {} runs", rep.rank, rep.elems, rep.runs);
            }
            eprintln!(
                "done: {} records on {} ranks, {} runs, I/O volume {:.2} N, \
                 communication {:.2} N",
                outcome.report.elements,
                job.machine.pes,
                outcome.report.runs,
                outcome.report.io_volume_over_n(),
                outcome.report.comm_volume_over_n(),
            );
            eprintln!(
                "wall {wall:.2} s, {:.0} records/s",
                outcome.report.elements as f64 / wall.max(f64::MIN_POSITIVE)
            );
        }
        Err(e) => {
            eprintln!("{BIN}: {e}");
            std::process::exit(1);
        }
    }
}

fn die(msg: &str) -> ! {
    demsort_bench::procs::cli_die("demsort-launch", msg)
}
