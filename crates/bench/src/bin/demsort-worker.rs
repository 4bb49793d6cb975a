//! `demsort-worker` — one rank of a multi-process demsort cluster.
//!
//! ```text
//! demsort-worker --coordinator HOST:PORT
//! demsort-worker --hostfile FILE --rank R --input IN --output OUT
//!                [--mem-mib M] [--block-kib K] [--disks D]
//!                [--cores C] [--seed S] [--comm-timeout MS]
//!                [--algo canonical|striped] [--replication F]
//!                [--trace DIR] [--scratch DIR]
//! ```
//!
//! In **coordinator mode** the worker dials `demsort-launch`'s
//! rendezvous port, reports its mesh listener, and receives its rank,
//! the cluster address table, and the job config over the wire.
//!
//! In **hostfile mode** (multi-host, no coordinator) the worker binds
//! the address at line `R` of the host file, meshes with the other
//! listed ranks, and takes the job config from flags — every rank must
//! be started with identical flags. Its scratch files go in
//! `<--scratch DIR>/rank<R>/` (default: the output file's directory),
//! which the worker removes when it exits; a killed worker leaves it
//! behind.
//!
//! On exit the worker prints its peak RSS (`VmHWM`) on stderr as
//! `rank R: peak RSS X MiB`.
//!
//! `--comm-timeout MS` (legacy alias `--timeout-ms`) bounds how long a
//! rank waits on a silent peer before declaring the job dead; a worker
//! whose sort fails exits non-zero after reporting a structured failure
//! to its coordinator (fallible collectives — no `catch_unwind`).

use demsort_bench::procs::{print_peak_rss, run_rank, run_worker};
use demsort_net::tcp::parse_hostfile;
use demsort_types::{AlgoConfig, JobConfig, MachineConfig, SortAlgo, Tracer};
use std::net::TcpListener;

fn main() {
    let mut coordinator: Option<String> = None;
    let mut hostfile: Option<String> = None;
    let mut rank: Option<usize> = None;
    let mut input: Option<String> = None;
    let mut output: Option<String> = None;
    let mut mem_mib = 8usize;
    let mut block_kib = 64usize;
    let mut disks = 4usize;
    let mut cores = 1usize;
    let mut seed: Option<u64> = None;
    let mut timeout_ms = 30_000u64;
    let mut algorithm = SortAlgo::Canonical;
    let mut replication = 0usize;
    let mut trace_dir: Option<String> = None;
    let mut scratch_dir = String::new();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut next = |flag: &str| args.next().unwrap_or_else(|| die(&format!("{flag} VALUE")));
        match a.as_str() {
            "--coordinator" => coordinator = Some(next("--coordinator")),
            "--hostfile" => hostfile = Some(next("--hostfile")),
            "--rank" => rank = Some(parse(&next("--rank"), "rank")),
            "--input" => input = Some(next("--input")),
            "--output" => output = Some(next("--output")),
            "--mem-mib" => mem_mib = parse(&next("--mem-mib"), "mem-mib"),
            "--block-kib" => block_kib = parse(&next("--block-kib"), "block-kib"),
            "--disks" => disks = parse(&next("--disks"), "disks"),
            "--cores" => cores = parse(&next("--cores"), "cores"),
            "--seed" => seed = Some(parse(&next("--seed"), "seed")),
            "--comm-timeout" | "--timeout-ms" => timeout_ms = parse(&next(&a), "comm-timeout"),
            "--algo" => {
                algorithm = SortAlgo::parse(&next("--algo")).unwrap_or_else(|e| die(&e.to_string()))
            }
            "--replication" => replication = parse(&next("--replication"), "replication"),
            "--trace" => trace_dir = Some(next("--trace")),
            "--scratch" => scratch_dir = next("--scratch"),
            "--help" | "-h" => {
                println!(
                    "demsort-worker --coordinator HOST:PORT\n\
                     demsort-worker --hostfile FILE --rank R --input IN --output OUT\n\
                     \x20              [--mem-mib M] [--block-kib K] [--disks D]\n\
                     \x20              [--cores C] [--seed S] [--comm-timeout MS]\n\
                     \x20              [--algo canonical|striped] [--replication F]\n\
                     \x20              [--trace DIR] [--scratch DIR]"
                );
                return;
            }
            other => die(&format!("unknown argument {other}")),
        }
    }

    let result = match (coordinator, hostfile) {
        (Some(coord), None) => run_worker(&coord),
        (None, Some(path)) => {
            let rank = rank.unwrap_or_else(|| die("--hostfile requires --rank"));
            let input = input.unwrap_or_else(|| die("--hostfile requires --input"));
            let output = output.unwrap_or_else(|| die("--hostfile requires --output"));
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| die(&format!("read {path}: {e}")));
            let addrs = parse_hostfile(&text).unwrap_or_else(|e| die(&e.to_string()));
            if rank >= addrs.len() {
                die(&format!("--rank {rank} out of range: {path} lists {} hosts", addrs.len()));
            }
            let listener = TcpListener::bind(addrs[rank])
                .unwrap_or_else(|e| die(&format!("bind {}: {e}", addrs[rank])));
            let mut algo = AlgoConfig::default();
            if let Some(s) = seed {
                algo.seed = s;
            }
            algo.replication = replication;
            let job = JobConfig {
                input,
                output,
                machine: MachineConfig {
                    pes: addrs.len(),
                    disks_per_pe: disks,
                    block_bytes: block_kib << 10,
                    mem_bytes_per_pe: mem_mib << 20,
                    cores_per_pe: cores,
                },
                algo,
                algorithm,
                read_timeout_ms: timeout_ms,
                trace_dir: trace_dir.unwrap_or_default(),
                scratch_dir,
            };
            // No coordinator to stream progress to in hostfile mode —
            // journals only.
            let tracer = if job.trace_dir.is_empty() {
                Tracer::off()
            } else {
                let dir = std::path::PathBuf::from(&job.trace_dir);
                std::fs::create_dir_all(&dir)
                    .unwrap_or_else(|e| die(&format!("create trace dir {}: {e}", job.trace_dir)));
                Tracer::to_path(rank, &dir.join(format!("rank{rank}.jsonl")))
                    .unwrap_or_else(|e| die(&e.to_string()))
            };
            let result = run_rank(rank, &addrs, listener, &job, tracer);
            print_peak_rss(rank);
            result
        }
        _ => die("exactly one of --coordinator or --hostfile is required (see --help)"),
    };

    match result {
        Ok(rep) => {
            eprintln!(
                "rank {}: {} records in this rank's output, {} runs",
                rep.rank, rep.elems, rep.runs
            );
        }
        Err(e) => {
            eprintln!("demsort-worker: {e}");
            std::process::exit(1);
        }
    }
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> T {
    demsort_bench::procs::cli_parse("demsort-worker", s, what)
}

fn die(msg: &str) -> ! {
    demsort_bench::procs::cli_die("demsort-worker", msg)
}
