//! `demsort-seamtrace` — the traced run of the perfbench benchmark.
//!
//! ```text
//! demsort-seamtrace [demsort-launch job flags] INPUT OUTPUT
//! ```
//!
//! Runs the same job `demsort-launch` would run with the same flags
//! (the flags are parsed by the launcher's own `TcpJobCli`, so every
//! unpinned default is the launcher's), but hosts the ranks as threads
//! of this process so that each layer seam can be wrapped from outside
//! the program: the ranks still mesh over loopback TCP, store run data
//! through the storage engine, and write the shared output file. Prints
//! one JSON object of per-layer metrics on stdout; the metric names are
//! documented in `perfbench/README.md`.

mod rank;
mod seams;

use demsort_bench::procs::{cli_die, TcpJobCli};
use demsort_core::ctx::assemble_report;
use demsort_net::tcp::bind_loopback;
use demsort_types::{Phase, PhaseStats, PoolCounters, Record as _, Record100, SortConfig};
use rank::{RankOut, Sorted, Span};
use seams::SeamStats;
use std::fmt::Write as _;

const BIN: &str = "demsort-seamtrace";

fn main() {
    let mut cli = TcpJobCli::default();
    let mut positional = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if !cli.try_flag(BIN, &a, &mut args) {
            positional.push(a);
        }
    }
    let [input, output] = positional.as_slice() else {
        cli_die(BIN, "usage: demsort-seamtrace [flags] INPUT OUTPUT");
    };
    let job = cli.job(input, output);
    if let Err(e) = job.validate() {
        cli_die(BIN, &e.to_string());
    }
    let total_records = match std::fs::metadata(input) {
        Ok(m) if m.len() % Record100::BYTES as u64 == 0 => m.len() / Record100::BYTES as u64,
        Ok(_) => cli_die(BIN, &format!("{input} is not whole 100-byte records")),
        Err(e) => cli_die(BIN, &format!("stat {input}: {e}")),
    };
    // Size the shared output once up front, as the launcher does.
    let sized = std::fs::File::create(output)
        .and_then(|f| f.set_len(total_records * Record100::BYTES as u64));
    if let Err(e) = sized {
        cli_die(BIN, &format!("create {output}: {e}"));
    }

    let p = job.machine.pes;
    let mut listeners = Vec::with_capacity(p);
    let mut addrs = Vec::with_capacity(p);
    for _ in 0..p {
        let (l, a) = bind_loopback().unwrap_or_else(|e| cli_die(BIN, &e.to_string()));
        listeners.push(l);
        addrs.push(a);
    }
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(r, l)| {
                let (addrs, job) = (&addrs, &job);
                s.spawn(move || rank::run(r, addrs, l, job))
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut ranks = Vec::with_capacity(p);
    for (r, res) in results.into_iter().enumerate() {
        match res {
            Ok(Ok(out)) => ranks.push(out),
            Ok(Err(e)) => cli_die(BIN, &format!("rank {r}: {e}")),
            Err(_) => cli_die(BIN, &format!("rank {r} panicked")),
        }
    }

    let cfg = SortConfig::new(job.machine.clone(), job.algo.clone())
        .unwrap_or_else(|e| cli_die(BIN, &e.to_string()));
    println!("{}", summarize(&cfg, &ranks));
}

/// Sum `f` over every rank's phase counters.
fn total(ranks: &[RankOut], f: impl Fn(&PhaseStats) -> u64) -> u64 {
    ranks.iter().flat_map(|r| &r.sorted.report.phases).map(|(_, s)| f(s)).sum()
}

/// Largest value of `f` over ranks.
fn max_of(ranks: &[RankOut], f: impl Fn(&Sorted) -> f64) -> f64 {
    ranks.iter().map(|r| f(&r.sorted)).fold(0.0, f64::max)
}

/// The benchmark's own span of canonical phase `phase`.
fn own_span(s: &Sorted, phase: Phase) -> Span {
    s.phases.iter().find(|(p, _)| *p == phase).map_or(Span::default(), |&(_, span)| span)
}

/// The program's per-phase host wall time of `phase`, in seconds.
fn host_wall(s: &Sorted, phase: Phase) -> f64 {
    s.report
        .phases
        .iter()
        .filter(|(p, _)| *p == phase)
        .map(|(_, st)| st.cpu.host_wall_ns)
        .sum::<u64>() as f64
        * 1e-9
}

/// The per-layer ledger as one JSON object: seam counters and seam
/// times are summed over ranks; phase spans take the slowest rank.
fn summarize(cfg: &SortConfig, ranks: &[RankOut]) -> String {
    let elements: u64 = ranks.iter().map(|r| r.sorted.report.elems).sum();
    let runs = ranks.first().map_or(0, |r| r.sorted.report.runs);
    let report = assemble_report(
        cfg,
        elements,
        Record100::BYTES,
        runs,
        ranks.iter().map(|r| r.sorted.report.phases.clone()).collect(),
    );
    let canonical = ranks.iter().any(|r| !r.sorted.phases.is_empty());
    let seam = |f: &dyn Fn(&SeamStats) -> f64| -> f64 { ranks.iter().map(|r| f(&r.seams)).sum() };
    let pool = ranks.iter().fold(PoolCounters::default(), |acc, r| acc.merge(&r.pool));
    let input_bytes = (elements * Record100::BYTES as u64).max(1) as f64;
    let sorts: Vec<f64> = ranks.iter().map(|r| r.sorted.sort.secs).collect();
    let skew = sorts.iter().copied().fold(0.0, f64::max)
        - sorts.iter().copied().fold(f64::INFINITY, f64::min);
    // Canonical phases are timed by the benchmark; striped is one call,
    // so its phases come from the program's own per-phase counters.
    let canon = |phase: Phase| max_of(ranks, |s| own_span(s, phase).secs);
    let canon_self = |phase: Phase| max_of(ranks, |s| own_span(s, phase).self_secs);
    let striped = |f: &dyn Fn(&Sorted) -> f64| if canonical { 0.0 } else { max_of(ranks, f) };
    let runform_s = if canonical {
        canon(Phase::RunFormation)
    } else {
        max_of(ranks, |s| host_wall(s, Phase::RunFormation))
    };

    let metrics: Vec<(&str, f64)> = vec![
        ("net.transport.messages", seam(&|s| s.send.count() as f64)),
        ("net.transport.bytes_sent", seam(&|s| s.send.units() as f64)),
        ("net.transport.send_s", seam(&|s| s.send.secs())),
        ("net.transport.recv_wait_s", seam(&|s| s.recv.secs())),
        ("core.ctx.fetch_blocks", seam(&|s| s.fetch.count() as f64)),
        ("core.ctx.fetch_wait_s", seam(&|s| s.fetch.secs())),
        ("core.ctx.store_blocks", seam(&|s| s.store.count() as f64)),
        ("core.ctx.store_wait_s", seam(&|s| s.store.secs())),
        ("core.ctx.failed_ops", seam(&|s| s.failed_ops() as f64)),
        ("storage.backend.read_blocks", seam(&|s| s.backend_read.count() as f64)),
        ("storage.backend.read_s", seam(&|s| s.backend_read.secs())),
        ("storage.backend.write_blocks", seam(&|s| s.backend_write.count() as f64)),
        ("storage.backend.write_s", seam(&|s| s.backend_write.secs())),
        ("storage.engine.bytes_read", total(ranks, |s| s.io.bytes_read) as f64),
        ("storage.engine.bytes_written", total(ranks, |s| s.io.bytes_written) as f64),
        (
            "storage.engine.modeled_disk_busy_s",
            max_of(ranks, |s| {
                s.report.phases.iter().map(|(_, st)| st.io.max_disk_busy_ns).sum::<u64>() as f64
                    * 1e-9
            }),
        ),
        ("types.buf.hit_ratio", pool.hits as f64 / (pool.hits + pool.misses).max(1) as f64),
        ("types.buf.copied_per_byte", pool.copied_bytes as f64 / input_bytes),
        ("core.runform.s", runform_s),
        ("core.runform.self_s", canon_self(Phase::RunFormation)),
        ("core.seqsort.sort_work", total(ranks, |s| s.cpu.sort_work) as f64),
        ("core.extselect.s", canon(Phase::MultiwaySelection)),
        ("core.extselect.self_s", canon_self(Phase::MultiwaySelection)),
        ("core.extselect.probes", ranks.iter().map(|r| r.sorted.probes).sum::<u64>() as f64),
        ("core.alltoall.s", canon(Phase::AllToAll)),
        ("core.alltoall.self_s", canon_self(Phase::AllToAll)),
        ("core.localmerge.s", canon(Phase::FinalMerge)),
        ("core.localmerge.self_s", canon_self(Phase::FinalMerge)),
        ("core.striped.run_formation_s", striped(&|s| host_wall(s, Phase::RunFormation))),
        ("core.striped.final_merge_s", striped(&|s| host_wall(s, Phase::FinalMerge))),
        ("core.striped.self_s", striped(&|s| s.sort.self_secs)),
        ("core.merge.merge_work", total(ranks, |s| s.cpu.merge_work) as f64),
        ("core.merge.split_probes", total(ranks, |s| s.cpu.split_probes) as f64),
        ("procs.rank_skew_s", skew),
    ];

    let mut out = format!(
        "{{\"elements\": {elements}, \"runs\": {runs}, \"ranks\": {}, \
         \"io_volume_n\": \"{:.2}\", \"comm_volume_n\": \"{:.2}\", \
         \"final_merge_work\": {}, \"metrics\": {{",
        ranks.len(),
        report.io_volume_over_n(),
        report.comm_volume_over_n(),
        report.phase_total(Phase::FinalMerge, |s| s.cpu.merge_work),
    );
    for (i, (name, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {v}");
    }
    out.push_str("}}");
    out
}
