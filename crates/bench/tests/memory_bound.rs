//! The memory bound of the multi-process sort, pinned on the real
//! binaries: `demsort-launch` sorts 80 MB of gensort records on two
//! workers with 4 MiB of sort memory each, and every worker's own peak
//! RSS (its `rank K: peak RSS X MiB` exit line, read from `VmHWM`)
//! must stay under [`RSS_BOUND_MIB`], for both algorithms. A worker
//! that held its shard in RAM would need more than its 40 MB shard.
//!
//! The run also pins the scratch contract: the job's scratch files go
//! under `--scratch DIR` and the directory is empty again afterwards.

use demsort_core::validate::hash_record;
use demsort_types::{Record as _, Record100};
use demsort_workloads::gensort_records;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::Command;

const RECORDS: usize = 800_000;
/// 4 MiB of sort memory, the block-buffer pool, the transport's
/// buffers, thread stacks and the binary itself fit with room to spare.
const RSS_BOUND_MIB: f64 = 48.0;

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("demsort-memory-bound-{}-{name}", std::process::id()))
}

/// Count and order-independent hash sum of a record file, checking
/// that it is sorted when `sorted` is set.
fn fingerprint(path: &Path, sorted: bool) -> (usize, u64) {
    let bytes = std::fs::read(path).expect("read records");
    assert_eq!(bytes.len() % Record100::BYTES, 0);
    let mut recs = Vec::with_capacity(bytes.len() / Record100::BYTES);
    Record100::decode_slice(&bytes, &mut recs);
    if sorted {
        assert!(recs.windows(2).all(|w| w[0].key <= w[1].key), "{} is not sorted", path.display());
    }
    (recs.len(), recs.iter().fold(0u64, |acc, r| acc.wrapping_add(hash_record(r))))
}

/// `(rank, MiB)` of every `rank K: peak RSS X MiB` line in `text`.
fn peak_rss_lines(text: &str) -> Vec<(usize, f64)> {
    text.lines()
        .filter_map(|l| {
            let (head, tail) = l.split_once(": peak RSS ")?;
            let rank = head.rsplit(' ').next()?.parse().ok()?;
            let mib = tail.strip_suffix(" MiB")?.parse().ok()?;
            Some((rank, mib))
        })
        .collect()
}

#[test]
fn every_worker_stays_under_the_rss_bound_for_both_algorithms() {
    let input = tmp_path("input.dat");
    let output = tmp_path("output.dat");
    let scratch = tmp_path("scratch");
    let mut f = BufWriter::new(std::fs::File::create(&input).expect("create input"));
    let mut buf = vec![0u8; Record100::BYTES];
    for rec in gensort_records(7, 0, RECORDS) {
        rec.encode(&mut buf);
        f.write_all(&buf).expect("write record");
    }
    f.flush().expect("flush");
    drop(f);
    let want = fingerprint(&input, false);

    for algo in ["canonical", "striped"] {
        let out = Command::new(env!("CARGO_BIN_EXE_demsort-launch"))
            .args(["--algo", algo, "--ranks", "2", "--cores", "1", "--mem-mib", "4"])
            .args(["--block-kib", "64", "--disks", "4"])
            .args(["--worker-bin", env!("CARGO_BIN_EXE_demsort-worker")])
            .arg("--scratch")
            .arg(&scratch)
            .arg(&input)
            .arg(&output)
            .output()
            .expect("run demsort-launch");
        let text = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{algo}: demsort-launch failed:\n{text}");
        assert!(text.contains("done: 800000 records on 2 ranks"), "{algo}:\n{text}");

        let mut rss = peak_rss_lines(&text);
        rss.sort_by_key(|&(rank, _)| rank);
        assert_eq!(
            rss.iter().map(|&(r, _)| r).collect::<Vec<_>>(),
            [0, 1],
            "{algo}: one peak-RSS line per rank:\n{text}"
        );
        for (rank, mib) in rss {
            assert!(
                mib < RSS_BOUND_MIB,
                "{algo}: rank {rank} peaked at {mib} MiB, bound {RSS_BOUND_MIB} MiB"
            );
        }

        assert_eq!(fingerprint(&output, true), want, "{algo}: output is the sorted input");
        let left: Vec<_> = std::fs::read_dir(&scratch).expect("scratch dir").collect();
        assert!(left.is_empty(), "{algo}: scratch files left behind: {left:?}");
    }

    let _ = std::fs::remove_dir(&scratch);
    for p in [&input, &output] {
        let _ = std::fs::remove_file(p);
    }
}
