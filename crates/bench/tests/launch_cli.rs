//! `demsort-launch` must fail loudly and cleanly on bad input: a
//! missing input, an input that is not whole 100-byte records, and an
//! unknown flag (the removed `--transport`) each exit non-zero with a
//! message naming the cause, without a panic, and leave the
//! `--scratch` directory empty. A successful sort reports its wall
//! time and throughput on the line after its `done:` summary.

use std::path::{Path, PathBuf};
use std::process::Command;

fn tmp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("demsort-launch-cli-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// Run `demsort-launch` with `args` plus a fresh `--scratch` directory
/// under `dir`; return (exit success, stderr, scratch entries left).
fn launch(dir: &Path, args: &[&str]) -> (bool, String, Vec<PathBuf>) {
    let scratch = dir.join("scratch");
    std::fs::create_dir_all(&scratch).expect("create scratch");
    let out = Command::new(env!("CARGO_BIN_EXE_demsort-launch"))
        .args(["--ranks", "2", "--worker-bin", env!("CARGO_BIN_EXE_demsort-worker")])
        .arg("--scratch")
        .arg(&scratch)
        .args(args)
        .output()
        .expect("run demsort-launch");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    let left: Vec<PathBuf> = std::fs::read_dir(&scratch)
        .expect("scratch still exists")
        .map(|e| e.expect("dir entry").path())
        .collect();
    (out.status.success(), stderr, left)
}

fn assert_clean_failure(ok: bool, stderr: &str, left: &[PathBuf], cause: &str) {
    assert!(!ok, "must exit non-zero: {stderr}");
    assert!(stderr.contains(cause), "stderr must name `{cause}`: {stderr}");
    assert!(!stderr.contains("panicked"), "no panic: {stderr}");
    assert!(left.is_empty(), "scratch must be left empty, found {left:?}");
}

#[test]
fn missing_input_is_a_named_error() {
    let dir = tmp_dir("missing");
    let input = dir.join("does-not-exist.dat");
    let output = dir.join("out.dat");
    let (ok, stderr, left) =
        launch(&dir, &[input.to_str().expect("utf-8"), output.to_str().expect("utf-8")]);
    assert_clean_failure(ok, &stderr, &left, &input.display().to_string());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn input_of_partial_records_is_a_named_error() {
    let dir = tmp_dir("partial");
    let input = dir.join("in150.dat");
    std::fs::write(&input, vec![7u8; 150]).expect("write 150 bytes");
    let output = dir.join("out.dat");
    let (ok, stderr, left) =
        launch(&dir, &[input.to_str().expect("utf-8"), output.to_str().expect("utf-8")]);
    assert_clean_failure(ok, &stderr, &left, "not whole 100-byte records");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_flag_is_rejected_not_taken_as_a_file() {
    let dir = tmp_dir("flag");
    let input = dir.join("in.dat");
    std::fs::write(&input, vec![7u8; 200]).expect("write 2 records");
    let output = dir.join("out.dat");
    let (ok, stderr, left) = launch(
        &dir,
        &["--transport", "tcp", input.to_str().expect("utf-8"), output.to_str().expect("utf-8")],
    );
    assert_clean_failure(ok, &stderr, &left, "unknown flag --transport");
    assert!(!output.exists(), "a rejected command line must not create the output");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn success_reports_wall_time_and_records_per_second() {
    let dir = tmp_dir("wall");
    let input = dir.join("in.dat");
    let recs: Vec<u8> =
        (0..500u32).flat_map(|i| [(i.wrapping_mul(193) % 251) as u8; 100]).collect();
    std::fs::write(&input, recs).expect("write 500 records");
    let output = dir.join("out.dat");
    let (ok, stderr, left) =
        launch(&dir, &[input.to_str().expect("utf-8"), output.to_str().expect("utf-8")]);
    assert!(ok, "sort must succeed: {stderr}");
    assert!(left.is_empty(), "scratch must be left empty, found {left:?}");
    let mut lines = stderr.lines().skip_while(|l| !l.starts_with("done: 500 records"));
    assert!(lines.next().is_some(), "no done: line: {stderr}");
    let wall = lines.next().unwrap_or_default();
    let (secs, rate) = wall
        .strip_prefix("wall ")
        .and_then(|l| l.strip_suffix(" records/s"))
        .and_then(|l| l.split_once(" s, "))
        .unwrap_or_else(|| panic!("`wall X.XX s, Y records/s` must follow done:, got `{wall}`"));
    assert_eq!(secs.split_once('.').map(|(_, frac)| frac.len()), Some(2), "{wall}");
    let secs: f64 = secs.parse().expect("wall seconds");
    let rate: u64 = rate.parse().expect("whole records/s");
    assert!(secs >= 0.0 && rate > 0, "{wall}");
    let _ = std::fs::remove_dir_all(&dir);
}
