//! `valsort` must not lie or panic: a missing file and a file that is
//! not whole 100-byte records both exit non-zero with an error naming
//! the file, and a valid file keeps the output scripts match on.

use demsort_types::{Record as _, Record100};
use demsort_workloads::gensort_records;
use std::path::PathBuf;
use std::process::{Command, Output};

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("demsort-valsort-{}-{name}", std::process::id()))
}

fn valsort(path: &PathBuf) -> (Output, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_valsort")).arg(path).output().expect("run valsort");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out, stdout, stderr)
}

fn encode(recs: &[Record100]) -> Vec<u8> {
    let mut bytes = vec![0u8; recs.len() * Record100::BYTES];
    Record100::encode_slice(recs, &mut bytes);
    bytes
}

#[test]
fn missing_file_is_a_named_error_not_a_panic() {
    let path = tmp_path("does-not-exist.dat");
    let (out, stdout, stderr) = valsort(&path);
    assert!(!out.status.success(), "missing file must fail");
    assert!(stderr.contains(&path.display().to_string()), "names the file: {stderr}");
    assert!(!stderr.contains("panicked"), "no panic: {stderr}");
    assert!(!stdout.contains("SUCCESS"), "{stdout}");
}

#[test]
fn truncated_file_fails_and_names_the_truncation() {
    let path = tmp_path("truncated.dat");
    let mut recs = gensort_records(3, 0, 2);
    recs.sort_by_key(|r| r.key);
    let bytes = encode(&recs);
    std::fs::write(&path, &bytes[..150]).expect("write 150 bytes");
    let (out, stdout, stderr) = valsort(&path);
    assert!(!out.status.success(), "a 150-byte file must fail: {stdout}");
    assert!(!stdout.contains("SUCCESS"), "{stdout}");
    assert!(stderr.contains("truncated") && stderr.contains("50 trailing bytes"), "{stderr}");
    assert!(stderr.contains(&path.display().to_string()), "names the file: {stderr}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn valid_file_output_is_unchanged() {
    let path = tmp_path("sorted.dat");
    let mut recs = gensort_records(3, 0, 5);
    recs.sort_by_key(|r| r.key);
    std::fs::write(&path, encode(&recs)).expect("write records");
    let (out, stdout, _) = valsort(&path);
    assert!(out.status.success(), "{stdout}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines[0], "records:      5");
    assert_eq!(lines[1], "violations:   0");
    assert!(lines[2].starts_with("fingerprint:  0000000000000005:"), "{stdout}");
    assert_eq!(lines[3], "SUCCESS - the file is sorted");
    let _ = std::fs::remove_file(&path);
}
