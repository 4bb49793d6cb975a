//! `valsort` — validate a file of SortBenchmark records: sortedness,
//! record count, and an order-independent fingerprint (compare the
//! fingerprints of input and output to prove the sort is a
//! permutation).
//!
//! ```text
//! valsort FILE
//! ```
//!
//! Exit status 0 iff the file is sorted. The fingerprint is printed
//! either way. A file that cannot be read, or whose length is not a
//! whole number of 100-byte records, fails with exit status 1 and an
//! error on stderr naming the file.

use demsort_core::validate::{hash_record, Fingerprint};
use demsort_types::{Key10, Record as _, Record100};
use std::io::Read;

fn main() {
    let Some(file) = std::env::args().nth(1) else {
        eprintln!("usage: valsort FILE");
        std::process::exit(2);
    };
    let f = std::fs::File::open(&file).unwrap_or_else(|e| fail(&format!("open {file}: {e}")));
    let mut r = std::io::BufReader::new(f);
    let mut buf = vec![0u8; Record100::BYTES];
    let mut fp = Fingerprint::default();
    let mut violations = 0u64;
    let mut last: Option<Key10> = None;
    loop {
        match fill(&mut r, &mut buf) {
            Ok(0) => break,
            Ok(n) if n < buf.len() => fail(&format!(
                "{file} is truncated: {n} trailing bytes after {} whole {}-byte records",
                fp.count,
                Record100::BYTES
            )),
            Ok(_) => {}
            Err(e) => fail(&format!("read {file}: {e}")),
        }
        let rec = Record100::decode(&buf);
        if let Some(prev) = &last {
            if *prev > rec.key {
                violations += 1;
            }
        }
        last = Some(rec.key);
        fp.count += 1;
        fp.sum = fp.sum.wrapping_add(hash_record(&rec));
    }
    println!("records:      {}", fp.count);
    println!("violations:   {violations}");
    println!("fingerprint:  {:016x}:{:016x}", fp.count, fp.sum);
    if violations == 0 {
        println!("SUCCESS - the file is sorted");
    } else {
        println!("FAILURE - {violations} out-of-order record pairs");
        std::process::exit(1);
    }
}

/// Read until `buf` is full or the input ends; returns the bytes read.
fn fill(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut n = 0;
    while n < buf.len() {
        match r.read(&mut buf[n..]) {
            Ok(0) => break,
            Ok(k) => n += k,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(n)
}

fn fail(msg: &str) -> ! {
    eprintln!("valsort: {msg}");
    std::process::exit(1);
}
