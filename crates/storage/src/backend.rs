//! Storage backends: where block bytes actually live.
//!
//! * [`MemBackend`] — blocks live in RAM; fast, deterministic, the
//!   default for experiments (the *timing* of a disk comes from the
//!   [`DiskModel`](crate::disk::DiskModel), not the backend).
//! * [`FileBackend`] — one file per simulated disk; real external
//!   memory for runs larger than RAM. Every `demsort-worker` rank keeps
//!   its blocks in one.
//! * [`FaultInjectingBackend`] — wraps another backend and fails the
//!   n-th operation; used by failure-injection tests.

use demsort_types::{Error, Result};
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock};

/// Abstract block store addressed by `(disk, slot)`.
///
/// Implementations must be safe for concurrent access from one worker
/// thread per disk (different disks in parallel, one op at a time per
/// disk).
pub trait Backend: Send + Sync + 'static {
    /// Read the block at `(disk, slot)` into `buf` (whose length is the
    /// block size).
    fn read(&self, disk: usize, slot: u64, buf: &mut [u8]) -> Result<()>;

    /// Write `data` (block size bytes) to `(disk, slot)`.
    fn write(&self, disk: usize, slot: u64, data: &[u8]) -> Result<()>;

    /// Drop any stored data for `(disk, slot)` (in-place recycling).
    /// Reading a discarded slot is an error until it is rewritten.
    fn discard(&self, disk: usize, slot: u64);
}

/// One disk's slot table: present blocks by slot index.
type SlotTable = Vec<Option<Box<[u8]>>>;

/// In-memory backend: per disk, a growable slot table.
pub struct MemBackend {
    disks: Vec<RwLock<SlotTable>>,
}

impl MemBackend {
    /// Create a backend with `disks` empty disks.
    pub fn new(disks: usize) -> Self {
        Self { disks: (0..disks).map(|_| RwLock::new(Vec::new())).collect() }
    }

    /// Bytes currently resident (for space-bound tests).
    pub fn resident_bytes(&self) -> u64 {
        self.disks
            .iter()
            .map(|d| {
                d.read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .iter()
                    .map(|s| s.as_ref().map_or(0, |b| b.len() as u64))
                    .sum::<u64>()
            })
            .sum()
    }

    /// Number of occupied slots across all disks.
    pub fn resident_blocks(&self) -> u64 {
        self.disks
            .iter()
            .map(|d| {
                d.read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .iter()
                    .filter(|s| s.is_some())
                    .count() as u64
            })
            .sum()
    }
}

impl Backend for MemBackend {
    fn read(&self, disk: usize, slot: u64, buf: &mut [u8]) -> Result<()> {
        let disk_tbl = self
            .disks
            .get(disk)
            .ok_or_else(|| Error::io(format!("no such disk {disk}")))?
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        let data = disk_tbl
            .get(slot as usize)
            .and_then(|s| s.as_ref())
            .ok_or_else(|| Error::io(format!("read of unwritten block d{disk}:{slot}")))?;
        if data.len() != buf.len() {
            return Err(Error::io(format!(
                "block size mismatch at d{disk}:{slot}: stored {} read {}",
                data.len(),
                buf.len()
            )));
        }
        buf.copy_from_slice(data);
        Ok(())
    }

    fn write(&self, disk: usize, slot: u64, data: &[u8]) -> Result<()> {
        let mut disk_tbl = self
            .disks
            .get(disk)
            .ok_or_else(|| Error::io(format!("no such disk {disk}")))?
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let slot = slot as usize;
        if disk_tbl.len() <= slot {
            disk_tbl.resize_with(slot + 1, || None);
        }
        // Reuse the old allocation when possible.
        match &mut disk_tbl[slot] {
            Some(old) if old.len() == data.len() => old.copy_from_slice(data),
            entry => *entry = Some(data.to_vec().into_boxed_slice()),
        }
        Ok(())
    }

    fn discard(&self, disk: usize, slot: u64) {
        if let Some(d) = self.disks.get(disk) {
            let mut tbl = d.write().unwrap_or_else(PoisonError::into_inner);
            if let Some(entry) = tbl.get_mut(slot as usize) {
                *entry = None;
            }
        }
    }
}

/// File-based backend: disk `i` is the file `disk_<i>.bin` in a
/// directory; slot `s` occupies bytes `[s·B, (s+1)·B)`.
pub struct FileBackend {
    files: Vec<File>,
    block_bytes: usize,
}

impl FileBackend {
    /// Create (or truncate) `disks` backing files in `dir`, creating
    /// `dir` if needed.
    pub fn create(dir: &Path, disks: usize, block_bytes: usize) -> Result<Self> {
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::io(format!("create {}: {e}", dir.display())))?;
        let mut files = Vec::with_capacity(disks);
        for i in 0..disks {
            let path = Self::disk_path(dir, i);
            let f = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&path)
                .map_err(|e| Error::io(format!("create {}: {e}", path.display())))?;
            files.push(f);
        }
        Ok(Self { files, block_bytes })
    }

    /// The backing file of disk `disk` in `dir`.
    pub fn disk_path(dir: &Path, disk: usize) -> PathBuf {
        dir.join(format!("disk_{disk}.bin"))
    }
}

impl Backend for FileBackend {
    fn read(&self, disk: usize, slot: u64, buf: &mut [u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        let f = self.files.get(disk).ok_or_else(|| Error::io(format!("no such disk {disk}")))?;
        f.read_exact_at(buf, slot * self.block_bytes as u64)
            .map_err(|e| Error::io(format!("read d{disk}:{slot}: {e}")))
    }

    fn write(&self, disk: usize, slot: u64, data: &[u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        let f = self.files.get(disk).ok_or_else(|| Error::io(format!("no such disk {disk}")))?;
        f.write_all_at(data, slot * self.block_bytes as u64)
            .map_err(|e| Error::io(format!("write d{disk}:{slot}: {e}")))
    }

    fn discard(&self, _disk: usize, _slot: u64) {
        // Files keep their extents; a production system would punch a
        // hole. Space accounting is handled by the allocator.
    }
}

/// Test helper: delegates to an inner backend but fails a chosen
/// operation, to verify error propagation through the async engine.
pub struct FaultInjectingBackend<B> {
    inner: B,
    fail_at_op: u64,
    ops: AtomicU64,
}

impl<B: Backend> FaultInjectingBackend<B> {
    /// Fail the `fail_at_op`-th operation (0-based) with an I/O error.
    pub fn new(inner: B, fail_at_op: u64) -> Self {
        Self { inner, fail_at_op, ops: AtomicU64::new(0) }
    }

    fn tick(&self) -> Result<()> {
        let n = self.ops.fetch_add(1, Ordering::SeqCst);
        if n == self.fail_at_op {
            Err(Error::io(format!("injected fault at operation {n}")))
        } else {
            Ok(())
        }
    }
}

impl<B: Backend> Backend for FaultInjectingBackend<B> {
    fn read(&self, disk: usize, slot: u64, buf: &mut [u8]) -> Result<()> {
        self.tick()?;
        self.inner.read(disk, slot, buf)
    }

    fn write(&self, disk: usize, slot: u64, data: &[u8]) -> Result<()> {
        self.tick()?;
        self.inner.write(disk, slot, data)
    }

    fn discard(&self, disk: usize, slot: u64) {
        self.inner.discard(disk, slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(b: &dyn Backend) {
        let data = vec![7u8; 64].into_boxed_slice();
        b.write(0, 3, &data).expect("write");
        let mut out = vec![0u8; 64];
        b.read(0, 3, &mut out).expect("read");
        assert_eq!(&out[..], &data[..]);
    }

    #[test]
    fn mem_roundtrip() {
        let b = MemBackend::new(2);
        roundtrip(&b);
    }

    #[test]
    fn mem_read_unwritten_errors() {
        let b = MemBackend::new(1);
        let mut buf = vec![0u8; 16];
        assert!(b.read(0, 0, &mut buf).is_err());
        assert!(b.read(0, 99, &mut buf).is_err());
    }

    #[test]
    fn mem_bad_disk_errors() {
        let b = MemBackend::new(1);
        let mut buf = vec![0u8; 16];
        assert!(b.read(5, 0, &mut buf).is_err());
        assert!(b.write(5, 0, &buf).is_err());
    }

    #[test]
    fn mem_discard_frees_and_read_fails() {
        let b = MemBackend::new(1);
        b.write(0, 0, &[1u8; 32]).expect("write");
        assert_eq!(b.resident_blocks(), 1);
        assert_eq!(b.resident_bytes(), 32);
        b.discard(0, 0);
        assert_eq!(b.resident_blocks(), 0);
        let mut buf = vec![0u8; 32];
        assert!(b.read(0, 0, &mut buf).is_err());
    }

    #[test]
    fn file_roundtrip_and_sparse_slots() {
        let dir = std::env::temp_dir().join(format!("demsort-fb-{}", std::process::id()));
        let b = FileBackend::create(&dir, 2, 64).expect("create");
        roundtrip(&b);
        // non-contiguous slots work
        b.write(1, 10, &[9u8; 64]).expect("write");
        let mut out = vec![0u8; 64];
        b.read(1, 10, &mut out).expect("read");
        assert_eq!(out, vec![9u8; 64]);
        assert!(FileBackend::disk_path(&dir, 1).is_file(), "disk 1 lives in disk_path");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_create_error_names_the_path() {
        let file = std::env::temp_dir().join(format!("demsort-fb-file-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").expect("write");
        let err = FileBackend::create(&file.join("sub"), 1, 64).err().expect("parent is a file");
        assert!(err.to_string().contains(&file.display().to_string()), "{err}");
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn fault_injection_fails_once() {
        let b = FaultInjectingBackend::new(MemBackend::new(1), 1);
        let data = vec![1u8; 16];
        b.write(0, 0, &data).expect("op 0 fine");
        assert!(b.write(0, 1, &data).is_err(), "op 1 injected");
        b.write(0, 1, &data).expect("op 2 fine");
    }
}
