//! Asynchronous block I/O engine.
//!
//! One worker thread per simulated disk services a FIFO request queue,
//! exactly like STXXL's disk queues. Callers get [`IoHandle`]s —
//! lightweight futures they can poll or block on — so algorithms
//! naturally overlap computation, communication, and I/O (the
//! "Overlapping" optimization of Section IV-E is just *not waiting
//! immediately*).
//!
//! Timing is accounted, not slept: each operation charges its modeled
//! service time ([`DiskModel`]) to the disk's busy-time counter, which
//! the cost model later reads.

use crate::backend::Backend;
use crate::block::BlockId;
use crate::disk::{DiskModel, DiskStats};
use demsort_types::{BufferPool, IoCounters, Result};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

enum Request {
    Read {
        slot: u64,
        state: Arc<HandleState>,
    },
    Write {
        slot: u64,
        data: Box<[u8]>,
        state: Arc<HandleState>,
    },
    /// Completes once everything queued before it has been serviced;
    /// touches neither the backend nor the counters.
    Fence {
        state: Arc<HandleState>,
    },
    Shutdown,
}

struct HandleState {
    result: Mutex<Option<Result<Box<[u8]>>>>,
    cv: Condvar,
}

impl HandleState {
    fn new() -> Arc<Self> {
        Arc::new(Self { result: Mutex::new(None), cv: Condvar::new() })
    }

    fn complete(&self, r: Result<Box<[u8]>>) {
        let mut guard = self.result.lock().unwrap_or_else(PoisonError::into_inner);
        *guard = Some(r);
        self.cv.notify_all();
    }
}

/// A pending I/O operation. For reads, resolves to the filled block
/// buffer; for writes, resolves to the written buffer (handed back for
/// reuse).
#[must_use = "an IoHandle must be waited on, or the I/O may be lost"]
pub struct IoHandle {
    state: Arc<HandleState>,
}

impl IoHandle {
    /// Block until the operation completes; returns the buffer.
    pub fn wait(self) -> Result<Box<[u8]>> {
        let guard = self.state.result.lock().unwrap_or_else(PoisonError::into_inner);
        let mut guard = self
            .state
            .cv
            .wait_while(guard, |r| r.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        guard.take().expect("completed state present")
    }

    /// `true` once the operation has completed (success or failure).
    pub fn is_done(&self) -> bool {
        self.state.result.lock().unwrap_or_else(PoisonError::into_inner).is_some()
    }

    /// An already-completed handle (used when data is served from a
    /// cache or buffer without touching the disk).
    pub fn ready(data: Box<[u8]>) -> Self {
        let state = HandleState::new();
        state.complete(Ok(data));
        Self { state }
    }
}

/// Multi-disk asynchronous I/O engine for one PE.
pub struct IoEngine {
    queues: Vec<Sender<Request>>,
    workers: Vec<JoinHandle<()>>,
    stats: Arc<Vec<DiskStats>>,
    block_bytes: usize,
    pool: BufferPool,
}

impl IoEngine {
    /// Spawn one worker per disk over the shared `backend`, with a
    /// default-sized buffer pool (the prefetch+carry minimum of two
    /// buffers per disk plus two spares).
    pub fn new(
        disks: usize,
        block_bytes: usize,
        model: DiskModel,
        backend: Arc<dyn Backend>,
    ) -> Self {
        let pool = BufferPool::new(block_bytes, 2 * disks + 2);
        Self::with_pool(disks, block_bytes, model, backend, pool)
    }

    /// Spawn workers over `backend` drawing read buffers from `pool`.
    ///
    /// The pool's buffer size must equal `block_bytes`; reads pop a
    /// recycled buffer (or allocate on a pool miss) and hand it to the
    /// caller through the [`IoHandle`], so callers that return buffers
    /// via [`BufferPool::put`] make the steady-state read path
    /// allocation-free.
    pub fn with_pool(
        disks: usize,
        block_bytes: usize,
        model: DiskModel,
        backend: Arc<dyn Backend>,
        pool: BufferPool,
    ) -> Self {
        assert!(disks > 0, "need at least one disk");
        assert_eq!(pool.buf_bytes(), block_bytes, "pool buffer size must match block size");
        let stats: Arc<Vec<DiskStats>> =
            Arc::new((0..disks).map(|_| DiskStats::default()).collect());
        let mut queues = Vec::with_capacity(disks);
        let mut workers = Vec::with_capacity(disks);
        for disk in 0..disks {
            let (tx, rx) = channel::<Request>();
            queues.push(tx);
            let backend = Arc::clone(&backend);
            let stats = Arc::clone(&stats);
            let model = model.clone();
            let pool = pool.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("demsort-disk-{disk}"))
                    .spawn(move || {
                        while let Ok(req) = rx.recv() {
                            match req {
                                Request::Read { slot, state } => {
                                    // Recycled buffers keep stale bytes;
                                    // the backend fills the whole block
                                    // on success and errors otherwise.
                                    let mut buf = pool.get();
                                    let res = backend.read(disk, slot, &mut buf);
                                    stats[disk].record_read(
                                        block_bytes,
                                        model.service_ns_at(block_bytes, slot),
                                    );
                                    state.complete(res.map(|()| buf));
                                }
                                Request::Write { slot, data, state } => {
                                    let res = backend.write(disk, slot, &data);
                                    stats[disk].record_write(
                                        data.len(),
                                        model.service_ns_at(data.len(), slot),
                                    );
                                    state.complete(res.map(|()| data));
                                }
                                Request::Fence { state } => {
                                    state.complete(Ok(Vec::new().into_boxed_slice()));
                                }
                                Request::Shutdown => break,
                            }
                        }
                    })
                    .expect("spawn disk worker"),
            );
        }
        Self { queues, workers, stats, block_bytes, pool }
    }

    /// Block size in bytes.
    pub fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    /// The block-buffer pool read buffers are drawn from. Callers done
    /// with a buffer return it here ([`BufferPool::put`]) so subsequent
    /// reads reuse it instead of allocating.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Number of disks.
    pub fn disks(&self) -> usize {
        self.queues.len()
    }

    /// Enqueue an asynchronous read of `id`.
    pub fn read(&self, id: BlockId) -> IoHandle {
        let state = HandleState::new();
        let handle = IoHandle { state: Arc::clone(&state) };
        self.queues[id.disk as usize]
            .send(Request::Read { slot: id.slot as u64, state })
            .expect("disk worker alive");
        handle
    }

    /// Enqueue an asynchronous write of `data` to `id`.
    /// `data.len()` must equal the block size.
    pub fn write(&self, id: BlockId, data: Box<[u8]>) -> IoHandle {
        assert_eq!(data.len(), self.block_bytes, "write must be exactly one block");
        let state = HandleState::new();
        let handle = IoHandle { state: Arc::clone(&state) };
        self.queues[id.disk as usize]
            .send(Request::Write { slot: id.slot as u64, data, state })
            .expect("disk worker alive");
        handle
    }

    /// Synchronous read convenience.
    pub fn read_sync(&self, id: BlockId) -> Result<Box<[u8]>> {
        self.read(id).wait()
    }

    /// Synchronous write convenience.
    pub fn write_sync(&self, id: BlockId, data: Box<[u8]>) -> Result<()> {
        self.write(id, data).wait().map(|_| ())
    }

    /// Wait until all requests enqueued so far have been serviced
    /// (FIFO queues make a per-disk fence sufficient).
    pub fn drain(&self) -> Result<()> {
        let fences: Vec<IoHandle> = self
            .queues
            .iter()
            .map(|q| {
                let state = HandleState::new();
                let handle = IoHandle { state: Arc::clone(&state) };
                q.send(Request::Fence { state }).expect("disk worker alive");
                handle
            })
            .collect();
        for f in fences {
            f.wait()?;
        }
        Ok(())
    }

    /// Aggregate I/O counters for this PE: byte/block totals summed over
    /// disks, busy time of the busiest disk (they run in parallel).
    pub fn counters(&self) -> IoCounters {
        let mut c = IoCounters::default();
        for d in self.stats.iter() {
            let s = d.snapshot();
            c.bytes_read += s.bytes_read;
            c.bytes_written += s.bytes_written;
            c.blocks_read += s.reads;
            c.blocks_written += s.writes;
            c.max_disk_busy_ns = c.max_disk_busy_ns.max(s.busy_ns);
        }
        c
    }

    /// Per-disk snapshots (for imbalance diagnostics, Figure 3).
    pub fn per_disk(&self) -> Vec<crate::disk::DiskStatsSnapshot> {
        self.stats.iter().map(|d| d.snapshot()).collect()
    }
}

impl Drop for IoEngine {
    fn drop(&mut self) {
        for q in &self.queues {
            // verify: allow(L2, shutdown send in Drop — a worker that already exited has an empty queue)
            let _ = q.send(Request::Shutdown);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FaultInjectingBackend, MemBackend};
    use demsort_types::Error;

    fn engine(disks: usize, block: usize) -> IoEngine {
        IoEngine::new(disks, block, DiskModel::paper(), Arc::new(MemBackend::new(disks)))
    }

    #[test]
    fn write_then_read_roundtrip() {
        let e = engine(2, 32);
        let id = BlockId::new(1, 4);
        let mut data = vec![0u8; 32].into_boxed_slice();
        data.iter_mut().enumerate().for_each(|(i, b)| *b = i as u8);
        e.write_sync(id, data.clone()).expect("write");
        let back = e.read_sync(id).expect("read");
        assert_eq!(&back[..], &data[..]);
    }

    #[test]
    fn many_concurrent_ops_complete() {
        let e = engine(4, 64);
        let writes: Vec<IoHandle> = (0..200u32)
            .map(|i| {
                let id = BlockId::new(i % 4, i / 4);
                let buf = vec![(i % 251) as u8; 64].into_boxed_slice();
                e.write(id, buf)
            })
            .collect();
        for w in writes {
            w.wait().expect("write ok");
        }
        let reads: Vec<(u32, IoHandle)> =
            (0..200u32).map(|i| (i, e.read(BlockId::new(i % 4, i / 4)))).collect();
        for (i, r) in reads {
            let buf = r.wait().expect("read ok");
            assert!(buf.iter().all(|&b| b == (i % 251) as u8));
        }
    }

    #[test]
    fn counters_track_traffic() {
        let e = engine(2, 128);
        for i in 0..10 {
            e.write_sync(BlockId::new(i % 2, i), vec![0u8; 128].into_boxed_slice()).expect("write");
        }
        for i in 0..10 {
            e.read_sync(BlockId::new(i % 2, i)).expect("read");
        }
        let c = e.counters();
        assert_eq!(c.bytes_written, 10 * 128);
        assert_eq!(c.bytes_read, 10 * 128);
        assert_eq!(c.blocks_read, 10);
        assert!(c.max_disk_busy_ns > 0);
    }

    #[test]
    fn errors_propagate_through_handles() {
        let backend = FaultInjectingBackend::new(MemBackend::new(1), 0);
        let e = IoEngine::new(1, 16, DiskModel::paper(), Arc::new(backend));
        let res = e.write_sync(BlockId::new(0, 0), vec![0u8; 16].into_boxed_slice());
        assert!(matches!(res, Err(Error::Io(_))));
        // engine still usable afterwards
        e.write_sync(BlockId::new(0, 0), vec![1u8; 16].into_boxed_slice()).expect("recovers");
    }

    #[test]
    fn read_of_unwritten_block_is_error_not_panic() {
        let e = engine(1, 16);
        assert!(e.read_sync(BlockId::new(0, 7)).is_err());
    }

    #[test]
    fn drain_waits_for_all() {
        let e = engine(3, 256);
        let mut handles = Vec::new();
        for i in 0..60u32 {
            handles.push(e.write(BlockId::new(i % 3, i / 3), vec![7u8; 256].into_boxed_slice()));
        }
        e.drain().expect("drain");
        for h in handles {
            assert!(h.is_done(), "drain must imply completion of prior requests");
            h.wait().expect("completed ok");
        }
    }

    #[test]
    fn ready_handle_completes_immediately() {
        let h = IoHandle::ready(vec![3u8; 4].into_boxed_slice());
        assert!(h.is_done());
        assert_eq!(&h.wait().expect("ready")[..], &[3, 3, 3, 3]);
    }

    #[test]
    fn read_buffers_recycle_through_the_pool() {
        let e = engine(1, 32);
        e.write_sync(BlockId::new(0, 0), vec![9u8; 32].into_boxed_slice()).expect("write");
        let first = e.read_sync(BlockId::new(0, 0)).expect("read");
        let misses_after_first = e.pool().counters().misses;
        e.pool().put(first);
        let second = e.read_sync(BlockId::new(0, 0)).expect("read");
        assert_eq!(&second[..], &[9u8; 32][..]);
        let c = e.pool().counters();
        assert_eq!(c.misses, misses_after_first, "second read must reuse the returned buffer");
        assert!(c.hits >= 1);
    }

    #[test]
    #[should_panic(expected = "exactly one block")]
    fn wrong_size_write_panics() {
        let e = engine(1, 64);
        let _ = e.write(BlockId::new(0, 0), vec![0u8; 32].into_boxed_slice());
    }
}
