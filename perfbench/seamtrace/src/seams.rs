//! Timing wrappers for the program's layer seams.
//!
//! Each wrapper implements one public trait of the program by
//! delegating every method to the real implementation and metering the
//! call from outside: the program itself carries no extra spans, so the
//! traced run executes the same code paths as `demsort-launch`.
//!
//! * [`TimedTransport`] — `net::Transport`, over `TcpTransport`, under
//!   the `Communicator`.
//! * [`TimedBlockService`] — `core::ctx::RemoteBlockService` over
//!   `procs::TcpBlockService`; every handle it returns is re-wrapped as
//!   a [`TimedFetch`] / [`TimedStore`] so `PendingBlock::wait` and
//!   `PendingStore::wait` are timed too.
//! * [`TimedBackend`] — `storage::Backend` over `MemBackend`.

use demsort_bench::procs::TcpBlockService;
use demsort_core::ctx::{BlockFetch, BlockStore, PendingBlock, PendingStore, RemoteBlockService};
use demsort_net::tcp::TcpTransport;
use demsort_net::Transport;
use demsort_storage::{Backend, BlockId, MemBackend};
use demsort_types::Result;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Calls, payload units and nanoseconds seen at one seam method.
#[derive(Default)]
pub struct Meter {
    count: AtomicU64,
    units: AtomicU64,
    nanos: AtomicU64,
}

impl Meter {
    fn add(&self, count: u64, units: u64, since: Instant) {
        self.count.fetch_add(count, Ordering::Relaxed);
        self.units.fetch_add(units, Ordering::Relaxed);
        self.nanos.fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Number of metered events.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Payload units (bytes or blocks) carried by the events.
    pub fn units(&self) -> u64 {
        self.units.load(Ordering::Relaxed)
    }

    /// Seconds spent inside the metered calls.
    pub fn secs(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

/// Every seam meter of one rank.
#[derive(Default)]
pub struct SeamStats {
    /// Frames to other ranks: count, bytes, time in the send calls and
    /// the flushes that put them on the wire.
    pub send: Meter,
    /// Time blocked in `Transport::recv`.
    pub recv: Meter,
    /// Remote block reads: blocks issued, time issuing and waiting.
    pub fetch: Meter,
    /// Remote block stores: blocks issued, time issuing and waiting.
    pub store: Meter,
    /// Block-service calls or handles that resolved to an error.
    failed_ops: AtomicU64,
    /// `Backend::read` calls and time.
    pub backend_read: Meter,
    /// `Backend::write` calls and time.
    pub backend_write: Meter,
}

impl SeamStats {
    /// Seconds the calling threads spent waiting at the transport and
    /// block-service seams — what a phase span minus this leaves is the
    /// phase's own work.
    pub fn wait_secs(&self) -> f64 {
        self.send.secs() + self.recv.secs() + self.fetch.secs() + self.store.secs()
    }

    /// Block-service calls or handles that resolved to an error.
    pub fn failed_ops(&self) -> u64 {
        self.failed_ops.load(Ordering::Relaxed)
    }

    fn failed<T>(&self, r: Result<T>) -> Result<T> {
        if r.is_err() {
            self.failed_ops.fetch_add(1, Ordering::Relaxed);
        }
        r
    }
}

/// `Transport` over a `TcpTransport`, metering sends, flushes and
/// receives.
pub struct TimedTransport {
    inner: TcpTransport,
    stats: Arc<SeamStats>,
}

impl TimedTransport {
    /// Wrap `inner`, metering into `stats`.
    pub fn new(inner: TcpTransport, stats: Arc<SeamStats>) -> Self {
        Self { inner, stats }
    }

    fn sent(&self, to: usize, bytes: usize, since: Instant) {
        let remote = u64::from(to != self.inner.rank());
        self.stats.send.add(remote, remote * bytes as u64, since);
    }
}

impl Transport for TimedTransport {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send(&self, to: usize, frame: Vec<u8>) -> Result<()> {
        let t = Instant::now();
        let len = frame.len();
        let r = self.inner.send(to, frame);
        self.sent(to, len, t);
        r
    }

    fn send_bytes(&self, to: usize, frame: &[u8]) -> Result<()> {
        let t = Instant::now();
        let r = self.inner.send_bytes(to, frame);
        self.sent(to, frame.len(), t);
        r
    }

    fn send_vectored(&self, to: usize, parts: &[&[u8]]) -> Result<()> {
        let t = Instant::now();
        let r = self.inner.send_vectored(to, parts);
        self.sent(to, parts.iter().map(|p| p.len()).sum(), t);
        r
    }

    fn recv(&self, from: usize) -> Result<Vec<u8>> {
        let t = Instant::now();
        let r = self.inner.recv(from);
        self.stats.recv.add(1, 0, t);
        r
    }

    fn flush(&self) -> Result<()> {
        let t = Instant::now();
        let r = self.inner.flush();
        self.stats.send.add(0, 0, t);
        r
    }

    fn dead_peers(&self) -> Vec<bool> {
        self.inner.dead_peers()
    }

    fn advance_epoch(&self, epoch: u64) -> Result<()> {
        self.inner.advance_epoch(epoch)
    }

    fn drain_to_epoch(&self, from: usize, epoch: u64) -> Result<()> {
        self.inner.drain_to_epoch(from, epoch)
    }
}

/// `RemoteBlockService` over `procs::TcpBlockService`.
pub struct TimedBlockService {
    inner: TcpBlockService,
    stats: Arc<SeamStats>,
}

impl TimedBlockService {
    /// Wrap `inner`, metering into `stats`.
    pub fn new(inner: TcpBlockService, stats: Arc<SeamStats>) -> Self {
        Self { inner, stats }
    }
}

impl RemoteBlockService for TimedBlockService {
    fn fetch_blocks(&self, pe: usize, ids: &[BlockId]) -> Result<Vec<BlockFetch>> {
        let t = Instant::now();
        let r = self.stats.failed(self.inner.fetch_blocks(pe, ids));
        self.stats.fetch.add(ids.len() as u64, 0, t);
        Ok(r?
            .into_iter()
            .map(|f| BlockFetch::remote(Box::new(TimedFetch(f, Arc::clone(&self.stats)))))
            .collect())
    }

    fn store_blocks(&self, pe: usize, blocks: &[(u32, &[u8])]) -> Result<Vec<BlockStore>> {
        let t = Instant::now();
        let r = self.stats.failed(self.inner.store_blocks(pe, blocks));
        self.stats.store.add(blocks.len() as u64, 0, t);
        Ok(r?
            .into_iter()
            .map(|s| BlockStore::remote(Box::new(TimedStore(s, Arc::clone(&self.stats)))))
            .collect())
    }
}

/// A remote read handle whose `wait` is timed.
struct TimedFetch(BlockFetch, Arc<SeamStats>);

impl PendingBlock for TimedFetch {
    fn wait(self: Box<Self>) -> Result<Box<[u8]>> {
        let TimedFetch(fetch, stats) = *self;
        let t = Instant::now();
        let r = stats.failed(fetch.wait());
        stats.fetch.add(0, 0, t);
        r
    }

    fn is_done(&self) -> bool {
        self.0.is_done()
    }
}

/// A remote store handle whose `wait` is timed.
struct TimedStore(BlockStore, Arc<SeamStats>);

impl PendingStore for TimedStore {
    fn wait(self: Box<Self>) -> Result<BlockId> {
        let TimedStore(store, stats) = *self;
        let t = Instant::now();
        let r = stats.failed(store.wait());
        stats.store.add(0, 0, t);
        r
    }

    fn is_done(&self) -> bool {
        self.0.is_done()
    }
}

/// `Backend` over a `MemBackend`, metering block reads and writes.
pub struct TimedBackend {
    inner: MemBackend,
    stats: Arc<SeamStats>,
}

impl TimedBackend {
    /// A fresh in-memory backend of `disks` disks, metering into
    /// `stats`.
    pub fn new(disks: usize, stats: Arc<SeamStats>) -> Self {
        Self { inner: MemBackend::new(disks), stats }
    }
}

impl Backend for TimedBackend {
    fn read(&self, disk: usize, slot: u64, buf: &mut [u8]) -> Result<()> {
        let t = Instant::now();
        let r = self.inner.read(disk, slot, buf);
        self.stats.backend_read.add(1, 0, t);
        r
    }

    fn write(&self, disk: usize, slot: u64, data: &[u8]) -> Result<()> {
        let t = Instant::now();
        let r = self.inner.write(disk, slot, data);
        self.stats.backend_write.add(1, 0, t);
        r
    }

    fn discard(&self, disk: usize, slot: u64) {
        self.inner.discard(disk, slot)
    }
}
