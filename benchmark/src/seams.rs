//! Timing wrappers over the program's public seams — `Scheduler`,
//! `Backend`, `TelemetrySink`, `Vfs`. Each call through a seam becomes a
//! span of the layer behind it. Only traced passes install them.

use crate::trace::span;
use easched_runtime::vfs::{Vfs, VfsFile};
use easched_runtime::{Backend, KernelId, Observation, Scheduler};
use easched_telemetry::{ControlEvent, DecisionRecord, Span, TelemetrySink};
use std::io;
use std::path::Path;
use std::sync::Arc;

pub const SCHEDULER: &str = "scheduler";
pub const BACKEND: &str = "backend";
pub const SINK: &str = "sink";
pub const VFS_WRITE: &str = "vfs.write";
pub const VFS_SYNC: &str = "vfs.sync";
pub const VFS_META: &str = "vfs.meta";

/// Spans each `schedule` call and hands the policy a [`TracedBackend`],
/// so backend time shows up as the scheduler span's children.
pub struct TracedScheduler<S>(pub S);

impl<S: Scheduler> Scheduler for TracedScheduler<S> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn schedule(&mut self, kernel: KernelId, backend: &mut dyn Backend) {
        span(SCHEDULER, || {
            self.0.schedule(kernel, &mut TracedBackend(backend))
        });
    }
}

pub struct TracedBackend<'a>(pub &'a mut dyn Backend);

impl Backend for TracedBackend<'_> {
    fn remaining(&self) -> u64 {
        self.0.remaining()
    }

    fn gpu_profile_size(&self) -> u64 {
        self.0.gpu_profile_size()
    }

    fn profile_step(&mut self, gpu_chunk: u64) -> Observation {
        span(BACKEND, || self.0.profile_step(gpu_chunk))
    }

    fn run_split(&mut self, alpha: f64) -> Observation {
        span(BACKEND, || self.0.run_split(alpha))
    }
}

#[derive(Debug)]
pub struct TracedSink(pub Arc<dyn TelemetrySink>);

impl TelemetrySink for TracedSink {
    fn record(&self, record: &DecisionRecord) {
        span(SINK, || self.0.record(record));
    }

    fn control(&self, event: &ControlEvent) {
        span(SINK, || self.0.control(event));
    }

    fn wants_spans(&self) -> bool {
        self.0.wants_spans()
    }

    fn next_trace(&self) -> u64 {
        self.0.next_trace()
    }

    fn span_batch(&self, trace: u64, spans: &mut [Span]) {
        span(SINK, || self.0.span_batch(trace, spans));
    }

    fn offset(&self) -> u64 {
        self.0.offset()
    }
}

#[derive(Debug)]
pub struct TracedVfs(pub Arc<dyn Vfs>);

#[derive(Debug)]
struct TracedFile(Box<dyn VfsFile>);

impl VfsFile for TracedFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        span(VFS_WRITE, || self.0.write_all(buf))
    }

    fn sync_all(&mut self) -> io::Result<()> {
        span(VFS_SYNC, || self.0.sync_all())
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        span(VFS_META, || self.0.set_len(len))
    }

    fn seek_end(&mut self) -> io::Result<u64> {
        span(VFS_META, || self.0.seek_end())
    }
}

impl Vfs for TracedVfs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        span(VFS_META, || self.0.create_dir_all(dir))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        span(VFS_META, || self.0.read(path))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        span(VFS_META, || self.0.create(path)).map(|f| Box::new(TracedFile(f)) as Box<dyn VfsFile>)
    }

    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        span(VFS_META, || self.0.open_write(path))
            .map(|f| Box::new(TracedFile(f)) as Box<dyn VfsFile>)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        span(VFS_META, || self.0.rename(from, to))
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        span(VFS_SYNC, || self.0.sync_dir(dir))
    }
}
