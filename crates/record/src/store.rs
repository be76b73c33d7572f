//! Append-only log storage with file persistence.
//!
//! [`LogStore`] is the generic typed log (the paper's database table);
//! [`Recorder`] bundles the traffic and scene logs behind a thread-safe
//! facade that the server's recording threads append to concurrently.
//!
//! On-disk format: magic `POEMLOG1`, `u64` record count, then one
//! `u32`-length-prefixed codec frame per record. Loading verifies the
//! magic, the count, and every frame; a truncated or corrupt file is a
//! hard error, never a silently shorter log.
//!
//! In memory, the recorder keeps the traffic log packed into one byte
//! buffer: with one row per packet and one per copy it is most of a
//! run's memory, and a `TrafficRecord` takes 48 bytes. A row is one tag
//! byte followed by LEB128 varints:
//!
//! | tag | row | fields after the tag |
//! |---|---|---|
//! | 0 | `Ingress`, broadcast | id, src, channel, bytes, Δsent, Δreceived |
//! | 1 | `Ingress`, unicast | id, src, dst, channel, bytes, Δsent, Δreceived |
//! | 2 | `Forward` | id, to, Δat |
//! | 3–6 | `Drop`: `Loss`, `NoRoute`, `Disconnected`, `Collision` | id, to, Δat |
//!
//! Times are zigzag-coded deltas in wrapping arithmetic, so every `u64`
//! round-trips: `sent_at` against the previous ingress row's `sent_at`,
//! `received_at` against its own row's `sent_at`, and a forward or drop
//! `at` against the previous forward or drop row's `at` (each base
//! starts at 0). The packing is memory-only: [`Recorder::save`] streams
//! the decoded rows out in the file format above, byte for byte what a
//! `LogStore<TrafficRecord>` of the same rows writes, and
//! [`Recorder::load`] packs them again.

use crate::records::{DropReason, FaultRecord, MetricsRecord, SceneRecord, TrafficRecord};
use parking_lot::Mutex;
use poem_core::packet::Destination;
use poem_core::{ChannelId, EmuTime, NodeId, PacketId};
use poem_obs::{Counter, Registry};
use poem_proto::{from_bytes, to_bytes_into};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"POEMLOG1";

fn invalid_data(e: impl Into<Box<dyn std::error::Error + Send + Sync>>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// Writes a log file's header and then one length-prefixed codec frame
/// per row, encoding every row into one reused buffer.
fn write_log<T: Serialize>(
    w: &mut impl Write,
    count: usize,
    rows: impl Iterator<Item = T>,
) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&(count as u64).to_le_bytes())?;
    let mut body = Vec::new();
    for row in rows {
        body.clear();
        to_bytes_into(&mut body, &row).map_err(invalid_data)?;
        w.write_all(&(body.len() as u32).to_le_bytes())?;
        w.write_all(&body)?;
    }
    w.flush()
}

/// Reads a log written by [`write_log`], handing each row to `each` in
/// order and verifying the magic, the count, every frame and the end.
fn read_log<T: DeserializeOwned>(r: &mut impl Read, mut each: impl FnMut(T)) -> io::Result<()> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(invalid_data("bad log magic"));
    }
    let mut count_bytes = [0u8; 8];
    r.read_exact(&mut count_bytes)?;
    let count = u64::from_le_bytes(count_bytes);
    let mut buf = Vec::new();
    for _ in 0..count {
        let mut len_bytes = [0u8; 4];
        r.read_exact(&mut len_bytes)?;
        let len = u32::from_le_bytes(len_bytes) as usize;
        buf.resize(len, 0);
        r.read_exact(&mut buf)?;
        each(from_bytes(&buf).map_err(invalid_data)?);
    }
    // Trailing garbage means the file is not what it claims to be.
    let mut probe = [0u8; 1];
    if r.read(&mut probe)? != 0 {
        return Err(invalid_data("trailing bytes in log"));
    }
    Ok(())
}

/// A typed append-only log.
#[derive(Debug, Clone)]
pub struct LogStore<T> {
    items: Vec<T>,
}

impl<T> Default for LogStore<T> {
    fn default() -> Self {
        LogStore { items: Vec::new() }
    }
}

impl<T> LogStore<T> {
    /// An empty log.
    pub fn new() -> Self {
        LogStore { items: Vec::new() }
    }

    /// Appends one record.
    pub fn append(&mut self, item: T) {
        self.items.push(item);
    }

    /// All records, in append order.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Record count.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no records exist.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Consumes the store, returning the records.
    pub fn into_items(self) -> Vec<T> {
        self.items
    }
}

impl<T: Serialize> LogStore<T> {
    /// Serializes the log to a writer.
    pub fn save_to(&self, w: &mut impl Write) -> io::Result<()> {
        write_log(w, self.items.len(), self.items.iter())
    }

    /// Saves the log to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        self.save_to(&mut BufWriter::new(File::create(path)?))
    }
}

impl<T: DeserializeOwned> LogStore<T> {
    /// Deserializes a log from a reader, verifying integrity.
    pub fn load_from(r: &mut impl Read) -> io::Result<Self> {
        let mut items = Vec::new();
        read_log(r, |item| items.push(item))?;
        Ok(LogStore { items })
    }

    /// Loads a log from a file.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let mut r = BufReader::new(File::open(path)?);
        Self::load_from(&mut r)
    }
}

impl<T> FromIterator<T> for LogStore<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        LogStore { items: iter.into_iter().collect() }
    }
}

/// Row tags (module doc): an ingress row's tag says broadcast or unicast,
/// a drop row's tag carries its reason.
const TAG_BROADCAST: u8 = 0;
const TAG_UNICAST: u8 = 1;
const TAG_FORWARD: u8 = 2;
const TAG_DROP: u8 = 3;
/// Drop reasons in tag order, from `TAG_DROP` up.
const DROP_REASONS: [DropReason; 4] =
    [DropReason::Loss, DropReason::NoRoute, DropReason::Disconnected, DropReason::Collision];

/// Only [`TrafficLog::push`] writes the buffer, so a row that does not
/// decode is a bug in this module, never bad input.
const CORRUPT: &str = "packed traffic log holds a row its encoder never writes";

/// The longest row: an ingress tag, three `u64` varints (up to 10 bytes
/// each), three `u32` (up to 5) and one `u16` (up to 3).
const MAX_ROW: usize = 1 + 3 * 10 + 3 * 5 + 3;

/// The row being encoded, written straight into the log's buffer.
struct Row<'a> {
    buf: &'a mut [u8],
    len: usize,
}

impl Row<'_> {
    fn byte(&mut self, b: u8) {
        self.buf[self.len] = b;
        self.len += 1;
    }

    fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.byte(v as u8 | 0x80);
            v >>= 7;
        }
        self.byte(v as u8);
    }

    /// `value - base` in wrapping arithmetic, zigzag-coded so that small
    /// steps either way stay short.
    fn delta(&mut self, base: u64, value: u64) {
        let d = value.wrapping_sub(base) as i64;
        self.varint(((d << 1) ^ (d >> 63)) as u64);
    }

    /// The fields after a forward or drop row's tag; `last_at` is the
    /// delta base, moved on to `at`.
    fn copy(&mut self, id: PacketId, to: NodeId, at: EmuTime, last_at: &mut u64) {
        self.varint(id.0);
        self.varint(to.0.into());
        self.delta(*last_at, at.as_nanos());
        *last_at = at.as_nanos();
    }
}

/// The recorder's traffic log: rows packed into one byte buffer in the
/// format of the module doc.
#[derive(Debug, Clone, Default)]
struct TrafficLog {
    bytes: Vec<u8>,
    rows: usize,
    /// `sent_at` of the last ingress row, the base of the next one's.
    last_sent: u64,
    /// `at` of the last forward or drop row, the base of the next one's.
    last_at: u64,
}

impl TrafficLog {
    fn push(&mut self, rec: &TrafficRecord) {
        // Grow once by the longest row, encode in place, then cut back to
        // the row's length: no per-byte capacity checks.
        let start = self.bytes.len();
        self.bytes.resize(start + MAX_ROW, 0);
        let mut row = Row { buf: &mut self.bytes[start..], len: 0 };
        match *rec {
            TrafficRecord::Ingress { id, src, dst, channel, bytes, sent_at, received_at } => {
                let sent = sent_at.as_nanos();
                match dst {
                    Destination::Broadcast => row.byte(TAG_BROADCAST),
                    Destination::Unicast(_) => row.byte(TAG_UNICAST),
                }
                row.varint(id.0);
                row.varint(src.0.into());
                if let Destination::Unicast(to) = dst {
                    row.varint(to.0.into());
                }
                row.varint(channel.0.into());
                row.varint(bytes.into());
                row.delta(self.last_sent, sent);
                row.delta(sent, received_at.as_nanos());
                self.last_sent = sent;
            }
            TrafficRecord::Forward { id, to, at } => {
                row.byte(TAG_FORWARD);
                row.copy(id, to, at, &mut self.last_at);
            }
            TrafficRecord::Drop { id, to, at, reason } => {
                row.byte(
                    TAG_DROP
                        + match reason {
                            DropReason::Loss => 0,
                            DropReason::NoRoute => 1,
                            DropReason::Disconnected => 2,
                            DropReason::Collision => 3,
                        },
                );
                row.copy(id, to, at, &mut self.last_at);
            }
        }
        let end = start + row.len;
        self.bytes.truncate(end);
        self.rows += 1;
    }

    fn len(&self) -> usize {
        self.rows
    }

    /// The rows, decoded in append order.
    fn iter(&self) -> Rows<'_> {
        Rows { bytes: &self.bytes, left: self.rows, last_sent: 0, last_at: 0 }
    }

    fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        write_log(&mut BufWriter::new(File::create(path)?), self.rows, self.iter())
    }

    fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let mut log = TrafficLog::default();
        read_log(&mut BufReader::new(File::open(path)?), |rec| log.push(&rec))?;
        Ok(log)
    }
}

/// Decoder over a [`TrafficLog`]'s rows; carries the same delta bases
/// as the encoder.
struct Rows<'a> {
    bytes: &'a [u8],
    left: usize,
    last_sent: u64,
    last_at: u64,
}

impl Rows<'_> {
    fn varint(&mut self) -> u64 {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let (&b, rest) = self.bytes.split_first().expect(CORRUPT);
            self.bytes = rest;
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    fn u32(&mut self) -> u32 {
        u32::try_from(self.varint()).expect(CORRUPT)
    }

    fn delta(&mut self, base: u64) -> u64 {
        let z = self.varint();
        base.wrapping_add((z >> 1) ^ (z & 1).wrapping_neg())
    }
}

impl Iterator for Rows<'_> {
    type Item = TrafficRecord;

    fn next(&mut self) -> Option<TrafficRecord> {
        let (&tag, rest) = self.bytes.split_first()?;
        self.bytes = rest;
        self.left -= 1;
        let id = PacketId(self.varint());
        if tag <= TAG_UNICAST {
            let src = NodeId(self.u32());
            let dst = match tag {
                TAG_UNICAST => Destination::Unicast(NodeId(self.u32())),
                _ => Destination::Broadcast,
            };
            let channel = ChannelId(u16::try_from(self.varint()).expect(CORRUPT));
            let bytes = self.u32();
            self.last_sent = self.delta(self.last_sent);
            let received = self.delta(self.last_sent);
            return Some(TrafficRecord::Ingress {
                id,
                src,
                dst,
                channel,
                bytes,
                sent_at: EmuTime::from_nanos(self.last_sent),
                received_at: EmuTime::from_nanos(received),
            });
        }
        let to = NodeId(self.u32());
        self.last_at = self.delta(self.last_at);
        let at = EmuTime::from_nanos(self.last_at);
        Some(match tag {
            TAG_FORWARD => TrafficRecord::Forward { id, to, at },
            _ => {
                let reason = DROP_REASONS.get(usize::from(tag - TAG_DROP)).expect(CORRUPT);
                TrafficRecord::Drop { id, to, at, reason: *reason }
            }
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

/// Thread-safe bundle of the traffic, scene and metrics logs — the sink
/// the server's recording threads (§3.2 step 7) append to.
///
/// The recorder keeps its own `poem-obs` counters (records buffered per
/// log, records flushed to disk); [`Recorder::register_metrics`] attaches
/// them to a shared registry so they show up in the server's snapshot.
#[derive(Debug, Default)]
pub struct Recorder {
    traffic: Mutex<TrafficLog>,
    scene: Mutex<LogStore<SceneRecord>>,
    metrics: Mutex<LogStore<MetricsRecord>>,
    faults: Mutex<LogStore<FaultRecord>>,
    traffic_buffered: Arc<Counter>,
    scene_buffered: Arc<Counter>,
    fault_buffered: Arc<Counter>,
    records_written: Arc<Counter>,
    /// Optional disk spool ([`Recorder::attach_spool`]): every record is
    /// mirrored to the segmented store via a non-blocking `offer`, so a
    /// slow disk can only ever *drop* spool copies, never backpressure
    /// the recording threads. The in-memory logs above stay authoritative
    /// for replay.
    spool: std::sync::OnceLock<Arc<crate::segment::RecordSpool>>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a disk spool: from now on every record is mirrored (via a
    /// bounded, never-blocking queue) to its segmented store. Call once,
    /// before recording starts; a second spool is rejected.
    pub fn attach_spool(
        &self,
        spool: Arc<crate::segment::RecordSpool>,
    ) -> Result<(), &'static str> {
        self.spool.set(spool).map_err(|_| "a spool is already attached")
    }

    /// The attached spool, if any.
    pub fn spool(&self) -> Option<&Arc<crate::segment::RecordSpool>> {
        self.spool.get()
    }

    /// Appends a traffic record.
    pub fn record_traffic(&self, rec: TrafficRecord) {
        if let Some(s) = self.spool.get() {
            s.offer(crate::segment::SpoolRecord::Traffic(rec.clone()));
        }
        self.traffic.lock().push(&rec);
        self.traffic_buffered.inc();
    }

    /// Appends several traffic records, in iteration order, under one
    /// acquisition of the log's lock — the real-time fire path records a
    /// whole frame's copies at once.
    pub fn record_traffic_many(&self, recs: impl IntoIterator<Item = TrafficRecord>) {
        let spool = self.spool.get();
        let mut log = self.traffic.lock();
        let before = log.len();
        for rec in recs {
            if let Some(s) = spool {
                s.offer(crate::segment::SpoolRecord::Traffic(rec.clone()));
            }
            log.push(&rec);
        }
        self.traffic_buffered.add((log.len() - before) as u64);
    }

    /// Appends a scene record.
    pub fn record_scene(&self, rec: SceneRecord) {
        if let Some(s) = self.spool.get() {
            s.offer(crate::segment::SpoolRecord::Scene(rec.clone()));
        }
        self.scene.lock().append(rec);
        self.scene_buffered.inc();
    }

    /// Appends a metrics snapshot record.
    pub fn record_metrics(&self, rec: MetricsRecord) {
        if let Some(s) = self.spool.get() {
            s.offer(crate::segment::SpoolRecord::Metrics(rec.clone()));
        }
        self.metrics.lock().append(rec);
    }

    /// Appends a fault-injection record.
    pub fn record_fault(&self, rec: FaultRecord) {
        if let Some(s) = self.spool.get() {
            s.offer(crate::segment::SpoolRecord::Fault(rec.clone()));
        }
        self.faults.lock().append(rec);
        self.fault_buffered.inc();
    }

    /// Snapshot of the traffic log.
    pub fn traffic(&self) -> Vec<TrafficRecord> {
        self.traffic.lock().iter().collect()
    }

    /// Snapshot of the scene log.
    pub fn scene(&self) -> Vec<SceneRecord> {
        self.scene.lock().items().to_vec()
    }

    /// Snapshot of the metrics log.
    pub fn metrics(&self) -> Vec<MetricsRecord> {
        self.metrics.lock().items().to_vec()
    }

    /// Snapshot of the fault log.
    pub fn faults(&self) -> Vec<FaultRecord> {
        self.faults.lock().items().to_vec()
    }

    /// Current record counts `(traffic, scene)`.
    pub fn counts(&self) -> (usize, usize) {
        (self.traffic.lock().len(), self.scene.lock().len())
    }

    /// Attaches the recorder's own instruments to `registry` under the
    /// `poem_recorder_*` names.
    pub fn register_metrics(&self, registry: &Registry) {
        registry.register_counter(
            "poem_recorder_traffic_records_total",
            Arc::clone(&self.traffic_buffered),
        );
        registry.register_counter(
            "poem_recorder_scene_records_total",
            Arc::clone(&self.scene_buffered),
        );
        registry.register_counter(
            "poem_recorder_fault_records_total",
            Arc::clone(&self.fault_buffered),
        );
        registry.register_counter(
            "poem_recorder_records_written_total",
            Arc::clone(&self.records_written),
        );
    }

    /// Saves all logs: `<stem>.traffic.poemlog`, `<stem>.scene.poemlog`,
    /// `<stem>.metrics.poemlog` and `<stem>.faults.poemlog`.
    ///
    /// Each log is copied under its own lock and written with no lock
    /// held, so recording threads never wait on the disk.
    pub fn save(&self, stem: impl AsRef<Path>) -> io::Result<()> {
        let stem = stem.as_ref();
        let traffic = self.traffic.lock().clone();
        let scene = self.scene.lock().clone();
        let metrics = self.metrics.lock().clone();
        let faults = self.faults.lock().clone();
        traffic.save(stem.with_extension("traffic.poemlog"))?;
        scene.save(stem.with_extension("scene.poemlog"))?;
        metrics.save(stem.with_extension("metrics.poemlog"))?;
        faults.save(stem.with_extension("faults.poemlog"))?;
        self.records_written
            .add((traffic.len() + scene.len() + metrics.len() + faults.len()) as u64);
        Ok(())
    }

    /// Loads logs saved by [`Recorder::save`]. Missing metrics or fault
    /// files are tolerated (logs written before those layers existed).
    pub fn load(stem: impl AsRef<Path>) -> io::Result<Self> {
        let stem = stem.as_ref();
        let traffic = TrafficLog::load(stem.with_extension("traffic.poemlog"))?;
        let scene = LogStore::load(stem.with_extension("scene.poemlog"))?;
        let metrics = match LogStore::load(stem.with_extension("metrics.poemlog")) {
            Ok(m) => m,
            Err(e) if e.kind() == io::ErrorKind::NotFound => LogStore::new(),
            Err(e) => return Err(e),
        };
        let faults = match LogStore::load(stem.with_extension("faults.poemlog")) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => LogStore::new(),
            Err(e) => return Err(e),
        };
        Ok(Recorder {
            traffic: Mutex::new(traffic),
            scene: Mutex::new(scene),
            metrics: Mutex::new(metrics),
            faults: Mutex::new(faults),
            ..Recorder::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;
    use std::sync::Arc;

    fn sample_records(n: u64) -> Vec<TrafficRecord> {
        (0..n)
            .map(|i| TrafficRecord::Forward {
                id: PacketId(i),
                to: NodeId((i % 5) as u32),
                at: EmuTime::from_micros(i * 100),
            })
            .collect()
    }

    #[test]
    fn store_roundtrips_through_memory() {
        let store: LogStore<TrafficRecord> = sample_records(100).into_iter().collect();
        let mut buf = Vec::new();
        store.save_to(&mut buf).unwrap();
        let loaded: LogStore<TrafficRecord> = LogStore::load_from(&mut Cursor::new(buf)).unwrap();
        assert_eq!(loaded.items(), store.items());
    }

    #[test]
    fn store_roundtrips_through_file() {
        let dir = std::env::temp_dir().join(format!("poemlog-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.poemlog");
        let store: LogStore<TrafficRecord> = sample_records(10).into_iter().collect();
        store.save(&path).unwrap();
        let loaded: LogStore<TrafficRecord> = LogStore::load(&path).unwrap();
        assert_eq!(loaded.items(), store.items());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_store_roundtrips() {
        let store: LogStore<TrafficRecord> = LogStore::new();
        let mut buf = Vec::new();
        store.save_to(&mut buf).unwrap();
        let loaded: LogStore<TrafficRecord> = LogStore::load_from(&mut Cursor::new(buf)).unwrap();
        assert!(loaded.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        LogStore::<TrafficRecord>::new().save_to(&mut buf).unwrap();
        buf[0] = b'X';
        assert!(LogStore::<TrafficRecord>::load_from(&mut Cursor::new(buf)).is_err());
    }

    #[test]
    fn truncated_file_rejected() {
        let store: LogStore<TrafficRecord> = sample_records(5).into_iter().collect();
        let mut buf = Vec::new();
        store.save_to(&mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(LogStore::<TrafficRecord>::load_from(&mut Cursor::new(buf)).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let store: LogStore<TrafficRecord> = sample_records(2).into_iter().collect();
        let mut buf = Vec::new();
        store.save_to(&mut buf).unwrap();
        buf.push(0);
        assert!(LogStore::<TrafficRecord>::load_from(&mut Cursor::new(buf)).is_err());
    }

    #[test]
    fn recorder_is_concurrent() {
        let rec = Arc::new(Recorder::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let rec = Arc::clone(&rec);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    rec.record_traffic(TrafficRecord::Drop {
                        id: PacketId(t * 1000 + i),
                        to: NodeId(1),
                        at: EmuTime::from_nanos(i),
                        reason: DropReason::Loss,
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.counts().0, 4000);
    }

    #[test]
    fn recorder_counts_buffered_records_in_registry() {
        let rec = Recorder::new();
        let registry = poem_obs::Registry::new();
        rec.register_metrics(&registry);
        for r in sample_records(3) {
            rec.record_traffic(r);
        }
        rec.record_scene(crate::records::SceneRecord::new(
            EmuTime::from_secs(1),
            poem_core::scene::SceneOp::RemoveNode { id: NodeId(3) },
        ));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("poem_recorder_traffic_records_total"), Some(3));
        assert_eq!(snap.counter("poem_recorder_scene_records_total"), Some(1));
        assert_eq!(snap.counter("poem_recorder_records_written_total"), Some(0));
    }

    #[test]
    fn recorder_metrics_log_roundtrips_and_missing_file_tolerated() {
        let dir = std::env::temp_dir().join(format!("poemmet-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rec = Recorder::new();
        rec.record_metrics(crate::records::MetricsRecord {
            at: EmuTime::from_secs(2),
            counters: vec![("poem_ingest_packets_total".into(), 4)],
            gauges: vec![],
            histograms: vec![(
                "poem_scan_lag_ns".into(),
                crate::records::HistogramRow {
                    bounds: vec![1_000],
                    buckets: vec![1, 0],
                    count: 1,
                    sum: 10,
                },
            )],
        });
        let stem = dir.join("run-metrics");
        rec.save(&stem).unwrap();
        let loaded = Recorder::load(&stem).unwrap();
        assert_eq!(loaded.metrics(), rec.metrics());
        // Pre-observability logs have no metrics file: load still succeeds.
        std::fs::remove_file(stem.with_extension("metrics.poemlog")).unwrap();
        let legacy = Recorder::load(&stem).unwrap();
        assert!(legacy.metrics().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recorder_fault_log_roundtrips_and_missing_file_tolerated() {
        let dir = std::env::temp_dir().join(format!("poemfault-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rec = Recorder::new();
        let registry = poem_obs::Registry::new();
        rec.register_metrics(&registry);
        rec.record_fault(crate::records::FaultRecord::Scene {
            at: EmuTime::from_secs(3),
            action: "jam ch1".into(),
        });
        assert_eq!(registry.snapshot().counter("poem_recorder_fault_records_total"), Some(1));
        let stem = dir.join("run-faults");
        rec.save(&stem).unwrap();
        let loaded = Recorder::load(&stem).unwrap();
        assert_eq!(loaded.faults(), rec.faults());
        // Pre-chaos logs have no faults file: load still succeeds.
        std::fs::remove_file(stem.with_extension("faults.poemlog")).unwrap();
        let legacy = Recorder::load(&stem).unwrap();
        assert!(legacy.faults().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Ids and times at the edges: 0, `u64::MAX`, small steps and any
    /// value, so consecutive draws also run backwards.
    fn edge_u64() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0u64), Just(u64::MAX), 0u64..1_000, any::<u64>()]
    }

    fn edge_u32() -> impl Strategy<Value = u32> {
        prop_oneof![Just(0u32), Just(u32::MAX), 0u32..64, any::<u32>()]
    }

    fn any_traffic_record() -> impl Strategy<Value = TrafficRecord> {
        let ingress = (
            (edge_u64(), edge_u32(), prop::option::of(edge_u32())),
            (any::<u16>(), edge_u32(), edge_u64(), edge_u64()),
        )
            .prop_map(|((id, src, to), (channel, bytes, sent, received))| {
                TrafficRecord::Ingress {
                    id: PacketId(id),
                    src: NodeId(src),
                    dst: to.map_or(Destination::Broadcast, |n| Destination::Unicast(NodeId(n))),
                    channel: ChannelId(channel),
                    bytes,
                    sent_at: EmuTime::from_nanos(sent),
                    received_at: EmuTime::from_nanos(received),
                }
            });
        let forward = (edge_u64(), edge_u32(), edge_u64()).prop_map(|(id, to, at)| {
            TrafficRecord::Forward { id: PacketId(id), to: NodeId(to), at: EmuTime::from_nanos(at) }
        });
        let drop = (edge_u64(), edge_u32(), edge_u64(), 0..DROP_REASONS.len()).prop_map(
            |(id, to, at, reason)| TrafficRecord::Drop {
                id: PacketId(id),
                to: NodeId(to),
                at: EmuTime::from_nanos(at),
                reason: DROP_REASONS[reason],
            },
        );
        prop_oneof![ingress, forward, drop]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        fn packed_traffic_log_roundtrips(rows in prop::collection::vec(any_traffic_record(), 0..60)) {
            let rec = Recorder::new();
            let (head, tail) = rows.split_at(rows.len() / 2);
            for r in head {
                rec.record_traffic(r.clone());
            }
            rec.record_traffic_many(tail.iter().cloned());
            prop_assert_eq!(rec.counts().0, rows.len());
            prop_assert_eq!(&rec.traffic(), &rows);

            let dir = std::env::temp_dir().join(format!("poempack-test-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let stem = dir.join("run");
            rec.save(&stem).unwrap();
            prop_assert_eq!(&Recorder::load(&stem).unwrap().traffic(), &rows);
            // The packing is memory-only: the file is what a plain
            // `LogStore` of the same rows writes.
            let mut plain = Vec::new();
            rows.iter().cloned().collect::<LogStore<TrafficRecord>>().save_to(&mut plain).unwrap();
            prop_assert_eq!(std::fs::read(stem.with_extension("traffic.poemlog")).unwrap(), plain);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Exact packed sizes of two fixed row patterns, so a change that
    /// fattens rows fails here and not only in the benchmark's memory
    /// figures. Ids are 41-bit (6 varint bytes), as the load generators
    /// mint them.
    #[test]
    fn packed_row_sizes_are_exact() {
        // 1 000 unicast packets with one forward each. Ingress: tag, id 6,
        // src, dst, channel, bytes, Δsent 3, Δreceived 3 = 17 B. Forward:
        // tag, id 6, to, Δat 3 = 11 B.
        let mut log = TrafficLog::default();
        for i in 0..1_000u64 {
            let sent = EmuTime::from_micros((i + 1) * 100);
            log.push(&TrafficRecord::Ingress {
                id: PacketId((1 << 40) | i),
                src: NodeId(1),
                dst: Destination::Unicast(NodeId(2)),
                channel: ChannelId(1),
                bytes: 92,
                sent_at: sent,
                received_at: sent + poem_core::EmuDuration::from_micros(30),
            });
            log.push(&TrafficRecord::Forward {
                id: PacketId((1 << 40) | i),
                to: NodeId(2),
                at: sent + poem_core::EmuDuration::from_micros(50),
            });
        }
        assert_eq!(log.len(), 2_000);
        assert_eq!(log.bytes.len(), 1_000 * (17 + 11));

        // 40 broadcasts with 25 copies each, every fifth copy lost.
        // Ingress: tag, id 6, src, channel, bytes 2, Δsent 3, Δreceived 3
        // = 17 B. A packet's first copy is 1 ms − 24 µs after the last
        // one before it (Δat 3: 11 B), its other 24 follow 1 µs apart
        // (Δat 2: 10 B); the very first copy's Δat from 0 takes 4.
        let mut log = TrafficLog::default();
        for k in 0..40u64 {
            let id = PacketId((3 << 40) | k);
            let sent = EmuTime::from_millis(k + 1);
            log.push(&TrafficRecord::Ingress {
                id,
                src: NodeId(1),
                dst: Destination::Broadcast,
                channel: ChannelId(2),
                bytes: 1_052,
                sent_at: sent,
                received_at: sent + poem_core::EmuDuration::from_micros(40),
            });
            for j in 0..25u32 {
                let to = NodeId(2 + j);
                let at = sent + poem_core::EmuDuration::from_micros(100 + i64::from(j));
                log.push(&if j % 5 == 4 {
                    TrafficRecord::Drop { id, to, at, reason: DropReason::Loss }
                } else {
                    TrafficRecord::Forward { id, to, at }
                });
            }
        }
        assert_eq!(log.len(), 40 * 26);
        assert_eq!(log.bytes.len(), 40 * (17 + 11 + 24 * 10) + 1);
    }

    #[test]
    fn recorder_save_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!("poemrec-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rec = Recorder::new();
        for r in sample_records(20) {
            rec.record_traffic(r);
        }
        rec.record_scene(crate::records::SceneRecord::new(
            EmuTime::from_secs(1),
            poem_core::scene::SceneOp::RemoveNode { id: NodeId(3) },
        ));
        let stem = dir.join("run1");
        rec.save(&stem).unwrap();
        let loaded = Recorder::load(&stem).unwrap();
        assert_eq!(loaded.traffic(), rec.traffic());
        assert_eq!(loaded.scene(), rec.scene());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
