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

use crate::records::{FaultRecord, MetricsRecord, SceneRecord, TrafficRecord};
use parking_lot::Mutex;
use poem_obs::{Counter, Registry};
use poem_proto::{from_bytes, to_bytes};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"POEMLOG1";

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
        w.write_all(MAGIC)?;
        w.write_all(&(self.items.len() as u64).to_le_bytes())?;
        for item in &self.items {
            let body = to_bytes(item).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            w.write_all(&(body.len() as u32).to_le_bytes())?;
            w.write_all(&body)?;
        }
        w.flush()
    }

    /// Saves the log to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        self.save_to(&mut w)
    }
}

impl<T: DeserializeOwned> LogStore<T> {
    /// Deserializes a log from a reader, verifying integrity.
    pub fn load_from(r: &mut impl Read) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad log magic"));
        }
        let mut count_bytes = [0u8; 8];
        r.read_exact(&mut count_bytes)?;
        let count = u64::from_le_bytes(count_bytes) as usize;
        let mut items = Vec::with_capacity(count.min(1 << 20));
        let mut buf = Vec::new();
        for _ in 0..count {
            let mut len_bytes = [0u8; 4];
            r.read_exact(&mut len_bytes)?;
            let len = u32::from_le_bytes(len_bytes) as usize;
            buf.resize(len, 0);
            r.read_exact(&mut buf)?;
            items
                .push(from_bytes(&buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?);
        }
        // Trailing garbage means the file is not what it claims to be.
        let mut probe = [0u8; 1];
        if r.read(&mut probe)? != 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "trailing bytes in log"));
        }
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

/// Thread-safe bundle of the traffic, scene and metrics logs — the sink
/// the server's recording threads (§3.2 step 7) append to.
///
/// The recorder keeps its own `poem-obs` counters (records buffered per
/// log, records flushed to disk); [`Recorder::register_metrics`] attaches
/// them to a shared registry so they show up in the server's snapshot.
#[derive(Debug, Default)]
pub struct Recorder {
    traffic: Mutex<LogStore<TrafficRecord>>,
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
        self.traffic.lock().append(rec);
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
            log.append(rec);
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
        self.traffic.lock().items().to_vec()
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
    pub fn save(&self, stem: impl AsRef<Path>) -> io::Result<()> {
        let stem = stem.as_ref();
        let (traffic, scene, metrics, faults) =
            (self.traffic.lock(), self.scene.lock(), self.metrics.lock(), self.faults.lock());
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
        let traffic = LogStore::load(stem.with_extension("traffic.poemlog"))?;
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
    use crate::records::DropReason;
    use poem_core::{EmuTime, NodeId, PacketId};
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
