//! Durable spill for the observability store: sealed `ObsStore` chunks
//! written through the [`OpLog`] record codec, GC'd by epoch into rollup
//! records, rehydrated on restart.
//!
//! The file at [`SPILL_FILE`] is an ordinary store record log — same framing,
//! same torn-tail truncation on open — so a kill mid-spill costs at most the
//! unacknowledged tail record. Record bodies use the `ofscil_serve::bytes`
//! conventions, with `u16`-prefixed names. Two record kinds live in it:
//!
//! * **chunk** ([`REC_CHUNK`]): one sealed, time-sorted chunk, row by row,
//! * **rollup** ([`REC_ROLLUP`]): one per-minute [`Rollup`] cell — what a
//!   chunk becomes when the spill's byte budget evicts it. Eviction folds
//!   the oldest chunk records into rollup cells and rewrites the log under
//!   a bumped header epoch (temporary sibling + rename, like every other
//!   compaction in this crate), so raw history ages into downsampled
//!   history instead of vanishing.
//!
//! [`ObsSpill`] implements `ofscil_obs`'s `ChunkSpill` hook, swallowing its
//! own I/O errors into a counter — observability durability must never fail
//! the serving path that triggered a seal.

use crate::error::StoreError;
use crate::oplog::{OpLog, RawRecord, HEADER_LEN, RECORD_OVERHEAD};
use ofscil_obs::{
    ChunkSpill, Event, EventKind, ObsCursor, ObsStore, Rollup, Summary, ROLLUP_BUCKET_US,
};
use ofscil_serve::bytes::{ByteReader, ByteWriter, DecodeError};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;

/// File name of the spill log inside a store root.
pub const SPILL_FILE: &str = "obs.spill";

/// Record kind: one sealed chunk of raw events.
pub const REC_CHUNK: u8 = 1;

/// Record kind: one per-minute rollup cell compacted from evicted chunks.
pub const REC_ROLLUP: u8 = 2;

/// Default byte budget of the spill file before eviction folds the oldest
/// chunks into rollup records.
pub const DEFAULT_SPILL_BUDGET: u64 = 16 * 1024 * 1024;

/// Reads a name the matching writer wrote: [`ByteReader::string_u16`] in
/// spill records, [`ByteReader::string_u32`] inside wire payloads. The obs
/// row codec below is shared by both formats and differs only in that prefix.
pub type ReadName<'a> = fn(&mut ByteReader<'a>) -> Result<String, DecodeError>;

fn read_kind(r: &mut ByteReader<'_>, field: &'static str) -> Result<EventKind, DecodeError> {
    let tag = r.u8()?;
    EventKind::from_code(tag).ok_or(DecodeError::BadTag { field, tag })
}

/// Appends a [`Summary`]: min, max, sum (`f64` bits) and count.
pub fn write_summary(w: &mut ByteWriter, summary: &Summary) {
    w.f64(summary.min);
    w.f64(summary.max);
    w.f64(summary.sum);
    w.u64(summary.count);
}

/// Reads a [`Summary`] written by [`write_summary`].
pub fn read_summary(r: &mut ByteReader<'_>) -> Result<Summary, DecodeError> {
    Ok(Summary { min: r.f64()?, max: r.f64()?, sum: r.f64()?, count: r.u64()? })
}

/// Appends one obs event row: name, kind, seq, time, energy, latency,
/// accuracy and WAL bytes.
pub fn write_event(w: &mut ByteWriter, event: &Event, write_name: fn(&mut ByteWriter, &str)) {
    write_name(w, &event.deployment);
    w.u8(event.kind.code());
    w.u64(event.seq);
    w.u64(event.time_us);
    w.f64(event.energy_mj);
    w.u64(event.latency_us);
    w.f32(event.accuracy);
    w.u64(event.wal_bytes);
}

/// Reads an event row written by [`write_event`].
pub fn read_event<'a>(
    r: &mut ByteReader<'a>,
    read_name: ReadName<'a>,
) -> Result<Event, DecodeError> {
    Ok(Event {
        deployment: read_name(r)?,
        kind: read_kind(r, "obs event kind")?,
        seq: r.u64()?,
        time_us: r.u64()?,
        energy_mj: r.f64()?,
        latency_us: r.u64()?,
        accuracy: r.f32()?,
        wal_bytes: r.u64()?,
    })
}

/// Appends one rollup cell: bucket, name, kind, count and three summaries.
pub fn write_rollup(w: &mut ByteWriter, rollup: &Rollup, write_name: fn(&mut ByteWriter, &str)) {
    w.u64(rollup.bucket_us);
    write_name(w, &rollup.deployment);
    w.u8(rollup.kind.code());
    w.u64(rollup.count);
    write_summary(w, &rollup.energy_mj);
    write_summary(w, &rollup.latency_us);
    write_summary(w, &rollup.accuracy);
}

/// Reads a rollup cell written by [`write_rollup`].
pub fn read_rollup<'a>(
    r: &mut ByteReader<'a>,
    read_name: ReadName<'a>,
) -> Result<Rollup, DecodeError> {
    Ok(Rollup {
        bucket_us: r.u64()?,
        deployment: read_name(r)?,
        kind: read_kind(r, "obs rollup kind")?,
        count: r.u64()?,
        energy_mj: read_summary(r)?,
        latency_us: read_summary(r)?,
        accuracy: read_summary(r)?,
    })
}

fn encode_chunk(events: &[Event]) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(16 + events.len() * 64);
    w.u32(events.len() as u32);
    for event in events {
        write_event(&mut w, event, ByteWriter::string_u16);
    }
    w.into_bytes()
}

fn decode_chunk(body: &[u8]) -> Result<Vec<Event>, DecodeError> {
    let mut r = ByteReader::new(body);
    let count = r.count("chunk events", 1)?;
    let events =
        (0..count).map(|_| read_event(&mut r, ByteReader::string_u16)).collect::<Result<_, _>>()?;
    r.finish()?;
    Ok(events)
}

fn encode_rollup(rollup: &Rollup) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(128);
    write_rollup(&mut w, rollup, ByteWriter::string_u16);
    w.into_bytes()
}

fn decode_rollup(body: &[u8]) -> Result<Rollup, DecodeError> {
    let mut r = ByteReader::new(body);
    let rollup = read_rollup(&mut r, ByteReader::string_u16)?;
    r.finish()?;
    Ok(rollup)
}

/// What a previous life left in the spill file, decoded and ready to adopt.
#[derive(Debug, Default)]
pub struct SpillRecovery {
    /// Raw chunks still resident in the spill, oldest first.
    pub chunks: Vec<Vec<Event>>,
    /// Rollup cells the spill's own GC compacted evicted chunks into.
    pub rollups: Vec<Rollup>,
    /// Intact log records whose *body* failed to decode (foreign kind or
    /// malformed payload) — skipped, not fatal.
    pub corrupt_records: u64,
    /// The log's generation epoch (bumped by every spill GC).
    pub epoch: u64,
}

impl SpillRecovery {
    /// Total raw events across the recovered chunks.
    pub fn events(&self) -> u64 {
        self.chunks.iter().map(|c| c.len() as u64).sum()
    }

    /// Adopts everything into `store`: rollup cells first (the oldest
    /// history), then the raw chunks. After this, queries answer as if the
    /// previous process had never died — minus whatever sat unsealed in its
    /// active chunk when it was killed.
    pub fn rehydrate_into(&self, store: &ObsStore) {
        for rollup in &self.rollups {
            store.adopt_rollup(rollup);
        }
        for chunk in &self.chunks {
            store.adopt_chunk(chunk);
        }
    }

    /// Raw spilled events **strictly after** `cursor`, in `(time_us, seq)`
    /// order — the durable half of a resume: a subscriber reconnecting with
    /// a cursor back-fills this range from the spill, then splices onto the
    /// live tail. Uses the same strictly-after bound as
    /// `ObsStore::subscribe`, so spill-served and store-served back-fill
    /// partition identically against a live stream.
    pub fn events_after(&self, cursor: ObsCursor) -> Vec<Event> {
        let mut events: Vec<Event> = self
            .chunks
            .iter()
            .flatten()
            .filter(|event| event.order_key() > cursor.key())
            .cloned()
            .collect();
        events.sort_by_key(Event::order_key);
        events
    }

    /// Rollup cells whose minute bucket **could** hold rows after `cursor`
    /// — every cell whose bucket ends past the cursor's time. Cells keep no
    /// per-row sequence numbers, so a bucket straddling the cursor is
    /// returned whole; a consumer splicing rollups under raw events keeps
    /// exactness through `ObsResult::merge`'s dedup, same as the
    /// auto-resolution query path.
    pub fn rollups_after(&self, cursor: ObsCursor) -> Vec<Rollup> {
        self.rollups
            .iter()
            .filter(|cell| cell.bucket_us.saturating_add(ROLLUP_BUCKET_US) > cursor.time_us)
            .cloned()
            .collect()
    }
}

/// A point-in-time snapshot of the spill's health.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Chunk records currently in the log.
    pub chunk_records: u64,
    /// Rollup records currently in the log.
    pub rollup_records: u64,
    /// Log file size in bytes (header included).
    pub bytes: u64,
    /// The log's generation epoch (bumped by every GC rewrite).
    pub epoch: u64,
    /// Chunk records evicted into rollups so far (this process).
    pub gc_chunks: u64,
    /// Spill or GC I/O failures swallowed so far (this process). The hook
    /// must never fail the serving path, so errors land here.
    pub io_errors: u64,
}

#[derive(Debug)]
struct SpillInner {
    log: OpLog,
    /// In-memory mirror of the log's records, in file order — [`OpLog`]
    /// hands its records out once at open, so GC keeps its own copy to
    /// rewrite from. Bounded by the byte budget, same as the file.
    mirror: Vec<RawRecord>,
    byte_budget: u64,
    gc_chunks: u64,
    io_errors: u64,
}

impl SpillInner {
    fn mirror_bytes(&self) -> u64 {
        HEADER_LEN as u64
            + self
                .mirror
                .iter()
                .map(|(_, body)| (body.len() + RECORD_OVERHEAD) as u64)
                .sum::<u64>()
    }

    /// Folds the oldest chunk records into rollup cells until the log fits
    /// the budget, then rewrites the file under a bumped epoch. Rollup
    /// records always survive — they are the already-compacted form.
    fn gc(&mut self) -> Result<(), StoreError> {
        if self.mirror_bytes() <= self.byte_budget {
            return Ok(());
        }
        let mut cells: BTreeMap<(u64, String, u8), Rollup> = BTreeMap::new();
        let mut absorb = |rollup: Rollup| match cells.entry(rollup.key()) {
            std::collections::btree_map::Entry::Occupied(mut slot) => {
                slot.get_mut().absorb(&rollup)
            }
            std::collections::btree_map::Entry::Vacant(slot) => {
                slot.insert(rollup);
            }
        };
        let mut chunks: Vec<Vec<u8>> = Vec::new();
        for (kind, body) in &self.mirror {
            match *kind {
                REC_ROLLUP => {
                    if let Ok(rollup) = decode_rollup(body) {
                        absorb(rollup);
                    }
                }
                _ => chunks.push(body.clone()),
            }
        }
        // Evict oldest-first until the *surviving* records fit. The rollup
        // side only grows by bounded cells, so this converges.
        let mut evicted = 0usize;
        let mut remaining_bytes: u64 =
            chunks.iter().map(|b| (b.len() + RECORD_OVERHEAD) as u64).sum();
        while evicted < chunks.len() && HEADER_LEN as u64 + remaining_bytes > self.byte_budget {
            remaining_bytes -= (chunks[evicted].len() + RECORD_OVERHEAD) as u64;
            if let Ok(events) = decode_chunk(&chunks[evicted]) {
                for event in &events {
                    let key = (Rollup::bucket_of(event.time_us), event.deployment.clone(),
                        event.kind.code());
                    match cells.entry(key) {
                        std::collections::btree_map::Entry::Occupied(mut slot) => {
                            slot.get_mut().observe(event)
                        }
                        std::collections::btree_map::Entry::Vacant(slot) => {
                            let mut cell = Rollup::new(
                                Rollup::bucket_of(event.time_us),
                                &event.deployment,
                                event.kind,
                            );
                            cell.observe(event);
                            slot.insert(cell);
                        }
                    }
                }
            }
            evicted += 1;
        }
        self.gc_chunks += evicted as u64;
        let mut records: Vec<RawRecord> =
            cells.values().map(|cell| (REC_ROLLUP, encode_rollup(cell))).collect();
        records.extend(chunks.into_iter().skip(evicted).map(|body| (REC_CHUNK, body)));
        let epoch = self.log.epoch().wrapping_add(1);
        self.log.rewrite_with_epoch(&records, epoch)?;
        self.mirror = records;
        Ok(())
    }
}

/// The durable side of an observability pipeline: an [`OpLog`]-backed spill
/// file that sealed chunks are appended to, with budget-driven compaction
/// into rollup records. Implements `ofscil_obs`'s [`ChunkSpill`] hook.
#[derive(Debug)]
pub struct ObsSpill {
    inner: Mutex<SpillInner>,
}

impl ObsSpill {
    /// Opens (or creates) the spill at `path` with the
    /// [default budget](DEFAULT_SPILL_BUDGET), returning the handle and
    /// everything a previous life spilled (torn tail already truncated by
    /// the log open).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] for filesystem failures and
    /// [`StoreError::BadLogHeader`] when the file is not a store log.
    pub fn open(path: &Path) -> Result<(ObsSpill, SpillRecovery), StoreError> {
        ObsSpill::open_with(path, DEFAULT_SPILL_BUDGET)
    }

    /// Like [`ObsSpill::open`] with an explicit byte budget (clamped ≥ 1).
    ///
    /// # Errors
    ///
    /// See [`ObsSpill::open`].
    pub fn open_with(
        path: &Path,
        byte_budget: u64,
    ) -> Result<(ObsSpill, SpillRecovery), StoreError> {
        let (log, records) = OpLog::open(path)?;
        let mut recovery = SpillRecovery { epoch: log.epoch(), ..SpillRecovery::default() };
        let mut mirror = Vec::with_capacity(records.len());
        for (kind, body) in records {
            let ok = match kind {
                REC_CHUNK => decode_chunk(&body).map(|events| recovery.chunks.push(events)).is_ok(),
                REC_ROLLUP => {
                    decode_rollup(&body).map(|rollup| recovery.rollups.push(rollup)).is_ok()
                }
                _ => false,
            };
            if ok {
                mirror.push((kind, body));
            } else {
                recovery.corrupt_records += 1;
            }
        }
        let spill = ObsSpill {
            inner: Mutex::new(SpillInner {
                log,
                mirror,
                byte_budget: byte_budget.max(1),
                gc_chunks: 0,
                io_errors: 0,
            }),
        };
        Ok((spill, recovery))
    }

    /// A snapshot of the spill's counters.
    pub fn stats(&self) -> SpillStats {
        let inner = self.inner.lock().expect("obs spill lock");
        let chunk_records =
            inner.mirror.iter().filter(|(kind, _)| *kind == REC_CHUNK).count() as u64;
        SpillStats {
            chunk_records,
            rollup_records: inner.mirror.len() as u64 - chunk_records,
            bytes: inner.log.bytes(),
            epoch: inner.log.epoch(),
            gc_chunks: inner.gc_chunks,
            io_errors: inner.io_errors,
        }
    }
}

impl ChunkSpill for ObsSpill {
    fn spill_chunk(&self, events: &[Event]) {
        let body = encode_chunk(events);
        let mut inner = self.inner.lock().expect("obs spill lock");
        match inner.log.append(REC_CHUNK, &body) {
            Ok(()) => inner.mirror.push((REC_CHUNK, body)),
            Err(_) => {
                inner.io_errors += 1;
                return;
            }
        }
        if inner.gc().is_err() {
            inner.io_errors += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofscil_obs::{ObsConfig, ObsQuery, Resolution};
    use std::fs::OpenOptions;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("ofscil-obs-spill-{}-{tag}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn event(deployment: &str, t: u64, seq: u64) -> Event {
        Event::new(EventKind::Infer, deployment)
            .with_time_us(t)
            .with_seq(seq)
            .with_energy_mj(0.25)
            .with_latency_us(100)
    }

    #[test]
    fn spill_reopen_rehydrate_roundtrip() {
        let path = temp_path("roundtrip");
        {
            let (spill, recovery) = ObsSpill::open(&path).unwrap();
            assert_eq!(recovery.events(), 0);
            spill.spill_chunk(&[event("t", 10, 0), event("t", 20, 1)]);
            spill.spill_chunk(&[event("u", 30, 2)]);
            assert_eq!(spill.stats().chunk_records, 2);
        }
        let (_spill, recovery) = ObsSpill::open(&path).unwrap();
        assert_eq!(recovery.chunks.len(), 2);
        assert_eq!(recovery.events(), 3);
        assert_eq!(recovery.corrupt_records, 0);
        // NaN accuracy survives the bit-exact codec.
        assert!(recovery.chunks[0][0].accuracy.is_nan());

        let store = ObsStore::new(ObsConfig::default());
        recovery.rehydrate_into(&store);
        let result = store.query(&ObsQuery::all());
        assert_eq!(result.aggregates.matched, 3);
        assert_eq!(result.events.iter().map(|e| e.time_us).collect::<Vec<_>>(), [10, 20, 30]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_loses_only_the_last_chunk() {
        let path = temp_path("torn");
        {
            let (spill, _) = ObsSpill::open(&path).unwrap();
            spill.spill_chunk(&[event("t", 10, 0)]);
            spill.spill_chunk(&[event("t", 20, 1)]);
        }
        let len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);
        let (spill, recovery) = ObsSpill::open(&path).unwrap();
        assert_eq!(recovery.chunks.len(), 1);
        assert_eq!(recovery.chunks[0][0].time_us, 10);
        // The repaired spill accepts fresh chunks cleanly.
        spill.spill_chunk(&[event("t", 30, 2)]);
        assert_eq!(spill.stats().chunk_records, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn budget_gc_folds_oldest_chunks_into_rollups_and_bumps_epoch() {
        let path = temp_path("gc");
        // ~8 events/chunk at ~50 bytes each: a 2 KiB budget holds a few
        // chunks, then eviction starts.
        let (spill, _) = ObsSpill::open_with(&path, 2048).unwrap();
        let mut appended = 0u64;
        for chunk in 0..20u64 {
            let events: Vec<Event> =
                (0..8).map(|i| event("t", chunk * 1_000 + i, appended + i)).collect();
            appended += 8;
            spill.spill_chunk(&events);
        }
        let stats = spill.stats();
        assert_eq!(stats.io_errors, 0);
        assert!(stats.gc_chunks > 0, "budget never triggered GC");
        assert!(stats.epoch > 0, "GC must bump the log epoch");
        assert!(stats.bytes <= 2048 + 1024, "log failed to shrink near budget");
        assert!(stats.rollup_records > 0);
        drop(spill);

        // Nothing was lost: chunks + rollups still account for every event.
        let (_spill, recovery) = ObsSpill::open_with(&path, 2048).unwrap();
        assert_eq!(recovery.corrupt_records, 0);
        let rolled: u64 = recovery.rollups.iter().map(|r| r.count).sum();
        assert_eq!(rolled + recovery.events(), appended);
        let store = ObsStore::new(ObsConfig::default());
        recovery.rehydrate_into(&store);
        let result =
            store.query(&ObsQuery::all().with_resolution(Resolution::Rollup));
        assert_eq!(result.aggregates.matched, appended);
        assert_eq!(result.aggregates.energy_mj.sum, appended as f64 * 0.25);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cursor_ranged_reads_partition_strictly_after() {
        let path = temp_path("cursor");
        {
            let (spill, _) = ObsSpill::open(&path).unwrap();
            // Out-of-order chunks: the ranged read must re-sort globally.
            spill.spill_chunk(&[event("t", 10, 0), event("t", 30, 2)]);
            spill.spill_chunk(&[event("t", 20, 1), event("t", 30, 3)]);
        }
        let (_spill, recovery) = ObsSpill::open(&path).unwrap();

        // A cursor at (30, 2): the equal row is consumed history, the
        // same-time higher-seq row is not.
        let after = recovery.events_after(ObsCursor { time_us: 30, seq: 2 });
        assert_eq!(
            after.iter().map(|e| (e.time_us, e.seq)).collect::<Vec<_>>(),
            [(30, 3)]
        );
        // From the start everything comes back, globally ordered.
        let all = recovery.events_after(ObsCursor::start());
        assert_eq!(
            all.iter().map(|e| (e.time_us, e.seq)).collect::<Vec<_>>(),
            [(10, 0), (20, 1), (30, 2), (30, 3)]
        );
        // Past the end: nothing.
        assert!(recovery.events_after(ObsCursor { time_us: 31, seq: 0 }).is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rollups_after_keeps_straddling_buckets() {
        let path = temp_path("rollup-cursor");
        // A tight budget turns the early chunks into rollup cells.
        let (spill, _) = ObsSpill::open_with(&path, 512).unwrap();
        for chunk in 0..8u64 {
            let events: Vec<Event> = (0..8)
                .map(|i| event("t", chunk * ROLLUP_BUCKET_US + i, chunk * 8 + i))
                .collect();
            spill.spill_chunk(&events);
        }
        drop(spill);
        let (_spill, recovery) = ObsSpill::open_with(&path, 512).unwrap();
        assert!(!recovery.rollups.is_empty(), "budget never produced rollups");

        assert_eq!(
            recovery.rollups_after(ObsCursor::start()).len(),
            recovery.rollups.len()
        );
        // A cursor inside bucket N keeps bucket N (it straddles) and drops
        // every bucket that ended earlier.
        let cut = ObsCursor { time_us: 3 * ROLLUP_BUCKET_US + 1, seq: 0 };
        let kept = recovery.rollups_after(cut);
        assert!(kept.iter().all(|c| c.bucket_us + ROLLUP_BUCKET_US > cut.time_us));
        assert!(kept.iter().any(|c| c.bucket_us == 3 * ROLLUP_BUCKET_US));
        assert!(kept.len() < recovery.rollups.len(), "old buckets must drop");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_record_kinds_are_skipped_not_fatal() {
        let path = temp_path("foreign-kind");
        {
            let (mut log, _) = OpLog::open(&path).unwrap();
            log.append(REC_CHUNK, &encode_chunk(&[event("t", 10, 0)])).unwrap();
            log.append(0x7f, b"someone else's record").unwrap();
            log.append(REC_CHUNK, b"not a chunk body").unwrap();
        }
        let (_spill, recovery) = ObsSpill::open(&path).unwrap();
        assert_eq!(recovery.chunks.len(), 1);
        assert_eq!(recovery.corrupt_records, 2);
        let _ = std::fs::remove_file(&path);
    }

    /// Chunk and rollup record bodies, byte for byte as recorded before the
    /// codec moved onto `ofscil_serve::bytes` (u16 string prefixes).
    #[test]
    fn chunk_and_rollup_bytes_match_the_golden_encoding() {
        let hex = |bytes: Vec<u8>| -> String {
            bytes.iter().map(|b| format!("{b:02x}")).collect()
        };
        let first = event("tenant-é", 10, 0).with_accuracy(0.5).with_wal_bytes(9);
        let chunk = encode_chunk(&[first.clone(), event("t", 20, 1)]);
        assert_eq!(
            hex(chunk),
            "02000000090074656e616e742dc3a90000000000000000000a00000000000000000000000000d03f6400\
             0000000000000000003f09000000000000000100740001000000000000001400000000000000000000\
             000000d03f64000000000000000000c07f0000000000000000"
        );
        let mut cell = Rollup::new(60_000_000, "tenant-é", EventKind::Infer);
        cell.observe(&first);
        assert_eq!(
            hex(encode_rollup(&cell)),
            "0087930300000000090074656e616e742dc3a9000100000000000000000000000000d03f0000000000\
             00d03f000000000000d03f01000000000000000000000000005940000000000000594000000000000059\
             400100000000000000000000000000e03f000000000000e03f000000000000e03f0100000000000000"
        );
    }

    /// Seeded hostile chunk and rollup bodies: each decodes to a typed error
    /// (counted in `corrupt_records` and skipped on open) or to a value that
    /// re-encodes to exactly the same bytes — never a panic.
    #[test]
    fn hostile_bytes_never_panic_the_chunk_and_rollup_decoders() {
        let chunk = encode_chunk(&[event("tenant-é", 10, 0), event("t", 20, 1)]);
        for hostile in crate::test_support::hostile_variants(&chunk, 0x5b1) {
            if let Ok(events) = decode_chunk(&hostile) {
                assert_eq!(encode_chunk(&events), hostile);
            }
        }
        let mut cell = Rollup::new(60_000_000, "tenant-é", EventKind::Infer);
        cell.observe(&event("tenant-é", 10, 0));
        for hostile in crate::test_support::hostile_variants(&encode_rollup(&cell), 0x5b2) {
            if let Ok(rollup) = decode_rollup(&hostile) {
                assert_eq!(encode_rollup(&rollup), hostile);
            }
        }
    }
}
