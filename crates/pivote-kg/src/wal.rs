//! Durable delta log (write-ahead log) — the write stream as a file.
//!
//! Read traffic scales past one store by replaying the write stream:
//! every [`DeltaBatch`] (inserts **and** retracts) plus every compaction
//! event a leader applies is encoded into an append-only log that any
//! follower can tail to provably reach the leader's state. Because
//! append==rebuild is bit-identical (the equivalence model pins it), a
//! follower that has applied the log through generation `G` holds the
//! same *logical* graph as the leader at `G` — asserted in tests via
//! [`snapshot::fingerprint`](crate::snapshot::fingerprint). Crash
//! recovery falls out of the same mechanism: reload the last snapshot,
//! replay the log.
//!
//! A log is the [`codec`] file header, one `LogBase` frame, then one
//! `Record` frame per event (`str` = len u32 + UTF-8):
//!
//! ```text
//! LogBase: base generation u64 | base graph fingerprint u64
//! Record:  generation u64 | event tag u8 |
//!          0 = Delta:   op count u32, (op tag u8, the op's names as str,
//!                       then for a literal op its kind u8 + lexical str)
//!          1 = Compact: target shards u32
//! ```
//!
//! The base fingerprint pins the log to the graph it continues from; a
//! follower refuses any other. A torn tail (leader crash mid-append) is
//! end-of-log to readers, and [`WalWriter::resume`] truncates it.
//!
//! **Durability.** An appended record reaches the OS, not the disk: it
//! survives a crash of the process, not of the machine. Nothing calls
//! [`WalWriter::sync`] yet.

use crate::codec::{self, CodecError, Dec, Enc, Kind, HEADER_LEN};
use crate::delta::{DeltaBatch, DeltaOp};
use crate::triple::Literal;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

/// One logged store mutation.
///
/// The two event kinds mirror the two ways a leader's generation
/// advances: [`ShardedGraph::apply`](crate::ShardedGraph::apply) and a
/// compaction that swaps the rebuilt store in. Compactions of a
/// one-shard store without tombstones are no-ops: they don't bump the
/// generation and are never logged.
#[derive(Debug, Clone, PartialEq)]
pub enum WalEvent {
    /// A [`DeltaBatch`] applied through the write path.
    Delta(DeltaBatch),
    /// A compaction that swapped the store: a re-partition to
    /// `target_shards`, which also reclaims tombstones.
    Compact {
        /// The shard count the leader compacted to. Followers
        /// re-partition to the same target (the logical graph is
        /// identical at any shard count).
        target_shards: usize,
    },
}

/// One log record: the store generation the event produced, plus the
/// event itself. Generations are strictly increasing within a log, so a
/// follower that restarts mid-stream skips records at or below its
/// synced generation.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// The leader's [`generation`](crate::ShardedGraph::generation)
    /// *after* applying this event.
    pub generation: u64,
    /// What was applied.
    pub event: WalEvent,
}

/// The log header: where this log starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalHeader {
    /// Leader generation when logging began — the first record in the
    /// log has generation `base_generation + 1`.
    pub base_generation: u64,
    /// [`fingerprint`](crate::snapshot::fingerprint) of the leader's
    /// graph when logging began. A follower must start from a snapshot
    /// with this exact fingerprint.
    pub base_fingerprint: u64,
}

/// Write an op's tag, names and literal.
fn op_fields(
    enc: &mut Enc,
    tag: u8,
    names: &[&String],
    value: Option<&Literal>,
) -> Result<(), CodecError> {
    enc.u8(tag);
    for name in names {
        enc.str(name)?;
    }
    value.map_or(Ok(()), |lit| enc.literal(lit))
}

fn encode_op(enc: &mut Enc, op: &DeltaOp) -> Result<(), CodecError> {
    use DeltaOp as D;
    match op {
        D::Entity { name } => op_fields(enc, 0, &[name], None),
        D::DeclarePredicate { name } => op_fields(enc, 1, &[name], None),
        D::DeclareType { name } => op_fields(enc, 2, &[name], None),
        D::DeclareCategory { name } => op_fields(enc, 3, &[name], None),
        D::Triple { s, p, o } => op_fields(enc, 4, &[s, p, o], None),
        D::LiteralTriple { s, p, value } => op_fields(enc, 5, &[s, p], Some(value)),
        D::Typed { entity, type_name } => op_fields(enc, 6, &[entity, type_name], None),
        D::Categorized { entity, category } => op_fields(enc, 7, &[entity, category], None),
        D::Label { entity, label } => op_fields(enc, 8, &[entity, label], None),
        D::Redirect { alias, target } => op_fields(enc, 9, &[alias, target], None),
        D::Disambiguation { alias, target } => op_fields(enc, 10, &[alias, target], None),
        D::RetractTriple { s, p, o } => op_fields(enc, 11, &[s, p, o], None),
        D::RetractLiteral { s, p, value } => op_fields(enc, 12, &[s, p], Some(value)),
        D::RetractTyped { entity, type_name } => op_fields(enc, 13, &[entity, type_name], None),
        D::RetractCategorized { entity, category } => op_fields(enc, 14, &[entity, category], None),
        D::RetractLabel { entity, label } => op_fields(enc, 15, &[entity, label], None),
        D::RetractAlias { alias, target } => op_fields(enc, 16, &[alias, target], None),
    }
}

fn decode_op(batch: &mut DeltaBatch, d: &mut Dec<'_>) -> Result<(), CodecError> {
    // arguments evaluate left to right: the order encode_op wrote them
    match d.u8()? {
        0 => batch.entity(d.str()?),
        1 => batch.declare_predicate(d.str()?),
        2 => batch.declare_type(d.str()?),
        3 => batch.declare_category(d.str()?),
        4 => batch.triple(d.str()?, d.str()?, d.str()?),
        5 => batch.literal(d.str()?, d.str()?, d.literal()?),
        6 => batch.typed(d.str()?, d.str()?),
        7 => batch.categorized(d.str()?, d.str()?),
        8 => batch.label(d.str()?, d.str()?),
        9 => batch.redirect(d.str()?, d.str()?),
        10 => batch.disambiguation(d.str()?, d.str()?),
        11 => batch.retract_triple(d.str()?, d.str()?, d.str()?),
        12 => batch.retract_literal(d.str()?, d.str()?, d.literal()?),
        13 => batch.retract_typed(d.str()?, d.str()?),
        14 => batch.retract_categorized(d.str()?, d.str()?),
        15 => batch.retract_label(d.str()?, d.str()?),
        16 => batch.retract_alias(d.str()?, d.str()?),
        tag => return Err(CodecError::Format(format!("unknown delta op tag {tag}"))),
    };
    Ok(())
}

fn encode_record(record: &WalRecord) -> Result<Vec<u8>, CodecError> {
    let mut enc = Enc::new(Kind::Record);
    enc.u64(record.generation);
    match &record.event {
        WalEvent::Delta(batch) => {
            enc.u8(0);
            enc.count(batch.len(), "delta ops")?;
            for op in batch.ops() {
                encode_op(&mut enc, op)?;
            }
        }
        WalEvent::Compact { target_shards } => {
            enc.u8(1);
            enc.count(*target_shards, "target shards")?;
        }
    }
    enc.finish()
}

fn decode_record(mut dec: Dec<'_>) -> Result<WalRecord, CodecError> {
    let generation = dec.u64()?;
    let event = match dec.u8()? {
        0 => {
            let mut batch = DeltaBatch::new();
            for _ in 0..dec.count()? {
                decode_op(&mut batch, &mut dec)?;
            }
            WalEvent::Delta(batch)
        }
        1 => WalEvent::Compact {
            target_shards: dec.u32()? as usize,
        },
        other => return Err(CodecError::Format(format!("unknown event tag {other}"))),
    };
    dec.end()?;
    Ok(WalRecord { generation, event })
}

/// Read a log's header and base frame, returning the base and the byte
/// offset of the first record.
fn open_log(file: &mut File) -> Result<(WalHeader, u64), CodecError> {
    let base = codec::read_file(file)?;
    let mut dec = base.decoder(Kind::LogBase)?;
    let header = WalHeader {
        base_generation: dec.u64()?,
        base_fingerprint: dec.u64()?,
    };
    dec.end()?;
    Ok((header, HEADER_LEN + base.size()))
}

/// Appends records to a delta log. One writer per log; the leader's
/// write lock serializes appends.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    header: WalHeader,
    /// Generation of the last record written (or the base, when none).
    last_generation: u64,
}

impl WalWriter {
    /// Create (truncate) a log at `path` whose base is the given
    /// generation/fingerprint pair.
    pub fn create(
        path: impl AsRef<Path>,
        base_generation: u64,
        base_fingerprint: u64,
    ) -> Result<WalWriter, CodecError> {
        let mut base = Enc::new(Kind::LogBase);
        base.u64(base_generation);
        base.u64(base_fingerprint);
        let mut file = File::create(path)?;
        codec::write_file(&mut file, base)?;
        Ok(WalWriter {
            file,
            header: WalHeader {
                base_generation,
                base_fingerprint,
            },
            last_generation: base_generation,
        })
    }

    /// Reopen an existing log for appending — the leader-restart path.
    /// Verifies every record's checksum and reads its generation without
    /// decoding its event, truncates a torn tail if one exists, and
    /// positions the writer at the end. Returns the writer and whether a
    /// torn tail was dropped.
    pub fn resume(path: impl AsRef<Path>) -> Result<(WalWriter, bool), CodecError> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let (header, mut offset) = open_log(&mut file)?;
        let mut last_generation = header.base_generation;
        while let Some(frame) = codec::read_frame(&mut file, offset)? {
            last_generation = frame.decoder(Kind::Record)?.u64()?;
            offset += frame.size();
        }
        let torn = file.metadata()?.len() > offset;
        if torn {
            file.set_len(offset)?;
        }
        file.seek(SeekFrom::Start(offset))?;
        Ok((
            WalWriter {
                file,
                header,
                last_generation,
            },
            torn,
        ))
    }

    /// The log's base pair.
    pub fn header(&self) -> WalHeader {
        self.header
    }

    /// Generation of the last appended record (the base generation when
    /// the log is empty).
    pub fn last_generation(&self) -> u64 {
        self.last_generation
    }

    /// Append one record. The frame is assembled in memory and written
    /// with a single `write_all`, so a crash leaves at most one torn
    /// tail record — which readers ignore and [`WalWriter::resume`]
    /// truncates.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), CodecError> {
        self.file.write_all(&encode_record(record)?)?;
        self.last_generation = record.generation;
        Ok(())
    }

    /// Append one event stamped with the log's next generation
    /// (`last_generation + 1`), returning the stamp. The log's
    /// generation sequence is its own strictly-increasing counter: it
    /// coincides with the store's mutation generation on a leader that
    /// logged from birth, and stays monotonic across leader restarts
    /// even though a snapshot reload resets the in-memory generation.
    pub fn append_event(&mut self, event: WalEvent) -> Result<u64, CodecError> {
        let generation = self.last_generation + 1;
        self.append(&WalRecord { generation, event })?;
        Ok(generation)
    }

    /// Flush file contents to stable storage (`fdatasync`). [`append`]
    /// only hands bytes to the OS; nothing calls this yet.
    ///
    /// [`append`]: WalWriter::append
    pub fn sync(&mut self) -> Result<(), CodecError> {
        self.file.sync_data()?;
        Ok(())
    }
}

/// Tails a delta log: polls for complete records, treating an
/// incomplete tail as "nothing new yet".
#[derive(Debug)]
pub struct WalReader {
    file: File,
    header: WalHeader,
    offset: u64,
}

impl WalReader {
    /// Open a log for tailing, positioned at the first record.
    pub fn open(path: impl AsRef<Path>) -> Result<WalReader, CodecError> {
        let mut file = File::open(path)?;
        let (header, offset) = open_log(&mut file)?;
        Ok(WalReader {
            file,
            header,
            offset,
        })
    }

    /// The log's base pair.
    pub fn header(&self) -> WalHeader {
        self.header
    }

    /// Read the next complete record, or `Ok(None)` when the log
    /// currently ends (possibly mid-record: a partial tail is "not yet
    /// written" from a tailer's perspective — the reader stays put and
    /// retries the same offset next poll).
    pub fn poll(&mut self) -> Result<Option<WalRecord>, CodecError> {
        self.file.seek(SeekFrom::Start(self.offset))?;
        let Some(frame) = codec::read_frame(&mut self.file, self.offset)? else {
            return Ok(None);
        };
        let record = decode_record(frame.decoder(Kind::Record)?)?;
        self.offset += frame.size();
        Ok(Some(record))
    }

    /// Whether bytes exist past the last complete record — a torn tail
    /// (leader crashed mid-append) if the leader is known to be down.
    pub fn has_partial_tail(&self) -> Result<bool, CodecError> {
        Ok(self.file.metadata()?.len() > self.offset)
    }
}

/// Read a whole log from disk: header, every complete record, and
/// whether a torn tail was ignored. The recovery entry point.
pub fn read_records(
    path: impl AsRef<Path>,
) -> Result<(WalHeader, Vec<WalRecord>, bool), CodecError> {
    let mut reader = WalReader::open(path)?;
    let mut records = Vec::new();
    while let Some(record) = reader.poll()? {
        records.push(record);
    }
    let torn = reader.has_partial_tail()?;
    Ok((reader.header(), records, torn))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::DeltaBatch;
    use crate::triple::LiteralKind as L;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pivote_wal_{tag}_{}.pvwl", std::process::id()))
    }

    /// Append a record frame head promising `len` payload bytes, and
    /// `bytes` of them.
    fn append_frame_head(path: &Path, len: u32, bytes: &[u8]) {
        let mut f = OpenOptions::new().append(true).open(path).unwrap();
        let sum = [0; 8];
        f.write_all(&[&[Kind::Record as u8][..], &len.to_le_bytes(), &sum, bytes].concat())
            .unwrap();
    }

    fn sample_batch(i: u64) -> DeltaBatch {
        let mut d = DeltaBatch::new();
        d.triple(format!("s{i}"), "p", format!("o{i}"));
        d.retract_triple(format!("s{i}"), "q", "gone");
        d
    }

    #[test]
    fn every_delta_op_roundtrips_through_the_record_encoding() {
        let odd = "é \"quoted\" \\ back\nslash\t<iri> \u{0}";
        let mut batch = DeltaBatch::new();
        for kind in [L::String, L::Integer, L::Double, L::Date] {
            let value = Literal {
                lexical: odd.into(),
                kind,
            };
            batch.literal("a", "", value.clone());
            batch.retract_literal(odd, "p", value);
        }
        batch
            .entity("")
            .declare_predicate(odd)
            .declare_type("Film")
            .declare_category("c")
            .triple("a", "p", odd)
            .typed("a", "")
            .categorized(odd, "c")
            .label("a", odd)
            .redirect("", "a")
            .disambiguation(odd, "a")
            .retract_triple("a", "p", "")
            .retract_typed("a", odd)
            .retract_categorized("", "c")
            .retract_label("a", "")
            .retract_alias(odd, "a");
        for event in [
            WalEvent::Delta(batch),
            WalEvent::Delta(DeltaBatch::new()),
            WalEvent::Compact { target_shards: 3 },
        ] {
            let record = WalRecord {
                generation: u64::MAX,
                event,
            };
            let bytes = encode_record(&record).unwrap();
            let frame = codec::read_frame(&mut bytes.as_slice(), 0)
                .unwrap()
                .unwrap();
            let back = decode_record(frame.decoder(Kind::Record).unwrap()).unwrap();
            assert_eq!(back, record);
        }
    }

    #[test]
    fn write_then_tail_sees_every_record() {
        let path = temp_path("tail");
        let mut w = WalWriter::create(&path, 5, 0xabcd).unwrap();
        let mut r = WalReader::open(&path).unwrap();
        assert_eq!(
            r.header(),
            WalHeader {
                base_generation: 5,
                base_fingerprint: 0xabcd
            }
        );
        assert!(r.poll().unwrap().is_none(), "empty log has nothing");

        for i in 0..3u64 {
            w.append_event(WalEvent::Delta(sample_batch(i))).unwrap();
        }
        let compact = WalEvent::Compact { target_shards: 2 };
        assert_eq!(w.append_event(compact.clone()).unwrap(), 9);

        // the pre-existing reader tails straight through the new bytes
        let mut gens = Vec::new();
        while let Some(rec) = r.poll().unwrap() {
            gens.push(rec.generation);
        }
        assert_eq!(gens, vec![6, 7, 8, 9]);
        assert!(!r.has_partial_tail().unwrap());

        let (header, records, torn) = read_records(&path).unwrap();
        assert_eq!((header.base_generation, records.len(), torn), (5, 4, false));
        assert_eq!(records[3].event, compact);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_ignored_and_resume_truncates_it() {
        let path = temp_path("torn");
        let mut w = WalWriter::create(&path, 0, 1).unwrap();
        w.append_event(WalEvent::Delta(sample_batch(0))).unwrap();
        drop(w);
        let whole = std::fs::metadata(&path).unwrap().len();
        // simulate a crash mid-append: a second record whose frame
        // promises more bytes than were written
        append_frame_head(&path, 1000, b"only a few bytes");

        // readers see exactly the one complete record, then a tail
        let (_, records, torn) = read_records(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert!(torn, "the torn tail must be reported");

        // resume truncates the tail and appends cleanly after it
        let (mut w, torn) = WalWriter::resume(&path).unwrap();
        assert!(torn);
        assert_eq!(w.last_generation(), 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), whole);
        w.append_event(WalEvent::Delta(sample_batch(1))).unwrap();
        let (_, records, torn) = read_records(&path).unwrap();
        assert_eq!((records.len(), torn), (2, false));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_payload_byte_is_a_checksum_error() {
        let path = temp_path("corrupt");
        let mut w = WalWriter::create(&path, 0, 1).unwrap();
        w.append_event(WalEvent::Delta(sample_batch(0))).unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0x40; // a bit inside the record payload
        std::fs::write(&path, &bytes).unwrap();
        for err in [
            read_records(&path).unwrap_err(),
            WalWriter::resume(&path).unwrap_err(),
        ] {
            assert!(
                matches!(err, CodecError::Corrupt { .. }),
                "expected Corrupt, got {err}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// A length prefix past the end of the file reads what the file
    /// holds: a torn tail, not a 4 GiB allocation.
    #[test]
    fn huge_length_prefix_is_a_torn_tail_not_an_allocation() {
        let path = temp_path("hugelen");
        WalWriter::create(&path, 0, 1).unwrap();
        append_frame_head(&path, u32::MAX, b"");
        let (_, records, torn) = read_records(&path).unwrap();
        assert!(records.is_empty() && torn);
        std::fs::remove_file(&path).ok();
    }

    /// Garbage and a `PVWL` v1 log, the format before the codec, are
    /// refused.
    #[test]
    fn wrong_magic_and_version_are_refused() {
        let path = temp_path("magic");
        std::fs::write(&path, b"NOPE00000000000000000000").unwrap();
        assert!(matches!(WalReader::open(&path), Err(CodecError::Format(_))));
        let mut bytes = b"PVWL".to_vec();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        std::fs::write(&path, &bytes).unwrap();
        let err = WalReader::open(&path).unwrap_err();
        assert!(matches!(err, CodecError::Format(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
