//! Durable delta log (write-ahead log) — the write stream as a file.
//!
//! Read traffic scales past one store by replaying the write stream:
//! every [`DeltaBatch`] (inserts **and** retracts) plus every compaction
//! event a leader applies is serialized into an append-only log that any
//! follower can tail to provably reach the leader's state. Because
//! append==rebuild is bit-identical (the equivalence model pins it), a
//! follower that has applied the log through generation `G` holds the
//! same *logical* graph as the leader at `G` — asserted in tests via
//! [`snapshot::fingerprint`](crate::snapshot::fingerprint). Crash
//! recovery falls out of the same mechanism: reload the last snapshot,
//! replay the log.
//!
//! Format (little-endian, the `"PVWS"` sidecar framing from the warm
//! state applied to a log):
//!
//! ```text
//! header: magic "PVWL" | version u32 |
//!         base generation u64 | base graph fingerprint u64
//! record: payload len u32 | FNV-1a checksum u64 (over payload) |
//!         payload = JSON of WalRecord { generation, event }
//! ```
//!
//! The header pins the log to the exact store state it continues from:
//! the *base fingerprint* is [`fingerprint`](crate::snapshot::fingerprint)
//! of the leader's graph at the moment logging began, and a follower
//! refuses a log whose base differs from the snapshot it loaded
//! ([`WalError::StaleBase`]). Records are individually checksummed and
//! length-prefixed so a torn tail write (leader crash mid-append) is
//! detected and cleanly ignored: readers stop at the first incomplete or
//! corrupt record, and [`WalWriter::resume`] truncates it before
//! appending further.

use crate::delta::DeltaBatch;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"PVWL";
const VERSION: u32 = 1;
/// Header length in bytes: magic + version + base generation + base
/// fingerprint.
const HEADER_LEN: u64 = 4 + 4 + 8 + 8;
/// Per-record framing overhead: payload length + checksum.
const FRAME_LEN: u64 = 4 + 8;
/// Largest payload a reader will try to parse — same spirit as the
/// snapshot reader's guard: a corrupt length prefix must fail with
/// `Corrupt`, never drive a multi-gigabyte allocation.
const MAX_PAYLOAD: u32 = 1 << 28;

/// One logged store mutation.
///
/// The two event kinds mirror the two ways a leader's generation
/// advances: [`ShardedGraph::apply`](crate::ShardedGraph::apply) and a
/// compaction that swaps the rebuilt store in. Compactions of a
/// one-shard store without tombstones are no-ops: they don't bump the
/// generation and are never logged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// Errors from delta-log IO.
#[derive(Debug)]
pub enum WalError {
    /// Underlying IO failure.
    Io(io::Error),
    /// Not a delta log, or an unsupported version.
    Format(String),
    /// The log continues from a different base state than the follower
    /// loaded — replaying it would diverge silently.
    StaleBase {
        /// Base fingerprint recorded in the log header.
        stored: u64,
        /// Fingerprint of the store the follower actually holds.
        expected: u64,
    },
    /// A complete-looking record failed its checksum or did not parse —
    /// mid-log corruption (a torn *tail* is not an error; readers treat
    /// it as end-of-log).
    Corrupt {
        /// Byte offset of the corrupt record's frame.
        offset: u64,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "delta-log IO error: {e}"),
            WalError::Format(m) => write!(f, "delta-log format error: {m}"),
            WalError::StaleBase { stored, expected } => write!(
                f,
                "delta log continues from base fingerprint {stored:#x}, \
                 not {expected:#x} — refusing to replay"
            ),
            WalError::Corrupt { offset, message } => {
                write!(f, "delta log corrupt at byte {offset}: {message}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// FNV-1a over a byte slice — the same hash `snapshot::fingerprint`
/// streams, applied to one record payload.
fn checksum(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32(r: &mut impl Read) -> Result<u32, WalError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64(r: &mut impl Read) -> Result<u64, WalError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn read_header(r: &mut impl Read) -> Result<WalHeader, WalError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(WalError::Format("bad magic — not a PVWL delta log".into()));
    }
    let version = read_u32(r)?;
    if version != VERSION {
        return Err(WalError::Format(format!(
            "unsupported delta-log version {version} (expected {VERSION})"
        )));
    }
    Ok(WalHeader {
        base_generation: read_u64(r)?,
        base_fingerprint: read_u64(r)?,
    })
}

/// Try to read exactly `buf.len()` bytes at the reader's position.
/// `Ok(false)` means the file ended first (a torn tail, not an error);
/// any partial bytes read are irrelevant because callers re-seek.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, WalError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Ok(false),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WalError::Io(e)),
        }
    }
    Ok(true)
}

/// Read one record frame at `offset`. Returns `Ok(None)` when the file
/// ends before a complete record (clean end-of-log or a torn tail);
/// `Err(Corrupt)` when a complete frame fails validation.
fn read_record_at(file: &mut File, offset: u64) -> Result<Option<(WalRecord, u64)>, WalError> {
    file.seek(SeekFrom::Start(offset))?;
    let mut frame = [0u8; FRAME_LEN as usize];
    if !read_full(file, &mut frame)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(frame[0..4].try_into().expect("4-byte slice"));
    let stored_sum = u64::from_le_bytes(frame[4..12].try_into().expect("8-byte slice"));
    if len > MAX_PAYLOAD {
        return Err(WalError::Corrupt {
            offset,
            message: format!("payload length {len} exceeds the {MAX_PAYLOAD}-byte guard"),
        });
    }
    let mut payload = vec![0u8; len as usize];
    if !read_full(file, &mut payload)? {
        return Ok(None);
    }
    if checksum(&payload) != stored_sum {
        return Err(WalError::Corrupt {
            offset,
            message: "record checksum mismatch".into(),
        });
    }
    let text = std::str::from_utf8(&payload).map_err(|e| WalError::Corrupt {
        offset,
        message: format!("record payload is not UTF-8: {e}"),
    })?;
    let record: WalRecord = serde_json::from_str(text).map_err(|e| WalError::Corrupt {
        offset,
        message: format!("record payload does not parse: {e}"),
    })?;
    Ok(Some((record, offset + FRAME_LEN + len as u64)))
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
    ) -> Result<WalWriter, WalError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(MAGIC)?;
        write_u32(&mut file, VERSION)?;
        write_u64(&mut file, base_generation)?;
        write_u64(&mut file, base_fingerprint)?;
        file.flush()?;
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
    /// Scans every record, truncates a torn tail if one exists, and
    /// positions the writer at the end. Returns the writer and whether a
    /// torn tail was dropped.
    pub fn resume(path: impl AsRef<Path>) -> Result<(WalWriter, bool), WalError> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.seek(SeekFrom::Start(0))?;
        let header = read_header(&mut file)?;
        let mut offset = HEADER_LEN;
        let mut last_generation = header.base_generation;
        while let Some((record, next)) = read_record_at(&mut file, offset)? {
            last_generation = record.generation;
            offset = next;
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
    pub fn append(&mut self, record: &WalRecord) -> Result<(), WalError> {
        let payload = serde_json::to_string(record)
            .map_err(|e| WalError::Format(format!("record does not serialize: {e}")))?;
        let bytes = payload.as_bytes();
        if bytes.len() as u64 > MAX_PAYLOAD as u64 {
            return Err(WalError::Format(format!(
                "record payload of {} bytes exceeds the {MAX_PAYLOAD}-byte guard",
                bytes.len()
            )));
        }
        let mut frame = Vec::with_capacity(FRAME_LEN as usize + bytes.len());
        frame.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        frame.extend_from_slice(&checksum(bytes).to_le_bytes());
        frame.extend_from_slice(bytes);
        self.file.write_all(&frame)?;
        self.file.flush()?;
        self.last_generation = record.generation;
        Ok(())
    }

    /// Append one event stamped with the log's next generation
    /// (`last_generation + 1`), returning the stamp. The log's
    /// generation sequence is its own strictly-increasing counter: it
    /// coincides with the store's mutation generation on a leader that
    /// logged from birth, and stays monotonic across leader restarts
    /// even though a snapshot reload resets the in-memory generation.
    pub fn append_event(&mut self, event: WalEvent) -> Result<u64, WalError> {
        let generation = self.last_generation + 1;
        self.append(&WalRecord { generation, event })?;
        Ok(generation)
    }

    /// Flush file contents to stable storage (`fdatasync`). [`append`]
    /// already pushes bytes to the OS; call this for durability points.
    ///
    /// [`append`]: WalWriter::append
    pub fn sync(&mut self) -> Result<(), WalError> {
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
    pub fn open(path: impl AsRef<Path>) -> Result<WalReader, WalError> {
        let mut file = File::open(path)?;
        let header = read_header(&mut file)?;
        Ok(WalReader {
            file,
            header,
            offset: HEADER_LEN,
        })
    }

    /// The log's base pair.
    pub fn header(&self) -> WalHeader {
        self.header
    }

    /// Byte offset of the next record frame.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Read the next complete record, or `Ok(None)` when the log
    /// currently ends (possibly mid-record: a partial tail is "not yet
    /// written" from a tailer's perspective — the reader stays put and
    /// retries the same offset next poll).
    pub fn poll(&mut self) -> Result<Option<WalRecord>, WalError> {
        match read_record_at(&mut self.file, self.offset)? {
            Some((record, next)) => {
                self.offset = next;
                Ok(Some(record))
            }
            None => Ok(None),
        }
    }

    /// Whether bytes exist past the last complete record — a torn tail
    /// (leader crashed mid-append) if the leader is known to be down.
    pub fn has_partial_tail(&self) -> Result<bool, WalError> {
        Ok(self.file.metadata()?.len() > self.offset)
    }
}

/// Read a whole log from disk: header, every complete record, and
/// whether a torn tail was ignored. The recovery entry point.
pub fn read_records(path: impl AsRef<Path>) -> Result<(WalHeader, Vec<WalRecord>, bool), WalError> {
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
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pivote_wal_{tag}_{}.pvwl", std::process::id()))
    }

    fn sample_batch(i: u64) -> DeltaBatch {
        let mut d = DeltaBatch::new();
        d.triple(format!("s{i}"), "p", format!("o{i}"));
        d.retract_triple(format!("s{i}"), "q", "gone");
        d
    }

    #[test]
    fn records_roundtrip_through_the_vendored_serde() {
        // pins early that DeltaBatch-in-an-enum survives the vendored
        // serde derive + serde_json — everything else builds on this
        let rec = WalRecord {
            generation: 7,
            event: WalEvent::Delta(sample_batch(1)),
        };
        let json = serde_json::to_string(&rec).unwrap();
        let back: WalRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rec);
        let rec = WalRecord {
            generation: 8,
            event: WalEvent::Compact { target_shards: 3 },
        };
        let json = serde_json::to_string(&rec).unwrap();
        let back: WalRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rec);
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
            w.append(&WalRecord {
                generation: 6 + i,
                event: WalEvent::Delta(sample_batch(i)),
            })
            .unwrap();
        }
        w.append(&WalRecord {
            generation: 9,
            event: WalEvent::Compact { target_shards: 2 },
        })
        .unwrap();
        assert_eq!(w.last_generation(), 9);

        // the pre-existing reader tails straight through the new bytes
        let mut gens = Vec::new();
        while let Some(rec) = r.poll().unwrap() {
            gens.push(rec.generation);
        }
        assert_eq!(gens, vec![6, 7, 8, 9]);
        assert!(!r.has_partial_tail().unwrap());

        let (header, records, torn) = read_records(&path).unwrap();
        assert_eq!(header.base_generation, 5);
        assert_eq!(records.len(), 4);
        assert!(!torn);
        assert!(matches!(
            records[3].event,
            WalEvent::Compact { target_shards: 2 }
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_ignored_and_resume_truncates_it() {
        let path = temp_path("torn");
        let mut w = WalWriter::create(&path, 0, 1).unwrap();
        w.append(&WalRecord {
            generation: 1,
            event: WalEvent::Delta(sample_batch(0)),
        })
        .unwrap();
        drop(w);
        let whole = std::fs::metadata(&path).unwrap().len();
        // simulate a crash mid-append: a second record whose frame
        // promises more bytes than were written
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&1000u32.to_le_bytes()).unwrap();
            f.write_all(&0u64.to_le_bytes()).unwrap();
            f.write_all(b"only a few bytes").unwrap();
        }

        // readers see exactly the one complete record, then a tail
        let (_, records, torn) = read_records(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert!(torn, "the torn tail must be reported");

        // resume truncates the tail and appends cleanly after it
        let (mut w, torn) = WalWriter::resume(&path).unwrap();
        assert!(torn);
        assert_eq!(w.last_generation(), 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), whole);
        w.append(&WalRecord {
            generation: 2,
            event: WalEvent::Delta(sample_batch(1)),
        })
        .unwrap();
        let (_, records, torn) = read_records(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert!(!torn);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_payload_byte_is_a_checksum_error() {
        let path = temp_path("corrupt");
        let mut w = WalWriter::create(&path, 0, 1).unwrap();
        w.append(&WalRecord {
            generation: 1,
            event: WalEvent::Delta(sample_batch(0)),
        })
        .unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40; // flip a bit inside the JSON payload
        std::fs::write(&path, &bytes).unwrap();
        let err = read_records(&path).unwrap_err();
        assert!(
            matches!(err, WalError::Corrupt { .. }),
            "expected Corrupt, got {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn huge_length_prefix_is_corrupt_not_an_allocation() {
        let path = temp_path("hugelen");
        let w = WalWriter::create(&path, 0, 1).unwrap();
        drop(w);
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&u32::MAX.to_le_bytes()).unwrap();
            f.write_all(&0u64.to_le_bytes()).unwrap();
        }
        let err = read_records(&path).unwrap_err();
        assert!(matches!(err, WalError::Corrupt { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_magic_and_version_are_refused() {
        let path = temp_path("magic");
        std::fs::write(&path, b"NOPE00000000000000000000").unwrap();
        assert!(matches!(WalReader::open(&path), Err(WalError::Format(_))));
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        std::fs::write(&path, &bytes).unwrap();
        let err = WalReader::open(&path).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
