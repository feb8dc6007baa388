//! The one on-disk codec. Every file the workspace writes — a graph
//! [`snapshot`](crate::snapshot), a delta log ([`wal`](crate::wal)), a
//! warm-state sidecar — is one file header followed by checksummed
//! frames (all integers little-endian):
//!
//! ```text
//! file:  magic "PVTE" | version u32 | frame*
//! frame: kind u8 | len u32 | FNV-1a u64 over the payload | payload
//! ```
//!
//! A payload is built with [`Enc`] and read with [`Dec`]: u8/u32/u64
//! fields, counts as u32, strings as `len u32 | UTF-8`, and a literal as
//! `kind u8 | lexical str`.
//!
//! Reading trusts no length on disk. A frame cut short by end-of-file
//! reads as end-of-file (the torn tail a crash mid-append leaves); a
//! complete frame that fails its checksum is [`CodecError::Corrupt`]. A
//! payload is read through `take(len)`, so it grows only as bytes
//! arrive, and a count larger than the bytes left in its payload is
//! refused before it sizes anything. Files of an older format are
//! refused with [`CodecError::Format`], never migrated.

use crate::triple::{Literal, LiteralKind as L};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"PVTE";
const VERSION: u32 = 2;
/// Bytes of the file header (magic + version): where the first frame starts.
pub(crate) const HEADER_LEN: u64 = 8;
/// Bytes of a frame before its payload: kind + len + checksum.
const FRAME_HEAD: usize = 1 + 4 + 8;
/// Literal kinds by their tag.
const LITERAL_KINDS: [L; 4] = [L::String, L::Integer, L::Double, L::Date];

/// What a frame holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A whole graph: the one frame of a snapshot.
    Graph = 1,
    /// The state a delta log continues from: the first frame of a log.
    LogBase = 2,
    /// One logged store mutation.
    Record = 3,
    /// The density cache: the one frame of a warm-state sidecar.
    Warm = 4,
}

/// Errors from reading or writing any file of the codec.
#[derive(Debug)]
pub enum CodecError {
    /// Underlying IO failure.
    Io(io::Error),
    /// Not a file of this format and version, or a frame or payload that
    /// does not decode as what it claims to be.
    Format(String),
    /// A complete frame, starting at byte `offset` of its file, failed
    /// its checksum.
    Corrupt {
        /// Byte offset of the frame.
        offset: u64,
    },
    /// A section holds more items (or a string more bytes) than a u32
    /// counter records: refused rather than silently truncated.
    TooLarge {
        /// Which section overflowed.
        what: &'static str,
        /// The length that did not fit.
        len: usize,
    },
    /// The file was written for another graph than the one opened.
    Stale {
        /// Graph fingerprint recorded in the file.
        stored: u64,
        /// Fingerprint of the graph being opened.
        expected: u64,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "IO error: {e}"),
            CodecError::Format(m) => write!(f, "format error: {m}"),
            CodecError::Corrupt { offset } => write!(f, "checksum fails at byte {offset}"),
            CodecError::TooLarge { what, len } => write!(f, "{len} {what} overflow a u32 counter"),
            CodecError::Stale { stored, expected } => {
                write!(f, "file is for graph {stored:#x}, not {expected:#x}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// 64-bit FNV-1a of `bytes`, continuing from `hash`. Each step is a
/// bijection of the running hash, so any single-byte change inside a
/// payload of fixed length changes it.
fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A frame read back whole and checksum-verified.
#[derive(Debug)]
pub struct Frame {
    kind: u8,
    payload: Vec<u8>,
}

impl Frame {
    /// Bytes the frame takes on disk.
    pub(crate) fn size(&self) -> u64 {
        (FRAME_HEAD + self.payload.len()) as u64
    }

    /// A decoder over the payload, refusing a frame of another kind.
    pub fn decoder(&self, kind: Kind) -> Result<Dec<'_>, CodecError> {
        let found = self.kind;
        if found != kind as u8 {
            return Err(CodecError::Format(format!(
                "expected {kind:?}, found {found}"
            )));
        }
        Ok(Dec {
            bytes: &self.payload,
        })
    }
}

/// Read the frame at byte `offset` of the file `r` is positioned in.
/// `Ok(None)` when the file ends before the frame does.
pub(crate) fn read_frame(r: &mut impl Read, offset: u64) -> Result<Option<Frame>, CodecError> {
    let mut head = Vec::with_capacity(FRAME_HEAD);
    r.by_ref().take(FRAME_HEAD as u64).read_to_end(&mut head)?;
    if head.len() < FRAME_HEAD {
        return Ok(None);
    }
    let len = u32::from_le_bytes(head[1..5].try_into().expect("4 bytes"));
    let mut payload = Vec::new();
    r.by_ref().take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len as usize {
        return Ok(None);
    }
    if fnv(FNV_OFFSET, &payload).to_le_bytes() != head[5..] {
        return Err(CodecError::Corrupt { offset });
    }
    Ok(Some(Frame {
        kind: head[0],
        payload,
    }))
}

/// Read a file's header and its first frame — all of a snapshot or a
/// sidecar, the base of a log.
pub fn read_file(r: &mut impl Read) -> Result<Frame, CodecError> {
    let mut header = [0u8; HEADER_LEN as usize];
    r.read_exact(&mut header)?;
    if header[..] != [*MAGIC, VERSION.to_le_bytes()].concat() {
        let magic = String::from_utf8_lossy(MAGIC);
        return Err(CodecError::Format(format!(
            "bad magic or version {header:?}, not {magic} v{VERSION}: older files are not migrated"
        )));
    }
    read_frame(r, HEADER_LEN)?
        .ok_or_else(|| CodecError::Format("the file ends inside its first frame".into()))
}

/// Write a file's header and its first frame.
pub fn write_file(w: &mut impl Write, frame: Enc) -> Result<(), CodecError> {
    let frame = frame.finish()?;
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&frame)?;
    Ok(())
}

/// Builds one frame in memory. The payload follows room for the frame
/// head, which [`Enc::finish`] fills in, so a frame reaches its file in
/// one `write_all`.
#[derive(Debug)]
pub struct Enc {
    buf: Vec<u8>,
    /// The running checksum when the encoder keeps no bytes: see
    /// [`Enc::checksum_of`].
    digest: Option<u64>,
}

impl Enc {
    /// An empty frame of `kind`.
    pub fn new(kind: Kind) -> Enc {
        let mut buf = vec![0; FRAME_HEAD];
        buf[0] = kind as u8;
        Enc { buf, digest: None }
    }

    /// The checksum of the payload `build` writes, folded as it is
    /// written: a graph's fingerprint never holds a copy of the graph.
    pub(crate) fn checksum_of(
        build: impl FnOnce(&mut Enc) -> Result<(), CodecError>,
    ) -> Result<u64, CodecError> {
        let mut enc = Enc {
            buf: Vec::new(),
            digest: Some(FNV_OFFSET),
        };
        build(&mut enc)?;
        Ok(enc.digest.expect("set above"))
    }

    fn put(&mut self, bytes: &[u8]) {
        match &mut self.digest {
            Some(hash) => *hash = fnv(*hash, bytes),
            None => self.buf.extend_from_slice(bytes),
        }
    }

    /// Append a byte.
    pub fn u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    /// Append a u32.
    pub fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    /// Append a u64.
    pub fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    /// Append a count as u32, refusing one that does not fit.
    pub fn count(&mut self, n: usize, what: &'static str) -> Result<(), CodecError> {
        let v = u32::try_from(n).map_err(|_| CodecError::TooLarge { what, len: n })?;
        self.u32(v);
        Ok(())
    }

    /// Append a string: its byte length, then its bytes.
    pub fn str(&mut self, s: &str) -> Result<(), CodecError> {
        self.count(s.len(), "string bytes")?;
        self.put(s.as_bytes());
        Ok(())
    }

    /// Append a literal: its kind, then its lexical form.
    pub fn literal(&mut self, lit: &Literal) -> Result<(), CodecError> {
        self.u8(LITERAL_KINDS
            .iter()
            .position(|&k| k == lit.kind)
            .expect("listed") as u8);
        self.str(&lit.lexical)
    }

    /// The whole frame, head filled in.
    pub fn finish(mut self) -> Result<Vec<u8>, CodecError> {
        let len = self.buf.len() - FRAME_HEAD;
        let what = "payload bytes";
        let len = u32::try_from(len).map_err(|_| CodecError::TooLarge { what, len })?;
        let sum = fnv(FNV_OFFSET, &self.buf[FRAME_HEAD..]);
        self.buf[1..5].copy_from_slice(&len.to_le_bytes());
        self.buf[5..FRAME_HEAD].copy_from_slice(&sum.to_le_bytes());
        Ok(self.buf)
    }
}

/// Reads one payload field by field. Running past its end, a count
/// larger than the bytes left, or a string that is not UTF-8 is
/// [`CodecError::Format`].
#[derive(Debug)]
pub struct Dec<'a> {
    bytes: &'a [u8],
}

impl<'a> Dec<'a> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let (head, rest) = (self.bytes.split_first_chunk())
            .ok_or_else(|| CodecError::Format("payload ends mid-field".into()))?;
        self.bytes = rest;
        Ok(*head)
    }

    /// Read a byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take::<1>()?[0])
    }

    /// Read a u32.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take()?))
    }

    /// Read a u64.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    /// Read a count of items that take at least one byte each, so it is
    /// safe to size a collection by.
    pub fn count(&mut self) -> Result<usize, CodecError> {
        let (n, left) = (self.u32()? as usize, self.bytes.len());
        if n > left {
            return Err(CodecError::Format(format!(
                "count {n} past the {left} bytes left"
            )));
        }
        Ok(n)
    }

    /// Read a string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        let n = self.count()?;
        let (s, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        std::str::from_utf8(s).map_err(|e| CodecError::Format(format!("invalid UTF-8: {e}")))
    }

    /// Read a literal.
    pub fn literal(&mut self) -> Result<Literal, CodecError> {
        let tag = self.u8()?;
        let kind = *(LITERAL_KINDS.get(tag as usize))
            .ok_or_else(|| CodecError::Format(format!("bad literal tag {tag}")))?;
        let lexical = self.str()?.to_owned();
        Ok(Literal { lexical, kind })
    }

    /// Finish the payload, refusing bytes left over.
    pub fn end(self) -> Result<(), CodecError> {
        match self.bytes.len() {
            0 => Ok(()),
            n => Err(CodecError::Format(format!(
                "{n} bytes past the end of the payload"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paths only a crafted frame reaches: its checksum holds, but its
    /// payload lies about itself.
    #[test]
    fn a_well_checksummed_payload_still_decodes_strictly() {
        let payload = vec![1, 0, 0, 0, 0xff]; // a 1-byte string that is not UTF-8
        let frame = Frame {
            kind: Kind::Record as u8,
            payload,
        };
        assert!(matches!(
            frame.decoder(Kind::Graph),
            Err(CodecError::Format(_))
        ));
        let mut dec = frame.decoder(Kind::Record).unwrap();
        assert!(dec.u64().unwrap_err().to_string().contains("mid-field"));
        assert!(dec.str().unwrap_err().to_string().contains("UTF-8"));
        let mut dec = frame.decoder(Kind::Record).unwrap();
        dec.u8().unwrap();
        assert!(matches!(dec.end(), Err(CodecError::Format(_))));
    }
}
