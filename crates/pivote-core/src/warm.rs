//! Persisted context warm-state: the `p(π|c)` density cache as a
//! versioned sidecar file next to the graph snapshot.
//!
//! A server restart used to mean an empty [`SharedCache`]: every density
//! the previous process memoized was re-derived from the extents on the
//! first queries. Since every cached `p(π|c)` is a pure graph quantity —
//! exact for a given logical graph, independent of any ranking
//! configuration or partitioning — the cache can be serialized next to
//! the snapshot and reloaded on open, as long as it is paired with the
//! *same logical graph* it was computed over.
//!
//! The pairing key is [`pivote_kg::snapshot::fingerprint`]: a
//! restart-stable hash of the exact snapshot bytes. (The in-memory
//! mutation generation cannot serve here — it resets to 0 on every
//! snapshot load, and persisting it inside the snapshot would break the
//! append-vs-rebuild byte-identity invariant.) [`load_warm_state`]
//! refuses a sidecar whose stored fingerprint differs from the opened
//! graph's, in which case the caller simply starts cold — correctness
//! never depends on the sidecar; it is a latency artifact, like the
//! snapshot itself.
//!
//! Format (little-endian, exact `f64` bit patterns — warm answers must
//! be *bit-identical* to cold ones):
//!
//! ```text
//! magic "PVWS" | version u32 | graph fingerprint u64 |
//! features: count u32, (anchor u32, predicate u32, direction u8) —
//!   in dense feature-id order |
//! densities: count u64, (key u64, f64 bits u64) — sorted by key
//! ```

use crate::context::SharedCache;
use crate::feature::{Direction, SemanticFeature};
use pivote_kg::{EntityId, PredicateId};
use std::io::{self, Read, Write};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"PVWS";
const VERSION: u32 = 2;

/// Errors from warm-state IO.
#[derive(Debug)]
pub enum WarmStateError {
    /// Underlying IO failure.
    Io(io::Error),
    /// Not a warm-state file, or an unsupported version.
    Format(String),
    /// The sidecar was computed over a different logical graph.
    StaleSidecar {
        /// Graph fingerprint recorded in the sidecar header.
        stored: u64,
        /// Fingerprint of the graph being opened.
        expected: u64,
    },
}

impl std::fmt::Display for WarmStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WarmStateError::Io(e) => write!(f, "warm-state IO error: {e}"),
            WarmStateError::Format(m) => write!(f, "warm-state format error: {m}"),
            WarmStateError::StaleSidecar { stored, expected } => write!(
                f,
                "warm state is for graph fingerprint {stored:#x}, not {expected:#x} — start cold"
            ),
        }
    }
}

impl std::error::Error for WarmStateError {}

impl From<io::Error> for WarmStateError {
    fn from(e: io::Error) -> Self {
        WarmStateError::Io(e)
    }
}

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32(r: &mut impl Read) -> Result<u32, WarmStateError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64(r: &mut impl Read) -> Result<u64, WarmStateError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Write the cache's warm state to `w`, stamped as exact for the graph
/// whose [`pivote_kg::snapshot::fingerprint`] is `graph_fingerprint`.
pub fn save_warm(
    cache: &SharedCache,
    graph_fingerprint: u64,
    w: &mut impl Write,
) -> Result<(), WarmStateError> {
    let (features, probs) = cache.export_entries();
    w.write_all(MAGIC)?;
    write_u32(w, VERSION)?;
    write_u64(w, graph_fingerprint)?;
    write_u32(w, features.len() as u32)?;
    for sf in &features {
        write_u32(w, sf.anchor.raw())?;
        write_u32(w, sf.predicate.raw())?;
        w.write_all(&[match sf.direction {
            Direction::FromAnchor => 0,
            Direction::ToAnchor => 1,
        }])?;
    }
    write_u64(w, probs.len() as u64)?;
    for (key, p) in &probs {
        write_u64(w, *key)?;
        write_u64(w, p.to_bits())?;
    }
    Ok(())
}

/// Read warm state back into a fresh [`SharedCache`], refusing the file
/// unless its stored fingerprint equals `expected_fingerprint` (the
/// opened graph's [`pivote_kg::snapshot::fingerprint`] — densities are
/// exact only for the extents they were computed over).
pub fn load_warm(
    expected_fingerprint: u64,
    r: &mut impl Read,
) -> Result<Arc<SharedCache>, WarmStateError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(WarmStateError::Format(
            "bad magic — not a PVWS warm-state file".into(),
        ));
    }
    let version = read_u32(r)?;
    if version != VERSION {
        return Err(WarmStateError::Format(format!(
            "unsupported warm-state version {version} (expected {VERSION})"
        )));
    }
    let stored = read_u64(r)?;
    if stored != expected_fingerprint {
        return Err(WarmStateError::StaleSidecar {
            stored,
            expected: expected_fingerprint,
        });
    }
    let n_features = read_u32(r)? as usize;
    // capacity grows as entries actually parse, so a corrupt header
    // count cannot trigger a huge up-front allocation — a bad sidecar
    // must fail with Format/Io, never abort the process
    let mut features = Vec::with_capacity(n_features.min(1 << 16));
    for _ in 0..n_features {
        let anchor = EntityId::new(read_u32(r)?);
        let predicate = PredicateId::new(read_u32(r)?);
        let mut dir = [0u8; 1];
        r.read_exact(&mut dir)?;
        let direction = match dir[0] {
            0 => Direction::FromAnchor,
            1 => Direction::ToAnchor,
            other => return Err(WarmStateError::Format(format!("bad direction tag {other}"))),
        };
        features.push(SemanticFeature {
            anchor,
            predicate,
            direction,
        });
    }
    let n_probs = read_u64(r)? as usize;
    let mut probs = Vec::with_capacity(n_probs.min(1 << 16));
    for _ in 0..n_probs {
        let key = read_u64(r)?;
        let bits = read_u64(r)?;
        probs.push((key, f64::from_bits(bits)));
    }
    Ok(Arc::new(SharedCache::import_entries(features, probs)))
}

/// The conventional sidecar path for a snapshot at `snapshot_path`:
/// `<snapshot_path>.warm`.
pub fn warm_sidecar_path(snapshot_path: impl AsRef<std::path::Path>) -> std::path::PathBuf {
    let mut p = snapshot_path.as_ref().as_os_str().to_owned();
    p.push(".warm");
    std::path::PathBuf::from(p)
}

/// Save the cache's warm state to `path`, stamped for the graph whose
/// snapshot fingerprint is `graph_fingerprint`.
pub fn save_warm_state(
    cache: &SharedCache,
    graph_fingerprint: u64,
    path: impl AsRef<std::path::Path>,
) -> Result<(), WarmStateError> {
    let mut file = io::BufWriter::new(std::fs::File::create(path)?);
    save_warm(cache, graph_fingerprint, &mut file)?;
    file.flush()?;
    Ok(())
}

/// Load a warm-state sidecar from `path` for a graph whose snapshot
/// fingerprint is `expected_fingerprint`.
pub fn load_warm_state(
    path: impl AsRef<std::path::Path>,
    expected_fingerprint: u64,
) -> Result<Arc<SharedCache>, WarmStateError> {
    let mut file = io::BufReader::new(std::fs::File::open(path)?);
    load_warm(expected_fingerprint, &mut file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RankingConfig;
    use crate::handle::GraphHandle;
    use pivote_kg::snapshot::fingerprint;
    use pivote_kg::{generate, DatagenConfig, ShardedGraph};

    #[test]
    fn warm_state_roundtrips_exactly() {
        let kg = generate(&DatagenConfig::tiny());
        let fp = fingerprint(&kg);
        let cache = Arc::new(SharedCache::new());
        let cfg = RankingConfig::default();
        let film = kg.type_id("Film").unwrap();
        let seeds = kg.type_extent(film)[..2].to_vec();
        let sg = ShardedGraph::from(kg);
        {
            let ctx = GraphHandle::with_cache(&sg, 1, Arc::clone(&cache));
            let f = ctx.rank_features(&cfg, &seeds);
            let _ = ctx.rank_entities(&cfg, &seeds, &f);
        }
        let filled = cache.cached_probability_count();
        assert!(filled > 0, "queries must fill the cache");

        let mut buf = Vec::new();
        save_warm(&cache, fp, &mut buf).unwrap();
        let warm = load_warm(fp, &mut buf.as_slice()).unwrap();
        assert_eq!(warm.cached_probability_count(), filled);
        assert_eq!(warm.feature_count(), cache.feature_count());
        // the exported entries are bit-identical after the roundtrip
        assert_eq!(cache.export_entries().0, warm.export_entries().0);
        let (_, a) = cache.export_entries();
        let (_, b) = warm.export_entries();
        for ((ka, va), (kb, vb)) in a.iter().zip(&b) {
            assert_eq!(ka, kb);
            assert_eq!(va.to_bits(), vb.to_bits(), "density bits drifted");
        }
    }

    #[test]
    fn stale_fingerprint_is_refused() {
        let cache = SharedCache::new();
        let mut buf = Vec::new();
        save_warm(&cache, 3, &mut buf).unwrap();
        let err = load_warm(4, &mut buf.as_slice()).unwrap_err();
        assert!(matches!(
            err,
            WarmStateError::StaleSidecar {
                stored: 3,
                expected: 4
            }
        ));
    }

    #[test]
    fn garbage_is_refused() {
        assert!(load_warm(0, &mut &b"NOPE0000"[..]).is_err());
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&99u32.to_le_bytes());
        let err = load_warm(0, &mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn corrupt_counts_fail_without_huge_allocations() {
        // a sidecar claiming ~4 billion densities must error out on the
        // truncated body, not abort on an up-front allocation
        let cache = SharedCache::new();
        let mut buf = Vec::new();
        save_warm(&cache, 7, &mut buf).unwrap();
        let density_count_at = buf.len() - 8; // empty cache: trailing u64 count
        buf[density_count_at..].copy_from_slice(&(u32::MAX as u64).to_le_bytes());
        assert!(matches!(
            load_warm(7, &mut buf.as_slice()),
            Err(WarmStateError::Io(_))
        ));
    }

    #[test]
    fn sidecar_path_is_derived_from_the_snapshot_path() {
        assert_eq!(
            warm_sidecar_path("/tmp/graph.pvte"),
            std::path::PathBuf::from("/tmp/graph.pvte.warm")
        );
    }
}
