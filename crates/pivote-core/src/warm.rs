//! Persisted context warm-state: the `p(π|c)` density cache as a
//! sidecar file next to the graph snapshot.
//!
//! A server restart used to mean an empty [`SharedCache`]: every density
//! the previous process memoized was re-derived from the extents on the
//! first queries. Since every cached `p(π|c)` is a pure graph quantity —
//! exact for a given logical graph, independent of any ranking
//! configuration or partitioning — the cache can be serialized next to
//! the snapshot and reloaded on open, as long as it is paired with the
//! *same logical graph* it was computed over.
//!
//! The pairing key is [`pivote_kg::snapshot::fingerprint`], a
//! restart-stable checksum of the graph (the in-memory mutation
//! generation resets to 0 on every load). [`load_warm_state`] refuses a
//! sidecar whose fingerprint differs from the opened graph's, or whose
//! frame fails its checksum, and the caller starts cold: correctness
//! never depends on the sidecar; it is a latency artifact.
//!
//! A sidecar is the [`pivote_kg::codec`] file header plus one `Warm`
//! frame (exact `f64` bit patterns — warm answers must be
//! *bit-identical* to cold ones):
//!
//! ```text
//! graph fingerprint u64 |
//! features: count u32, (anchor u32, predicate u32, direction u8) —
//!   in dense feature-id order |
//! densities: count u32, (key u64, f64 bits u64) — sorted by key
//! ```

use crate::context::SharedCache;
use crate::feature::{Direction, SemanticFeature};
use pivote_kg::codec::{self, CodecError, Enc, Kind};
use pivote_kg::{EntityId, PredicateId};
use std::fs::File;
use std::io::{Read, Write};
use std::sync::Arc;

/// Write the cache's warm state to `w`, stamped as exact for the graph
/// whose [`pivote_kg::snapshot::fingerprint`] is `graph_fingerprint`.
pub fn save_warm(
    cache: &SharedCache,
    graph_fingerprint: u64,
    w: &mut impl Write,
) -> Result<(), CodecError> {
    let (features, probs) = cache.export_entries();
    let mut enc = Enc::new(Kind::Warm);
    enc.u64(graph_fingerprint);
    enc.count(features.len(), "features")?;
    for sf in &features {
        enc.u32(sf.anchor.raw());
        enc.u32(sf.predicate.raw());
        enc.u8(sf.direction as u8); // declaration order: FromAnchor 0, ToAnchor 1
    }
    enc.count(probs.len(), "densities")?;
    for (key, p) in &probs {
        enc.u64(*key);
        enc.u64(p.to_bits());
    }
    codec::write_file(w, enc)
}

/// Read warm state back into a fresh [`SharedCache`], refusing the file
/// unless its stored fingerprint equals `expected_fingerprint` (the
/// opened graph's [`pivote_kg::snapshot::fingerprint`] — densities are
/// exact only for the extents they were computed over).
pub fn load_warm(
    expected_fingerprint: u64,
    r: &mut impl Read,
) -> Result<Arc<SharedCache>, CodecError> {
    let frame = codec::read_file(r)?;
    let mut dec = frame.decoder(Kind::Warm)?;
    let stored = dec.u64()?;
    if stored != expected_fingerprint {
        return Err(CodecError::Stale {
            stored,
            expected: expected_fingerprint,
        });
    }
    let n_features = dec.count()?;
    let mut features = Vec::with_capacity(n_features);
    for _ in 0..n_features {
        let anchor = EntityId::new(dec.u32()?);
        let predicate = PredicateId::new(dec.u32()?);
        let direction = match dec.u8()? {
            0 => Direction::FromAnchor,
            1 => Direction::ToAnchor,
            other => return Err(CodecError::Format(format!("bad direction tag {other}"))),
        };
        features.push(SemanticFeature {
            anchor,
            predicate,
            direction,
        });
    }
    let n_probs = dec.count()?;
    let mut probs = Vec::with_capacity(n_probs);
    for _ in 0..n_probs {
        probs.push((dec.u64()?, f64::from_bits(dec.u64()?)));
    }
    dec.end()?;
    Ok(Arc::new(SharedCache::import_entries(features, probs)))
}

/// Save the cache's warm state to `path`, stamped for the graph whose
/// snapshot fingerprint is `graph_fingerprint`.
pub fn save_warm_state(
    cache: &SharedCache,
    graph_fingerprint: u64,
    path: impl AsRef<std::path::Path>,
) -> Result<(), CodecError> {
    save_warm(cache, graph_fingerprint, &mut File::create(path)?)
}

/// Load a warm-state sidecar from `path` for a graph whose snapshot
/// fingerprint is `expected_fingerprint`.
pub fn load_warm_state(
    path: impl AsRef<std::path::Path>,
    expected_fingerprint: u64,
) -> Result<Arc<SharedCache>, CodecError> {
    load_warm(expected_fingerprint, &mut File::open(path)?)
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
        // every feature and density bit survives: saved again, the
        // loaded cache writes the same bytes
        let mut again = Vec::new();
        save_warm(&warm, fp, &mut again).unwrap();
        assert_eq!(again, buf);
    }

    #[test]
    fn stale_fingerprint_is_refused() {
        let cache = SharedCache::new();
        let mut buf = Vec::new();
        save_warm(&cache, 3, &mut buf).unwrap();
        let err = load_warm(4, &mut buf.as_slice()).unwrap_err();
        assert!(matches!(
            err,
            CodecError::Stale {
                stored: 3,
                expected: 4
            }
        ));
    }

    /// Garbage and a `PVWS` v2 sidecar, the format before the codec, are
    /// refused.
    #[test]
    fn garbage_is_refused() {
        assert!(load_warm(0, &mut &b"NOPE0000"[..]).is_err());
        let mut buf = b"PVWS".to_vec();
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&[0; 16]);
        let err = load_warm(0, &mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, CodecError::Format(_)), "{err}");
    }

    #[test]
    fn corrupt_counts_fail_without_huge_allocations() {
        // a well-formed frame claiming ~4 billion densities is refused
        // before the count sizes anything
        let mut enc = Enc::new(Kind::Warm);
        enc.u64(7);
        enc.u32(0);
        enc.u32(u32::MAX);
        let mut buf = Vec::new();
        codec::write_file(&mut buf, enc).unwrap();
        let err = load_warm(7, &mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("count"), "{err}");
    }
}
