//! Binary snapshots: save a frozen [`KnowledgeGraph`] to a compact
//! length-prefixed binary file and load it back without re-parsing or
//! re-generating.
//!
//! Format (all integers little-endian):
//!
//! ```text
//! magic "PVTE" | version u32 |
//! entities: count u32, names (str) | labels: Option<str> per entity |
//! predicates / types / categories: count u32, names |
//! literals: count u32, (kind u8, lexical str) |
//! entity edges: count u32, (s u32, p u32, o u32) |
//! literal edges: count u32, (s u32, p u32, lit u32) |
//! type assertions / category assertions: count u32, (e u32, id u32) |
//! aliases: count u32, (e u32, alias str)
//! str = len u32 + UTF-8 bytes
//! ```
//!
//! The snapshot round-trips the *logical* graph through [`KgBuilder`],
//! so derived indexes are rebuilt on load — versioned data, not
//! memory-dumped structs.

use crate::id::{EntityId, PredicateId};
use crate::store::{KgBuilder, KnowledgeGraph};
use crate::triple::{Literal, LiteralKind};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"PVTE";
const VERSION: u32 = 1;

/// Errors from snapshot IO.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying IO failure.
    Io(io::Error),
    /// Not a snapshot file, or an unsupported version.
    Format(String),
    /// A section holds more items (or a string more bytes) than the
    /// format's 32-bit counters can record. Refusing to save beats
    /// silently truncating the count and producing a snapshot that
    /// loads wrong.
    TooLarge {
        /// Which section overflowed.
        what: &'static str,
        /// The length that did not fit.
        len: usize,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot IO error: {e}"),
            SnapshotError::Format(m) => write!(f, "snapshot format error: {m}"),
            SnapshotError::TooLarge { what, len } => write!(
                f,
                "snapshot section `{what}` has {len} items — past the format's u32 counter"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Write a section length as the format's u32 counter, refusing lengths
/// it cannot represent — the one place every count in [`save`] funnels
/// through, so no `as u32` truncation survives anywhere in the writer.
fn write_count(w: &mut impl Write, n: usize, what: &'static str) -> Result<(), SnapshotError> {
    let v = u32::try_from(n).map_err(|_| SnapshotError::TooLarge { what, len: n })?;
    write_u32(w, v)?;
    Ok(())
}

fn write_str(w: &mut impl Write, s: &str) -> Result<(), SnapshotError> {
    write_count(w, s.len(), "string bytes")?;
    w.write_all(s.as_bytes())?;
    Ok(())
}

fn read_u32(r: &mut impl Read) -> Result<u32, SnapshotError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_str(r: &mut impl Read) -> Result<String, SnapshotError> {
    let len = read_u32(r)? as usize;
    if len > 64 * 1024 * 1024 {
        return Err(SnapshotError::Format(format!("string of {len} bytes")));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|e| SnapshotError::Format(format!("invalid UTF-8: {e}")))
}

fn kind_tag(kind: LiteralKind) -> u8 {
    match kind {
        LiteralKind::String => 0,
        LiteralKind::Integer => 1,
        LiteralKind::Double => 2,
        LiteralKind::Date => 3,
    }
}

fn tag_kind(tag: u8) -> Result<LiteralKind, SnapshotError> {
    Ok(match tag {
        0 => LiteralKind::String,
        1 => LiteralKind::Integer,
        2 => LiteralKind::Double,
        3 => LiteralKind::Date,
        other => return Err(SnapshotError::Format(format!("bad literal tag {other}"))),
    })
}

/// Write a snapshot of `kg` to `w`.
pub fn save(kg: &KnowledgeGraph, w: &mut impl Write) -> Result<(), SnapshotError> {
    w.write_all(MAGIC)?;
    write_u32(w, VERSION)?;

    write_count(w, kg.entity_count(), "entities")?;
    for e in kg.entity_ids() {
        write_str(w, kg.entity_name(e))?;
    }
    for e in kg.entity_ids() {
        match kg.label(e) {
            Some(l) => {
                w.write_all(&[1])?;
                write_str(w, l)?;
            }
            None => w.write_all(&[0])?,
        }
    }
    write_count(w, kg.predicate_count(), "predicates")?;
    for p in kg.predicate_ids() {
        write_str(w, kg.predicate_name(p))?;
    }
    write_count(w, kg.type_count(), "types")?;
    for t in kg.type_ids() {
        write_str(w, kg.type_name(t))?;
    }
    write_count(w, kg.category_count(), "categories")?;
    for c in kg.category_ids() {
        write_str(w, kg.category_name(c))?;
    }

    // literal table is reconstructed from literal edges on load
    let literal_edges: Vec<(EntityId, PredicateId, &Literal)> = kg.literal_triples().collect();
    let entity_edges: Vec<_> = kg.entity_triples().collect();

    write_count(w, entity_edges.len(), "entity edges")?;
    for t in &entity_edges {
        write_u32(w, t.subject.raw())?;
        write_u32(w, t.predicate.raw())?;
        match t.object {
            crate::triple::Object::Entity(o) => write_u32(w, o.raw())?,
            crate::triple::Object::Literal(_) => unreachable!("entity_triples yields entities"),
        }
    }
    write_count(w, literal_edges.len(), "literal edges")?;
    for (s, p, lit) in &literal_edges {
        write_u32(w, s.raw())?;
        write_u32(w, p.raw())?;
        w.write_all(&[kind_tag(lit.kind)])?;
        write_str(w, &lit.lexical)?;
    }

    let type_assertions: Vec<(u32, u32)> = kg
        .entity_ids()
        .flat_map(|e| kg.types_of(e).map(move |t| (e.raw(), t.raw())))
        .collect();
    write_count(w, type_assertions.len(), "type assertions")?;
    for (e, t) in type_assertions {
        write_u32(w, e)?;
        write_u32(w, t)?;
    }
    let cat_assertions: Vec<(u32, u32)> = kg
        .entity_ids()
        .flat_map(|e| kg.categories_of(e).map(move |c| (e.raw(), c.raw())))
        .collect();
    write_count(w, cat_assertions.len(), "category assertions")?;
    for (e, c) in cat_assertions {
        write_u32(w, e)?;
        write_u32(w, c)?;
    }

    let aliases: Vec<(u32, &String)> = kg
        .entity_ids()
        .flat_map(|e| kg.aliases(e).iter().map(move |a| (e.raw(), a)))
        .collect();
    write_count(w, aliases.len(), "aliases")?;
    for (e, alias) in aliases {
        write_u32(w, e)?;
        write_str(w, alias)?;
    }
    Ok(())
}

/// The most section entries [`load`] reserves room for before reading
/// them; larger sections grow as their entries actually parse.
const MAX_PREALLOC: usize = 1 << 16;

/// The dense id `interned` must carry when its name is the `next`-th of
/// its dictionary. [`save`] writes every entity and predicate name once,
/// so a repeated name is a corrupt file: interning it again would hand
/// back the first copy's id and shift every later id the file names.
fn intern_once<I: Copy + Into<u32>>(
    interned: I,
    next: usize,
    what: &str,
    name: &str,
) -> Result<I, SnapshotError> {
    if interned.into() as usize == next {
        Ok(interned)
    } else {
        Err(SnapshotError::Format(format!(
            "{what} name {name:?} appears twice"
        )))
    }
}

/// Read a snapshot back into a frozen graph.
pub fn load(r: &mut impl Read) -> Result<KnowledgeGraph, SnapshotError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(SnapshotError::Format(
            "bad magic — not a PVTE snapshot".into(),
        ));
    }
    let version = read_u32(r)?;
    if version != VERSION {
        return Err(SnapshotError::Format(format!(
            "unsupported snapshot version {version} (expected {VERSION})"
        )));
    }
    let mut b = KgBuilder::new();

    // every capacity below is clamped: the counts come off the file, so
    // a hostile header must fail the short read with a typed error, never
    // abort the process on a huge up-front allocation
    let n_entities = read_u32(r)? as usize;
    let mut entities: Vec<EntityId> = Vec::with_capacity(n_entities.min(MAX_PREALLOC));
    for _ in 0..n_entities {
        let name = read_str(r)?;
        entities.push(intern_once(
            b.entity(&name),
            entities.len(),
            "entity",
            &name,
        )?);
    }
    for &e in &entities {
        let mut flag = [0u8; 1];
        r.read_exact(&mut flag)?;
        if flag[0] == 1 {
            let label = read_str(r)?;
            b.label(e, label);
        }
    }
    let n_preds = read_u32(r)? as usize;
    let mut predicates: Vec<PredicateId> = Vec::with_capacity(n_preds.min(MAX_PREALLOC));
    for _ in 0..n_preds {
        let name = read_str(r)?;
        predicates.push(intern_once(
            b.predicate(&name),
            predicates.len(),
            "predicate",
            &name,
        )?);
    }
    let n_types = read_u32(r)? as usize;
    let mut type_names: Vec<String> = Vec::with_capacity(n_types.min(MAX_PREALLOC));
    for _ in 0..n_types {
        type_names.push(read_str(r)?);
    }
    let n_cats = read_u32(r)? as usize;
    let mut cat_names: Vec<String> = Vec::with_capacity(n_cats.min(MAX_PREALLOC));
    for _ in 0..n_cats {
        cat_names.push(read_str(r)?);
    }
    // declare the dictionaries in stored id order, so the loaded graph's
    // dense type/category ids equal the saved graph's — required by
    // derived state keyed on those ids (the persisted warm-state sidecar)
    for name in &type_names {
        b.declare_type(name);
    }
    for name in &cat_names {
        b.declare_category(name);
    }

    let lookup_entity = |id: u32, n: usize| -> Result<EntityId, SnapshotError> {
        if (id as usize) < n {
            Ok(EntityId::new(id))
        } else {
            Err(SnapshotError::Format(format!(
                "entity id {id} out of range"
            )))
        }
    };

    let n_edges = read_u32(r)? as usize;
    for _ in 0..n_edges {
        let s = lookup_entity(read_u32(r)?, n_entities)?;
        let p = read_u32(r)? as usize;
        let o = lookup_entity(read_u32(r)?, n_entities)?;
        let p = *predicates
            .get(p)
            .ok_or_else(|| SnapshotError::Format(format!("predicate id {p} out of range")))?;
        b.triple(s, p, o);
    }
    let n_lit = read_u32(r)? as usize;
    for _ in 0..n_lit {
        let s = lookup_entity(read_u32(r)?, n_entities)?;
        let p = read_u32(r)? as usize;
        let p = *predicates
            .get(p)
            .ok_or_else(|| SnapshotError::Format(format!("predicate id {p} out of range")))?;
        let mut tag = [0u8; 1];
        r.read_exact(&mut tag)?;
        let kind = tag_kind(tag[0])?;
        let lexical = read_str(r)?;
        b.literal_triple(s, p, Literal { lexical, kind });
    }
    let n_ta = read_u32(r)? as usize;
    for _ in 0..n_ta {
        let e = lookup_entity(read_u32(r)?, n_entities)?;
        let t = read_u32(r)? as usize;
        let name = type_names
            .get(t)
            .ok_or_else(|| SnapshotError::Format(format!("type id {t} out of range")))?;
        b.typed(e, name);
    }
    let n_ca = read_u32(r)? as usize;
    for _ in 0..n_ca {
        let e = lookup_entity(read_u32(r)?, n_entities)?;
        let c = read_u32(r)? as usize;
        let name = cat_names
            .get(c)
            .ok_or_else(|| SnapshotError::Format(format!("category id {c} out of range")))?;
        b.categorized(e, name);
    }
    let n_alias = read_u32(r)? as usize;
    for _ in 0..n_alias {
        let e = lookup_entity(read_u32(r)?, n_entities)?;
        let alias = read_str(r)?;
        b.redirect(alias, e);
    }
    Ok(b.finish())
}

/// A 64-bit FNV-1a fingerprint of the logical graph — hashed over the
/// exact bytes [`save`] would write. Restart-stable: a loaded snapshot
/// fingerprints identically to the graph that saved it, and every
/// id-preserving build path (rebuild, append, sharded union rebuild,
/// compaction) fingerprints identically too, because they all
/// serialize byte-identically. The mutation *generation* deliberately
/// does not participate (it resets to 0 on load, and persisting it
/// would break append-vs-rebuild byte identity) — this fingerprint is
/// the pairing key for sidecar artifacts like the persisted warm-state
/// cache.
pub fn fingerprint(kg: &KnowledgeGraph) -> u64 {
    struct FnvWriter(u64);
    impl Write for FnvWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            for &b in buf {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    let mut w = FnvWriter(0xcbf2_9ce4_8422_2325);
    // the sink cannot fail, and a graph held in memory is orders of
    // magnitude below the format's u32 section counters
    save(kg, &mut w).expect("in-memory fingerprint write cannot fail");
    w.0
}

/// Save to a file path.
pub fn save_to_path(
    kg: &KnowledgeGraph,
    path: impl AsRef<std::path::Path>,
) -> Result<(), SnapshotError> {
    let mut file = io::BufWriter::new(std::fs::File::create(path)?);
    save(kg, &mut file)?;
    file.flush()?;
    Ok(())
}

/// Load from a file path.
pub fn load_from_path(path: impl AsRef<std::path::Path>) -> Result<KnowledgeGraph, SnapshotError> {
    let mut file = io::BufReader::new(std::fs::File::open(path)?);
    load(&mut file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::{generate, DatagenConfig};
    use crate::ntriples;

    #[test]
    fn roundtrip_preserves_the_logical_graph() {
        let kg = generate(&DatagenConfig::tiny());
        let mut buf = Vec::new();
        save(&kg, &mut buf).unwrap();
        let kg2 = load(&mut buf.as_slice()).unwrap();
        assert_eq!(kg2.entity_count(), kg.entity_count());
        assert_eq!(kg2.relation_count(), kg.relation_count());
        assert_eq!(kg2.triple_count(), kg.triple_count());
        // the N-Triples serialization is a full logical fingerprint
        assert_eq!(ntriples::serialize(&kg2), ntriples::serialize(&kg));
    }

    #[test]
    fn fingerprint_is_stable_across_build_paths_and_loads() {
        let kg = generate(&DatagenConfig::tiny());
        let fp = fingerprint(&kg);
        // load roundtrip preserves the fingerprint
        let mut buf = Vec::new();
        save(&kg, &mut buf).unwrap();
        let loaded = load(&mut buf.as_slice()).unwrap();
        assert_eq!(
            fingerprint(&loaded),
            fp,
            "load must preserve the fingerprint"
        );
        // append == rebuild fingerprints identically
        let (mut appended, delta) = crate::delta::split_incremental(&kg, 0.5);
        appended.apply(&delta);
        assert_eq!(fingerprint(&appended), fp, "append path must match");
        // any logical change moves it
        let mut grown = load(&mut buf.as_slice()).unwrap();
        let mut d = crate::delta::DeltaBatch::new();
        d.entity("Fingerprint_Probe");
        grown.apply(&d);
        assert_ne!(fingerprint(&grown), fp, "a grown graph must not collide");
    }

    #[test]
    fn roundtrip_via_files() {
        let kg = generate(&DatagenConfig::tiny());
        let path = std::env::temp_dir().join("pivote_snapshot_test.pvte");
        save_to_path(&kg, &path).unwrap();
        let kg2 = load_from_path(&path).unwrap();
        assert_eq!(kg2.entity_count(), kg.entity_count());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            load(&mut &b"NOPE"[..]),
            Err(SnapshotError::Format(_)) | Err(SnapshotError::Io(_))
        ));
        let err = load(&mut &b"XXXX\x01\x00\x00\x00"[..]).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn rejects_wrong_version() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&99u32.to_le_bytes());
        let err = load(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn rejects_truncated_snapshot() {
        let kg = generate(&DatagenConfig::tiny());
        let mut buf = Vec::new();
        save(&kg, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(load(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_out_of_range_ids() {
        // hand-craft: 1 entity, 0 labels... simpler: corrupt a valid
        // snapshot's edge section by appending a bogus edge count is
        // fragile; instead check oversized string guard
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes()); // 1 entity
        buf.extend_from_slice(&(u32::MAX).to_le_bytes()); // absurd name length
        let err = load(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, SnapshotError::Format(_)), "{err}");
    }

    /// `PVTE | 1 | 0 entities | 0 predicates | u32::MAX types`: the type
    /// count must not size an allocation before a single name is read.
    #[test]
    fn hostile_section_count_is_a_short_read_not_an_abort() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        for count in [VERSION, 0, 0, u32::MAX] {
            buf.extend_from_slice(&count.to_le_bytes());
        }
        assert_eq!(buf.len(), 20);
        let err = load(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)), "{err}");
    }

    /// Entity `a` named twice plus one edge 1 → 1: the second copy would
    /// intern as id 0, leaving the edge's id 1 pointing past the graph.
    #[test]
    fn repeated_entity_name_is_refused() {
        let str_bytes = |s: &str| {
            let mut out = (s.len() as u32).to_le_bytes().to_vec();
            out.extend_from_slice(s.as_bytes());
            out
        };
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend(str_bytes("a"));
        buf.extend(str_bytes("a"));
        buf.extend_from_slice(&[0, 0]); // no labels
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend(str_bytes("p"));
        buf.extend_from_slice(&0u32.to_le_bytes()); // types
        buf.extend_from_slice(&0u32.to_le_bytes()); // categories
        buf.extend_from_slice(&1u32.to_le_bytes()); // one edge 1 -p-> 1
        for id in [1u32, 0, 1] {
            buf.extend_from_slice(&id.to_le_bytes());
        }
        for _ in 0..4 {
            buf.extend_from_slice(&0u32.to_le_bytes()); // empty sections
        }
        let err = load(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, SnapshotError::Format(_)), "{err}");
        assert!(err.to_string().contains("twice"), "{err}");
    }

    #[test]
    fn counts_past_u32_are_refused_not_truncated() {
        // the writer path with a mocked length: every section counter
        // funnels through write_count, so driving it past u32::MAX must
        // surface TooLarge — previously `len() as u32` wrapped silently
        // and produced a snapshot that loads wrong
        let mut sink = Vec::new();
        write_count(&mut sink, u32::MAX as usize, "entities").unwrap();
        assert_eq!(sink, (u32::MAX).to_le_bytes());
        let err = write_count(&mut sink, u32::MAX as usize + 1, "entities").unwrap_err();
        match err {
            SnapshotError::TooLarge { what, len } => {
                assert_eq!(what, "entities");
                assert_eq!(len, u32::MAX as usize + 1);
            }
            other => panic!("expected TooLarge, got {other}"),
        }
        let err = write_count(&mut sink, usize::MAX, "aliases").unwrap_err();
        assert!(err.to_string().contains("aliases"), "{err}");
        // nothing is written on refusal — the snapshot stays a prefix of
        // valid sections, never a frame with a wrapped counter
        assert_eq!(sink.len(), 4);
    }

    #[test]
    fn snapshot_is_smaller_than_ntriples() {
        let kg = generate(&DatagenConfig::small());
        let mut buf = Vec::new();
        save(&kg, &mut buf).unwrap();
        let nt = ntriples::serialize(&kg);
        assert!(
            buf.len() < nt.len(),
            "binary {} >= text {}",
            buf.len(),
            nt.len()
        );
    }
}
