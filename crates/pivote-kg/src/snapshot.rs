//! Binary snapshots: save a frozen [`KnowledgeGraph`] to a compact
//! file and load it back without re-parsing or re-generating.
//!
//! A snapshot is the [`codec`] file header plus one `Graph` frame,
//! whose payload holds these rows (`str` = len u32 + UTF-8):
//!
//! ```text
//! entities: count u32, names (str) | labels: Option<str> per entity |
//! predicates / types / categories: count u32, names |
//! entity edges: count u32, (s u32, p u32, o u32) |
//! literal edges: count u32, (s u32, p u32, kind u8, lexical str) |
//! type assertions / category assertions: count u32, (e u32, id u32) |
//! aliases: count u32, (e u32, alias str)
//! ```
//!
//! The snapshot round-trips the *logical* graph through [`KgBuilder`],
//! so derived indexes are rebuilt on load — versioned data, not
//! memory-dumped structs.

use crate::codec::{self, CodecError, Dec, Enc, Kind};
use crate::id::{EntityId, PredicateId};
use crate::store::{KgBuilder, KnowledgeGraph};
use crate::triple::Object;
use std::fs::File;
use std::io::{Read, Write};

/// Write `kg` as a `Graph` payload.
fn encode(kg: &KnowledgeGraph, enc: &mut Enc) -> Result<(), CodecError> {
    enc.count(kg.entity_count(), "entities")?;
    for e in kg.entity_ids() {
        enc.str(kg.entity_name(e))?;
    }
    for e in kg.entity_ids() {
        match kg.label(e) {
            Some(l) => {
                enc.u8(1);
                enc.str(l)?;
            }
            None => enc.u8(0),
        }
    }
    enc.count(kg.predicate_count(), "predicates")?;
    for p in kg.predicate_ids() {
        enc.str(kg.predicate_name(p))?;
    }
    enc.count(kg.type_count(), "types")?;
    for t in kg.type_ids() {
        enc.str(kg.type_name(t))?;
    }
    enc.count(kg.category_count(), "categories")?;
    for c in kg.category_ids() {
        enc.str(kg.category_name(c))?;
    }

    // the literal table is reconstructed from literal edges on load
    let entity_edges: Vec<_> = kg.entity_triples().collect();
    enc.count(entity_edges.len(), "entity edges")?;
    for t in &entity_edges {
        let Object::Entity(o) = t.object else {
            unreachable!("entity_triples yields entities")
        };
        for id in [t.subject.raw(), t.predicate.raw(), o.raw()] {
            enc.u32(id);
        }
    }
    let literal_edges: Vec<_> = kg.literal_triples().collect();
    enc.count(literal_edges.len(), "literal edges")?;
    for (s, p, lit) in &literal_edges {
        enc.u32(s.raw());
        enc.u32(p.raw());
        enc.literal(lit)?;
    }

    let type_assertions: Vec<(u32, u32)> = kg
        .entity_ids()
        .flat_map(|e| kg.types_of(e).map(move |t| (e.raw(), t.raw())))
        .collect();
    let cat_assertions: Vec<(u32, u32)> = kg
        .entity_ids()
        .flat_map(|e| kg.categories_of(e).map(move |c| (e.raw(), c.raw())))
        .collect();
    for (pairs, what) in [
        (type_assertions, "type assertions"),
        (cat_assertions, "category assertions"),
    ] {
        enc.count(pairs.len(), what)?;
        for (e, id) in pairs {
            enc.u32(e);
            enc.u32(id);
        }
    }

    let aliases: Vec<(u32, &String)> = kg
        .entity_ids()
        .flat_map(|e| kg.aliases(e).iter().map(move |a| (e.raw(), a)))
        .collect();
    enc.count(aliases.len(), "aliases")?;
    for (e, alias) in aliases {
        enc.u32(e);
        enc.str(alias)?;
    }
    Ok(())
}

/// Write a snapshot of `kg` to `w`.
pub fn save(kg: &KnowledgeGraph, w: &mut impl Write) -> Result<(), CodecError> {
    let mut enc = Enc::new(Kind::Graph);
    encode(kg, &mut enc)?;
    codec::write_file(w, enc)
}

/// The entry `id` of a table the payload names by index.
fn lookup<'t, T>(table: &'t [T], id: u32, what: &str) -> Result<&'t T, CodecError> {
    table
        .get(id as usize)
        .ok_or_else(|| CodecError::Format(format!("{what} id {id} out of range")))
}

/// Rebuild the graph a `Graph` payload holds.
fn decode(mut dec: Dec<'_>) -> Result<KnowledgeGraph, CodecError> {
    let mut b = KgBuilder::new();
    // save writes each entity and predicate name once: a repeated name
    // would intern as the first copy's id and shift every later id
    let repeated = |name: &str| CodecError::Format(format!("name {name:?} appears twice"));
    let n_entities = dec.count()?;
    let mut entities: Vec<EntityId> = Vec::with_capacity(n_entities);
    for _ in 0..n_entities {
        let (name, next) = (dec.str()?, entities.len());
        entities.push(b.entity(name));
        if entities[next].raw() as usize != next {
            return Err(repeated(name));
        }
    }
    for &e in &entities {
        if dec.u8()? == 1 {
            b.label(e, dec.str()?);
        }
    }
    let n_preds = dec.count()?;
    let mut predicates: Vec<PredicateId> = Vec::with_capacity(n_preds);
    for _ in 0..n_preds {
        let (name, next) = (dec.str()?, predicates.len());
        predicates.push(b.predicate(name));
        if predicates[next].raw() as usize != next {
            return Err(repeated(name));
        }
    }
    let mut names =
        || -> Result<Vec<&str>, CodecError> { (0..dec.count()?).map(|_| dec.str()).collect() };
    let (type_names, cat_names) = (names()?, names()?);
    // declare the dictionaries in stored id order, so the loaded graph's
    // dense type/category ids equal the saved graph's — required by
    // derived state keyed on those ids (the persisted warm-state sidecar)
    for name in &type_names {
        b.declare_type(name);
    }
    for name in &cat_names {
        b.declare_category(name);
    }

    for _ in 0..dec.count()? {
        let s = *lookup(&entities, dec.u32()?, "entity")?;
        let p = *lookup(&predicates, dec.u32()?, "predicate")?;
        let o = *lookup(&entities, dec.u32()?, "entity")?;
        b.triple(s, p, o);
    }
    for _ in 0..dec.count()? {
        let s = *lookup(&entities, dec.u32()?, "entity")?;
        let p = *lookup(&predicates, dec.u32()?, "predicate")?;
        b.literal_triple(s, p, dec.literal()?);
    }
    for _ in 0..dec.count()? {
        let e = *lookup(&entities, dec.u32()?, "entity")?;
        b.typed(e, lookup(&type_names, dec.u32()?, "type")?);
    }
    for _ in 0..dec.count()? {
        let e = *lookup(&entities, dec.u32()?, "entity")?;
        b.categorized(e, lookup(&cat_names, dec.u32()?, "category")?);
    }
    for _ in 0..dec.count()? {
        let e = *lookup(&entities, dec.u32()?, "entity")?;
        b.redirect(dec.str()?, e);
    }
    dec.end()?;
    Ok(b.finish())
}

/// Read a snapshot back into a frozen graph.
pub fn load(r: &mut impl Read) -> Result<KnowledgeGraph, CodecError> {
    decode(codec::read_file(r)?.decoder(Kind::Graph)?)
}

/// A 64-bit fingerprint of the logical graph: the checksum of the
/// `Graph` frame [`save`] would write. Restart-stable: a loaded snapshot
/// fingerprints identically to the graph that saved it, and every
/// id-preserving build path (rebuild, append, sharded union rebuild,
/// compaction) fingerprints identically too, because they all
/// serialize byte-identically. The mutation *generation* deliberately
/// does not participate (it resets to 0 on load, and persisting it
/// would break append-vs-rebuild byte identity) — this fingerprint is
/// the pairing key for the delta log's base and the warm-state sidecar.
pub fn fingerprint(kg: &KnowledgeGraph) -> u64 {
    // a graph held in memory is orders of magnitude below the format's
    // u32 section counters
    Enc::checksum_of(|enc| encode(kg, enc)).expect("an in-memory graph fits the format's counters")
}

/// Save to a file path.
pub fn save_to_path(
    kg: &KnowledgeGraph,
    path: impl AsRef<std::path::Path>,
) -> Result<(), CodecError> {
    // the frame is whole in memory, so it needs no write buffer
    save(kg, &mut File::create(path)?)
}

/// Load from a file path.
pub fn load_from_path(path: impl AsRef<std::path::Path>) -> Result<KnowledgeGraph, CodecError> {
    load(&mut File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::{generate, DatagenConfig};
    use crate::ntriples;

    /// A snapshot whose entities are `names`, with one predicate, one
    /// edge `edge` (as raw ids) and every other section empty.
    fn one_edge_file(names: &[&str], edge: [u32; 3]) -> Vec<u8> {
        let mut e = Enc::new(Kind::Graph);
        e.count(names.len(), "entities").unwrap();
        for name in names {
            e.str(name).unwrap();
        }
        names.iter().for_each(|_| e.u8(0)); // no labels
        e.count(1, "predicates").unwrap();
        e.str("p").unwrap();
        for count in [0, 0, 1] {
            e.u32(count); // types, categories, entity edges
        }
        edge.into_iter().for_each(|id| e.u32(id));
        for _ in 0..4 {
            e.u32(0); // literal edges, assertions, aliases
        }
        let mut buf = Vec::new();
        codec::write_file(&mut buf, e).unwrap();
        buf
    }

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
        assert_eq!(buf[13..21], fp.to_le_bytes(), "the Graph frame's checksum");
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
        assert!(matches!(load(&mut &b"NOPE"[..]), Err(CodecError::Io(_))));
        let err = load(&mut &b"XXXX\x02\x00\x00\x00"[..]).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    /// A `PVTE` v1 file, the format before the codec, is refused.
    #[test]
    fn rejects_wrong_version() {
        let mut buf = b"PVTE".to_vec();
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let err = load(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, CodecError::Format(_)), "{err}");
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn rejects_truncated_snapshot() {
        let kg = generate(&DatagenConfig::tiny());
        let mut buf = Vec::new();
        save(&kg, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(matches!(
            load(&mut buf.as_slice()),
            Err(CodecError::Format(_))
        ));
    }

    /// `DatagenConfig::tiny()` has aliases, so the last byte is an alias
    /// character: flipped, it used to load as a different graph.
    #[test]
    fn a_flipped_last_byte_is_corrupt_not_another_graph() {
        let kg = generate(&DatagenConfig::tiny());
        let mut buf = Vec::new();
        save(&kg, &mut buf).unwrap();
        *buf.last_mut().unwrap() ^= 1;
        let err = load(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, CodecError::Corrupt { offset: 8 }), "{err}");
    }

    #[test]
    fn rejects_out_of_range_ids() {
        assert!(load(&mut one_edge_file(&["a"], [0, 0, 0]).as_slice()).is_ok());
        let err = load(&mut one_edge_file(&["a"], [0, 0, 7]).as_slice()).unwrap_err();
        assert!(err.to_string().contains("entity id 7"), "{err}");
    }

    /// `0 entities | 0 predicates | u32::MAX types`: the type count must
    /// not size an allocation before a single name is read.
    #[test]
    fn hostile_section_count_is_refused_before_it_allocates() {
        let mut e = Enc::new(Kind::Graph);
        [0, 0, u32::MAX].into_iter().for_each(|count| e.u32(count));
        let mut buf = Vec::new();
        codec::write_file(&mut buf, e).unwrap();
        let err = load(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("count"), "{err}");
    }

    /// Entity `a` named twice plus one edge 1 → 1: the second copy would
    /// intern as id 0, leaving the edge's id 1 pointing past the graph.
    #[test]
    fn repeated_entity_name_is_refused() {
        let err = load(&mut one_edge_file(&["a", "a"], [1, 0, 1]).as_slice()).unwrap_err();
        assert!(matches!(err, CodecError::Format(_)), "{err}");
        assert!(err.to_string().contains("twice"), "{err}");
    }

    #[test]
    fn counts_past_u32_are_refused_not_truncated() {
        // every section counter funnels through Enc::count, so a length
        // past u32::MAX surfaces TooLarge and writes nothing
        let mut enc = Enc::new(Kind::Graph);
        enc.count(u32::MAX as usize, "entities").unwrap();
        for len in [u32::MAX as usize + 1, usize::MAX] {
            let err = enc.count(len, "aliases").unwrap_err();
            assert!(matches!(err, CodecError::TooLarge { what: "aliases", len: l } if l == len));
        }
        let frame = enc.finish().unwrap();
        assert!(frame.len() == 13 + 4 && frame.ends_with(&u32::MAX.to_le_bytes()));
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
