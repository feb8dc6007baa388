//! Shared fixtures for the criterion benches that regenerate the paper's
//! figures: one pre-generated knowledge graph and its seed entities.

#![forbid(unsafe_code)]

use pivote_kg::{generate, DatagenConfig, EntityId, KnowledgeGraph};

/// Generate the standard bench KG (~2k films, ~9k entities).
pub fn bench_kg() -> KnowledgeGraph {
    generate(&DatagenConfig::medium())
}

/// The most connected film — the "Forrest Gump" of a generated graph.
pub fn flagship_film(kg: &KnowledgeGraph) -> EntityId {
    let film = kg.type_id("Film").expect("Film type");
    *kg.type_extent(film)
        .iter()
        .max_by_key(|&&f| kg.degree(f))
        .expect("at least one film")
}

/// The first `n` films (deterministic seed set).
pub fn film_seeds(kg: &KnowledgeGraph, n: usize) -> Vec<EntityId> {
    let film = kg.type_id("Film").expect("Film type");
    kg.type_extent(film)[..n.min(kg.type_extent(film).len())].to_vec()
}
