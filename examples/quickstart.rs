//! Quickstart: graph → search → investigate → explain in ~60 lines.
//!
//! Run with: `cargo run --example quickstart`

use pivote::prelude::*;

fn main() {
    // 1. A synthetic DBpedia-like movie knowledge graph (deterministic).
    let kg = generate(&DatagenConfig::medium());
    println!(
        "knowledge graph: {} entities, {} triples, {} types, {} categories",
        kg.entity_count(),
        kg.triple_count(),
        kg.type_count(),
        kg.category_count()
    );

    // 2. Keyword entity search (the paper's §2.2 engine).
    let engine = SearchEngine::with_defaults(&kg);
    let film = kg.type_id("Film").expect("Film type exists");
    let flagship = kg.type_extent(film)[0];
    let query = kg.display_name(flagship);
    println!("\nsearch: {query:?}");
    for hit in engine.search(&query, 5) {
        println!("  {:<40} {:.3}", kg.display_name(hit.entity), hit.score);
    }

    // 3. Investigation: expand a seed film into similar films + features.
    let sg = ShardedGraph::from(kg.clone());
    let expander = Expander::new(&sg, RankingConfig::default());
    let result = expander.expand(&SfQuery::from_seeds(vec![flagship]).with_type(film), 8, 6);
    println!("\nfilms similar to {:?}:", kg.display_name(flagship));
    for re in &result.entities {
        println!("  {:<40} {:.4}", kg.display_name(re.entity), re.score);
    }
    println!("\ntheir most relevant semantic features:");
    for rf in &result.features {
        println!("  {:<40} {:.5}", rf.feature.display(&kg), rf.score);
    }

    // 4. Explanation: why are the top two results related?
    if result.entities.len() >= 2 {
        let a = result.entities[0].entity;
        let b = result.entities[1].entity;
        let explanation = explain_pair(expander.ranker(), a, b, 3);
        println!("\n{}", explanation.render(&kg));
    }

    // 5. The heat map (Fig. 3-f), as ASCII.
    let axis: Vec<EntityId> = result.entities.iter().map(|re| re.entity).collect();
    let hm = HeatMap::compute(expander.ranker(), &axis, &result.features);
    println!("\nheat map (darker = stronger correlation):");
    println!("{}", heatmap_ascii(&kg, &hm, 36));
}
