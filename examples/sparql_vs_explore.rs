//! The paper's motivating contrast (§1): structured access (SPARQL)
//! requires knowing the schema up front; exploratory search discovers it
//! by clicking. This example answers the same information need both
//! ways and prints what each approach demands from the user.
//!
//! Run with: `cargo run --example sparql_vs_explore`

use pivote::prelude::*;
use pivote_core::Direction;

fn main() {
    let kg = generate(&DatagenConfig::medium());
    let film = kg.type_id("Film").expect("Film type");
    let starring = kg.predicate("starring").expect("starring");

    // The information need: "films like this one, and who they star".
    let seed = *kg
        .type_extent(film)
        .iter()
        .max_by_key(|&&f| kg.degree(f))
        .unwrap();
    let seed_name = kg.entity_name(seed);
    println!("information need: films related to {seed_name}, and their casts\n");

    // ---- the structured way -------------------------------------------
    // The user must already know: the type name, the predicate name, the
    // exact resource id, and SPARQL syntax.
    let actor_of_seed = kg.objects(seed, starring)[0];
    let sparql = format!(
        "SELECT DISTINCT ?film ?actor WHERE {{\n  ?film dbo:starring dbr:{} .\n  ?film dbo:starring ?actor .\n  ?film a dbo:Film .\n}} LIMIT 15",
        kg.entity_name(actor_of_seed)
    );
    println!("== SPARQL (the user writes this by hand) ==\n{sparql}\n");
    let rs = pivote_sparql::query(&kg, &sparql).expect("valid query");
    println!("{} rows:", rs.len());
    print!("{}", rs.to_table(&kg));

    // ---- the exploratory way ------------------------------------------
    // The user types a name and clicks twice. No schema knowledge.
    println!("\n== PivotE (the user clicks) ==");
    let sg = ShardedGraph::from(kg.clone());
    let mut session = Session::with_defaults(&sg);
    session.submit_keywords(&kg.display_name(seed)); // type the name
    session.click_entity(seed); // click the film
    println!("after one click — similar films:");
    for re in session.view().entities.iter().take(8) {
        println!("  {:<40} {:.4}", kg.display_name(re.entity), re.score);
    }
    println!("\nrecommended features (the schema, discovered):");
    for rf in session.view().features.iter().take(6) {
        println!("  {:<44} {:.5}", rf.feature.display(&kg), rf.score);
    }
    // pivot = the second click; lands in the Actor domain without the
    // user naming it
    let view = session.pivot(SemanticFeature {
        anchor: seed,
        predicate: starring,
        direction: Direction::FromAnchor,
    });
    let domain = view
        .query
        .sf
        .type_filter
        .map(|t| kg.type_name(t).to_owned())
        .unwrap_or_default();
    println!("\nafter one more click — pivoted into {domain}:");
    for re in view.entities.iter().take(8) {
        println!("  {:<40} {:.4}", kg.display_name(re.entity), re.score);
    }

    println!(
        "\nsame neighbourhood, two interfaces: SPARQL needed 4 schema facts; \
         the session needed a keyword and two clicks."
    );
}
