//! Search-domain exploration (§3.2): pivot across domains —
//! Film → Actor → Film → Director — using the type-coupling structure of
//! Fig. 1-b to pick pivot directions.
//!
//! Run with: `cargo run --example domain_pivot`

use pivote::prelude::*;
use pivote_core::Direction;

fn main() {
    let kg = generate(&DatagenConfig::medium());
    let sg = ShardedGraph::from(kg.clone());
    let mut session = Session::with_defaults(&sg);

    // Fig. 1-b: which domains are coupled to Film, and through what?
    let stats = TypeCouplingStats::compute(&kg);
    let film = kg.type_id("Film").expect("Film type");
    println!("type view for Film (Fig. 1-b):");
    println!("{}", typeview_ascii(&kg, &stats, film, 8));

    // Start by investigating a popular film.
    let seed = *kg
        .type_extent(film)
        .iter()
        .max_by_key(|&&f| kg.degree(f))
        .unwrap();
    session.click_entity(seed);
    println!(
        "domain 1 (Film): investigating {:?} -> {} similar films",
        kg.display_name(seed),
        session.view().entities.len()
    );

    // Pivot 1: Film -> Actor, through the seed's cast.
    let starring = kg.predicate("starring").expect("starring predicate");
    let cast_feature = SemanticFeature {
        anchor: seed,
        predicate: starring,
        direction: Direction::FromAnchor,
    };
    let view = session.pivot(cast_feature);
    let domain = view
        .query
        .sf
        .type_filter
        .map(|t| kg.type_name(t).to_owned())
        .unwrap_or_else(|| "?".into());
    println!("\npivot 1 lands in domain: {domain}");
    for re in view.entities.iter().take(6) {
        println!("  {:<40} {:.4}", kg.display_name(re.entity), re.score);
    }

    // Pivot 2: Actor -> Film, through the top actor's filmography.
    let top_actor = view.entities.first().map(|re| re.entity);
    if let Some(actor) = top_actor {
        let filmography = SemanticFeature::to_anchor(actor, starring);
        let view = session.pivot(filmography);
        let domain = view
            .query
            .sf
            .type_filter
            .map(|t| kg.type_name(t).to_owned())
            .unwrap_or_else(|| "?".into());
        println!(
            "\npivot 2 through {}:starring lands in domain: {domain}",
            kg.entity_name(actor)
        );
        for re in view.entities.iter().take(6) {
            println!("  {:<40} {:.4}", kg.display_name(re.entity), re.score);
        }

        // Pivot 3: Film -> Director, through a film's director edge.
        if let Some(film_e) = view.entities.first().map(|re| re.entity) {
            let director = kg.predicate("director").expect("director predicate");
            let dir_feature = SemanticFeature {
                anchor: film_e,
                predicate: director,
                direction: Direction::FromAnchor,
            };
            let view = session.pivot(dir_feature);
            let domain = view
                .query
                .sf
                .type_filter
                .map(|t| kg.type_name(t).to_owned())
                .unwrap_or_else(|| "?".into());
            println!("\npivot 3 lands in domain: {domain}");
            for re in view.entities.iter().take(6) {
                println!("  {:<40} {:.4}", kg.display_name(re.entity), re.score);
            }
        }
    }

    // The journey, as the Fig. 4 path.
    println!("\n-- exploratory path across domains --");
    print!("{}", path_ascii(session.path()));
}
