//! The paper's running example as a full session: start from a film
//! (the "Forrest Gump" role), investigate similar films, look up an
//! actor, and trace the timeline — §3.1 "Entity investigation".
//!
//! Run with: `cargo run --example movie_exploration`

use pivote::prelude::*;

fn main() {
    let kg = generate(&DatagenConfig::medium());
    let sg = ShardedGraph::from(kg.clone());
    let mut session = Session::with_defaults(&sg);

    // Pick the most connected film as our "Forrest Gump".
    let film = kg.type_id("Film").expect("Film type");
    let gump = *kg
        .type_extent(film)
        .iter()
        .max_by_key(|&&f| kg.degree(f))
        .expect("at least one film");
    println!("protagonist film: {}", kg.display_name(gump));

    // 1. The user types the film's name.
    let view = session.submit_keywords(&kg.display_name(gump));
    println!("\n-- after keyword search --");
    for re in view.entities.iter().take(5) {
        println!("  {:<40} {:.3}", kg.display_name(re.entity), re.score);
    }

    // 2. The user clicks the film: investigation begins (same-type
    //    expansion, auto type filter).
    let view = session.click_entity(gump);
    println!(
        "\n-- investigating films similar to {} --",
        kg.display_name(gump)
    );
    for re in view.entities.iter().take(8) {
        println!("  {:<40} {:.4}", kg.display_name(re.entity), re.score);
    }
    println!("query now: {}", view.query.summary(&kg));

    // 3. Add a second seed — "find films similar to BOTH".
    if let Some(second) = view.entities.first().map(|re| re.entity) {
        let view = session.click_entity(second);
        println!("\n-- after adding seed {} --", kg.display_name(second));
        for re in view.entities.iter().take(8) {
            println!("  {:<40} {:.4}", kg.display_name(re.entity), re.score);
        }
    }

    // 4. Select the strongest feature as a hard condition ("Find films
    //    starring X").
    let top_feature = session.view().features.first().map(|rf| rf.feature);
    if let Some(sf) = top_feature {
        let view = session.select_feature(sf);
        println!("\n-- after requiring {} --", sf.display(&kg));
        for re in view.entities.iter().take(8) {
            println!("  {:<40} {:.4}", kg.display_name(re.entity), re.score);
        }
    }

    // 5. Look up an entity profile (Fig. 3-d).
    if let Some(e) = session.view().entities.first().map(|re| re.entity) {
        session.lookup(e);
        if let Some(profile) = &session.view().focus {
            println!("\n-- profile --\n{}", profile.render());
        }
    }

    // 6. The timeline (Fig. 3-g).
    println!("-- timeline --");
    for entry in session.timeline().iter() {
        println!("  [{}] {:<12} {}", entry.index, entry.action, entry.summary);
    }

    // 7. Revisit the first investigation.
    session.apply(UserAction::RevisitQuery { index: 1 });
    println!("\nrevisited query: {}", session.view().query.summary(&kg));

    // 8. The exploratory path (Fig. 4).
    println!("\n-- exploratory path --");
    print!("{}", path_ascii(session.path()));
}
