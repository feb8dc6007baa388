//! Regenerates every exhibit of the paper as a concrete artifact:
//!
//! - Table 1  — the five-field representation of a flagship film;
//! - Fig. 1-a — a film's local neighbourhood and semantic features;
//! - Fig. 1-b — the entity-type coupling view;
//! - Fig. 3   — the matrix interface (entities × features + heat map),
//!   as ASCII on stdout and SVG under `target/figures/`;
//! - Fig. 4   — an exploratory path, as ASCII, DOT and SVG.
//!
//! Run with: `cargo run --example figures`

use pivote::prelude::*;
use pivote_core::Direction;
use pivote_viz::{heatmap_svg, path_dot, path_svg, typeview_svg};
use std::fs;
use std::path::Path;

fn main() {
    let kg = generate(&DatagenConfig::medium());
    let out_dir = Path::new("target/figures");
    fs::create_dir_all(out_dir).expect("create target/figures");

    let film = kg.type_id("Film").expect("Film type");
    let flagship = *kg
        .type_extent(film)
        .iter()
        .max_by_key(|&&f| kg.degree(f))
        .unwrap();

    // ---- Table 1 --------------------------------------------------------
    println!(
        "== Table 1: five-field representation of {} ==",
        kg.display_name(flagship)
    );
    let engine = SearchEngine::with_defaults(&kg);
    let repr = engine.representation(&kg, flagship);
    println!("{}", repr.to_table(3));

    // ---- Fig. 1-a -------------------------------------------------------
    println!(
        "== Fig. 1-a: local semantic features of {} ==",
        kg.display_name(flagship)
    );
    let sg = ShardedGraph::from(kg.clone());
    let expander = Expander::new(&sg, RankingConfig::default());
    let mut features = features_of(&kg, flagship);
    features.sort_by(|a, b| {
        expander
            .ranker()
            .discriminability(*b)
            .partial_cmp(&expander.ranker().discriminability(*a))
            .unwrap()
    });
    for sf in features.iter().take(10) {
        println!("  {:<44} ‖E(π)‖ = {}", sf.display(&kg), sf.extent_size(&kg));
    }
    println!();

    // ---- Fig. 1-b -------------------------------------------------------
    println!("== Fig. 1-b: entity-type view ==");
    let stats = TypeCouplingStats::compute(&kg);
    println!("{}", typeview_ascii(&kg, &stats, film, 8));
    fs::write(
        out_dir.join("fig1b_typeview.svg"),
        typeview_svg(&kg, &stats, film, 8),
    )
    .expect("write fig1b");

    // ---- Fig. 3 ---------------------------------------------------------
    println!(
        "== Fig. 3: the matrix interface for seed {} ==",
        kg.display_name(flagship)
    );
    let sg = ShardedGraph::from(kg.clone());
    let mut session = Session::with_defaults(&sg);
    session.click_entity(flagship);
    session.lookup(flagship);
    println!("{}", render_view(&kg, session.view()));
    fs::write(
        out_dir.join("fig3f_heatmap.svg"),
        heatmap_svg(&kg, &session.view().heatmap),
    )
    .expect("write fig3f");
    fs::write(
        out_dir.join("fig3f_heatmap.tsv"),
        pivote_viz::heatmap_tsv(&kg, &session.view().heatmap),
    )
    .expect("write fig3f tsv");
    fs::write(
        out_dir.join("fig3f_heatmap.html"),
        pivote_viz::heatmap_html(&kg, &session.view().heatmap),
    )
    .expect("write fig3f html");

    // ---- Fig. 4 ---------------------------------------------------------
    // A scripted session: search → investigate → lookup → pivot → revisit.
    let starring = kg.predicate("starring").expect("starring");
    let sf = SemanticFeature {
        anchor: flagship,
        predicate: starring,
        direction: Direction::FromAnchor,
    };
    session.pivot(sf);
    session.apply(UserAction::RevisitQuery { index: 0 });
    println!("== Fig. 4: exploratory path ==");
    print!("{}", path_ascii(session.path()));
    fs::write(out_dir.join("fig4_path.dot"), path_dot(session.path())).expect("write fig4 dot");
    fs::write(out_dir.join("fig4_path.svg"), path_svg(session.path())).expect("write fig4 svg");

    println!("\nartifacts written to {}/", out_dir.display());
    for entry in fs::read_dir(out_dir).expect("read figures dir") {
        println!("  {}", entry.expect("entry").path().display());
    }
}
