//! The full matrix workspace rendering (Fig. 3): the entity x-axis, the
//! feature y-axis, scores, and the embedded heat map — the text analogue
//! of the PivotE main screen.

use crate::heatmap::heatmap_ascii;
use pivote_core::HeatMap;
use pivote_explore::ViewState;
use pivote_kg::KnowledgeGraph;
use std::fmt::Write as _;

/// Render a session view as a terminal screen: query area, entity
/// recommendations, feature recommendations, heat map, and (if present)
/// the focused entity profile.
pub fn render_view(kg: &KnowledgeGraph, view: &ViewState) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "┌─ query ─────────────────────────────────────────");
    let _ = writeln!(out, "│ {}", view.query.summary(kg));
    let _ = writeln!(out, "├─ entities (Fig 3-c) ────────────────────────────");
    for (i, re) in view.entities.iter().enumerate() {
        let _ = writeln!(
            out,
            "│ {:>2}. {:<38} {:.4}",
            i + 1,
            kg.display_name(re.entity),
            re.score
        );
    }
    let _ = writeln!(out, "├─ semantic features (Fig 3-e) ───────────────────");
    for (i, rf) in view.features.iter().enumerate() {
        let _ = writeln!(
            out,
            "│ {:>2}. {:<38} {:.5}",
            i + 1,
            rf.feature.display(kg),
            rf.score
        );
    }
    let _ = writeln!(out, "├─ heat map (Fig 3-f) ────────────────────────────");
    for line in heatmap_ascii(kg, &view.heatmap, 34).lines() {
        let _ = writeln!(out, "│ {line}");
    }
    if let Some(profile) = &view.focus {
        let _ = writeln!(out, "├─ entity presentation (Fig 3-d) ─────────────────");
        for line in profile.render().lines() {
            let _ = writeln!(out, "│ {line}");
        }
    }
    let _ = writeln!(out, "└─────────────────────────────────────────────────");
    out
}

/// Compact one-line-per-cell dump of the heat map for machine-diffable
/// artifacts: `feature<TAB>entity<TAB>level<TAB>value`.
pub fn heatmap_tsv(kg: &KnowledgeGraph, hm: &HeatMap) -> String {
    let mut out = String::from("feature\tentity\tlevel\tvalue\n");
    for (row, rf) in hm.features.iter().enumerate() {
        for (col, &e) in hm.entities.iter().enumerate() {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{:.6}",
                rf.feature.display(kg),
                kg.entity_name(e),
                hm.level(row, col),
                hm.value(row, col)
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivote_explore::Session;
    use pivote_kg::{generate, DatagenConfig, ShardedGraph};

    #[test]
    fn render_view_shows_all_areas() {
        let kg = generate(&DatagenConfig::tiny());
        let sg = ShardedGraph::from(kg.clone());
        let mut s = Session::with_defaults(&sg);
        let film = kg.type_id("Film").unwrap();
        let f = kg.type_extent(film)[0];
        s.click_entity(f);
        s.lookup(s.view().entities[0].entity);
        let screen = render_view(&kg, s.view());
        for area in [
            "query",
            "entities (Fig 3-c)",
            "semantic features (Fig 3-e)",
            "heat map (Fig 3-f)",
            "entity presentation (Fig 3-d)",
        ] {
            assert!(screen.contains(area), "missing {area}");
        }
    }

    #[test]
    fn tsv_has_header_plus_cells() {
        let kg = generate(&DatagenConfig::tiny());
        let sg = ShardedGraph::from(kg.clone());
        let mut s = Session::with_defaults(&sg);
        let film = kg.type_id("Film").unwrap();
        s.click_entity(kg.type_extent(film)[0]);
        let hm = &s.view().heatmap;
        let tsv = heatmap_tsv(&kg, hm);
        assert_eq!(tsv.lines().count(), 1 + hm.width() * hm.height());
        assert!(tsv.starts_with("feature\tentity\tlevel\tvalue"));
    }
}
