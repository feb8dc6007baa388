//! Heat-map rendering (Fig. 3-f): ASCII for terminals, SVG for
//! documents.

use crate::color::{heat_color, heat_glyph};
use crate::svg::SvgDoc;
use pivote_core::HeatMap;
use pivote_kg::KnowledgeGraph;
use std::fmt::Write as _;

/// Render the heat map as ASCII: one row per feature, one column per
/// entity, with a legend of both axes.
pub fn heatmap_ascii(kg: &KnowledgeGraph, hm: &HeatMap, max_label: usize) -> String {
    let mut out = String::new();
    // column header: entity indices
    let _ = write!(out, "{:<width$} ", "", width = max_label);
    for (i, _) in hm.entities.iter().enumerate() {
        let _ = write!(out, "{}", (b'a' + (i % 26) as u8) as char);
    }
    out.push('\n');
    for (row, rf) in hm.features.iter().enumerate() {
        // char-based truncation: labels can hold multi-byte chars (the
        // `→` direction marker), where a byte-indexed truncate panics
        let mut label = rf.feature.display(kg);
        if label.chars().count() > max_label {
            label = label.chars().take(max_label.saturating_sub(1)).collect();
            label.push('…');
        }
        let _ = write!(out, "{label:<max_label$} ");
        for col in 0..hm.width() {
            out.push(heat_glyph(hm.level(row, col)));
        }
        out.push('\n');
    }
    // entity legend
    out.push('\n');
    for (i, &e) in hm.entities.iter().enumerate() {
        let _ = writeln!(
            out,
            "  {} = {}",
            (b'a' + (i % 26) as u8) as char,
            kg.display_name(e)
        );
    }
    out
}

/// Render the heat map as an SVG grid with axis labels.
pub fn heatmap_svg(kg: &KnowledgeGraph, hm: &HeatMap) -> String {
    const CELL: f64 = 16.0;
    const LEFT: f64 = 230.0;
    const TOP: f64 = 120.0;
    let width = LEFT + hm.width() as f64 * CELL + 20.0;
    let height = TOP + hm.height() as f64 * CELL + 20.0;
    let mut doc = SvgDoc::new(width.ceil() as u32, height.ceil() as u32);
    for (col, &e) in hm.entities.iter().enumerate() {
        let x = LEFT + col as f64 * CELL + CELL / 2.0;
        doc.text(x, TOP - 6.0, 7.0, "start", &kg.display_name(e));
    }
    for (row, rf) in hm.features.iter().enumerate() {
        let y = TOP + row as f64 * CELL + CELL * 0.65;
        doc.text(LEFT - 6.0, y, 9.0, "end", &rf.feature.display(kg));
        for col in 0..hm.width() {
            let x = LEFT + col as f64 * CELL;
            doc.rect(
                x,
                TOP + row as f64 * CELL,
                CELL,
                CELL,
                heat_color(hm.level(row, col)),
                Some("#cccccc"),
            );
        }
    }
    doc.finish()
}

/// Render the heat map as a self-contained HTML page: a table whose cells
/// carry the seven-level palette, with hoverable raw values — the closest
/// static analogue of the demo's interactive explanation area.
pub fn heatmap_html(kg: &KnowledgeGraph, hm: &HeatMap) -> String {
    use crate::svg::escape;
    let mut out = String::from(
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\
         <title>PivotE heat map (Fig. 3-f)</title>\n<style>\n\
         body{font-family:monospace}\n\
         table{border-collapse:collapse}\n\
         td,th{border:1px solid #ccc;padding:3px 6px;font-size:12px}\n\
         th.col{writing-mode:vertical-rl;transform:rotate(180deg);max-height:160px}\n\
         </style></head><body>\n<h1>entity × semantic-feature correlation</h1>\n<table>\n<tr><th></th>",
    );
    for &e in &hm.entities {
        let _ = write!(
            out,
            "<th class=\"col\">{}</th>",
            escape(&kg.display_name(e))
        );
    }
    out.push_str("</tr>\n");
    for (row, rf) in hm.features.iter().enumerate() {
        let _ = write!(out, "<tr><th>{}</th>", escape(&rf.feature.display(kg)));
        for col in 0..hm.width() {
            let level = hm.level(row, col);
            let _ = write!(
                out,
                "<td style=\"background:{}\" title=\"level {} value {:.5}\">{}</td>",
                heat_color(level),
                level,
                hm.value(row, col),
                level
            );
        }
        out.push_str("</tr>\n");
    }
    out.push_str("</table>\n</body></html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivote_core::{Expander, HeatMap, RankingConfig, SfQuery};
    use pivote_kg::{generate, DatagenConfig, ShardedGraph};

    fn heatmap() -> (pivote_kg::KnowledgeGraph, HeatMap) {
        let kg = generate(&DatagenConfig::tiny());
        let film = kg.type_id("Film").unwrap();
        let seed = kg.type_extent(film)[0];
        let sg = ShardedGraph::from(kg.clone());
        let ex = Expander::new(&sg, RankingConfig::default());
        let res = ex.expand(&SfQuery::from_seeds(vec![seed]), 6, 5);
        let entities: Vec<_> = res.entities.iter().map(|re| re.entity).collect();
        let hm = HeatMap::compute(ex.ranker(), &entities, &res.features);
        (kg, hm)
    }

    #[test]
    fn ascii_has_one_row_per_feature_plus_legend() {
        let (kg, hm) = heatmap();
        let text = heatmap_ascii(&kg, &hm, 30);
        let grid_rows = text.lines().take_while(|l| !l.is_empty()).count();
        assert_eq!(grid_rows, hm.height() + 1); // header + rows
                                                // legend lists every entity
        for &e in &hm.entities {
            assert!(text.contains(&kg.display_name(e)));
        }
    }

    #[test]
    fn ascii_truncates_long_labels() {
        let (kg, hm) = heatmap();
        let text = heatmap_ascii(&kg, &hm, 8);
        assert!(text
            .lines()
            .skip(1)
            .take(hm.height())
            .all(|l| !l.is_empty()));
    }

    #[test]
    fn html_has_one_cell_per_matrix_entry() {
        let (kg, hm) = heatmap();
        let html = heatmap_html(&kg, &hm);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert_eq!(html.matches("<td").count(), hm.width() * hm.height());
        assert_eq!(html.matches("<tr>").count(), hm.height() + 1);
        for &e in &hm.entities {
            assert!(html.contains(&kg.display_name(e)));
        }
    }

    #[test]
    fn svg_contains_a_rect_per_cell() {
        let (kg, hm) = heatmap();
        let svg = heatmap_svg(&kg, &hm);
        let rects = svg.matches("<rect").count();
        assert_eq!(rects, hm.width() * hm.height());
        assert!(svg.contains("</svg>"));
    }

    #[test]
    fn truncation_is_char_boundary_safe() {
        // FromAnchor labels end in the multi-byte `→`; every truncation
        // width must cut on a char boundary (this used to panic when the
        // cut landed inside the arrow). Actor seeds surface FromAnchor
        // features.
        let kg = generate(&DatagenConfig::tiny());
        let actor = kg.type_id("Actor").unwrap();
        let seed = kg.type_extent(actor)[0];
        let sg = ShardedGraph::from(kg.clone());
        let ex = Expander::new(&sg, RankingConfig::default());
        let res = ex.expand(&SfQuery::from_seeds(vec![seed]), 6, 5);
        let entities: Vec<_> = res.entities.iter().map(|re| re.entity).collect();
        let hm = HeatMap::compute(ex.ranker(), &entities, &res.features);
        assert!(
            hm.features
                .iter()
                .any(|rf| !rf.feature.display(&kg).is_ascii()),
            "fixture should include a multi-byte label"
        );
        for width in 1..40 {
            let text = heatmap_ascii(&kg, &hm, width);
            assert!(!text.is_empty());
        }
    }
}
