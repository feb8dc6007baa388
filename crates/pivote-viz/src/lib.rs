//! # pivote-viz — renderers for the PivotE reproduction
//!
//! The paper's figures, regenerated from live data structures:
//!
//! - [`heatmap`]: the seven-level entity × feature heat map (Fig. 3-f) as
//!   ASCII and SVG;
//! - [`matrix`]: the full interface screen (Fig. 3) as a terminal panel,
//!   plus TSV dumps for machine-diffable artifacts;
//! - [`pathviz`]: the exploratory path (Fig. 4) as ASCII, Graphviz DOT
//!   and SVG;
//! - [`typeview`]: the entity-type coupling view (Fig. 1-b) as ASCII and
//!   SVG;
//! - [`svg`], [`color`]: the small shared rendering substrate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod color;
pub mod heatmap;
pub mod matrix;
pub mod pathviz;
pub mod svg;
pub mod typeview;

pub use color::{heat_color, heat_glyph, HEAT_GLYPHS, HEAT_PALETTE};
pub use heatmap::{heatmap_ascii, heatmap_html, heatmap_svg};
pub use matrix::{heatmap_tsv, render_view};
pub use pathviz::{path_ascii, path_dot, path_svg};
pub use svg::SvgDoc;
pub use typeview::{typeview_ascii, typeview_svg};
