//! # pivote-eval — experiment harness for the PivotE reproduction
//!
//! The demo paper has no numeric tables; DESIGN.md §6 defines the quality
//! experiments that make its claims measurable. This crate provides:
//!
//! - [`metrics`]: MAP, P@k, recall, nDCG, MRR;
//! - [`groundtruth`]: ESE classes from planted categories and search
//!   cases from labels/aliases;
//! - [`harness`]: runners + table renderers for Q1 (ESE quality), Q2
//!   (search quality), Q4 (heat-map structure) and Q5 (pivot quality).
//!
//! The runnable experiment binaries live in `src/bin/exp_*.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod groundtruth;
pub mod harness;
pub mod metrics;

pub use groundtruth::{ese_classes, search_cases, seed_trials, EseClass, QueryKind, SearchCase};
pub use harness::{
    default_search_cases, render_ese_table, render_search_table, run_ese_eval, run_heatmap_report,
    run_pivot_eval, run_search_eval, EseEvalConfig, EseResult, HeatmapReport, PivotReport,
    SearchResult, SearchVariant,
};
