//! Ground-truth derivation from the synthetic knowledge graph.
//!
//! The generator plants Wikipedia-style categories ("American films",
//! "Films directed by X", "1990s films", …). Each sufficiently large
//! category is an entity-set-expansion evaluation class: hold out a few
//! members as seeds, measure how well a method recovers the rest.
//! Search ground truth pairs a query string (label, alias, or
//! label+context) with the entity it should retrieve.

use pivote_kg::{CategoryId, EntityId, KnowledgeGraph, ShardedGraph};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// One ESE evaluation class.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EseClass {
    /// Category name the class came from.
    pub name: String,
    /// All members, sorted by entity id.
    pub members: Vec<EntityId>,
}

/// Categories with `min_size..=max_size` members, at most `limit`,
/// deterministic.
///
/// When more classes qualify than `limit`, the selection is *stratified*:
/// classes are sorted by descending size and sampled at even strides, so
/// the evaluation mixes broad attribute classes ("American films") with
/// narrow path-shaped ones ("Films directed by X") — matching the
/// entity-list style of the underlying ESE evaluations \[1\]\[6\].
pub fn ese_classes(
    sg: &ShardedGraph,
    min_size: usize,
    max_size: usize,
    limit: usize,
) -> Vec<EseClass> {
    let mut classes: Vec<EseClass> = (0..sg.category_count() as u32)
        .map(CategoryId::new)
        .filter(|&c| (min_size..=max_size).contains(&sg.category_extent_len(c)))
        .map(|c| EseClass {
            name: sg.category_name(c).to_owned(),
            members: sg.category_extent(c),
        })
        .collect();
    classes.sort_by(|a, b| {
        b.members
            .len()
            .cmp(&a.members.len())
            .then_with(|| a.name.cmp(&b.name))
    });
    if classes.len() > limit && limit > 0 {
        let stride = classes.len() as f64 / limit as f64;
        classes = (0..limit)
            .map(|i| classes[(i as f64 * stride) as usize].clone())
            .collect();
    }
    classes
}

/// Deterministically draw `trials` seed subsets of size `m` from a class.
/// Trials are distinct permutations; classes smaller than `m` produce no
/// trials.
pub fn seed_trials(class: &EseClass, m: usize, trials: usize, seed: u64) -> Vec<Vec<EntityId>> {
    if class.members.len() <= m {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed ^ class.members.len() as u64);
    (0..trials)
        .map(|_| {
            let mut pool = class.members.clone();
            pool.shuffle(&mut rng);
            pool.truncate(m);
            pool.sort_unstable();
            pool
        })
        .collect()
}

/// The flavour of a search test query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryKind {
    /// The entity's exact display label.
    Label,
    /// A redirect/disambiguation alias (misspelling).
    Alias,
    /// The label plus the entity's type name — a "mixed" query.
    LabelWithContext,
}

/// One search evaluation case.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchCase {
    /// The keyword query a user would type.
    pub query: String,
    /// The entity the query should retrieve.
    pub target: EntityId,
    /// How the query was constructed.
    pub kind: QueryKind,
}

/// Build up to `n` search cases per [`QueryKind`], deterministically.
pub fn search_cases(kg: &KnowledgeGraph, n: usize, seed: u64) -> Vec<SearchCase> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut entities: Vec<EntityId> = kg.entity_ids().collect();
    entities.shuffle(&mut rng);

    let mut cases = Vec::new();
    let mut label_cases = 0usize;
    let mut alias_cases = 0usize;
    let mut ctx_cases = 0usize;
    for &e in &entities {
        if label_cases >= n && alias_cases >= n && ctx_cases >= n {
            break;
        }
        let label = kg.display_name(e);
        if label.is_empty() {
            continue;
        }
        if label_cases < n {
            cases.push(SearchCase {
                query: label.clone(),
                target: e,
                kind: QueryKind::Label,
            });
            label_cases += 1;
        }
        if alias_cases < n {
            if let Some(alias) = kg.aliases(e).first() {
                cases.push(SearchCase {
                    query: alias.clone(),
                    target: e,
                    kind: QueryKind::Alias,
                });
                alias_cases += 1;
            }
        }
        if ctx_cases < n {
            if let Some(t) = kg.types_of(e).next() {
                cases.push(SearchCase {
                    query: format!("{label} {}", kg.type_name(t)),
                    target: e,
                    kind: QueryKind::LabelWithContext,
                });
                ctx_cases += 1;
            }
        }
    }
    cases
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivote_kg::{generate, DatagenConfig};

    #[test]
    fn classes_respect_size_bounds_and_limit() {
        let sg = ShardedGraph::from(generate(&DatagenConfig::small()));
        let classes = ese_classes(&sg, 10, 200, 8);
        assert!(!classes.is_empty());
        assert!(classes.len() <= 8);
        for c in &classes {
            assert!((10..=200).contains(&c.members.len()), "{}", c.name);
            assert!(c.members.windows(2).all(|w| w[0] < w[1]));
        }
        // sorted by descending size
        assert!(classes
            .windows(2)
            .all(|w| w[0].members.len() >= w[1].members.len()));
    }

    #[test]
    fn seed_trials_are_deterministic_and_within_class() {
        let sg = ShardedGraph::from(generate(&DatagenConfig::small()));
        let classes = ese_classes(&sg, 10, 200, 1);
        let class = &classes[0];
        let a = seed_trials(class, 3, 4, 7);
        let b = seed_trials(class, 3, 4, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        for trial in &a {
            assert_eq!(trial.len(), 3);
            assert!(trial.iter().all(|e| class.members.contains(e)));
        }
    }

    #[test]
    fn tiny_class_produces_no_trials() {
        let class = EseClass {
            name: "tiny".into(),
            members: vec![EntityId::new(0), EntityId::new(1)],
        };
        assert!(seed_trials(&class, 2, 3, 1).is_empty());
        assert!(seed_trials(&class, 5, 3, 1).is_empty());
    }

    #[test]
    fn search_cases_cover_kinds() {
        let kg = generate(&DatagenConfig::small());
        let cases = search_cases(&kg, 10, 42);
        assert!(cases.iter().any(|c| c.kind == QueryKind::Label));
        assert!(cases.iter().any(|c| c.kind == QueryKind::Alias));
        assert!(cases.iter().any(|c| c.kind == QueryKind::LabelWithContext));
        // deterministic
        let again = search_cases(&kg, 10, 42);
        assert_eq!(cases.len(), again.len());
        assert!(cases
            .iter()
            .zip(&again)
            .all(|(a, b)| a.query == b.query && a.target == b.target));
    }
}
