//! The analysis chain: tokenize → stopword filter → light stem.
//!
//! Both the indexer and the query parser must run the *same* chain, so it
//! is packaged as a configurable [`Analyzer`] value that the search engine
//! stores and reuses.

use crate::stem::stem_in_place;
use crate::stopwords::is_stopword;
use crate::tokenize::{lowercase_into, raw_tokens};

/// Configurable text analysis chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Analyzer {
    /// Remove stopwords after tokenization.
    pub remove_stopwords: bool,
    /// Apply the light stemmer to each remaining token.
    pub stem: bool,
}

impl Default for Analyzer {
    /// The configuration used by the PivotE search engine: stopwords
    /// removed, light stemming on.
    fn default() -> Self {
        Self {
            remove_stopwords: true,
            stem: true,
        }
    }
}

impl Analyzer {
    /// An analyzer that only tokenizes (for exact-name fields).
    pub fn plain() -> Self {
        Self {
            remove_stopwords: false,
            stem: false,
        }
    }

    /// Run the chain after tokenization over one raw token (see
    /// [`raw_tokens`]): lowercase it into `buf`, drop it if it is a
    /// stopword, stem it where it sits. The term borrows `buf`, so a
    /// caller reusing one buffer allocates nothing per token.
    pub fn term<'b>(&self, raw: &str, buf: &'b mut String) -> Option<&'b str> {
        lowercase_into(raw, buf);
        if self.remove_stopwords && is_stopword(buf) {
            return None;
        }
        if self.stem {
            stem_in_place(buf);
        }
        Some(buf)
    }

    /// Run the chain over `text`, handing each term to `visit` in order.
    pub fn for_each_term(&self, text: &str, mut visit: impl FnMut(&str)) {
        let mut buf = String::new();
        for raw in raw_tokens(text) {
            if let Some(term) = self.term(raw, &mut buf) {
                visit(term);
            }
        }
    }

    /// Run the chain over `text`.
    pub fn analyze(&self, text: &str) -> Vec<String> {
        let mut terms = Vec::new();
        self.for_each_term(text, |t| terms.push(t.to_owned()));
        terms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{stem, tokenize};
    use proptest::prelude::*;

    /// The chain spelled out stage by stage on owned strings — what
    /// `analyze` was before it became a collector over the visitor.
    fn staged(a: &Analyzer, text: &str) -> Vec<String> {
        tokenize(text)
            .filter(|t| !(a.remove_stopwords && is_stopword(t)))
            .map(|t| if a.stem { stem(&t) } else { t })
            .collect()
    }

    #[test]
    fn default_chain_removes_stopwords_and_stems() {
        let a = Analyzer::default();
        assert_eq!(
            a.analyze("The films of the American directors"),
            vec!["film", "american", "director"]
        );
    }

    #[test]
    fn plain_chain_preserves_everything() {
        let a = Analyzer::plain();
        assert_eq!(a.analyze("The Films"), vec!["the", "films"]);
    }

    #[test]
    fn empty_input() {
        assert!(Analyzer::default().analyze("").is_empty());
        assert!(Analyzer::default().analyze("the of and").is_empty());
    }

    proptest! {
        /// The chain never emits empty tokens and always lowercases.
        #[test]
        fn prop_tokens_nonempty_lowercase(s in ".{0,80}") {
            for t in Analyzer::default().analyze(&s) {
                prop_assert!(!t.is_empty());
                prop_assert_eq!(t.clone(), t.to_lowercase());
            }
        }

        /// The visitor (and `analyze`, its collector) equals the staged
        /// chain on arbitrary strings — mixed case, stopwords, every
        /// stemmer suffix, and non-ASCII tokens whose lowercase form
        /// changes length (`İ`) or depends on position (final sigma).
        #[test]
        fn prop_visitor_equals_staged_chain(
            s in "[a-eiglnsxyA-EIGLNSXYİßΣσςé中0-9_ ,.-]{0,40}",
            t in ".{0,80}",
        ) {
            for a in [Analyzer::default(), Analyzer::plain()] {
                for text in [&s, &t] {
                    let mut visited = Vec::new();
                    a.for_each_term(text, |term| visited.push(term.to_owned()));
                    prop_assert_eq!(&visited, &staged(&a, text));
                    prop_assert_eq!(&a.analyze(text), &visited);
                }
            }
        }

        /// Analyzing is deterministic.
        #[test]
        fn prop_deterministic(s in ".{0,80}") {
            let a = Analyzer::default();
            prop_assert_eq!(a.analyze(&s), a.analyze(&s));
        }
    }
}
