//! A light suffix stemmer (s-stemmer plus a few common endings).
//!
//! Entity search mostly matches names, where aggressive stemming hurts, so
//! this intentionally does much less than full Porter: plural stripping
//! and the `-ing`/`-ed`/`-ly` endings on long-enough words.

/// The stem of one lowercase token as a prefix of it: the prefix length
/// and whether the `ies → y` rewrite fired (the stem is then the prefix
/// plus `y`). Every rule strips an ASCII suffix, so the length is always
/// a char boundary.
fn stem_prefix(t: &str) -> (usize, bool) {
    // Plural s-stemmer rules (Harman 1991).
    if let Some(base) = t.strip_suffix("ies") {
        if base.len() >= 2 {
            return (base.len(), true);
        }
    }
    if let Some(base) = t.strip_suffix("es") {
        if base.len() >= 3
            && (base.ends_with("ss")
                || base.ends_with('x')
                || base.ends_with("ch")
                || base.ends_with("sh"))
        {
            return (base.len(), false);
        }
    }
    if let Some(base) = t.strip_suffix('s') {
        if base.len() >= 3 && !base.ends_with('s') && !base.ends_with('u') && !base.ends_with('i') {
            return (base.len(), false);
        }
    }
    for suffix in ["ing", "ed", "ly"] {
        if let Some(base) = t.strip_suffix(suffix) {
            if base.len() >= 4 {
                return (base.len(), false);
            }
        }
    }
    (t.len(), false)
}

/// Stem one lowercase token.
pub fn stem(token: &str) -> String {
    let mut stemmed = token.to_owned();
    stem_in_place(&mut stemmed);
    stemmed
}

/// Stem one lowercase token where it sits, without allocating.
pub(crate) fn stem_in_place(token: &mut String) {
    let (len, ies) = stem_prefix(token);
    token.truncate(len);
    if ies {
        token.push('y');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plurals() {
        assert_eq!(stem("films"), "film");
        assert_eq!(stem("actors"), "actor");
        assert_eq!(stem("categories"), "category");
        assert_eq!(stem("boxes"), "box");
        assert_eq!(stem("classes"), "class");
    }

    #[test]
    fn short_words_untouched() {
        assert_eq!(stem("is"), "is");
        assert_eq!(stem("as"), "as");
        assert_eq!(stem("us"), "us");
    }

    #[test]
    fn ing_ed_ly() {
        assert_eq!(stem("starring"), "starr");
        assert_eq!(stem("directed"), "direct");
        assert_eq!(stem("quietly"), "quiet");
        // too short to strip
        assert_eq!(stem("ring"), "ring");
        assert_eq!(stem("red"), "red");
    }

    #[test]
    fn names_mostly_survive() {
        assert_eq!(stem("hanks"), "hank"); // plural-ish names do strip
        assert_eq!(stem("gump"), "gump");
        assert_eq!(stem("zemeckis"), "zemeckis"); // ends in 's' preceded by 'i'... check
    }

    #[test]
    fn idempotent_on_own_output() {
        for w in ["films", "categories", "starring", "directed", "running"] {
            let once = stem(w);
            assert_eq!(stem(&once), once, "stem not idempotent for {w}");
        }
    }
}
