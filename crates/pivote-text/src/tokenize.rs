//! Unicode-light tokenization for entity text.
//!
//! The search engine indexes labels, literals and category names. Tokens
//! are maximal runs of alphanumeric characters, lowercased; underscores
//! are treated as separators because DBpedia resource names use them as
//! spaces (`Forrest_Gump`).

/// Iterator over the raw tokens of a string: maximal alphanumeric runs,
/// borrowed from the input with their case untouched.
pub struct RawTokens<'a> {
    rest: &'a str,
}

impl<'a> Iterator for RawTokens<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let start = self.rest.find(char::is_alphanumeric)?;
        let rest = &self.rest[start..];
        let end = rest
            .find(|c: char| !c.is_alphanumeric())
            .unwrap_or(rest.len());
        self.rest = &rest[end..];
        Some(&rest[..end])
    }
}

/// Split `text` into raw (not yet lowercased) alphanumeric tokens.
pub fn raw_tokens(text: &str) -> RawTokens<'_> {
    RawTokens { rest: text }
}

/// Overwrite `buf` with the lowercase form of one raw token. ASCII
/// tokens are folded bytewise; anything else goes through
/// [`str::to_lowercase`] on the token alone, so context-sensitive
/// mappings (final sigma) see exactly the token, as [`tokenize`] always
/// lowercased it.
pub(crate) fn lowercase_into(raw: &str, buf: &mut String) {
    buf.clear();
    if raw.is_ascii() {
        buf.push_str(raw);
        buf.make_ascii_lowercase();
    } else {
        buf.push_str(&raw.to_lowercase());
    }
}

/// Iterator over lowercase tokens of a string.
pub struct Tokens<'a> {
    raw: RawTokens<'a>,
}

impl Iterator for Tokens<'_> {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.raw.next().map(str::to_lowercase)
    }
}

/// Tokenize `text` into lowercase alphanumeric tokens.
pub fn tokenize(text: &str) -> Tokens<'_> {
    Tokens {
        raw: raw_tokens(text),
    }
}

/// Tokenize into a `Vec` (convenience).
pub fn tokenize_vec(text: &str) -> Vec<String> {
    tokenize(text).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn splits_on_punctuation_and_underscores() {
        assert_eq!(
            tokenize_vec("Forrest_Gump (1994 film)"),
            vec!["forrest", "gump", "1994", "film"]
        );
    }

    #[test]
    fn lowercases() {
        assert_eq!(tokenize_vec("Tom HANKS"), vec!["tom", "hanks"]);
    }

    #[test]
    fn empty_and_symbol_only() {
        assert!(tokenize_vec("").is_empty());
        assert!(tokenize_vec("--- !!! ...").is_empty());
    }

    #[test]
    fn keeps_digits() {
        assert_eq!(tokenize_vec("142 minutes"), vec!["142", "minutes"]);
    }

    #[test]
    fn handles_unicode() {
        assert_eq!(tokenize_vec("Amélie Poulain"), vec!["amélie", "poulain"]);
    }

    #[test]
    fn raw_tokens_borrow_with_case_untouched() {
        let raw: Vec<&str> = raw_tokens("Forrest_Gump (İstanbul)").collect();
        assert_eq!(raw, vec!["Forrest", "Gump", "İstanbul"]);
    }

    proptest! {
        /// Raw tokens are the maximal alphanumeric runs, and the ASCII
        /// fast path and the Unicode fallback both agree with
        /// `str::to_lowercase` on each of them.
        #[test]
        fn prop_raw_tokens_are_runs_and_lowercase_into_is_to_lowercase(s in "[a-zA-Z0-9İßΣσςÉé中_ -]{0,24}") {
            let runs: Vec<&str> = s
                .split(|c: char| !c.is_alphanumeric())
                .filter(|run| !run.is_empty())
                .collect();
            prop_assert_eq!(raw_tokens(&s).collect::<Vec<_>>(), runs);
            let mut buf = String::from("stale");
            for raw in raw_tokens(&s) {
                lowercase_into(raw, &mut buf);
                prop_assert_eq!(&buf, &raw.to_lowercase());
            }
        }
    }
}
