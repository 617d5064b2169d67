//! Tokenization and character q-gram extraction.
//!
//! The paper's measures are *schema-agnostic*: a record is reduced to the
//! set of lower-cased tokens appearing in any attribute value (Algorithm 1,
//! lines 2–3). Tokens are maximal runs of alphanumeric characters; all
//! punctuation acts as a separator, which matches the whitespace+punctuation
//! splitting used by the reference implementations.

/// Lower-cased alphanumeric tokens of `text`, in order of appearance
/// (duplicates preserved — deduplication is the job of [`crate::TokenSet`]).
pub fn tokens(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            for lc in ch.to_lowercase() {
                cur.push(lc);
            }
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Character q-grams of the lower-cased, whitespace-normalized text.
///
/// The string is padded with `q - 1` leading and trailing `#` sentinels so
/// that affixes contribute distinguishable grams, mirroring the classic
/// record-linkage convention. Returns an empty vector when `q == 0` or the
/// normalized text is empty.
pub fn qgrams(text: &str, q: usize) -> Vec<String> {
    if q == 0 {
        return Vec::new();
    }
    let mut padded: Vec<char> = Vec::with_capacity(text.len() + 2 * (q - 1));
    if !push_padded(text, q - 1, &mut padded) {
        return Vec::new();
    }
    padded.windows(q).map(|w| w.iter().collect()).collect()
}

/// Appends the text whose windows are [`qgrams`]: the lower-cased
/// alphanumeric runs of `text` joined by single spaces, bracketed by `pad`
/// `#` sentinels on each side. Built in one pass, without intermediate
/// `String`s. When `text` has no alphanumeric character, `out` is left as
/// it was and `false` is returned.
pub fn push_padded(text: &str, pad: usize, out: &mut Vec<char>) -> bool {
    let start = out.len();
    out.resize(start + pad, '#');
    let mut in_token = false;
    let mut any = false;
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            if !in_token && any {
                out.push(' ');
            }
            in_token = true;
            any = true;
            for lc in ch.to_lowercase() {
                out.push(lc);
            }
        } else {
            in_token = false;
        }
    }
    if !any {
        out.truncate(start);
        return false;
    }
    out.resize(out.len() + pad, '#');
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_lowercase_and_split_on_punctuation() {
        assert_eq!(tokens("Hello, World!"), vec!["hello", "world"]);
        assert_eq!(
            tokens("iPhone-13 Pro/Max"),
            vec!["iphone", "13", "pro", "max"]
        );
    }

    #[test]
    fn tokens_keep_duplicates_and_digits() {
        assert_eq!(tokens("a a 7"), vec!["a", "a", "7"]);
    }

    #[test]
    fn tokens_empty_and_punctuation_only() {
        assert!(tokens("").is_empty());
        assert!(tokens("--- !!! ...").is_empty());
    }

    #[test]
    fn qgrams_with_padding() {
        let g = qgrams("ab", 2);
        assert_eq!(g, vec!["#a", "ab", "b#"]);
    }

    #[test]
    fn qgrams_normalize_case_and_space() {
        assert_eq!(qgrams("A  B", 2), qgrams("a b", 2));
    }

    #[test]
    fn qgrams_degenerate_inputs() {
        assert!(qgrams("", 3).is_empty());
        assert!(qgrams("abc", 0).is_empty());
        // Unigrams have no padding.
        assert_eq!(qgrams("ab", 1), vec!["a", "b"]);
    }

    #[test]
    fn qgrams_count_matches_length() {
        // |padded| - q + 1 grams for q >= 1, counted in chars, not bytes —
        // the two diverge on non-ASCII input.
        for text in ["record linkage", "café münchen", "北京 linkage"] {
            let normalized = tokens(text).join(" ");
            for q in 2..=5 {
                let n_chars = normalized.chars().count() + 2 * (q - 1);
                assert_eq!(qgrams(text, q).len(), n_chars - q + 1, "{text:?} q={q}");
            }
        }
    }

    #[test]
    fn qgrams_match_join_based_reference() {
        // The single-pass builder must reproduce the old
        // `format!("{pad}{joined}{pad}")` construction exactly.
        let texts = [
            "",
            "Hello, World!",
            "a",
            "café  MÜNCHEN-13",
            "北京 linkage",
            "--- !!! ...",
        ];
        for text in texts {
            for q in 1..=5 {
                let joined = tokens(text).join(" ");
                let expected: Vec<String> = if joined.is_empty() {
                    Vec::new()
                } else {
                    let pad = "#".repeat(q - 1);
                    let padded: Vec<char> = format!("{pad}{joined}{pad}").chars().collect();
                    padded.windows(q).map(|w| w.iter().collect()).collect()
                };
                assert_eq!(qgrams(text, q), expected, "{text:?} q={q}");
            }
        }
    }

    #[test]
    fn unicode_is_handled() {
        assert_eq!(tokens("Café MÜNCHEN"), vec!["café", "münchen"]);
        assert!(!qgrams("Café", 3).is_empty());
    }
}
