//! Text cleaning for blocking: stop-word removal and light stemming.
//!
//! DeepBlocker's `cl.` hyperparameter (Table V): "if \[cleaning\] is used,
//! stop-words are removed and stemming is applied to all words".

use rlb_textsim::tfidf::STOPWORDS;

/// Strips common English suffixes (a deliberately light Porter-style pass —
/// enough to conflate inflections without a full stemmer).
pub fn stem(token: &str) -> String {
    let t = token;
    for suffix in [
        "ingly", "edly", "ings", "ing", "edly", "ied", "ies", "ed", "es", "s",
    ] {
        if let Some(stripped) = t.strip_suffix(suffix) {
            // Keep at least 3 characters so short tokens survive.
            if stripped.len() >= 3 {
                return stripped.to_string();
            }
        }
    }
    t.to_string()
}

/// Tokenizes `text`, removes stop-words, stems the rest.
pub fn clean_tokens(text: &str) -> Vec<String> {
    rlb_textsim::tokens(text)
        .into_iter()
        .filter(|t| !STOPWORDS.contains(&t.as_str()))
        .map(|t| stem(&t))
        .collect()
}

/// Tokenizes without cleaning (lower-case alphanumeric runs).
pub fn raw_tokens(text: &str) -> Vec<String> {
    rlb_textsim::tokens(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stem_strips_common_suffixes() {
        assert_eq!(stem("matching"), "match");
        assert_eq!(stem("blocked"), "block");
        assert_eq!(stem("entities"), "entit");
        assert_eq!(stem("records"), "record");
    }

    #[test]
    fn stem_keeps_short_tokens() {
        assert_eq!(stem("is"), "is");
        assert_eq!(stem("as"), "as");
        assert_eq!(stem("des"), "des"); // stripping would leave < 3 chars
    }

    #[test]
    fn clean_removes_stopwords_and_stems() {
        let out = clean_tokens("The blocking of the records");
        assert_eq!(out, vec!["block", "record"]);
    }

    #[test]
    fn raw_keeps_everything() {
        let out = raw_tokens("The blocking of the records");
        assert_eq!(out.len(), 5);
    }
}
