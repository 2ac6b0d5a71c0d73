//! Word tokenizer: case-folded alphanumeric runs.

/// Splits `text` into lowercase alphanumeric words. Punctuation and
/// whitespace separate words; `"Brooklyn, New York"` → `["brooklyn", "new",
/// "york"]`.
pub fn tokenize(text: &str) -> Vec<String> {
    Tokenizer::default().words(text)
}

/// Configurable tokenizer. The default lowercases and splits on
/// non-alphanumeric characters; stopwords may be dropped for index
/// compactness (they are kept by default so phrase queries stay exact).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tokenizer {
    stopwords: Vec<String>,
}

impl Tokenizer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop the given words (compared case-insensitively) from output.
    pub fn with_stopwords<I, S>(stopwords: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Tokenizer {
            stopwords: stopwords
                .into_iter()
                .map(|s| s.into().to_lowercase())
                .collect(),
        }
    }

    /// Tokenize `text` into words.
    pub fn words(&self, text: &str) -> Vec<String> {
        let mut out = Vec::new();
        self.for_each_word(text, |w| out.push(w.to_owned()));
        out
    }

    /// Call `f` with each word of `text`, in order. A word is a maximal run
    /// of alphanumeric characters, lowercased; stopwords are skipped.
    ///
    /// This is the one definition of a word: [`Tokenizer::words`] and every
    /// index operation go through it. A run of lowercase ASCII letters and
    /// digits is handed to `f` as a slice of `text`; any other run is folded
    /// into one scratch buffer that the whole call reuses (ASCII in place,
    /// anything else char by char through `char::to_lowercase`, so `İ`
    /// becomes `i̇` as it always did), so a call allocates at most once and
    /// nothing per word.
    pub fn for_each_word(&self, text: &str, mut f: impl FnMut(&str)) {
        let bytes = text.as_bytes();
        let mut folded = String::new();
        let mut emit = |word: &str, plain: bool| {
            let word = if plain {
                word
            } else {
                folded.clear();
                if word.is_ascii() {
                    folded.push_str(word);
                    folded.make_ascii_lowercase();
                } else {
                    folded.extend(word.chars().flat_map(char::to_lowercase));
                }
                folded.as_str()
            };
            if !self.stopwords.iter().any(|s| s == word) {
                f(word);
            }
        };
        // `start` is where the current word began; `plain` says it has been
        // lowercase ASCII so far and can be emitted as it stands.
        let mut start = None;
        let mut plain = true;
        let mut i = 0;
        while i < bytes.len() {
            let b = bytes[i];
            let (in_word, width) = if b.is_ascii() {
                (b.is_ascii_alphanumeric(), 1)
            } else {
                let ch = text[i..].chars().next().expect("i is a char boundary");
                (ch.is_alphanumeric(), ch.len_utf8())
            };
            if in_word {
                if start.is_none() {
                    start = Some(i);
                    plain = true;
                }
                plain &= b.is_ascii_lowercase() || b.is_ascii_digit();
            } else if let Some(s) = start.take() {
                emit(&text[s..i], plain);
            }
            i += width;
        }
        if let Some(s) = start {
            emit(&text[s..], plain);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn splits_and_lowercases() {
        assert_eq!(
            tokenize("Woody Allen"),
            vec!["woody".to_owned(), "allen".to_owned()]
        );
        assert_eq!(
            tokenize("Brooklyn, New-York (USA)"),
            vec!["brooklyn", "new", "york", "usa"]
        );
        assert_eq!(tokenize("  "), Vec::<String>::new());
        assert_eq!(tokenize("Match Point 2005"), vec!["match", "point", "2005"]);
    }

    #[test]
    fn unicode_case_folding() {
        assert_eq!(tokenize("Mélinda"), vec!["mélinda"]);
        assert_eq!(tokenize("ÎLE"), vec!["île"]);
        // One char lowercasing to two: the combining dot stays in the word.
        assert_eq!(tokenize("İstanbul-İ"), vec!["i\u{307}stanbul", "i\u{307}"]);
    }

    #[test]
    fn stopwords_are_dropped() {
        let t = Tokenizer::with_stopwords(["the", "of"]);
        assert_eq!(
            t.words("The Curse of the Jade Scorpion"),
            vec!["curse", "jade", "scorpion"]
        );
    }

    /// The definition `for_each_word` replaced: one char at a time, every
    /// word built in a fresh `String`.
    fn words_char_by_char(stopwords: &[&str], text: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut current = String::new();
        for ch in text.chars().chain([' ']) {
            if ch.is_alphanumeric() {
                current.extend(ch.to_lowercase());
            } else if !current.is_empty() {
                let word = std::mem::take(&mut current);
                if !stopwords.contains(&word.as_str()) {
                    out.push(word);
                }
            }
        }
        out
    }

    proptest! {
        #[test]
        fn for_each_word_matches_the_char_by_char_definition(
            text in "[a-zA-Z0-9 ,.'\\-\tİıßÉéΣσςǅⅧ٣世\u{307}\u{200b}]{0,48}",
        ) {
            for stopwords in [&[][..], &["a", "the", "i\u{307}", "é", "7"][..]] {
                let tokenizer = Tokenizer::with_stopwords(stopwords.iter().copied());
                let mut seen = Vec::new();
                tokenizer.for_each_word(&text, |w| seen.push(w.to_owned()));
                prop_assert_eq!(&seen, &words_char_by_char(stopwords, &text));
                prop_assert_eq!(seen, tokenizer.words(&text));
            }
        }
    }
}
