//! Pre-tokenization: split raw text into chunks that BPE merges may not
//! cross.
//!
//! The chunking rules approximate the GPT regex family, tuned for source
//! code: a chunk is an identifier run (with at most one leading space), a
//! digit run, a run of spaces/tabs, a newline run, or a single punctuation
//! byte (with at most one leading space). Keeping merges inside chunks is
//! what makes BPE vocabularies transfer across documents.

/// Split `text` into pre-token chunks. Concatenating the chunks always
/// reproduces `text` exactly (losslessness is what decoding relies on).
///
/// Must hold, because the tokenizer memoizes per newline-terminated
/// segment (see `segments`): a chunk always ends at the end of a newline
/// run, newline runs are their own chunks, no identifier, digit,
/// punctuation or space chunk runs into a `\n` or `\r` (a single space
/// before a newline is not glued to it), and a scan started at a chunk
/// boundary depends only on the bytes after it. BPE merges never cross
/// chunks, so a text encodes as its segments' encodings, concatenated.
pub fn pretokenize(text: &str) -> Vec<&str> {
    let bytes = text.as_bytes();
    let mut chunks = Vec::with_capacity(text.len() / 4 + 1);
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        let b = bytes[i];
        if b == b'\n' || b == b'\r' {
            while i < bytes.len() && (bytes[i] == b'\n' || bytes[i] == b'\r') {
                i += 1;
            }
        } else if b == b' ' || b == b'\t' {
            // A single space may glue onto a following word/punct chunk
            // (GPT-style " word" tokens); longer runs stay whitespace-only.
            let mut j = i;
            while j < bytes.len() && (bytes[j] == b' ' || bytes[j] == b'\t') {
                j += 1;
            }
            let run = j - i;
            if run == 1 && j < bytes.len() && bytes[j] != b'\n' && bytes[j] != b'\r' {
                i = j; // fall through: glue the space to the next chunk
                let next = bytes[i];
                if is_ident_byte(next) {
                    i += 1;
                    while i < bytes.len() && is_ident_byte(bytes[i]) {
                        i += 1;
                    }
                } else if next.is_ascii_digit() {
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                } else {
                    // Single punctuation character; advance a whole UTF-8
                    // scalar so multi-byte characters stay intact.
                    let ch_len = text[i..].chars().next().map(char::len_utf8).unwrap_or(1);
                    i += ch_len;
                }
            } else {
                i = j;
            }
        } else if is_ident_byte(b) {
            while i < bytes.len() && is_ident_byte(bytes[i]) {
                i += 1;
            }
        } else if b.is_ascii_digit() {
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
        } else {
            // Any other byte (punctuation, UTF-8 continuation lead bytes):
            // advance one full UTF-8 scalar to keep chunk boundaries on
            // character boundaries.
            let ch_len = text[start..]
                .chars()
                .next()
                .map(char::len_utf8)
                .unwrap_or(1);
            i += ch_len;
        }
        chunks.push(&text[start..i]);
    }
    chunks
}

/// Split `text` right after each maximal run of `\n`/`\r` bytes; the last
/// segment ends at the end of the text. Every segment boundary is a
/// [`pretokenize`] chunk boundary.
pub(crate) fn segments(mut rest: &str) -> impl Iterator<Item = &str> {
    let newline = |b: &u8| matches!(b, b'\n' | b'\r');
    std::iter::from_fn(move || {
        let run = rest.bytes().position(|b| newline(&b)).unwrap_or(rest.len());
        let end = run + rest[run..].bytes().take_while(newline).count();
        let (segment, tail) = rest.split_at(end);
        rest = tail;
        (!segment.is_empty()).then_some(segment)
    })
}

#[inline]
fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rejoin(chunks: &[&str]) -> String {
        chunks.concat()
    }

    #[test]
    fn roundtrip_is_lossless() {
        let samples = [
            "",
            "int main() { return 0; }",
            "__global__ void k(float *a)\n{\n  a[threadIdx.x] += 1.0f;\n}\n",
            "#pragma omp target teams distribute parallel for",
            "  indented\n\ttabbed\r\nwindows",
            "unicode: λ → ∑ 中文",
            "a  b   c    d",
        ];
        for s in samples {
            assert_eq!(rejoin(&pretokenize(s)), s, "lossless failed for {s:?}");
        }
    }

    #[test]
    fn identifiers_stay_whole() {
        let chunks = pretokenize("threadIdx_x blockDim");
        assert!(chunks.contains(&"threadIdx_x"));
        assert!(chunks.contains(&" blockDim"));
    }

    #[test]
    fn single_space_glues_to_word() {
        let chunks = pretokenize("float x");
        assert_eq!(chunks, vec!["float", " x"]);
    }

    #[test]
    fn multi_space_runs_stay_separate() {
        let chunks = pretokenize("a   b");
        assert_eq!(chunks, vec!["a", "   ", "b"]);
    }

    #[test]
    fn digits_split_from_identifiers() {
        let chunks = pretokenize("x123");
        assert_eq!(chunks, vec!["x", "123"]);
    }

    #[test]
    fn newlines_group_into_runs() {
        let chunks = pretokenize("a\n\n\nb");
        assert_eq!(chunks, vec!["a", "\n\n\n", "b"]);
    }

    #[test]
    fn punctuation_is_single_chars() {
        let chunks = pretokenize("a[i]+=1;");
        assert_eq!(chunks, vec!["a", "[", "i", "]", "+", "=", "1", ";"]);
    }

    #[test]
    fn empty_input_gives_no_chunks() {
        assert!(pretokenize("").is_empty());
    }

    #[test]
    fn segments_end_after_newline_runs() {
        let split: Vec<&str> = segments("a\r\n\r\nb c\n \n\nd").collect();
        assert_eq!(split, vec!["a\r\n\r\n", "b c\n", " \n\n", "d"]);
        assert_eq!(segments("").count(), 0);
    }
}
