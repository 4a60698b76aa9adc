//! First-seen programs: a catalogue kernel with every identifier renamed.
//! The renamed source hashes to a new cache key, so a request for it
//! misses the artifact cache and compiles, while the analysis has to reach
//! the same verdicts as for the original.

/// The mini-C keywords, which keep their spelling.
const KEYWORDS: [&str; 6] = ["int", "long", "for", "while", "if", "else"];

/// `source` with `prefix` put in front of every identifier.  Keywords,
/// numbers and `#` lines are copied as they are.  The map is injective,
/// so distinct identifiers stay distinct.
pub fn rename_identifiers(source: &str, prefix: &str) -> String {
    let mut out = String::with_capacity(source.len() * 2);
    let mut chars = source.char_indices().peekable();
    while let Some((start, c)) = chars.next() {
        if c.is_ascii_alphanumeric() || c == '_' {
            let mut end = start + c.len_utf8();
            while let Some(&(i, d)) = chars.peek() {
                if !(d.is_ascii_alphanumeric() || d == '_') {
                    break;
                }
                end = i + d.len_utf8();
                chars.next();
            }
            let word = &source[start..end];
            if !c.is_ascii_digit() && !KEYWORDS.contains(&word) {
                out.push_str(prefix);
            }
            out.push_str(word);
        } else if c == '#' {
            out.push(c);
            while let Some(&(_, d)) = chars.peek() {
                if d == '\n' {
                    break;
                }
                out.push(d);
                chars.next();
            }
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renames_identifiers_only() {
        let src = "for (i = 0; i < n; i++) { if (a[i] != 0) { x1[i] = 2; } }";
        assert_eq!(
            rename_identifiers(src, "q7_"),
            "for (q7_i = 0; q7_i < q7_n; q7_i++) { if (q7_a[q7_i] != 0) { q7_x1[q7_i] = 2; } }"
        );
    }
}
