//! Robustness of the journal reader: whatever a crash, a disk or a
//! hand edit leaves on a line, `decode_line` answers `None` or a
//! checksum-verified record — it never panics.

use pq_ckpt::journal::{decode_line, encode_line, Record};
use proptest::prelude::*;

/// Printable ASCII plus multi-byte characters, so slicing at a byte
/// offset that is not a char boundary would show.
const NOISE: &str = "[ -~éλ€]{0,96}";

fn valid_line() -> String {
    let fields = [
        ("seed", "776"),
        ("plt", "40a5dccccccccccd"),
        ("msg", "köln \"q\""),
    ];
    encode_line(&Record::new(
        "cell",
        "apache.org/DSL/QUIC",
        fields.iter().map(|(k, v)| (k.to_string(), v.to_string())),
    ))
}

proptest! {
    /// Arbitrary text is never a record.
    #[test]
    fn arbitrary_lines_decode_to_none(line in NOISE) {
        prop_assert_eq!(decode_line(&line), None);
    }

    /// A valid line cut short or with one character replaced decodes to
    /// `None` (or, when the replacement is the same character, to the
    /// original record) — never to something else, never a panic.
    #[test]
    fn damaged_lines_never_panic(cut in 0usize..200, at in 0usize..200, c in "[ -~é€]") {
        let line = valid_line();
        let original = decode_line(&line);
        prop_assert!(original.is_some());
        let chars: Vec<char> = line.chars().collect();
        let torn: String = chars.iter().take(cut % chars.len()).collect();
        prop_assert_eq!(decode_line(&torn), None);
        let i = at % chars.len();
        let edited: String = chars
            .iter()
            .enumerate()
            .map(|(j, &ch)| if j == i { c.chars().next().unwrap_or(ch) } else { ch })
            .collect();
        let decoded = decode_line(&edited);
        prop_assert!(decoded.is_none() || decoded == original, "{edited}");
    }
}
