//! Adversarial fuzzing of the HTTP parser, fed from memory the way the event
//! loop feeds it: arbitrary, truncated, and bit-flipped byte streams must
//! never panic [`RequestParser`], and must always resolve — a parsed request
//! or a typed error once the bytes run out.
//!
//! Split invariance: the event loop hands the parser whatever each
//! `read(2)` returned, so any byte string must give the same outcome fed
//! whole or split at arbitrary points.

use proptest::prelude::*;
use trainbox_serve::http::{ParseStatus, RequestParser};

/// Feed `bytes` in the pieces `cuts` marks (sorted offsets, clamped to the
/// length), stopping at the first finished request or error, and close the
/// stream (EOF) if the bytes run out first. Returns the outcome's `Debug`
/// form: the parsed request's fields or the error with its message.
fn outcome(bytes: &[u8], cuts: &[usize]) -> String {
    let mut parser = RequestParser::new();
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(bytes.len())).collect();
    bounds.sort_unstable();
    bounds.push(bytes.len());
    let mut start = 0;
    for end in bounds {
        match parser.feed(&bytes[start..end]) {
            Ok(ParseStatus::Done(req)) => return format!("{req:?}"),
            Ok(ParseStatus::NeedMore) => {}
            Err(e) => return format!("{e:?}"),
        }
        start = end;
    }
    format!("{:?}", parser.finish_eof())
}

/// A well-formed request to mutate.
fn valid_request() -> Vec<u8> {
    b"POST /simulate HTTP/1.1\r\nhost: fuzz\r\nx-deadline-ms: 250\r\ncontent-length: 24\r\n\r\n{\"server\":{},\"workload\"}"
        .to_vec()
}

/// A valid request with bits flipped at `flips` (position, bit) pairs.
fn bit_flipped(flips: &[(usize, u8)]) -> Vec<u8> {
    let mut bytes = valid_request();
    let n = bytes.len();
    for &(pos, bit) in flips {
        bytes[pos % n] ^= 1 << bit;
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte soup: typed error or parsed request, never a panic.
    #[test]
    fn arbitrary_bytes_never_panic_the_parser(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = outcome(&bytes, &[]);
    }

    /// A valid request cut off at any byte: the parser must classify the
    /// truncation (EOF mid-line, mid-headers, or short body) cleanly, and
    /// only the untruncated request parses.
    #[test]
    fn truncated_requests_resolve_cleanly(cut in 0usize..110) {
        let mut bytes = valid_request();
        let whole = cut >= bytes.len();
        bytes.truncate(cut);
        let out = outcome(&bytes, &[]);
        prop_assert_eq!(out.starts_with("Request"), whole, "{}", out);
    }

    /// A valid request with random bit flips: framing fields (method,
    /// content-length, header names) corrupt in arbitrary ways.
    #[test]
    fn bit_flipped_requests_resolve_cleanly(
        flips in proptest::collection::vec((0usize..100, 0u8..8), 1..8),
    ) {
        let _ = outcome(&bit_flipped(&flips), &[]);
    }

    /// The same bytes split at arbitrary points (including empty pieces and
    /// one byte at a time) give the same request or the same error as the
    /// bytes fed whole. The bytes are arbitrary soup, or a valid request cut
    /// off or bit-flipped, so that every framing path is reached.
    #[test]
    fn any_split_gives_the_same_outcome(
        kind in 0u8..3,
        soup in proptest::collection::vec(any::<u8>(), 0..512),
        cut in 0usize..110,
        flips in proptest::collection::vec((0usize..100, 0u8..8), 0..6),
        cuts in proptest::collection::vec(0usize..600, 0..12),
        bytewise in any::<bool>(),
    ) {
        let bytes = match kind {
            0 => soup,
            1 => valid_request()[..cut.min(valid_request().len())].to_vec(),
            _ => bit_flipped(&flips),
        };
        let whole = outcome(&bytes, &[]);
        let cuts: Vec<usize> = if bytewise { (0..bytes.len()).collect() } else { cuts };
        prop_assert_eq!(outcome(&bytes, &cuts), whole);
    }
}
