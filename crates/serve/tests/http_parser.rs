//! Property tests for the hand-rolled HTTP/1.1 parser.
//!
//! The contract `server.rs` relies on: [`parse_request`] never panics,
//! whatever bytes the network delivers — arbitrary garbage, truncated
//! requests, oversized heads, pipelined bursts. Truncation must come
//! back as `Partial` (so the read loop keeps accumulating), garbage as
//! `Invalid` (so the connection gets a 400 and closes), and a valid
//! request must round-trip every field with an exact consumed-byte
//! count (so pipelined followers start at the right offset).

use proptest::prelude::*;
use serve::{parse_request, parse_request_resuming, ParseError, Parsed};

/// Assemble a syntactically valid request from generated parts.
fn build_request(method: &str, path: &str, headers: &[(String, String)], body: &[u8]) -> Vec<u8> {
    let mut raw = format!("{method} /{path} HTTP/1.1\r\n");
    for (name, value) in headers {
        raw.push_str(&format!("x-{name}: {value}\r\n"));
    }
    raw.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
    let mut bytes = raw.into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes must classify — never panic — and a `Complete`
    /// must not claim more bytes than the buffer holds.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec(0u8..=255, 0..600),
    ) {
        match parse_request(&bytes) {
            Parsed::Complete(req, used) => {
                prop_assert!(used <= bytes.len());
                prop_assert!(!req.method.is_empty());
                prop_assert!(req.target.starts_with('/'));
            }
            Parsed::Partial | Parsed::Invalid(_) => {}
        }
    }

    /// A well-formed request round-trips every field and consumes
    /// exactly its own bytes.
    #[test]
    fn valid_request_roundtrips(
        method in "[A-Z]{1,6}",
        path in "[a-z0-9/]{0,24}",
        headers in proptest::collection::vec(("[a-z]{1,8}", "[a-z0-9 ]{0,12}"), 0..6),
        body in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        let raw = build_request(&method, &path, &headers, &body);
        match parse_request(&raw) {
            Parsed::Complete(req, used) => {
                prop_assert_eq!(used, raw.len());
                prop_assert_eq!(&req.method, &method);
                prop_assert_eq!(&req.target, &format!("/{path}"));
                prop_assert_eq!(&req.body, &body);
                prop_assert!(req.keep_alive);
                for (name, value) in &headers {
                    let got = req.header(&format!("x-{name}"));
                    // Values come back whitespace-trimmed.
                    prop_assert_eq!(got, Some(value.trim()), "header x-{} -> {:?}", name, got);
                }
            }
            other => prop_assert!(false, "expected Complete, got {:?} for {:?}", other, raw),
        }
    }

    /// Two pipelined requests parse back-to-back: the consumed count of
    /// the first is exactly where the second begins.
    #[test]
    fn pipelined_pairs_parse_sequentially(
        path_a in "[a-z]{1,12}",
        path_b in "[a-z]{1,12}",
        body_a in proptest::collection::vec(0u8..=255, 0..32),
        body_b in proptest::collection::vec(0u8..=255, 0..32),
    ) {
        let first = build_request("POST", &path_a, &[], &body_a);
        let second = build_request("POST", &path_b, &[], &body_b);
        let mut buf = first.clone();
        buf.extend_from_slice(&second);

        let used_a = match parse_request(&buf) {
            Parsed::Complete(req, used) => {
                prop_assert_eq!(&req.target, &format!("/{path_a}"));
                prop_assert_eq!(&req.body, &body_a);
                used
            }
            other => return Err(format!("first request: {other:?}")),
        };
        prop_assert_eq!(used_a, first.len());
        match parse_request(&buf[used_a..]) {
            Parsed::Complete(req, used) => {
                prop_assert_eq!(&req.target, &format!("/{path_b}"));
                prop_assert_eq!(&req.body, &body_b);
                prop_assert_eq!(used, second.len());
            }
            other => return Err(format!("second request: {other:?}")),
        }
    }

    /// Every strict prefix of a valid request is `Partial` — a read
    /// loop that stops mid-request must keep waiting, never 400 a
    /// client whose bytes are still in flight.
    #[test]
    fn strict_prefixes_are_partial(
        path in "[a-z]{1,16}",
        headers in proptest::collection::vec(("[a-z]{1,6}", "[a-z0-9]{0,8}"), 0..4),
        body in proptest::collection::vec(0u8..=255, 0..48),
    ) {
        let raw = build_request("POST", &path, &headers, &body);
        for cut in 0..raw.len() {
            match parse_request(&raw[..cut]) {
                Parsed::Partial => {}
                other => {
                    return Err(format!("prefix of {cut}/{} bytes gave {other:?}", raw.len()));
                }
            }
        }
    }

    /// Fed one growing buffer through the resuming entry point, split at
    /// any points, the parser answers every prefix as a fresh parse of
    /// it would: a terminator split across reads is still found.
    #[test]
    fn resumed_parse_matches_a_fresh_parse(
        path in "[a-z]{1,16}",
        headers in proptest::collection::vec(("[a-z]{1,6}", "[a-z0-9]{0,8}"), 0..4),
        body in proptest::collection::vec(0u8..=255, 0..48),
        steps in proptest::collection::vec(1usize..7, 1..200),
    ) {
        let raw = build_request("POST", &path, &headers, &body);
        let mut scanned = 0;
        let mut cut = 0;
        for step in steps.iter().cycle() {
            let resumed = format!("{:?}", parse_request_resuming(&raw[..cut], &mut scanned));
            prop_assert_eq!(resumed, format!("{:?}", parse_request(&raw[..cut])), "prefix {}", cut);
            if cut == raw.len() {
                break;
            }
            cut = (cut + step).min(raw.len());
        }
    }

    /// A head that keeps growing without a terminator is rejected once
    /// it passes the cap instead of buffering forever.
    #[test]
    fn unterminated_oversized_head_is_rejected(extra in 1usize..2048) {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        let filler = serve::http::MAX_HEAD_BYTES + extra - raw.len();
        raw.extend(std::iter::repeat_n(b'a', filler));
        match parse_request(&raw) {
            Parsed::Invalid(ParseError::HeadTooLarge) => {}
            other => return Err(format!("expected HeadTooLarge, got {other:?}")),
        }
    }
}

/// A head whose terminator starts exactly at the cap is accepted however
/// the reads split it: every strict prefix waits for more bytes. The
/// prefixes grow one byte at a time through the resuming entry point, as
/// the server's read loop calls it, so the whole run scans each byte a
/// bounded number of times.
#[test]
fn head_ending_at_the_cap_parses_across_split_reads() {
    let mut raw = b"GET / HTTP/1.1\r\nx-pad: ".to_vec();
    let pad = serve::http::MAX_HEAD_BYTES - raw.len();
    raw.extend(std::iter::repeat_n(b'a', pad));
    raw.extend_from_slice(b"\r\n\r\n");
    let mut scanned = 0;
    for cut in 0..raw.len() {
        assert!(
            matches!(
                parse_request_resuming(&raw[..cut], &mut scanned),
                Parsed::Partial
            ),
            "prefix of {cut}/{} bytes was not Partial",
            raw.len()
        );
    }
    match parse_request_resuming(&raw, &mut scanned) {
        Parsed::Complete(req, used) => {
            assert_eq!(used, raw.len());
            assert_eq!(req.header("x-pad").map(str::len), Some(pad));
        }
        other => panic!("at-cap head gave {other:?}"),
    }
}

/// A body of exactly the cap is accepted; one declared byte more is
/// refused before any of it is buffered.
#[test]
fn body_at_the_cap_is_accepted_and_one_byte_more_is_refused() {
    let cap = serve::http::MAX_BODY_BYTES;
    let raw = build_request("POST", "v1/search", &[], &vec![b'x'; cap]);
    assert!(matches!(
        parse_request(&raw[..raw.len() - 1]),
        Parsed::Partial
    ));
    match parse_request(&raw) {
        Parsed::Complete(req, used) => {
            assert_eq!(used, raw.len());
            assert_eq!(req.body.len(), cap);
        }
        other => panic!("at-cap body gave {other:?}"),
    }
    let over = format!("POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n", cap + 1);
    assert!(matches!(
        parse_request(over.as_bytes()),
        Parsed::Invalid(ParseError::BodyTooLarge)
    ));
}

#[test]
fn header_count_cap_is_enforced() {
    let mut raw = String::from("GET / HTTP/1.1\r\n");
    for i in 0..=serve::http::MAX_HEADER_COUNT {
        raw.push_str(&format!("x-h{i}: v\r\n"));
    }
    raw.push_str("\r\n");
    assert!(matches!(
        parse_request(raw.as_bytes()),
        Parsed::Invalid(ParseError::TooManyHeaders)
    ));
}
