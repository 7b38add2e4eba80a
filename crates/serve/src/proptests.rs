//! Protocol fuzzing — same style as `pane-format`'s container fuzz
//! tests: random bytes, truncations, deep nesting, and mutated valid
//! requests must never panic the parser or the request loop, and every
//! response must be a structured `{"ok":…}` line.
//!
//! The serving tier's first line of defense is the depth-capped JSON
//! subset in [`crate::protocol`]; the second is [`handle_line`], which
//! must turn *any* input line into a well-formed response; the third is
//! [`serve_lines`], which must survive arbitrary byte streams (invalid
//! UTF-8, oversized lines, blank lines) without hanging or panicking.

use crate::engine::ServeEngine;
use crate::protocol::{parse, Json, ParseError};
use crate::server::{handle_line, serve_lines};
use crate::testutil::{store_engine, TempDir};
use pane_core::{Pane, PaneConfig};
use pane_graph::gen::{generate_sbm, SbmConfig};
use pane_index::IndexSpec;
use proptest::prelude::*;
use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::RwLock;

thread_local! {
    /// The engine fixture, one per test (libtest runs each on its own
    /// thread). Proptest runs each case dozens of times, so the SBM embed
    /// and the store init happen once; fuzzed inserts that happen to be
    /// valid mutate it, which is part of the point — the loop must stay
    /// healthy on a moving engine. The store directory goes with the
    /// thread.
    static ENGINE: (RwLock<ServeEngine>, TempDir) = {
        let g = generate_sbm(&SbmConfig {
            nodes: 40,
            communities: 2,
            avg_out_degree: 4.0,
            attributes: 10,
            attrs_per_node: 3.0,
            seed: 17,
            ..Default::default()
        });
        let emb = Pane::new(PaneConfig::builder().dimension(8).seed(5).build())
            .embed(&g)
            .unwrap();
        let (engine, dir) = store_engine(&emb, &IndexSpec::Flat, 2);
        (RwLock::new(engine), dir)
    };
}

/// Runs the parser under `catch_unwind`: any outcome but a panic is
/// acceptable here (callers assert Ok/Err specifics themselves).
fn parse_structured(input: &str) -> Result<Json, ParseError> {
    catch_unwind(|| parse(input)).unwrap_or_else(|_| panic!("parser panicked on {input:?}"))
}

/// Runs one line through the request loop and asserts the response is
/// a parseable object with a boolean `ok` field. Returns (ok, response).
fn respond_structured(line: &str) -> (bool, String) {
    let (resp, _shutdown) = ENGINE
        .with(|(engine, _)| catch_unwind(AssertUnwindSafe(|| handle_line(engine, line))))
        .unwrap_or_else(|_| panic!("handle_line panicked on {line:?}"));
    let v = parse(&resp).unwrap_or_else(|e| panic!("unparseable response {resp:?}: {e}"));
    match v.get("ok") {
        Some(&Json::Bool(ok)) => (ok, resp),
        other => panic!("response lacks boolean ok ({other:?}): {resp}"),
    }
}

/// Valid request corpus used as mutation seeds — one per protocol
/// family (read queries, a write, an introspection op).
const CORPUS: [&str; 4] = [
    "{\"op\":\"similar-nodes\",\"nodes\":[1,2,7],\"k\":4}",
    "{\"op\":\"recommend-links\",\"nodes\":[0,3],\"k\":3,\"exclude\":[1]}",
    "{\"op\":\"insert\",\"forward\":[0.1,-0.2,0.3,0.4],\"backward\":[0.5,0.1,-0.3,0.2]}",
    "{\"op\":\"stats\"}",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random byte soup through the parser: never a panic, and any
    /// failure is a positioned `ParseError`.
    #[test]
    fn parser_survives_byte_soup(body in proptest::collection::vec(0u32..256, 0..300)) {
        let bytes: Vec<u8> = body.iter().map(|&b| b as u8).collect();
        let text = String::from_utf8_lossy(&bytes).into_owned();
        if let Err(e) = parse_structured(&text) {
            prop_assert!(e.at <= text.len(), "error position {} past input", e.at);
            prop_assert!(!e.message.is_empty());
        }
    }

    /// Truncating a valid request at any byte boundary yields a
    /// structured parse error, and the request loop answers it with
    /// `"ok":false` instead of dying.
    #[test]
    fn truncations_are_rejected_structurally(which in 0usize..4, cut in 0usize..100) {
        let full = CORPUS[which];
        let mut cut = cut.min(full.len().saturating_sub(1));
        while !full.is_char_boundary(cut) {
            cut -= 1;
        }
        let prefix = &full[..cut];
        prop_assert!(
            parse_structured(prefix).is_err(),
            "strict prefix parsed: {prefix:?}"
        );
        let (ok, _) = respond_structured(prefix);
        prop_assert!(!ok, "truncated request must be refused: {prefix:?}");
    }

    /// Nesting far past the depth cap is refused with the documented
    /// "nesting too deep" error — no stack exhaustion, no panic.
    #[test]
    fn deep_nesting_hits_the_cap(depth in 40usize..200, brace in 0usize..2) {
        let text = if brace == 0 {
            format!("{}{}", "[".repeat(depth), "]".repeat(depth))
        } else {
            // {"a":{"a":…{"a":null}…}}
            format!(
                "{}null{}",
                "{\"a\":".repeat(depth),
                "}".repeat(depth)
            )
        };
        let err = parse_structured(&text).expect_err("over-deep input must fail");
        prop_assert!(
            err.message.contains("nesting too deep"),
            "wrong error for depth {depth}: {err}"
        );
        // And the request loop reports it as a refusal, not a crash.
        let (ok, _) = respond_structured(&text);
        prop_assert!(!ok);
    }

    /// Byte-level mutations of valid requests: whatever the flip does
    /// (still-valid request, type confusion, garbage), the loop answers
    /// with a structured response.
    #[test]
    fn mutated_requests_get_structured_responses(
        which in 0usize..4,
        flips in proptest::collection::vec(0u32..4096, 0..6),
        xors in proptest::collection::vec(1u32..256, 0..6),
    ) {
        let mut bytes = CORPUS[which].as_bytes().to_vec();
        for (i, pos) in flips.iter().enumerate() {
            let pos = *pos as usize % bytes.len();
            let x = xors.get(i).copied().unwrap_or(1) as u8;
            bytes[pos] ^= x;
        }
        let line = String::from_utf8_lossy(&bytes).into_owned();
        let (_ok, resp) = respond_structured(&line);
        // Refusals must say why.
        if let Some(Json::Str(msg)) = parse(&resp).unwrap().get("error") {
            prop_assert!(!msg.is_empty());
        }
    }

    /// Raw byte streams (embedded newlines, invalid UTF-8, blank lines)
    /// through the full session loop: `serve_lines` terminates, and
    /// every emitted line is a structured `{"ok":…}` response.
    #[test]
    fn session_loop_survives_byte_streams(
        body in proptest::collection::vec(0u32..256, 0..400),
        newlines in proptest::collection::vec(0u32..400, 0..8),
    ) {
        let mut bytes: Vec<u8> = body.iter().map(|&b| b as u8).collect();
        for pos in &newlines {
            let pos = *pos as usize % (bytes.len() + 1);
            bytes.insert(pos, b'\n');
        }
        let mut out = Vec::new();
        let finished = catch_unwind(AssertUnwindSafe(|| {
            ENGINE.with(|(engine, _)| serve_lines(engine, Cursor::new(bytes.clone()), &mut out))
        }))
        .unwrap_or_else(|_| panic!("serve_lines panicked on {bytes:?}"));
        prop_assert!(finished.is_ok(), "session loop errored: {finished:?}");
        for line in out.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            let text = std::str::from_utf8(line).expect("responses are UTF-8");
            let v = parse(text).unwrap_or_else(|e| panic!("bad response {text:?}: {e}"));
            prop_assert!(
                matches!(v.get("ok"), Some(Json::Bool(_))),
                "response lacks ok: {text}"
            );
        }
    }
}
