//! End-to-end tests of the `pane` binary: generate → stats → embed →
//! store init → serve.

use std::path::{Path, PathBuf};
use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    // Cargo-provided absolute path to the freshly built `pane` binary —
    // hermetic with respect to cwd, PATH, and target-dir layout.
    let out = Command::new(env!("CARGO_BIN_EXE_pane"))
        .args(args)
        .output()
        .expect("spawn pane");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn workdir(name: &str) -> PathBuf {
    // Cargo-owned scratch space (target/tmp), namespaced by pid so
    // concurrent `cargo test` invocations cannot collide.
    let d = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("pane_cli_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn full_workflow() {
    let dir = workdir("flow");
    let dir_s = dir.to_str().unwrap();

    // generate
    let (ok, _, err) = run(&[
        "generate",
        "--zoo",
        "cora-like",
        "--scale",
        "0.05",
        "--seed",
        "1",
        "--out-dir",
        dir_s,
    ]);
    assert!(ok, "generate failed: {err}");
    assert!(dir.join("edges.txt").exists());

    // stats
    let edges = dir.join("edges.txt");
    let attrs = dir.join("attributes.txt");
    let labels = dir.join("labels.txt");
    let (ok, out, err) = run(&[
        "stats",
        "--edges",
        edges.to_str().unwrap(),
        "--attrs",
        attrs.to_str().unwrap(),
        "--labels",
        labels.to_str().unwrap(),
    ]);
    assert!(ok, "stats failed: {err}");
    assert!(out.contains("|V|="), "stats output: {out}");
    assert!(out.contains("avg out-degree"));

    // embed (binary output)
    let emb = dir.join("emb.bin");
    let (ok, _, err) = run(&[
        "embed",
        "--edges",
        edges.to_str().unwrap(),
        "--attrs",
        attrs.to_str().unwrap(),
        "--dim",
        "16",
        "--threads",
        "2",
        "--output",
        emb.to_str().unwrap(),
    ]);
    assert!(ok, "embed failed: {err}");
    assert!(std::fs::read(&emb).unwrap().starts_with(b"PANECOL1"));
    assert!(err.contains("objective"), "embed stderr: {err}");

    // The one query path: a store over the saved embedding, then one
    // served session with all three read ops.
    let store = init_store(&dir, &emb, &["--kind", "flat"]);
    let n = pane_core::load_columns(&emb).unwrap().forward.rows();
    let all = (0..n).map(|v| v.to_string()).collect::<Vec<_>>().join(",");
    let lines = serve_session(
        &store,
        &[
            r#"{"op":"similar-nodes","nodes":[0],"k":5}"#,
            r#"{"op":"recommend-links","nodes":[0],"k":5}"#,
            &format!(r#"{{"op":"top-attributes","nodes":[{all}],"k":5}}"#),
        ],
    );
    for l in &lines {
        assert!(l.contains("\"ok\":true"), "request failed: {l}");
    }
    assert_eq!(
        attribute_bits(&lines[2]),
        exact_attribute_bits(&pane_core::load_columns(&emb).unwrap(), 0..n, 5),
        "served top-attributes diverged from EmbeddingQuery::top_attributes"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// The `(attribute, score bits)` lists of a `top-attributes` reply line.
fn attribute_bits(line: &str) -> Vec<Vec<(usize, u64)>> {
    use pane_serve::Json;
    let resp = pane_serve::parse(line).unwrap();
    let Some(Json::Arr(lists)) = resp.get("results") else {
        panic!("no results in {line}");
    };
    lists
        .iter()
        .map(|list| {
            let Json::Arr(hits) = list else {
                panic!("not a list in {line}")
            };
            hits.iter()
                .map(|h| {
                    let r = h.get("attribute").and_then(Json::as_index).unwrap();
                    let score = h.get("score").and_then(Json::as_f64).unwrap();
                    (r, score.to_bits())
                })
                .collect()
        })
        .collect()
}

/// `EmbeddingQuery::top_attributes` of each node, as `(attribute, score
/// bits)` lists.
fn exact_attribute_bits(
    emb: &pane_core::PaneEmbedding,
    nodes: impl IntoIterator<Item = usize>,
    k: usize,
) -> Vec<Vec<(usize, u64)>> {
    let q = pane_core::EmbeddingQuery::new(emb);
    nodes
        .into_iter()
        .map(|v| {
            q.top_attributes(v, k)
                .iter()
                .map(|s| (s.index, s.score.to_bits()))
                .collect()
        })
        .collect()
}

/// One `pane serve --store STORE --stdio` session: sends `requests` and a
/// `shutdown`, and returns the replies to `requests`.
fn serve_session(store: &str, requests: &[&str]) -> Vec<String> {
    use std::io::Write;
    let mut child = Command::new(env!("CARGO_BIN_EXE_pane"))
        .args(["serve", "--store", store, "--stdio"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn pane serve");
    let script: String = requests
        .iter()
        .chain(&[r#"{"op":"shutdown"}"#])
        .map(|r| format!("{r}\n"))
        .collect();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut lines: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(lines.len(), requests.len() + 1, "one reply per request");
    lines.pop();
    lines
}

#[test]
fn text_embedding_roundtrip() {
    let dir = workdir("text");
    let dir_s = dir.to_str().unwrap();
    run(&[
        "generate",
        "--zoo",
        "pubmed-like",
        "--scale",
        "0.01",
        "--seed",
        "2",
        "--out-dir",
        dir_s,
    ]);
    let emb = dir.join("emb.txt");
    let (ok, _, err) = run(&[
        "embed",
        "--edges",
        dir.join("edges.txt").to_str().unwrap(),
        "--attrs",
        dir.join("attributes.txt").to_str().unwrap(),
        "--dim",
        "8",
        "--output",
        emb.to_str().unwrap(),
        "--text",
    ]);
    assert!(ok, "text embed failed: {err}");
    let content = std::fs::read_to_string(&emb).unwrap();
    assert!(content.starts_with("# PANE embedding v1"));
    let store = init_store(&dir, &emb, &["--text", "--kind", "flat"]);
    let lines = serve_session(&store, &[r#"{"op":"top-attributes","nodes":[1]}"#]);
    let loaded = pane_core::load_text(&emb).unwrap();
    assert_eq!(
        attribute_bits(&lines[0]),
        exact_attribute_bits(&loaded, [1], 10)
    );
    assert_eq!(
        attribute_bits(&lines[0])[0].len(),
        10.min(loaded.attribute.rows())
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn errors_are_reported() {
    // Unknown command.
    let (ok, _, err) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown command"));
    // The offline query commands are gone: `pane serve` is the one
    // query path.
    for args in [
        &["topk", "--node", "0"][..],
        &["index", "build"],
        &["index", "search"],
    ] {
        let (ok, _, err) = run(args);
        assert!(!ok, "{args:?} succeeded");
        assert_eq!(
            err,
            format!("error: unknown command '{}' (try `pane help`)\n", args[0])
        );
    }

    // Missing required option.
    let (ok, _, err) = run(&["embed", "--dim", "8"]);
    assert!(!ok);
    assert!(err.contains("--edges"));

    // `serve` serves a store and nothing else: an embedding file is an
    // unknown option, and the store is required.
    let (ok, _, err) = run(&["serve", "--embedding", "emb.bin", "--stdio"]);
    assert!(!ok);
    assert_eq!(err, "error: argument error: unknown option --embedding\n");
    let (ok, _, err) = run(&["serve", "--stdio"]);
    assert!(!ok);
    assert_eq!(err, "error: argument error: --store is required\n");

    // Bad zoo name lists the options.
    let dir = workdir("badzoo");
    let (ok, _, err) = run(&[
        "generate",
        "--zoo",
        "nope",
        "--out-dir",
        dir.to_str().unwrap(),
    ]);
    assert!(!ok);
    assert!(err.contains("cora-like"));
    std::fs::remove_dir_all(&dir).ok();

    // Nonexistent file.
    let (ok, _, err) = run(&["stats", "--edges", "/definitely/not/here.txt"]);
    assert!(!ok);
    assert!(err.contains("error"));

    // A graph PANE cannot embed is an error from `evaluate`, not a panic:
    // edges without attributes, and an empty edge file.
    let dir = workdir("unembeddable");
    let (edges, empty) = (dir.join("edges.txt"), dir.join("empty.txt"));
    std::fs::write(&edges, "0 1\n1 2\n2 0\n").unwrap();
    std::fs::write(&empty, "").unwrap();
    for (graph, names) in [(&edges, "no attributes"), (&empty, "no nodes")] {
        let (ok, _, err) = run(&["evaluate", "--edges", graph.to_str().unwrap()]);
        assert!(
            !ok && err.contains("error:") && err.contains(names),
            "{err}"
        );
        assert!(!err.contains("panicked"), "{err}");
    }
    std::fs::remove_dir_all(&dir).ok();

    // Files in the removed stream formats are refused by name, with the
    // remedy, before anything is allocated from their headers: a 32-byte
    // PANEEMB1 header declaring 2³³ rows must not reach its 64 GiB
    // allocation, and a 12-byte PANEIDX1 stub as a store's node index is
    // named too.
    let dir = workdir("badheaders");
    let emb = dir.join("absurd.bin");
    let mut bytes = b"PANEEMB1".to_vec();
    for dim in [1u64 << 33, 4, 1] {
        bytes.extend_from_slice(&dim.to_le_bytes());
    }
    std::fs::write(&emb, bytes).unwrap();
    let store = dir.join("store");
    let (ok, _, err) = run(&[
        "store",
        "init",
        "--embedding",
        emb.to_str().unwrap(),
        "--dir",
        store.to_str().unwrap(),
    ]);
    assert!(!ok, "a PANEEMB1 file was accepted");
    assert!(
        err.starts_with("error:") && err.contains("PANEEMB1"),
        "{err}"
    );
    assert!(
        !err.contains("panicked") && !err.contains("allocation"),
        "{err}"
    );
    assert!(!store.exists(), "a refused input wrote output");

    // Build parameters no reader accepts are refused where they enter —
    // before a builder can assert on them and before `store init` writes
    // anything — and so is a shard count of zero.
    let tiny = dir.join("tiny.txt");
    let rows = "0 1 0\n1 0 1\n2 1 1\n3 0.5 0.25\n";
    std::fs::write(
        &tiny,
        format!("4 2 2\n# forward\n{rows}# backward\n{rows}# attribute\n0 1 0\n1 0 1\n"),
    )
    .unwrap();
    let tiny_s = tiny.to_str().unwrap();
    let out = dir.join("refused");
    let out_s = out.to_str().unwrap();
    let refused = |command: [&str; 4], flags: &[&str], names: &str| {
        let args = [&command[..], &["--text", "--embedding", tiny_s], flags].concat();
        let (ok, _, err) = run(&args);
        assert!(!ok, "{args:?} succeeded");
        assert!(
            err.starts_with("error:") && err.contains(names),
            "{args:?}: {err}"
        );
        assert!(!err.contains("panicked"), "{err}");
        assert!(!out.exists(), "{args:?} left {out_s} behind");
    };
    let init = ["store", "init", "--dir", out_s];
    for (flags, names) in [
        (
            ["--kind", "ivf", "--lists", "0"],
            "'nlist' must be at least 1",
        ),
        (["--kind", "hnsw", "--m", "1"], "'m' must be at least 2"),
        (["--kind", "hnsw", "--efc", "0"], "'efc' must be at least 1"),
        (
            ["--kind", "sqflat", "--rerank", "0"],
            "'rerank' must be at least 1",
        ),
    ] {
        refused(init, &flags, names);
    }
    refused(init, &["--shards", "0"], "--shards must be at least 1");

    // `serve` checks every flag before it opens (and locks) a store: a
    // bad log level, a bad slow-query threshold and a missing transport
    // are each the one error line, with no `serving …` line before it.
    let store_s = store.to_str().unwrap();
    let (ok, _, err) = run(&[
        "store",
        "init",
        "--text",
        "--embedding",
        tiny_s,
        "--kind",
        "flat",
        "--dir",
        store_s,
    ]);
    assert!(ok, "store init failed: {err}");
    for (flags, line) in [
        (
            &["--stdio", "--log-level", "bogus"][..],
            "error: unknown log level 'bogus' (error|warn|info|debug|off)\n",
        ),
        (
            &["--stdio", "--slow-query-ms", "x"],
            "error: --slow-query-ms: invalid digit found in string\n",
        ),
        (
            &[],
            "error: give exactly one transport: --stdio or --listen ADDR\n",
        ),
    ] {
        let args = [&["serve", "--store", store_s][..], flags].concat();
        let (ok, _, err) = run(&args);
        assert!(!ok, "{args:?} succeeded");
        assert_eq!(err, line, "{args:?}");
    }

    // A PANEIDX1 file in a store's generation is refused by name, with
    // the remedy, when the store is served.
    std::fs::write(store.join("gen-00001").join("node.idx"), b"PANEIDX1junk").unwrap();
    let (ok, _, err) = run(&["serve", "--store", store_s, "--stdio"]);
    assert!(!ok, "a PANEIDX1 node index was served");
    assert!(
        err.starts_with("error:") && err.contains("PANEIDX1") && err.contains("pane store init"),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");

    // `--threads 0` draws one line from every subcommand that takes it,
    // before any input is read or output written.
    for command in [
        &["embed", "--edges", tiny_s, "--output", out_s][..],
        &["evaluate", "--edges", tiny_s],
        &["serve", "--store", out_s, "--stdio"],
        &[
            "store",
            "init",
            "--text",
            "--embedding",
            tiny_s,
            "--dir",
            out_s,
        ],
        &["store", "snapshot", "--dir", out_s],
    ] {
        let args = [command, &["--threads", "0"]].concat();
        let (ok, _, err) = run(&args);
        assert!(!ok, "{args:?} succeeded");
        assert_eq!(
            err, "error: argument error: --threads must be at least 1\n",
            "{args:?}"
        );
        assert!(!out.exists(), "{args:?} left {out_s} behind");
    }

    // A graph container carries its own undirected bit, so text graph
    // options next to `--binary` are refused, not silently dropped.
    let (edges, attrs) = (dir.join("edges.txt"), dir.join("attrs.txt"));
    std::fs::write(&edges, "0 1\n1 2\n2 0\n").unwrap();
    std::fs::write(&attrs, "0 0\n1 1\n2 0\n").unwrap();
    let graph = dir.join("graph.col");
    let (ok, _, err) = run(&[
        "convert",
        "--edges",
        edges.to_str().unwrap(),
        "--attrs",
        attrs.to_str().unwrap(),
        "--output",
        graph.to_str().unwrap(),
    ]);
    assert!(ok, "convert failed: {err}");
    let (edges_s, graph_s) = (edges.to_str().unwrap(), graph.to_str().unwrap());
    for (command, extra) in [
        (&["evaluate", "--dim", "8"][..], &["--edges", edges_s][..]),
        (&["evaluate", "--dim", "8"], &["--undirected"]),
        (&["stats"], &["--attrs", edges_s]),
        (&["embed", "--output", out_s], &["--labels", edges_s]),
        (&["convert", "--output", out_s], &["--undirected"]),
    ] {
        let args = [command, &["--binary", graph_s], extra].concat();
        let (ok, _, err) = run(&args);
        assert!(!ok, "{args:?} succeeded");
        assert_eq!(
            err,
            format!("error: argument error: --binary replaces {}\n", extra[0]),
            "{args:?}"
        );
        assert!(!out.exists(), "{args:?} left {out_s} behind");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression: a bad binary graph (a removed `PANEGRF1` stream declaring
/// an absurd node count, or a truncated graph container) must exit with a
/// clean `error:` message — historically this path could panic or attempt
/// a multi-GB allocation from the declared header before reading a single
/// row. The removed format is refused by name, with the remedy.
#[test]
fn corrupt_binary_graph_is_clean_error() {
    let dir = workdir("corrupt");

    // Header declaring u64::MAX nodes, then nothing else.
    let huge = dir.join("huge.bin");
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"PANEGRF1");
    bytes.extend_from_slice(&0u64.to_le_bytes()); // flags
    bytes.extend_from_slice(&u64::MAX.to_le_bytes()); // n
    bytes.extend_from_slice(&4u64.to_le_bytes()); // d
    bytes.extend_from_slice(&2u64.to_le_bytes()); // num_labels
    std::fs::write(&huge, &bytes).unwrap();

    // A real graph truncated mid-file.
    let trunc = dir.join("trunc.bin");
    run(&[
        "generate",
        "--zoo",
        "cora-like",
        "--scale",
        "0.05",
        "--seed",
        "9",
        "--out-dir",
        dir.to_str().unwrap(),
    ]);
    let (ok, _, err) = run(&[
        "convert",
        "--edges",
        dir.join("edges.txt").to_str().unwrap(),
        "--output",
        trunc.to_str().unwrap(),
    ]);
    assert!(ok, "convert failed: {err}");
    let full = std::fs::read(&trunc).unwrap();
    std::fs::write(&trunc, &full[..full.len() / 2]).unwrap();

    for bad in [&huge, &trunc] {
        let (ok, _, err) = run(&[
            "convert",
            "--binary",
            bad.to_str().unwrap(),
            "--output",
            dir.join("out").to_str().unwrap(),
        ]);
        assert!(!ok, "{bad:?} should fail");
        assert!(err.contains("error:"), "{bad:?} stderr: {err}");
        assert_eq!(
            bad == &huge,
            err.contains("PANEGRF1") && err.contains("pane convert"),
            "{bad:?} stderr: {err}"
        );
        assert!(
            !err.to_lowercase().contains("panic"),
            "{bad:?} stderr: {err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression: a malformed text graph is a clean error naming the line,
/// not a process abort. (The out-of-range-id-with-explicit-dimensions
/// path is library-only — the CLI always infers dimensions — and is
/// covered by `pane-graph`'s io tests.)
#[test]
fn malformed_text_graph_is_clean_error() {
    let dir = workdir("bad_text");
    std::fs::write(dir.join("bad.txt"), "0 1\n1 notanumber\n").unwrap();
    let (ok, _, err) = run(&["stats", "--edges", dir.join("bad.txt").to_str().unwrap()]);
    assert!(!ok);
    assert!(
        err.contains("error:") && err.contains("line 2"),
        "stderr: {err}"
    );
    // An id past the u32 index space drives the *inferred* dimension out
    // of range — clean error, no builder assert.
    std::fs::write(dir.join("huge.txt"), "0 4294967296\n").unwrap();
    let (ok, _, err) = run(&["stats", "--edges", dir.join("huge.txt").to_str().unwrap()]);
    assert!(!ok);
    assert!(
        err.contains("error:") && err.contains("u32 index space"),
        "stderr: {err}"
    );
    assert!(!err.to_lowercase().contains("panic"), "stderr: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_prints_commands() {
    let (ok, out, _) = run(&["help"]);
    assert!(ok);
    let listed: Vec<&str> = out
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    for cmd in ["embed", "generate", "stats", "serve", "store"] {
        assert!(listed.contains(&cmd), "help missing {cmd}: {out}");
    }
    for cmd in ["topk", "index"] {
        assert!(!listed.contains(&cmd), "help lists {cmd}: {out}");
    }
}

#[test]
fn evaluate_and_convert_commands() {
    let dir = workdir("eval");
    let dir_s = dir.to_str().unwrap();
    run(&[
        "generate",
        "--zoo",
        "cora-like",
        "--scale",
        "0.06",
        "--seed",
        "3",
        "--out-dir",
        dir_s,
    ]);
    let edges = dir.join("edges.txt");
    let attrs = dir.join("attributes.txt");
    let labels = dir.join("labels.txt");

    // evaluate on the text graph
    let (ok, out, err) = run(&[
        "evaluate",
        "--edges",
        edges.to_str().unwrap(),
        "--attrs",
        attrs.to_str().unwrap(),
        "--labels",
        labels.to_str().unwrap(),
        "--dim",
        "16",
    ]);
    assert!(ok, "evaluate failed: {err}");
    assert!(out.contains("link prediction"), "evaluate output: {out}");
    assert!(out.contains("attribute inference"));

    // convert text -> binary and evaluate the binary
    let bin = dir.join("graph.bin");
    let (ok, _, err) = run(&[
        "convert",
        "--edges",
        edges.to_str().unwrap(),
        "--attrs",
        attrs.to_str().unwrap(),
        "--labels",
        labels.to_str().unwrap(),
        "--output",
        bin.to_str().unwrap(),
    ]);
    assert!(ok, "convert failed: {err}");
    assert!(bin.exists());
    let (ok, out, err) = run(&["evaluate", "--binary", bin.to_str().unwrap(), "--dim", "16"]);
    assert!(ok, "evaluate --binary failed: {err}");
    assert!(out.contains("micro-F1"), "binary evaluate output: {out}");

    // convert back to text
    let back = dir.join("back");
    let (ok, _, err) = run(&[
        "convert",
        "--binary",
        bin.to_str().unwrap(),
        "--output",
        back.to_str().unwrap(),
    ]);
    assert!(ok, "convert back failed: {err}");
    assert!(back.join("edges.txt").exists());

    std::fs::remove_dir_all(&dir).ok();
}

/// The graph container feeds the embed bit for bit: `embed --binary G`
/// on `convert`'s output writes the same bytes as `embed` on the text
/// triple it came from, undirected included (the bit rides in `G`).
#[test]
fn embed_from_the_graph_container_is_bit_identical() {
    let dir = workdir("embed_binary");
    let dir_s = dir.to_str().unwrap();
    let (ok, _, err) = run(&[
        "generate",
        "--zoo",
        "cora-like",
        "--scale",
        "0.06",
        "--seed",
        "5",
        "--out-dir",
        dir_s,
    ]);
    assert!(ok, "generate failed: {err}");
    let [edges, attrs, labels] =
        ["edges", "attributes", "labels"].map(|f| format!("{dir_s}/{f}.txt"));
    let text = ["--edges", &edges, "--attrs", &attrs, "--labels", &labels];
    let config = ["--dim", "16", "--seed", "3", "--threads", "2", "--output"];
    for undirected in [&[][..], &["--undirected"]] {
        let graph = format!("{dir_s}/graph.col");
        let (ok, _, err) =
            run(&[&["convert"], &text[..], undirected, &["--output", &graph]].concat());
        assert!(ok, "convert failed: {err}");
        let from_text = format!("{dir_s}/text.emb");
        let (ok, _, err) =
            run(&[&["embed"], &text[..], undirected, &config, &[&from_text]].concat());
        assert!(ok, "embed from text failed: {err}");
        let from_graph = format!("{dir_s}/graph.emb");
        let (ok, _, err) =
            run(&[&["embed", "--binary", &graph][..], &config, &[&from_graph]].concat());
        assert!(ok, "embed --binary failed: {err}");
        assert!(
            std::fs::read(&from_text).unwrap() == std::fs::read(&from_graph).unwrap(),
            "embeddings differ ({undirected:?})"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Generates a small graph, embeds it, and returns (workdir, embedding path).
fn serve_fixture(name: &str) -> (PathBuf, PathBuf) {
    let dir = workdir(name);
    let dir_s = dir.to_str().unwrap();
    run(&[
        "generate",
        "--zoo",
        "cora-like",
        "--scale",
        "0.05",
        "--seed",
        "6",
        "--out-dir",
        dir_s,
    ]);
    let emb = dir.join("emb.bin");
    let (ok, _, err) = run(&[
        "embed",
        "--edges",
        dir.join("edges.txt").to_str().unwrap(),
        "--attrs",
        dir.join("attributes.txt").to_str().unwrap(),
        "--dim",
        "16",
        "--output",
        emb.to_str().unwrap(),
    ]);
    assert!(ok, "embed failed: {err}");
    (dir, emb)
}

/// `pane store init` over `emb` into `dir/store` with the given index
/// flags; returns the store path for `pane serve --store`.
fn init_store(dir: &Path, emb: &Path, kind: &[&str]) -> String {
    let store = dir.join("store").to_str().unwrap().to_string();
    let init = [
        "store",
        "init",
        "--embedding",
        emb.to_str().unwrap(),
        "--dir",
        &store,
    ];
    let (ok, _, err) = run(&[&init[..], kind].concat());
    assert!(ok, "store init failed: {err}");
    store
}

#[test]
fn serve_stdio_session_with_insert_and_compact() {
    use std::io::Write;
    let (dir, emb) = serve_fixture("serve_stdio");
    let store = init_store(&dir, &emb, &["--kind", "hnsw"]);

    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_pane"))
        .args(["serve", "--store", &store, "--threads", "2", "--stdio"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn pane serve");

    // k/2 = 8 for --dim 16.
    let half = "[0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8]";
    let insert = format!(r#"{{"op":"insert","forward":{half},"backward":{half}}}"#);
    let script = format!(
        "{}\n{}\n{}\n{}\n{}\n{}\n",
        r#"{"op":"stats"}"#,
        r#"{"op":"similar-nodes","nodes":[0,1,2],"k":5}"#,
        insert,
        r#"{"op":"recommend-links","nodes":[0],"k":3,"exclude":[1]}"#,
        r#"{"op":"compact"}"#,
        r#"{"op":"shutdown"}"#,
    );
    child
        .stdin
        .take()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "serve exited nonzero: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 6, "one response per request: {stdout}");
    for l in &lines {
        assert!(l.contains("\"ok\":true"), "request failed: {l}");
    }
    // The insert got the next dense id (n for a 0.05-scale cora-like graph
    // is printed in stats; just check the id is echoed and compact folded 1).
    assert!(lines[2].contains("\"id\":"), "{}", lines[2]);
    assert!(lines[4].contains("\"folded\":1"), "{}", lines[4]);
    // Batched responses: three result arrays for three query nodes.
    assert!(lines[1].matches('[').count() >= 4, "{}", lines[1]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_tcp_daemon_shares_prebuilt_indexes() {
    use std::io::{BufRead, BufReader, Write};
    let (dir, emb) = serve_fixture("serve_tcp");

    // Build the index pair once; the daemon must serve it without rebuilding.
    let store = init_store(&dir, &emb, &["--kind", "ivf", "--lists", "8"]);

    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_pane"))
        .args(["serve", "--store", &store, "--listen", "127.0.0.1:0"])
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn pane serve");

    // The daemon prints "listening on <addr>" once bound.
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        assert!(
            stderr.read_line(&mut line).unwrap() > 0,
            "serve exited before binding"
        );
        if let Some(rest) = line.trim().strip_prefix("listening on ") {
            break rest.to_string();
        }
    };

    let mut conn = std::net::TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut ask = |req: &str| -> String {
        conn.write_all(req.as_bytes()).unwrap();
        conn.write_all(b"\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    };
    let resp = ask(r#"{"op":"similar-nodes","nodes":[0],"k":4}"#);
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let resp = ask(
        r#"{"op":"insert","forward":[0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8],"backward":[0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8]}"#,
    );
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let id: usize = resp
        .split("\"id\":")
        .nth(1)
        .and_then(|s| s.trim_end_matches(['}', '\n']).parse().ok())
        .expect("insert echoes the assigned id");
    // The inserted node is immediately queryable — no rebuild happened.
    let resp = ask(&format!(r#"{{"op":"similar-nodes","nodes":[{id}],"k":3}}"#));
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let resp = ask(r#"{"op":"stats"}"#);
    assert!(resp.contains("\"delta\":1"), "{resp}");
    let resp = ask(r#"{"op":"shutdown"}"#);
    assert!(resp.contains("\"ok\":true"), "{resp}");

    let status = child.wait().unwrap();
    assert!(status.success(), "daemon did not shut down cleanly");
    std::fs::remove_dir_all(&dir).ok();
}

/// The durable store lifecycle through the binary: init → serve with a
/// WAL-backed insert → hard stop (no shutdown, no snapshot) → restart
/// serves the insert → offline snapshot → restart boots generation 2
/// with an empty WAL. Also covers `store status`.
#[test]
fn store_lifecycle_survives_a_hard_stop() {
    use std::io::Write;
    let (dir, emb) = serve_fixture("store_cycle");
    let store = dir.join("store");
    let store_s = store.to_str().unwrap();

    let (ok, _, err) = run(&[
        "store",
        "init",
        "--embedding",
        emb.to_str().unwrap(),
        "--kind",
        "flat",
        "--dir",
        store_s,
    ]);
    assert!(ok, "store init failed: {err}");
    assert!(store.join("MANIFEST").exists());
    assert!(store.join("wal.log").exists());

    let (ok, out, err) = run(&["store", "status", "--dir", store_s]);
    assert!(ok, "store status failed: {err}");
    assert!(out.contains("generation 1"), "{out}");
    assert!(out.contains("wal records 0"), "{out}");

    // Refusing to clobber an existing store is a clean error.
    let (ok, _, err) = run(&[
        "store",
        "init",
        "--embedding",
        emb.to_str().unwrap(),
        "--dir",
        store_s,
    ]);
    assert!(!ok);
    assert!(err.contains("refusing"), "{err}");

    // Session 1: insert one node, then drop stdin WITHOUT a shutdown —
    // the daemon exits on EOF, and the WAL is the only record.
    let half = "[0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8]";
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_pane"))
        .args(["serve", "--store", store_s, "--stdio"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn pane serve");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(
            format!("{{\"op\":\"insert\",\"forward\":{half},\"backward\":{half}}}\n").as_bytes(),
        )
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"ok\":true"), "{stdout}");
    let id: usize = stdout
        .split("\"id\":")
        .nth(1)
        .and_then(|s| s.trim_end_matches(['}', '\n']).parse().ok())
        .expect("insert echoes the assigned id");

    let (ok, out, err) = run(&["store", "status", "--dir", store_s]);
    assert!(ok, "store status failed: {err}");
    assert!(out.contains("wal records 1"), "{out}");

    // Session 2: the acknowledged insert is replayed and queryable.
    let script = format!(
        "{{\"op\":\"stats\"}}\n{{\"op\":\"similar-nodes\",\"nodes\":[{id}],\"k\":3}}\n{{\"op\":\"shutdown\"}}\n"
    );
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_pane"))
        .args(["serve", "--store", store_s, "--stdio"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn pane serve");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    assert!(lines[0].contains("\"replayed\":1"), "{}", lines[0]);
    assert!(lines[0].contains("\"wal_records\":1"), "{}", lines[0]);
    assert!(lines[1].contains("\"ok\":true"), "{}", lines[1]);

    // Offline snapshot folds the WAL into generation 2.
    let (ok, _, err) = run(&["store", "snapshot", "--dir", store_s]);
    assert!(ok, "store snapshot failed: {err}");
    assert!(err.contains("generation 2"), "{err}");
    let (ok, out, _) = run(&["store", "status", "--dir", store_s]);
    assert!(ok);
    assert!(out.contains("generation 2"), "{out}");
    assert!(out.contains("wal records 0"), "{out}");

    std::fs::remove_dir_all(&dir).ok();
}

/// Sharded store through the binary: init --shards, status per shard,
/// serve --store over the sharded root.
#[test]
fn sharded_store_serves_through_the_binary() {
    use std::io::Write;
    let (dir, emb) = serve_fixture("store_sharded");
    let store = dir.join("shards");
    let store_s = store.to_str().unwrap();

    let (ok, _, err) = run(&[
        "store",
        "init",
        "--embedding",
        emb.to_str().unwrap(),
        "--kind",
        "flat",
        "--shards",
        "2",
        "--dir",
        store_s,
    ]);
    assert!(ok, "sharded init failed: {err}");
    assert!(store.join("shard-000").join("MANIFEST").exists());
    assert!(store.join("shard-001").join("MANIFEST").exists());

    let (ok, out, err) = run(&["store", "status", "--dir", store_s]);
    assert!(ok, "status failed: {err}");
    assert!(out.contains("sharded store: 2 shards"), "{out}");
    assert!(out.contains("shard 1"), "{out}");

    let script = concat!(
        "{\"op\":\"stats\"}\n",
        "{\"op\":\"similar-nodes\",\"nodes\":[0,1,2],\"k\":4}\n",
        "{\"op\":\"shutdown\"}\n",
    );
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_pane"))
        .args(["serve", "--store", store_s, "--threads", "2", "--stdio"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn pane serve");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    assert!(lines[0].contains("\"shards\":2"), "{}", lines[0]);
    for l in &lines {
        assert!(l.contains("\"ok\":true"), "{l}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The multi-daemon topology through the binary: one `pane serve`
/// daemon per shard directory behind `pane route --shards`, checked
/// against `pane serve --store` over the sharded root (the in-process
/// merge) for identical results.
#[test]
fn route_merges_shard_daemons_through_the_binary() {
    use std::io::{BufRead, BufReader, Write};
    let (dir, emb) = serve_fixture("route");
    let store = dir.join("shards");
    let store_s = store.to_str().unwrap();
    let (ok, _, err) = run(&[
        "store",
        "init",
        "--embedding",
        emb.to_str().unwrap(),
        "--kind",
        "flat",
        "--shards",
        "2",
        "--dir",
        store_s,
    ]);
    assert!(ok, "sharded init failed: {err}");

    let query = r#"{"op":"similar-nodes","nodes":[0,1,5],"k":4}"#;
    // Attribute inference over every node, against the exact query.
    let loaded = pane_core::load_columns(&emb).unwrap();
    let n = loaded.forward.rows();
    let all = (0..n).map(|v| v.to_string()).collect::<Vec<_>>().join(",");
    let attrs = format!(r#"{{"op":"top-attributes","nodes":[{all}],"k":6}}"#);
    let want_attrs = exact_attribute_bits(&loaded, 0..n, 6);
    // The merged result list, stripped of router-only response fields,
    // for comparing the two modes byte-for-byte.
    fn results_fragment(line: &str) -> String {
        line.split("\"results\":")
            .nth(1)
            .unwrap_or_else(|| panic!("no results in {line}"))
            .trim_end()
            .trim_end_matches('}')
            .trim_end_matches(",\"degraded\":false")
            .to_string()
    }

    // In-process mode first: it takes the store locks the shard daemons
    // will need, so this session must finish before they start.
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_pane"))
        .args(["serve", "--store", store_s, "--stdio"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn pane serve --store");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(format!("{query}\n{attrs}\n{{\"op\":\"shutdown\"}}\n").as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "serve --store failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut replies = stdout.lines();
    let inprocess = results_fragment(replies.next().expect("one response"));
    assert_eq!(
        attribute_bits(replies.next().expect("two responses")),
        want_attrs,
        "sharded top-attributes diverged from EmbeddingQuery::top_attributes"
    );

    // One daemon per shard directory.
    let spawn_daemon = |shard: &str| {
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_pane"))
            .args([
                "serve",
                "--store",
                store.join(shard).to_str().unwrap(),
                "--listen",
                "127.0.0.1:0",
            ])
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn shard daemon");
        let mut stderr = BufReader::new(child.stderr.take().unwrap());
        let addr = loop {
            let mut line = String::new();
            assert!(
                stderr.read_line(&mut line).unwrap() > 0,
                "shard daemon exited before binding"
            );
            if let Some(rest) = line.trim().strip_prefix("listening on ") {
                break rest.to_string();
            }
        };
        (child, addr)
    };
    let (mut shard0, addr0) = spawn_daemon("shard-000");
    let (mut shard1, addr1) = spawn_daemon("shard-001");

    let mut router = std::process::Command::new(env!("CARGO_BIN_EXE_pane"))
        .args([
            "route",
            "--shards",
            &format!("{addr0},{addr1}"),
            "--listen",
            "127.0.0.1:0",
        ])
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn pane route");
    let mut router_err = BufReader::new(router.stderr.take().unwrap());
    let router_addr = loop {
        let mut line = String::new();
        assert!(
            router_err.read_line(&mut line).unwrap() > 0,
            "router exited before binding"
        );
        if let Some(rest) = line.trim().strip_prefix("listening on ") {
            break rest.to_string();
        }
    };

    let mut conn = std::net::TcpStream::connect(&router_addr).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut ask = |req: &str| -> String {
        conn.write_all(req.as_bytes()).unwrap();
        conn.write_all(b"\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    };
    let stats = ask(r#"{"op":"stats"}"#);
    assert!(stats.contains("\"router\":true"), "{stats}");
    assert!(stats.contains("\"shards\":2"), "{stats}");
    assert!(stats.contains("\"degraded\":false"), "{stats}");
    assert!(stats.contains(&format!("\"nodes\":{n},")), "{stats}");

    let routed = ask(query);
    assert!(routed.contains("\"ok\":true"), "{routed}");
    assert_eq!(
        results_fragment(&routed),
        inprocess,
        "daemon-routed results diverged from the in-process merge"
    );
    assert_eq!(
        attribute_bits(&ask(&attrs)),
        want_attrs,
        "routed top-attributes diverged from EmbeddingQuery::top_attributes"
    );

    // An insert routes to its owner daemon and gets the next global id.
    let half = "[0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8]";
    let resp = ask(&format!(
        r#"{{"op":"insert","forward":{half},"backward":{half}}}"#
    ));
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert!(resp.contains(&format!("\"id\":{n}")), "{resp}");
    // Its owner answers attribute inference from the inserted rows.
    let mut grown = loaded.clone();
    let row: Vec<f64> = (1..=8).map(|i| i as f64 / 10.0).collect();
    grown.forward.push_row(&row);
    grown.backward.push_row(&row);
    let resp = ask(&format!(r#"{{"op":"top-attributes","nodes":[{n}],"k":6}}"#));
    assert_eq!(attribute_bits(&resp), exact_attribute_bits(&grown, [n], 6));

    let resp = ask(r#"{"op":"shutdown"}"#);
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert!(router.wait().unwrap().success(), "router exit");

    // Stop the shard daemons through their own protocol.
    for (child, addr) in [(&mut shard0, &addr0), (&mut shard1, &addr1)] {
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        conn.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        let mut line = String::new();
        BufReader::new(conn).read_line(&mut line).unwrap();
        assert!(child.wait().unwrap().success(), "shard daemon exit");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The observability surface through the binary: `pane serve` with
/// `--log-json` + `--slow-query-ms`, instrumented `stats`, and the
/// `pane metrics` scrape subcommand in both text and JSON forms.
#[test]
fn serve_metrics_scrape_and_structured_log() {
    use std::io::{BufRead, BufReader, Write};
    let (dir, emb) = serve_fixture("metrics");
    let log = dir.join("serve-log.jsonl");
    let store = init_store(&dir, &emb, &["--kind", "flat"]);

    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_pane"))
        .args([
            "serve",
            "--store",
            &store,
            "--listen",
            "127.0.0.1:0",
            "--log-json",
            log.to_str().unwrap(),
            "--log-level",
            "info",
            "--slow-query-ms",
            "0",
        ])
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn pane serve");
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        assert!(
            stderr.read_line(&mut line).unwrap() > 0,
            "serve exited before binding"
        );
        if let Some(rest) = line.trim().strip_prefix("listening on ") {
            break rest.to_string();
        }
    };

    let mut conn = std::net::TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut ask = |req: &str| -> String {
        conn.write_all(req.as_bytes()).unwrap();
        conn.write_all(b"\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    };
    let resp = ask(r#"{"op":"similar-nodes","nodes":[0,1],"k":3}"#);
    assert!(resp.contains("\"ok\":true"), "{resp}");
    // Instrumented stats: uptime and the running request total.
    let stats = ask(r#"{"op":"stats"}"#);
    assert!(stats.contains("\"uptime_secs\":"), "{stats}");
    assert!(stats.contains("\"requests_total\":1"), "{stats}");

    // Text scrape (the default): Prometheus exposition on stdout.
    let (ok, out, err) = run(&["metrics", "--addr", &addr]);
    assert!(ok, "pane metrics failed: {err}");
    assert!(
        out.contains(r#"pane_requests_total{op="similar-nodes"} 1"#),
        "scrape output: {out}"
    );
    assert!(out.contains("# TYPE pane_requests_total counter"), "{out}");
    assert!(out.contains("pane_request_seconds"), "{out}");

    // JSON scrape: one parseable object on stdout.
    let (ok, out, err) = run(&["metrics", "--addr", &addr, "--json"]);
    assert!(ok, "pane metrics --json failed: {err}");
    assert!(out.trim_start().starts_with('{'), "{out}");
    assert!(out.contains("\"counters\""), "{out}");
    assert!(out.contains("\"histograms\""), "{out}");

    let resp = ask(r#"{"op":"shutdown"}"#);
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert!(child.wait().unwrap().success());

    // The structured log recorded the boot event and the 0ms-threshold
    // slow-query entries, one JSON object per line.
    let logged = std::fs::read_to_string(&log).unwrap();
    assert!(
        logged.contains("\"event\":\"engine.boot\""),
        "log: {logged}"
    );
    assert!(logged.contains("\"event\":\"slow_query\""), "log: {logged}");
    for line in logged.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "log line: {line}"
        );
    }

    // Scraping a daemon that is gone is a clean error.
    let (ok, _, err) = run(&["metrics", "--addr", &addr, "--connect-timeout-ms", "200"]);
    assert!(!ok);
    assert!(err.contains("error:"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
