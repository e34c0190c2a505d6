//! Numbers the documentation quotes from `results/` stay true: in
//! README.md, EXPERIMENTS.md, every page under `docs/` and the `//!`
//! module docs of the root tests.
//!
//! A quoted number is followed, on the same line, by a marker comment
//! that names its source file and a verbatim fragment of the source
//! line:
//!
//! ```text
//! average **4.86 %**<!-- results/fig7.txt: "# average SEMSIM error: 4.86%" -->
//! ```
//!
//! The quoted number is the last number in the text between the
//! previous marker on the line (or the line start) and this marker, as
//! written. The test fails when the fragment is no longer a substring
//! of any line of the named file, or when the quoted number is not one
//! of the fragment's numbers, character for character. A re-baselined
//! results file therefore fails here until its prose is updated.

use std::path::{Path, PathBuf};

/// Documents that quote `results/`: the two top-level reports, every
/// page under `docs/` and every root test file.
fn documents(root: &Path) -> Vec<PathBuf> {
    let mut docs = vec![root.join("README.md"), root.join("EXPERIMENTS.md")];
    for (dir, extension) in [("docs", "md"), ("tests", "rs")] {
        let mut pages: Vec<PathBuf> = std::fs::read_dir(root.join(dir))
            .unwrap_or_else(|e| panic!("{dir}/ is not readable: {e}"))
            .map(|e| e.expect("directory entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == extension))
            .collect();
        pages.sort();
        docs.extend(pages);
    }
    docs
}

/// The text of `doc` that quotes: all of a Markdown page, and of a Rust
/// file the `//!` lines outside code blocks (other lines are blanked,
/// so line numbers still match).
fn quoting_text(doc: &Path) -> String {
    let text = std::fs::read_to_string(doc).expect("document is readable");
    if doc.extension().is_none_or(|x| x != "rs") {
        return text;
    }
    let mut in_code = false;
    text.lines()
        .map(|l| {
            let Some(doc_line) = l.trim_start().strip_prefix("//!") else {
                return "";
            };
            if doc_line.trim_start().starts_with("```") {
                in_code = !in_code;
                return "";
            }
            if in_code {
                ""
            } else {
                doc_line
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// One marker: where it sits, what it points at, what it quotes.
#[derive(Debug)]
struct Marker {
    line: usize,
    file: String,
    fragment: String,
    quoted: Option<String>,
}

/// Every `results/` marker in `text`, in order. Other HTML comments are
/// not markers.
fn markers(text: &str) -> Vec<Marker> {
    let mut out = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let mut prose_start = 0;
        let mut rest = 0;
        while let Some(open) = line[rest..].find("<!--").map(|i| rest + i) {
            let close = line[open..]
                .find("-->")
                .map(|i| open + i)
                .unwrap_or_else(|| panic!("line {}: unterminated comment", n + 1));
            rest = close + 3;
            let body = line[open + 4..close].trim();
            if !body.starts_with("results/") {
                continue;
            }
            let (file, quoted_fragment) = body
                .split_once(": \"")
                .unwrap_or_else(|| panic!("line {}: marker needs `FILE: \"FRAGMENT\"`", n + 1));
            let fragment = quoted_fragment
                .strip_suffix('"')
                .unwrap_or_else(|| panic!("line {}: marker fragment must end in `\"`", n + 1));
            out.push(Marker {
                line: n + 1,
                file: file.to_string(),
                fragment: fragment.to_string(),
                quoted: numbers(&line[prose_start..open]).pop(),
            });
            prose_start = rest;
        }
    }
    out
}

/// The number tokens of `s`, as written: digits with at most one
/// decimal point and an optional exponent (`1.0640e-7`).
fn numbers(s: &str) -> Vec<String> {
    let b = s.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if !b[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        let start = i;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
        if i + 1 < b.len() && b[i] == b'.' && b[i + 1].is_ascii_digit() {
            i += 1;
            while i < b.len() && b[i].is_ascii_digit() {
                i += 1;
            }
        }
        if i < b.len() && (b[i] == b'e' || b[i] == b'E') {
            let mut j = i + 1;
            if j < b.len() && (b[j] == b'-' || b[j] == b'+') {
                j += 1;
            }
            if j < b.len() && b[j].is_ascii_digit() {
                while j < b.len() && b[j].is_ascii_digit() {
                    j += 1;
                }
                i = j;
            }
        }
        out.push(s[start..i].to_string());
    }
    out
}

/// Why `m` does not hold against the repository at `root`, if it
/// does not.
fn violation(root: &Path, m: &Marker) -> Option<String> {
    let source = match std::fs::read_to_string(root.join(&m.file)) {
        Ok(s) => s,
        Err(e) => return Some(format!("cannot read {}: {e}", m.file)),
    };
    if !source.lines().any(|l| l.contains(&m.fragment)) {
        return Some(format!("{:?} is no longer in {}", m.fragment, m.file));
    }
    let Some(quoted) = &m.quoted else {
        return Some("no quoted number before the marker".to_string());
    };
    if !numbers(&m.fragment).contains(quoted) {
        return Some(format!("quotes {quoted}, but {:?} does not", m.fragment));
    }
    None
}

#[test]
fn quoted_numbers_match_their_results_files() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut failures = Vec::new();
    for doc in documents(root) {
        for m in markers(&quoting_text(&doc)) {
            if let Some(why) = violation(root, &m) {
                failures.push(format!("{}:{}: {why}", doc.display(), m.line));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn the_headline_documents_carry_markers() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for doc in ["README.md", "EXPERIMENTS.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect("document is readable");
        assert!(
            markers(&text).iter().any(|m| m.file == "results/fig7.txt"),
            "{doc} quotes Fig. 7 without a results/fig7.txt marker"
        );
    }
}

#[test]
fn a_drifted_quote_or_fragment_is_caught() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let line = |s: &str| markers(s).pop().expect("one marker");
    let fig7 = std::fs::read_to_string(root.join("results/fig7.txt")).expect("fig7 is readable");
    let average = fig7
        .lines()
        .find(|l| l.starts_with("# average SEMSIM error:"))
        .expect("fig7 reports an average");
    let quoted = numbers(average).into_iter().next().expect("a number");
    let good = line(&format!(
        "average {quoted} %<!-- results/fig7.txt: \"{average}\" -->"
    ));
    assert_eq!(violation(root, &good), None);
    let stale = line(&format!(
        "average 99.99 %<!-- results/fig7.txt: \"{average}\" -->"
    ));
    assert!(violation(root, &stale).is_some());
    let gone = line("average 4.86 %<!-- results/fig7.txt: \"# average SEMSIM error: 99.99%\" -->");
    assert!(violation(root, &gone).is_some());
    // Each marker quotes only the text since the previous one.
    let range = markers(&format!(
        "1.5<!-- results/fig7.txt: \"{average}\" -->–{quoted} %<!-- results/fig7.txt: \"{average}\" -->"
    ));
    assert_eq!(range[0].quoted.as_deref(), Some("1.5"));
    assert_eq!(range[1].quoted.as_deref(), Some(quoted.as_str()));
    assert_eq!(numbers("1.0640e-7 s, 74LS47"), ["1.0640e-7", "74", "47"]);
}

#[test]
fn rust_module_docs_are_scanned() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = root.join("tests/figures_regression.rs");
    assert!(documents(root).contains(&doc));
    let text = quoting_text(&doc);
    assert!(
        markers(&text).iter().any(|m| m.file == "results/fig7.txt"),
        "the Fig. 7 quote in {} is not marked",
        doc.display()
    );
    // Only `//!` lines count: a marker in code or a `///` comment does not.
    assert!(!text.contains("fn "));
}
