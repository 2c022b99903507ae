//! Stale citations are a red test in the PR that causes them.
//!
//! The prose documents cite source by path and by line — `` `file.rs` ``,
//! `` `dir/file.rs:N` ``, `` `file.rs:N-M` `` — and every refactor moves
//! what they point at. This test extracts each such citation from
//! `docs/GUIDE.md`, `crates/README.md`, `README.md` and the *Open items* of
//! `ROADMAP.md` and fails on a path that does not exist, a bare file name
//! that names no file or several, or a line past the end of its file.
//! (`benchmark/README.md` is not read: only a `[benchmark]` PR may fix it.)

use std::path::{Path, PathBuf};

/// Where a cited path may live; bare file names are looked up in the first
/// three only.
const SOURCE_DIRS: [&str; 5] = ["crates", "src", "tests", "benchmark", "examples"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" && name != "vendor" {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The inline code spans of a markdown text, fenced blocks skipped.
fn code_spans(text: &str) -> Vec<&str> {
    let mut spans = Vec::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            spans.extend(line.split('`').skip(1).step_by(2));
        }
    }
    spans
}

/// `path.rs`, `path.rs:N` or `path.rs:N-M` as `(path, cited lines)`; `None`
/// for any other span.
fn citation(span: &str) -> Option<(&str, Option<(usize, usize)>)> {
    let (path, lines) = match span.split_once(':') {
        Some((path, lines)) => (path, Some(lines)),
        None => (span, None),
    };
    let path_like = |c: char| c.is_ascii_alphanumeric() || "_./{},-".contains(c);
    if !path.ends_with(".rs") || !path.chars().all(path_like) {
        return None;
    }
    let range = match lines {
        None => None,
        Some(lines) => {
            let (from, to) = lines.split_once('-').unwrap_or((lines, lines));
            Some((from.parse().ok()?, to.parse().ok()?))
        }
    };
    Some((path, range))
}

/// `a/{b,c}.rs` as `a/b.rs`, `a/c.rs`.
fn expand(path: &str) -> Vec<String> {
    match (path.find('{'), path.find('}')) {
        (Some(open), Some(close)) if open < close => path[open + 1..close]
            .split(',')
            .map(|alt| format!("{}{alt}{}", &path[..open], &path[close + 1..]))
            .collect(),
        _ => vec![path.to_string()],
    }
}

#[test]
fn cited_paths_exist_and_cited_lines_are_inside_their_files() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    for dir in SOURCE_DIRS {
        rust_files(&root.join(dir), &mut sources);
    }
    let sources: Vec<&Path> = sources
        .iter()
        .map(|p| p.strip_prefix(root).expect("walked from the root"))
        .collect();

    let read = |doc: &str| std::fs::read_to_string(root.join(doc)).expect(doc);
    let roadmap = read("ROADMAP.md");
    let open_items = roadmap
        .split_once("\n## Open items")
        .expect("ROADMAP.md has an Open items section")
        .1;
    let open_items = open_items.split("\n## ").next().unwrap_or(open_items);
    let docs = [
        ("docs/GUIDE.md", read("docs/GUIDE.md")),
        ("crates/README.md", read("crates/README.md")),
        ("README.md", read("README.md")),
        ("ROADMAP.md (Open items)", open_items.to_string()),
    ];

    let mut stale = Vec::new();
    let mut checked = 0;
    for (doc, text) in &docs {
        for span in code_spans(text) {
            let Some((cited, range)) = citation(span) else {
                continue;
            };
            for path in expand(cited) {
                checked += 1;
                let hits: Vec<&Path> = if root.join(&path).is_file() {
                    vec![Path::new(&path)]
                } else if path.contains('/') {
                    let matches = |p: &&&Path| p.ends_with(&path);
                    sources.iter().filter(matches).copied().collect()
                } else {
                    let named = |p: &&&Path| {
                        p.file_name().is_some_and(|n| n == path.as_str())
                            && SOURCE_DIRS[..3].iter().any(|dir| p.starts_with(dir))
                    };
                    sources.iter().filter(named).copied().collect()
                };
                let [file] = hits[..] else {
                    stale.push(format!("{doc}: `{span}`: {} files match", hits.len()));
                    continue;
                };
                let Some((from, to)) = range else { continue };
                let len = std::fs::read_to_string(root.join(file))
                    .expect("a source file is text")
                    .lines()
                    .count();
                if from == 0 || to < from || to > len {
                    stale.push(format!(
                        "{doc}: `{span}`: {} has {len} lines",
                        file.display()
                    ));
                }
            }
        }
    }
    assert!(
        checked > 50,
        "the extraction found only {checked} citations"
    );
    assert!(stale.is_empty(), "stale citations:\n{}", stale.join("\n"));
}

#[test]
fn citation_syntax() {
    assert_eq!(citation("service.rs"), Some(("service.rs", None)));
    assert_eq!(
        citation("resa-sim/src/op.rs:12-40"),
        Some(("resa-sim/src/op.rs", Some((12, 40))))
    );
    assert_eq!(citation("time.rs:7"), Some(("time.rs", Some((7, 7)))));
    assert_eq!(citation("cargo test --test x.rs"), None);
    assert_eq!(citation("service.rs:apply"), None);
    assert_eq!(expand("a/{b,c}.rs"), ["a/b.rs", "a/c.rs"]);
    assert_eq!(code_spans("x `a` y `b`\n```\n`c`\n```\n"), ["a", "b"]);
}
