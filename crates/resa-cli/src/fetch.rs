//! `resa fetch` — import archive traces into the checksum-pinned cache.
//!
//! Real SWF archives are distributed as large (often gzipped) logs. `fetch`
//! copies one into the local trace cache and records its SHA-256, so every
//! other subcommand can name it symbolically and reproducibly as
//! `trace:<name>` (optionally `trace:<name>@sha256:<hex>`, which re-verifies
//! the bytes at resolve time). The build environment is offline by design:
//! there is no URL downloader, and a missing cache entry degrades to an
//! error naming the exact `resa fetch` invocation that would populate it.

use crate::opts::{Command, CommonOpts, Switch, Text};
use crate::{CliError, Outcome};
use resa_analysis::prelude::{to_json, Column, Table};
use resa_workloads::prelude::{StoreError, TraceStore};
use serde::Serialize;
use std::path::PathBuf;

/// Help text for `resa fetch --help`.
pub const FETCH_HELP: &str = "\
resa fetch — import a trace into the checksum-pinned local cache

USAGE:
    resa fetch <name> --from <file> [--sha256 <hex>]
    resa fetch --list

    After a fetch, every subcommand accepting a trace can name it as
    `trace:<name>` or, pinned, `trace:<name>@sha256:<hex>` (the digest is
    re-verified against the cached bytes at resolve time).

OPTIONS:
    --from <file>         the file to import (plain or gzipped SWF)
    --sha256 <hex>        expected SHA-256 of the file; the import fails on a
                          mismatch (omitted: trust on first use, the digest
                          is recorded either way)
    --list                list the cached traces instead of importing
    --cache <dir>         cache directory to use
                          [default: $RESA_TRACE_CACHE, else ~/.cache/resa/traces]

plus the common options: --format --out
";

/// One cached trace, as listed by `resa fetch --list`.
#[derive(Debug, Clone, Serialize)]
struct FetchRow {
    name: String,
    sha256: String,
    size: u64,
}

/// The columns of `resa fetch --list`.
const FETCH_COLUMNS: [Column<FetchRow>; 3] = [
    ("name", |r| r.name.clone()),
    ("sha256", |r| r.sha256.clone()),
    ("size", |r| r.size.to_string()),
];

/// Map a store failure onto the CLI error taxonomy.
fn store_error(context: &str, err: StoreError) -> CliError {
    match err {
        StoreError::BadRef { .. } => CliError::Usage(err.to_string()),
        StoreError::Io(e) => CliError::io(context, e),
        StoreError::NotCached { .. } | StoreError::ChecksumMismatch { .. } => {
            CliError::Parse(err.to_string())
        }
    }
}

/// `resa fetch`'s option table.
pub(crate) const FETCH: Command<FetchArgs> = Command {
    help: FETCH_HELP,
    page: Some("fetch"),
    positional: Some(|a, name| a.name = Some(name.to_string())),
    missing: None,
    flags: &[
        Text("--from <file>", |a| &mut a.from),
        Text("--sha256 <hex>", |a| &mut a.sha256),
        Switch("--list", |a| &mut a.list),
        Text("--cache <dir>", |a| &mut a.cache),
    ],
};

/// `resa fetch`'s arguments.
#[derive(Default)]
pub(crate) struct FetchArgs {
    name: Option<String>,
    from: Option<String>,
    sha256: Option<String>,
    list: bool,
    cache: Option<String>,
}

/// `resa fetch <name> --from <file> [--sha256 <hex>]` / `resa fetch --list`.
pub fn run(args: &[&str]) -> Result<Outcome, CliError> {
    FETCH.run(args, fetch)
}

fn fetch(a: FetchArgs, opts: CommonOpts) -> Result<Outcome, CliError> {
    let store = match &a.cache {
        Some(dir) => TraceStore::at(PathBuf::from(dir)),
        None => TraceStore::open_default(),
    };

    if a.list {
        if a.name.is_some() || a.from.is_some() || a.sha256.is_some() {
            return Err(CliError::Usage(
                "--list takes no trace name or import options".into(),
            ));
        }
        let rows: Vec<FetchRow> = store
            .list()
            .map_err(|e| store_error(&store.root().display().to_string(), e))?
            .into_iter()
            .map(|t| FetchRow {
                name: t.name,
                sha256: t.sha256,
                size: t.size,
            })
            .collect();
        let title = format!("cached traces ({})", store.root().display());
        let table = Table::of(title, &FETCH_COLUMNS, &rows);
        return opts.emit(&to_json(&rows), &table, "", 0);
    }

    let name = a.name.as_deref().ok_or_else(|| {
        CliError::Usage("fetch expects a trace name (or --list); see `resa fetch --help`".into())
    })?;
    let from = a
        .from
        .ok_or_else(|| CliError::Usage(format!("fetch {name} needs --from <file> to import")))?;
    let digest = store
        .import(name, std::path::Path::new(&from), a.sha256.as_deref())
        .map_err(|e| store_error(&from, e))?;
    Ok(Outcome::printed(format!(
        "fetched '{name}' into {} (sha256:{digest})\n\
         replay it with: resa replay trace:{name}@sha256:{digest}\n",
        store.root().display()
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_cache(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("resa-fetch-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn import_list_and_pin_roundtrip() {
        let cache = temp_cache("roundtrip");
        let cache_arg = cache.display().to_string();
        let src = cache.with_extension("src.swf");
        std::fs::write(&src, "; MaxProcs: 4\n1 0 5 2\n").unwrap();
        let src_arg = src.display().to_string();

        let out =
            crate::run(&["fetch", "tiny", "--from", &src_arg, "--cache", &cache_arg]).unwrap();
        assert!(out.stdout.contains("fetched 'tiny'"), "{}", out.stdout);
        assert!(out.stdout.contains("trace:tiny@sha256:"), "{}", out.stdout);

        // Re-import pinned to the digest the first import reported.
        let digest: String = out.stdout.split("sha256:").nth(1).unwrap()[..64].to_string();
        crate::run(&[
            "fetch", "tiny", "--from", &src_arg, "--sha256", &digest, "--cache", &cache_arg,
        ])
        .unwrap();

        // A wrong pin is fatal.
        let wrong = "0".repeat(64);
        let err = crate::run(&[
            "fetch", "tiny", "--from", &src_arg, "--sha256", &wrong, "--cache", &cache_arg,
        ])
        .unwrap_err();
        assert!(matches!(err, CliError::Parse(_)), "{err:?}");

        // The listing carries the recorded digest in every format.
        let listed =
            crate::run(&["fetch", "--list", "--cache", &cache_arg, "--format", "json"]).unwrap();
        assert!(
            listed.stdout.contains("\"name\": \"tiny\""),
            "{}",
            listed.stdout
        );
        assert!(listed.stdout.contains(&digest), "{}", listed.stdout);
        let table = crate::run(&["fetch", "--list", "--cache", &cache_arg]).unwrap();
        assert!(table.stdout.contains("tiny"), "{}", table.stdout);

        std::fs::remove_dir_all(&cache).ok();
        std::fs::remove_file(&src).ok();
    }

    #[test]
    fn usage_errors() {
        let cache = temp_cache("usage");
        let cache_arg = cache.display().to_string();
        assert!(matches!(crate::run(&["fetch"]), Err(CliError::Usage(_))));
        assert!(matches!(
            crate::run(&["fetch", "x", "--cache", &cache_arg]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            crate::run(&["fetch", "x", "--list", "--cache", &cache_arg]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            crate::run(&["fetch", "../escape", "--from", "f", "--cache", &cache_arg]),
            Err(CliError::Usage(_))
        ));
        assert!(crate::run(&["fetch", "--help"])
            .unwrap()
            .stdout
            .contains("USAGE"));
        std::fs::remove_dir_all(&cache).ok();
    }
}
