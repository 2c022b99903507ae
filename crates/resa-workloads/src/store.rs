//! Checksum-pinned on-disk cache for archive traces.
//!
//! Real SWF archives (CTC, SDSC, KTH, …) are distributed as large gzipped
//! logs. This module gives the CLI a `trace:` reference scheme backed by a
//! local cache directory, so replays and sweeps name traces symbolically and
//! reproducibly:
//!
//! * `resa fetch <name> --from <path> [--sha256 <hex>]` imports a file into
//!   the cache (`$RESA_TRACE_CACHE`, defaulting to `~/.cache/resa/traces`),
//!   records its SHA-256 and size in a `.meta` sidecar, and verifies any
//!   pinned digest on the way in.
//! * A workload/trace argument of the form `trace:<name>` (optionally
//!   `trace:<name>@sha256:<hex>`) resolves through [`TraceStore::resolve`].
//!   A pinned digest is re-verified against the cached bytes at resolve
//!   time, so a corrupted or swapped cache entry fails loudly instead of
//!   silently changing the experiment.
//!
//! The container building this workspace is offline, so there is no URL
//! fetcher: "degrading gracefully to the cache" means a missing entry
//! reports [`StoreError::NotCached`] with the exact `resa fetch` invocation
//! that would populate it, and everything already cached keeps working.
//!
//! The SHA-256 implementation is vendored (FIPS 180-4, ~40 lines) for the
//! same reason the inflater in [`crate::gzip`] is: no new dependencies.

use resa_core::io::{atomic_write, stage};
use std::fmt;
use std::io::Read;
use std::path::{Path, PathBuf};

/// SHA-256 of `data`, as 32 bytes.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut s = Sha256Stream::new();
    s.update(data);
    s.finish()
}

/// SHA-256 of a file, streamed in 64 KiB chunks, as a lowercase hex string.
pub fn sha256_file(path: &Path) -> std::io::Result<String> {
    let mut hasher = Sha256Stream::new();
    let mut file = std::fs::File::open(path)?;
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            break;
        }
        hasher.update(&buf[..n]);
    }
    Ok(to_hex(&hasher.finish()))
}

/// Incremental SHA-256 (same core as [`sha256`], block-buffered).
struct Sha256Stream {
    tail: Vec<u8>,
    len: u64,
    h: [u32; 8],
}

impl Sha256Stream {
    fn new() -> Self {
        Sha256Stream {
            tail: Vec::new(),
            len: 0,
            h: [
                0x6a09_e667,
                0xbb67_ae85,
                0x3c6e_f372,
                0xa54f_f53a,
                0x510e_527f,
                0x9b05_688c,
                0x1f83_d9ab,
                0x5be0_cd19,
            ],
        }
    }

    fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        self.tail.extend_from_slice(data);
        let full = self.tail.len() / 64 * 64;
        if full > 0 {
            let (blocks, rest) = self.tail.split_at(full);
            compress(&mut self.h, blocks);
            self.tail = rest.to_vec();
        }
    }

    fn finish(mut self) -> [u8; 32] {
        let bitlen = self.len.wrapping_mul(8);
        self.tail.push(0x80);
        while self.tail.len() % 64 != 56 {
            self.tail.push(0);
        }
        self.tail.extend_from_slice(&bitlen.to_be_bytes());
        let tail = std::mem::take(&mut self.tail);
        compress(&mut self.h, &tail);
        let mut out = [0u8; 32];
        for (i, word) in self.h.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// SHA-256 compression over whole 64-byte blocks.
fn compress(h: &mut [u32; 8], blocks: &[u8]) {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];
    let mut w = [0u32; 64];
    for block in blocks.chunks_exact(64) {
        for (t, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes(block[4 * t..4 * t + 4].try_into().unwrap());
        }
        for t in 16..64 {
            let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
            let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
            w[t] = w[t - 16]
                .wrapping_add(s0)
                .wrapping_add(w[t - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
        for t in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[t])
                .wrapping_add(w[t]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        h[0] = h[0].wrapping_add(a);
        h[1] = h[1].wrapping_add(b);
        h[2] = h[2].wrapping_add(c);
        h[3] = h[3].wrapping_add(d);
        h[4] = h[4].wrapping_add(e);
        h[5] = h[5].wrapping_add(f);
        h[6] = h[6].wrapping_add(g);
        h[7] = h[7].wrapping_add(hh);
    }
}

/// Lowercase hex encoding.
pub fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Errors from the trace store.
#[derive(Debug)]
pub enum StoreError {
    /// A `trace:` reference or trace name is syntactically invalid.
    BadRef {
        /// The offending reference text.
        reference: String,
        /// Why it was rejected.
        reason: String,
    },
    /// The named trace is not in the cache (offline degradation: the error
    /// names the `resa fetch` command that would populate it).
    NotCached {
        /// The trace name that was looked up.
        name: String,
        /// The cache directory that was searched.
        cache: PathBuf,
    },
    /// The cached (or imported) bytes do not match the pinned digest.
    ChecksumMismatch {
        /// The trace name.
        name: String,
        /// The digest the reference pinned.
        expected: String,
        /// The digest actually computed over the bytes.
        actual: String,
    },
    /// Filesystem failure underneath the cache.
    Io(std::io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::BadRef { reference, reason } => {
                write!(f, "invalid trace reference '{reference}': {reason}")
            }
            StoreError::NotCached { name, cache } => write!(
                f,
                "trace '{name}' is not cached under {}; fetch it first with \
                 `resa fetch {name} --from <file>` (offline runs degrade to \
                 the cache, they never download)",
                cache.display()
            ),
            StoreError::ChecksumMismatch {
                name,
                expected,
                actual,
            } => write!(
                f,
                "trace '{name}' failed its checksum pin: expected sha256:{expected}, \
                 got sha256:{actual}"
            ),
            StoreError::Io(err) => write!(f, "trace cache I/O error: {err}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(err: std::io::Error) -> Self {
        StoreError::Io(err)
    }
}

/// A parsed `trace:<name>[@sha256:<hex>]` reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRef {
    /// Cache entry name (sanitized: `[A-Za-z0-9._-]`, no leading dot).
    pub name: String,
    /// Pinned SHA-256 digest (lowercase hex), if the reference carries one.
    pub sha256: Option<String>,
}

impl TraceRef {
    /// Whether `text` uses the `trace:` scheme at all.
    pub fn is_trace_ref(text: &str) -> bool {
        text.starts_with("trace:")
    }

    /// Parse a `trace:<name>[@sha256:<hex>]` reference.
    pub fn parse(text: &str) -> Result<TraceRef, StoreError> {
        let bad = |reason: &str| StoreError::BadRef {
            reference: text.to_string(),
            reason: reason.to_string(),
        };
        let rest = text
            .strip_prefix("trace:")
            .ok_or_else(|| bad("expected the 'trace:' scheme"))?;
        let (name, pin) = match rest.split_once('@') {
            Some((name, pin)) => (name, Some(pin)),
            None => (rest, None),
        };
        validate_name(name).map_err(|reason| bad(&reason))?;
        let sha256 = match pin {
            None => None,
            Some(pin) => {
                let hex = pin
                    .strip_prefix("sha256:")
                    .ok_or_else(|| bad("pin must use the form @sha256:<64 hex digits>"))?;
                if hex.len() != 64 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                    return Err(bad("pin must be 64 hex digits"));
                }
                Some(hex.to_ascii_lowercase())
            }
        };
        Ok(TraceRef {
            name: name.to_string(),
            sha256,
        })
    }
}

/// Reject names that could escape the cache directory or collide with the
/// sidecar convention.
fn validate_name(name: &str) -> Result<(), String> {
    if name.is_empty() {
        return Err("trace name is empty".to_string());
    }
    if name.starts_with('.') {
        return Err("trace name must not start with '.'".to_string());
    }
    if !name
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
    {
        return Err("trace name may only contain [A-Za-z0-9._-]".to_string());
    }
    if name.ends_with(".meta") {
        return Err("trace name must not end with '.meta'".to_string());
    }
    Ok(())
}

/// A cached trace as reported by [`TraceStore::list`].
#[derive(Debug, Clone)]
pub struct CachedTrace {
    /// Entry name (use as `trace:<name>`).
    pub name: String,
    /// Recorded SHA-256 (lowercase hex).
    pub sha256: String,
    /// File size in bytes.
    pub size: u64,
}

/// The on-disk trace cache.
pub struct TraceStore {
    root: PathBuf,
}

impl TraceStore {
    /// Open the cache at an explicit directory (created lazily on import).
    pub fn at(root: PathBuf) -> TraceStore {
        TraceStore { root }
    }

    /// Open the default cache: `$RESA_TRACE_CACHE` if set, else
    /// `$HOME/.cache/resa/traces`, else `./.resa-trace-cache` as a last
    /// resort for HOME-less environments (CI sandboxes).
    pub fn open_default() -> TraceStore {
        let root = std::env::var_os("RESA_TRACE_CACHE")
            .map(PathBuf::from)
            .or_else(|| {
                std::env::var_os("HOME").map(|home| {
                    PathBuf::from(home)
                        .join(".cache")
                        .join("resa")
                        .join("traces")
                })
            })
            .unwrap_or_else(|| PathBuf::from(".resa-trace-cache"));
        TraceStore { root }
    }

    /// The cache directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn entry_path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    fn meta_path(&self, name: &str) -> PathBuf {
        self.root.join(format!("{name}.meta"))
    }

    /// Import `from` into the cache under `name`, verifying `expected_sha`
    /// (lowercase hex) when given — trust-on-first-use otherwise. Returns
    /// the digest recorded in the sidecar.
    ///
    /// The copy is staged and synced under a hidden temporary name, the
    /// sidecar is replaced atomically, and the payload is renamed into
    /// place last: a crash or an error at any step leaves the entry's
    /// previous payload whole, never a torn copy under a valid name.
    pub fn import(
        &self,
        name: &str,
        from: &Path,
        expected_sha: Option<&str>,
    ) -> Result<String, StoreError> {
        validate_name(name).map_err(|reason| StoreError::BadRef {
            reference: name.to_string(),
            reason,
        })?;
        let actual = sha256_file(from)?;
        if let Some(expected) = expected_sha {
            let expected = expected.to_ascii_lowercase();
            if expected != actual {
                return Err(StoreError::ChecksumMismatch {
                    name: name.to_string(),
                    expected,
                    actual,
                });
            }
        }
        std::fs::create_dir_all(&self.root)?;
        let mut size = 0;
        let payload = stage(&self.entry_path(name), |tmp| {
            size = std::io::copy(&mut std::fs::File::open(from)?, tmp)?;
            Ok(())
        })?;
        let sidecar = format!("sha256 {actual}\nsize {size}\n");
        if let Err(err) = atomic_write(&self.meta_path(name), sidecar.as_bytes()) {
            let _ = std::fs::remove_file(payload.tmp_path());
            return Err(err.into());
        }
        payload.commit()?;
        Ok(actual)
    }

    /// Resolve a parsed reference to the cached file path, re-verifying the
    /// pin (if any) against the actual cached bytes.
    pub fn resolve(&self, r: &TraceRef) -> Result<PathBuf, StoreError> {
        let path = self.entry_path(&r.name);
        if !path.is_file() {
            return Err(StoreError::NotCached {
                name: r.name.clone(),
                cache: self.root.clone(),
            });
        }
        if let Some(expected) = &r.sha256 {
            let actual = sha256_file(&path)?;
            if &actual != expected {
                return Err(StoreError::ChecksumMismatch {
                    name: r.name.clone(),
                    expected: expected.clone(),
                    actual,
                });
            }
        }
        Ok(path)
    }

    /// Parse and resolve a `trace:` reference in one step.
    pub fn resolve_ref(&self, reference: &str) -> Result<PathBuf, StoreError> {
        self.resolve(&TraceRef::parse(reference)?)
    }

    /// Enumerate cached traces (sorted by name).
    pub fn list(&self) -> Result<Vec<CachedTrace>, StoreError> {
        let mut out = Vec::new();
        let entries = match std::fs::read_dir(&self.root) {
            Ok(entries) => entries,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(out),
            Err(err) => return Err(err.into()),
        };
        for entry in entries {
            let entry = entry?;
            let file_name = entry.file_name();
            let name = match file_name.to_str() {
                Some(name) if !name.ends_with(".meta") && validate_name(name).is_ok() => name,
                _ => continue,
            };
            let meta = std::fs::read_to_string(self.meta_path(name)).unwrap_or_default();
            let mut sha = String::new();
            let mut size = entry.metadata()?.len();
            for line in meta.lines() {
                if let Some(rest) = line.strip_prefix("sha256 ") {
                    sha = rest.trim().to_string();
                } else if let Some(rest) = line.strip_prefix("size ") {
                    size = rest.trim().parse().unwrap_or(size);
                }
            }
            out.push(CachedTrace {
                name: name.to_string(),
                sha256: sha,
                size,
            });
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> TraceStore {
        let dir = std::env::temp_dir().join(format!(
            "resa-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        TraceStore::at(dir)
    }

    #[test]
    fn sha256_known_vectors() {
        // FIPS 180-4 test vectors.
        assert_eq!(
            to_hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            to_hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        // Incremental matches one-shot on a multi-block input.
        let data = vec![0x5Au8; 200_000];
        let mut s = Sha256Stream::new();
        for chunk in data.chunks(777) {
            s.update(chunk);
        }
        assert_eq!(s.finish(), sha256(&data));
    }

    #[test]
    fn ref_parsing() {
        assert_eq!(
            TraceRef::parse("trace:ctc-sp2").unwrap(),
            TraceRef {
                name: "ctc-sp2".to_string(),
                sha256: None
            }
        );
        let pin = "a".repeat(64);
        let r = TraceRef::parse(&format!("trace:kth.swf.gz@sha256:{pin}")).unwrap();
        assert_eq!(r.name, "kth.swf.gz");
        assert_eq!(r.sha256.as_deref(), Some(pin.as_str()));
        for bad in [
            "ctc",                     // no scheme
            "trace:",                  // empty name
            "trace:../etc/passwd",     // path escape
            "trace:a/b",               // separator
            "trace:.hidden",           // leading dot
            "trace:x.meta",            // sidecar collision
            "trace:x@sha1:abcd",       // wrong algo
            "trace:x@sha256:deadbeef", // short digest
            "trace:x@sha256:zz",       // non-hex
        ] {
            assert!(TraceRef::parse(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn import_resolve_and_list() {
        let store = temp_store("ok");
        let src = std::env::temp_dir().join(format!("resa-store-src-{}", std::process::id()));
        std::fs::write(&src, b"1 0 5 2\n").unwrap();
        let digest = store.import("tiny", &src, None).unwrap();
        assert_eq!(digest, sha256_file(&src).unwrap());
        // Unpinned resolve.
        let path = store.resolve_ref("trace:tiny").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"1 0 5 2\n");
        // Pinned resolve.
        let pinned = format!("trace:tiny@sha256:{digest}");
        assert_eq!(store.resolve_ref(&pinned).unwrap(), path);
        // Listing carries the sidecar metadata.
        let listed = store.list().unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].name, "tiny");
        assert_eq!(listed[0].sha256, digest);
        assert_eq!(listed[0].size, 8);
        std::fs::remove_dir_all(store.root()).ok();
        std::fs::remove_file(&src).ok();
    }

    #[test]
    fn checksum_mismatch_is_fatal() {
        let store = temp_store("pin");
        let src = std::env::temp_dir().join(format!("resa-store-src2-{}", std::process::id()));
        std::fs::write(&src, b"payload v1").unwrap();
        // Import-time pin mismatch.
        let wrong = "0".repeat(64);
        match store.import("t", &src, Some(&wrong)) {
            Err(StoreError::ChecksumMismatch { expected, .. }) => assert_eq!(expected, wrong),
            other => panic!("expected mismatch, got {other:?}"),
        }
        // Resolve-time pin mismatch after the cache entry is swapped.
        let digest = store.import("t", &src, None).unwrap();
        std::fs::write(store.root().join("t"), b"payload v2 (tampered)").unwrap();
        let err = store
            .resolve_ref(&format!("trace:t@sha256:{digest}"))
            .unwrap_err();
        assert!(
            matches!(err, StoreError::ChecksumMismatch { .. }),
            "{err:?}"
        );
        // The unpinned reference still resolves (TOFU semantics).
        assert!(store.resolve_ref("trace:t").is_ok());
        std::fs::remove_dir_all(store.root()).ok();
        std::fs::remove_file(&src).ok();
    }

    /// A sidecar that cannot be replaced fails the import and leaves the
    /// entry's previous payload byte for byte.
    #[test]
    fn a_failed_import_leaves_the_previous_entry_whole() {
        let store = temp_store("torn");
        let src = std::env::temp_dir().join(format!("resa-store-src3-{}", std::process::id()));
        std::fs::write(&src, b"payload v1").unwrap();
        store.import("t", &src, None).unwrap();
        let meta = store.root().join("t.meta");
        std::fs::remove_file(&meta).unwrap();
        std::fs::create_dir(&meta).unwrap();
        std::fs::write(&src, b"payload v2, longer").unwrap();
        assert!(matches!(
            store.import("t", &src, None),
            Err(StoreError::Io(_))
        ));
        assert_eq!(
            std::fs::read(store.root().join("t")).unwrap(),
            b"payload v1"
        );
        assert!(
            !store.root().join(".t.tmp").exists(),
            "the staged copy is removed"
        );
        std::fs::remove_dir_all(store.root()).ok();
        std::fs::remove_file(&src).ok();
    }

    /// The staged copy of an import that crashed is invisible to `list`
    /// and `resolve`, and the next import of the name overwrites it.
    #[test]
    fn a_crashed_import_leaves_nothing_visible() {
        let store = temp_store("crashed");
        std::fs::create_dir_all(store.root()).unwrap();
        std::fs::write(store.root().join(".t.tmp"), b"torn half of a cop").unwrap();
        assert!(store.list().unwrap().is_empty());
        assert!(matches!(
            store.resolve_ref("trace:t"),
            Err(StoreError::NotCached { .. })
        ));
        let src = std::env::temp_dir().join(format!("resa-store-src4-{}", std::process::id()));
        std::fs::write(&src, b"whole").unwrap();
        let digest = store.import("t", &src, None).unwrap();
        assert!(!store.root().join(".t.tmp").exists());
        let listed = store.list().unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(
            (listed[0].sha256.as_str(), listed[0].size),
            (digest.as_str(), 5)
        );
        assert_eq!(
            std::fs::read(store.resolve_ref("trace:t").unwrap()).unwrap(),
            b"whole"
        );
        std::fs::remove_dir_all(store.root()).ok();
        std::fs::remove_file(&src).ok();
    }

    #[test]
    fn missing_entry_degrades_with_fetch_hint() {
        let store = temp_store("missing");
        let err = store.resolve_ref("trace:never-fetched").unwrap_err();
        match &err {
            StoreError::NotCached { name, .. } => assert_eq!(name, "never-fetched"),
            other => panic!("expected NotCached, got {other:?}"),
        }
        assert!(err.to_string().contains("resa fetch never-fetched"));
    }
}
