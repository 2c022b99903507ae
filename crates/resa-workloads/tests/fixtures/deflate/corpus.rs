//! The real-deflate corpus: every `.gz` beside this file with the bytes it
//! must inflate to. Shared by `tests/deflate_corpus.rs` (public API) and the
//! in-crate differential tests (`src/gzip/differential.rs`).
//!
//! The members were written once by the installed `gzip` 1.12 and `python3`
//! `zlib` 1.2.13, run in this directory as
//! `python3 make.py ../../../../../examples/fixture.swf` with `make.py` =
//!
//! ```text
//! import zlib, subprocess, struct, sys
//! fixture = open(sys.argv[1], 'rb').read()
//! # Three copies of a block just under zlib's farthest match (32 768 - 262):
//! # the second and third are coded as matches at distance len(block).
//! block = "".join(f"{i} {i * 40 + i % 7} {60 * (1 + i * 7 % 30)} {1 << i * 5 % 7}\n" for i in range(1, 1898))
//! assert 32_000 < len(block) <= 32_506, len(block)
//! large = ("; MaxProcs: 64\n" + block * 3).encode()
//! run = b"a" * 100_000
//! bytes256 = b"".join(bytes([i * k % 256]) * (1, 1, 2, 3, 5, 8, 13, 21)[i * k % 8] for k in (1, 3, 7, 11) for i in range(256))
//! def gz(data, level): return subprocess.run(["gzip", "-n", f"-{level}", "-c"], input=data, stdout=subprocess.PIPE, check=True).stdout
//! def z(data, level, strategy):
//!     c = zlib.compressobj(level, zlib.DEFLATED, 31, 9, strategy); return c.compress(data) + c.flush()
//! out = {
//!  "fixture.gzip6.gz": gz(fixture, 6),
//!  "fixture.fixed.gz": z(fixture, 6, zlib.Z_FIXED), "fixture.huffman.gz": z(fixture, 6, zlib.Z_HUFFMAN_ONLY),
//!  "fixture.stored.gz": z(fixture, 0, zlib.Z_DEFAULT_STRATEGY),
//!  "large.gzip1.gz": gz(large, 1), "large.gzip6.gz": gz(large, 6), "large.gzip9.gz": gz(large, 9),
//!  "run.gzip9.gz": gz(run, 9), "run.rle.gz": z(run, 6, zlib.Z_RLE), "run.fixed.gz": z(run, 6, zlib.Z_FIXED),
//!  "bytes256.gzip6.gz": gz(bytes256, 6), "bytes256.huffman.gz": z(bytes256, 6, zlib.Z_HUFFMAN_ONLY),
//!  "bytes256.stored.gz": z(bytes256, 0, zlib.Z_DEFAULT_STRATEGY),
//!  "zeros.gzip9.gz": gz(bytes(1 << 20), 9),
//!  "empty.gzip6.gz": gz(b"", 6), "empty.stored.gz": z(b"", 0, zlib.Z_DEFAULT_STRATEGY),
//! }
//! # One member with every optional header field: FHCRC | FEXTRA | FNAME | FCOMMENT.
//! raw = zlib.compressobj(6, zlib.DEFLATED, -15); body = raw.compress(fixture) + raw.flush()
//! head = bytes([0x1f, 0x8b, 8, 0x02 | 0x04 | 0x08 | 0x10, 0, 0, 0, 0, 0, 3]) + struct.pack("<H", 5) + b"EXTRA" + b"fixture.swf\0" + b"a comment\0"
//! head += struct.pack("<H", zlib.crc32(head) & 0xffff)
//! out["fixture.flags.gz"] = head + body + struct.pack("<II", zlib.crc32(fixture), len(fixture))
//! for name, data in out.items():
//!     open(name, "wb").write(data)
//! ```
//!
//! Nothing is fetched. `fixture` is the checked-in `examples/fixture.swf`;
//! the other plain texts are the formulas above, repeated in [`plain`].

use std::path::{Path, PathBuf};

/// One corpus member: its file name, the compressed bytes, the plain bytes.
pub struct Member {
    pub name: String,
    pub gz: Vec<u8>,
    pub plain: Vec<u8>,
}

/// The plain bytes of the members named `<stem>.<how>.gz`.
fn plain(stem: &str) -> Vec<u8> {
    match stem {
        "fixture" => {
            let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/fixture.swf");
            std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        }
        "large" => {
            let block: String = (1..1898u64)
                .map(|i| {
                    format!(
                        "{i} {} {} {}\n",
                        i * 40 + i % 7,
                        60 * (1 + i * 7 % 30),
                        1u64 << (i * 5 % 7)
                    )
                })
                .collect();
            format!("; MaxProcs: 64\n{block}{block}{block}").into_bytes()
        }
        "run" => vec![b'a'; 100_000],
        "bytes256" => [1usize, 3, 7, 11]
            .iter()
            .flat_map(|k| (0..256usize).map(move |i| i * k))
            .flat_map(|v| std::iter::repeat_n((v % 256) as u8, [1, 1, 2, 3, 5, 8, 13, 21][v % 8]))
            .collect(),
        "zeros" => vec![0u8; 1 << 20],
        "empty" => Vec::new(),
        other => panic!("no plain text is defined for corpus member '{other}'"),
    }
}

fn dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/deflate")
}

/// The member in file `name`.
pub fn member(name: &str) -> Member {
    let path = dir().join(name);
    Member {
        gz: std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display())),
        plain: plain(name.split('.').next().unwrap()),
        name: name.to_string(),
    }
}

/// Every `.gz` in this directory, in name order.
pub fn members() -> Vec<Member> {
    let mut names: Vec<String> = std::fs::read_dir(dir())
        .unwrap_or_else(|e| panic!("{}: {e}", dir().display()))
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".gz"))
        .collect();
    names.sort();
    assert_eq!(names.len(), 17, "corpus members: {names:?}");
    names.iter().map(|name| member(name)).collect()
}
