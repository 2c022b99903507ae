//! `GzipReader` on real deflate: members written by `gzip` and zlib (how is
//! in `fixtures/deflate/corpus.rs`) — dynamic, fixed and stored blocks,
//! matches out to zlib's farthest distance across the window's wrap-around,
//! length-258 runs, all 256 literals, the empty input, every optional header
//! field — must inflate to their plain bytes whatever the read size, and
//! without allocating once the reader exists.
//!
//! The allocation count needs a `GlobalAlloc`, hence the one `unsafe impl`;
//! the library itself stays `#![forbid(unsafe_code)]`.

#[path = "fixtures/deflate/corpus.rs"]
mod corpus;

use resa_workloads::gzip::GzipReader;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{BufRead, Read};

thread_local! {
    /// Allocations made by this thread (tests run on threads of their own).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn inflate_by_read(gz: &[u8], size: usize) -> Vec<u8> {
    let mut reader = GzipReader::new(gz);
    let mut out = Vec::new();
    let mut buf = vec![0u8; size];
    loop {
        match reader.read(&mut buf).unwrap() {
            0 => return out,
            n => out.extend_from_slice(&buf[..n]),
        }
    }
}

fn inflate_by_bufread(gz: &[u8]) -> Vec<u8> {
    let mut reader = GzipReader::new(gz);
    let mut out = Vec::new();
    loop {
        let span = reader.fill_buf().unwrap();
        if span.is_empty() {
            return out;
        }
        // Take spans in uneven bites, so `consume` lands mid-span too.
        let bite = span.len().min(1 + out.len() % 1000);
        out.extend_from_slice(&span[..bite]);
        reader.consume(bite);
    }
}

#[test]
fn corpus_inflates_to_its_plain_bytes_at_every_read_size() {
    for member in corpus::members() {
        for size in [1, 7, 4096] {
            assert!(
                inflate_by_read(&member.gz, size) == member.plain,
                "{} through read({size})",
                member.name
            );
        }
        assert!(
            inflate_by_bufread(&member.gz) == member.plain,
            "{} through BufRead",
            member.name
        );
    }
}

#[test]
fn lines_come_straight_out_of_the_window() {
    // What `SwfStream` does with a gzipped trace: `read_until` on the
    // reader itself, no `BufReader` in between.
    let large = corpus::member("large.gzip6.gz");
    let mut reader = GzipReader::new(large.gz.as_slice());
    let mut line = Vec::new();
    let mut lines = 0;
    let mut at = 0;
    while reader.read_until(b'\n', &mut line).unwrap() > 0 {
        assert_eq!(line, large.plain[at..at + line.len()], "line {lines}");
        at += line.len();
        lines += 1;
        line.clear();
    }
    assert_eq!((at, lines), (large.plain.len(), 1 + 3 * 1897));
}

/// A kilobyte that inflates to a mebibyte: the reader's whole state exists
/// after `new`, however much it is then asked to decode.
#[test]
fn nothing_is_allocated_after_construction() {
    let zeros = corpus::member("zeros.gzip9.gz");
    assert!(zeros.gz.len() < 1100 && zeros.plain.len() == 1 << 20);
    let mut buf = vec![0u8; 4096];
    let mut reader = GzipReader::new(zeros.gz.as_slice());
    let before = ALLOCATIONS.with(Cell::get);
    let mut total = 0usize;
    loop {
        match reader.read(&mut buf).unwrap() {
            0 => break,
            n => {
                assert!(buf[..n].iter().all(|&b| b == 0));
                total += n;
            }
        }
    }
    let allocated = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(total, 1 << 20);
    assert_eq!(allocated, 0, "allocations while inflating");
}
