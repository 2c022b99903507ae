//! [`GzipReader`] against the decoder it replaced ([`PuffReader`]): on the
//! real-deflate corpus, on seeded damage to it and on generated blocks, both
//! must deliver the same bytes and then end the same way — the same clean
//! end, or the same `ErrorKind` and message. Which diagnostic a damaged
//! trace gets is observable behaviour (`resa replay` prints it), so it is
//! pinned here bit for bit, not just "some error".

#[path = "../../tests/fixtures/deflate/corpus.rs"]
mod corpus;

use super::oracle::PuffReader;
use super::*;
use proptest::prelude::TestRng;

/// How a stream ended: cleanly, or with this error.
type Ending = Option<(ErrorKind, String)>;

/// Everything `reader` delivers up to its first error or its clean end.
fn drain(mut reader: impl Read) -> (Vec<u8>, Ending) {
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match reader.read(&mut buf) {
            Ok(0) => return (out, None),
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(e) => return (out, Some((e.kind(), e.to_string()))),
        }
    }
}

/// An error message without its figures: `gzip CRC mismatch: stored …` and
/// `unsupported gzip compression method 7` name their fault up to there.
fn family(message: &str) -> &str {
    let cut = |c: char| c == ':' || c.is_ascii_digit();
    message.split(cut).next().unwrap().trim_end()
}

/// What a gzip file must inflate to, by the oracle: it decodes one member
/// and stops, so the file rule (RFC 1952 §2.2) is applied around it — after
/// a member that ended cleanly, end of input ends the file, the magic starts
/// the next member, anything else is trailing data.
fn oracle(mut gz: &[u8]) -> (Vec<u8>, Ending) {
    let mut out = Vec::new();
    loop {
        let mut member = PuffReader::new(gz);
        let (bytes, ending) = drain(&mut member);
        out.extend_from_slice(&bytes);
        gz = &gz[member.consumed()..];
        if ending.is_some() || gz.is_empty() {
            return (out, ending);
        }
        if !is_gzip(gz) {
            let message = "trailing data after gzip member".to_string();
            return (out, Some((ErrorKind::InvalidData, message)));
        }
    }
}

/// Both decoders on `gz`; returns what they agreed on.
fn assert_same(gz: &[u8], what: &str) -> (Vec<u8>, Ending) {
    let new = drain(GzipReader::new(gz));
    let old = oracle(gz);
    assert!(
        new.0 == old.0,
        "{what}: delivered {} bytes, the oracle {} (endings {:?} / {:?})",
        new.0.len(),
        old.0.len(),
        new.1,
        old.1
    );
    assert_eq!(new.1, old.1, "{what}: after {} bytes", new.0.len());
    new
}

#[test]
fn corpus_members_decode_alike() {
    for member in corpus::members() {
        let (out, ending) = assert_same(&member.gz, &member.name);
        assert!(out == member.plain && ending.is_none(), "{}", member.name);
    }
}

/// Damage budget per member. The oracle is slow in the dev profile, so big
/// members get fewer cases; the small ones cover every header and trailer
/// bit and most of their payload.
fn cases_for(member: &corpus::Member) -> u64 {
    (6_000_000 / (member.plain.len() as u64 + 1_000)).clamp(24, 400)
}

#[test]
fn truncated_members_fail_alike() {
    for member in corpus::members() {
        let step = (member.gz.len() as u64 / cases_for(&member)).max(1) as usize;
        let mut endings = std::collections::BTreeMap::new();
        for cut in (0..member.gz.len()).step_by(step) {
            let (out, ending) =
                assert_same(&member.gz[..cut], &format!("{} cut at {cut}", member.name));
            assert!(member.plain.starts_with(&out));
            let (kind, _) = ending.expect("a cut member cannot end cleanly");
            *endings.entry(format!("{kind:?}")).or_insert(0u32) += 1;
        }
        // A cut is a truncation — except inside a stored chunk's payload
        // never, and inside the trailer never: always `UnexpectedEof`.
        assert_eq!(endings.len(), 1, "{}: {endings:?}", member.name);
        assert!(endings.contains_key("UnexpectedEof"), "{}", member.name);
    }
}

#[test]
fn bit_flips_fail_alike() {
    let mut rng = TestRng::from_name("gzip::differential::bit_flips_fail_alike");
    let mut faults = std::collections::BTreeSet::new();
    for member in corpus::members() {
        let bits = member.gz.len() as u64 * 8;
        // Every bit of the header, of the first block header and its
        // code-length tables (the 100 bytes after the header), and of the
        // trailer; seeded picks across the payload.
        let head = bits.min(8 * 110);
        let tail = bits.saturating_sub(64).max(head);
        let picks = (0..cases_for(&member)).map(|_| rng.uniform_u64(0, bits - 1));
        let dense = if member.plain.len() < 10_000 {
            (0..head).chain(tail..bits)
        } else {
            (0..0).chain(0..0)
        };
        for bit in dense.chain(picks) {
            let mut gz = member.gz.clone();
            gz[(bit / 8) as usize] ^= 1 << (bit % 8);
            let (_, ending) = assert_same(&gz, &format!("{} bit {bit} flipped", member.name));
            if let Some((_, message)) = ending {
                faults.insert(family(&message).to_string());
            }
        }
    }
    // The damage reached every layer: header, block headers, code tables,
    // symbols, trailer.
    for expected in [
        "not a gzip stream (bad magic)",
        "unsupported gzip compression method",
        "reserved deflate block type",
        "stored block LEN/NLEN mismatch",
        "over-subscribed huffman code lengths",
        "invalid huffman code",
        "back-reference before stream start",
        "gzip CRC mismatch",
        "gzip ISIZE mismatch",
        "truncated gzip stream",
    ] {
        assert!(
            faults.contains(expected),
            "no flip produced '{expected}': {faults:?}"
        );
    }
}

/// Deflate's bit order: integers least significant bit first, Huffman codes
/// most significant bit first.
#[derive(Default)]
struct BitWriter {
    bytes: Vec<u8>,
    used: u32,
}

impl BitWriter {
    fn bit(&mut self, bit: bool) {
        if self.used.is_multiple_of(8) {
            self.bytes.push(0);
        }
        *self.bytes.last_mut().unwrap() |= (bit as u8) << (self.used % 8);
        self.used += 1;
    }

    fn int(&mut self, value: u32, width: u32) {
        (0..width).for_each(|i| self.bit(value >> i & 1 == 1));
    }

    fn code(&mut self, (code, len): (u32, u8)) {
        assert!(len > 0, "symbol without a code");
        (0..len as u32)
            .rev()
            .for_each(|i| self.bit(code >> i & 1 == 1));
    }

    fn align(&mut self) {
        self.used = self.used.next_multiple_of(8);
    }

    /// Wrap the deflate stream written so far as one gzip member claiming
    /// to inflate to `plain`.
    fn into_gzip(self, plain: &[u8]) -> Vec<u8> {
        let mut gz = vec![0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 255];
        gz.extend_from_slice(&self.bytes);
        gz.extend_from_slice(&crc32_update(0, plain).to_le_bytes());
        gz.extend_from_slice(&(plain.len() as u32).to_le_bytes());
        gz
    }
}

/// The canonical code of every symbol: `(code, length)`.
fn canonical_codes(lengths: &[u8]) -> Vec<(u32, u8)> {
    let mut next = [0u32; 17];
    for len in 1..=15 {
        let shorter = lengths.iter().filter(|&&l| l as usize == len - 1 && l != 0);
        next[len] = (next[len - 1] + shorter.count() as u32) << 1;
    }
    lengths
        .iter()
        .map(|&l| {
            let code = next[l as usize];
            next[l as usize] += 1;
            (code, l)
        })
        .collect()
}

fn fixed_litlen_lengths() -> Vec<u8> {
    let mut lengths = vec![8u8; 288];
    lengths[144..256].fill(9);
    lengths[256..280].fill(7);
    lengths
}

/// The length (or distance) symbol, extra-bit count and extra value coding
/// `value`.
fn base_symbol(bases: &[u16], extras: &[u8], value: usize) -> (usize, u32, u32) {
    let sym = bases.iter().rposition(|&b| b as usize <= value).unwrap();
    (
        sym,
        extras[sym] as u32,
        (value - bases[sym] as usize) as u32,
    )
}

/// Matches out to the farthest distance deflate can code, against a window
/// of exactly that size: the source of a distance-32 768 match is the slot
/// the match itself starts writing.
#[test]
fn matches_at_the_window_s_edge() {
    let history: Vec<u8> = (0..WINDOW as u32)
        .map(|i| (i * 7 + i / 251) as u8)
        .collect();
    let mut plain = history.clone();
    let mut w = BitWriter::default();
    for chunk in history.chunks(0x4000) {
        w.int(0, 3); // not final, stored
        w.align();
        w.int(chunk.len() as u32, 16);
        w.int(!(chunk.len() as u32) & 0xffff, 16);
        w.bytes.extend_from_slice(chunk);
        w.used = w.bytes.len() as u32 * 8;
    }
    w.int(1, 1);
    w.int(1, 2); // final, fixed Huffman
    let lit = canonical_codes(&fixed_litlen_lengths());
    let dist = canonical_codes(&[5; 30]);
    for (length, distance) in [
        (258, 32768),
        (3, 32768),
        (258, 32767),
        (200, 32510),
        (7, 1),
        (258, 3),
    ] {
        let (sym, extra, value) = base_symbol(&LEN_BASE, &LEN_EXTRA, length);
        w.code(lit[257 + sym]);
        w.int(value, extra);
        let (sym, extra, value) = base_symbol(&DIST_BASE, &DIST_EXTRA, distance);
        w.code(dist[sym]);
        w.int(value, extra);
        for _ in 0..length {
            plain.push(plain[plain.len() - distance]);
        }
    }
    w.code(lit[256]);
    let gz = w.into_gzip(&plain);
    let (out, ending) = assert_same(&gz, "edge matches");
    assert!(out == plain && ending.is_none(), "{ending:?}");
}

/// Code lengths for `n` symbols: random, then lengthened or dropped until
/// they are not over-subscribed. Mostly incomplete, often with 15-bit codes.
fn random_lengths(rng: &mut TestRng, n: usize, used: usize, longest: u8) -> Vec<u8> {
    let mut lengths = vec![0u8; n];
    for _ in 0..used {
        let sym = rng.uniform_u64(0, n as u64 - 1) as usize;
        // Skewed to the long end, where the subtables are.
        let len = longest - (5 - rng.uniform_u64(1, 63).ilog2() as u8).min(longest - 1);
        lengths[sym] = len;
    }
    let kraft = |lengths: &[u8]| -> u32 {
        lengths
            .iter()
            .filter(|&&l| l != 0)
            .map(|&l| 1u32 << (15 - l))
            .sum()
    };
    while kraft(&lengths) > 1 << 15 {
        let shortest = (0..n)
            .filter(|&s| lengths[s] != 0)
            .min_by_key(|&s| lengths[s])
            .unwrap();
        lengths[shortest] = if lengths[shortest] < longest {
            lengths[shortest] + 1
        } else {
            0
        };
    }
    lengths
}

/// Every code of a length set decodes to its symbol, whatever bits follow
/// it, and the table never outgrows its array — including the densest
/// subtable layouts the bound in `LIT_TABLE` / `DIST_TABLE` is derived from.
#[test]
fn tables_hold_every_code_of_any_length_set() {
    let mut rng = TestRng::from_name("gzip::differential::tables_hold_every_code");
    let mut sets: Vec<(Vec<u8>, u32)> = vec![
        // 48 full subtables of six codes each (11, 12, 13, 14, 15, 15 bits).
        ([11u8, 12, 13, 14, 15, 15].repeat(48), LIT_ROOT),
        (vec![15; 288], LIT_ROOT),
        ([9u8, 10, 11, 12, 13, 14, 15, 15].repeat(4), DIST_ROOT),
        (vec![15; 32], DIST_ROOT),
        (vec![0; 30], DIST_ROOT),
        (fixed_litlen_lengths(), LIT_ROOT),
    ];
    for _ in 0..300 {
        let used = rng.uniform_u64(1, 288) as usize;
        sets.push((random_lengths(&mut rng, 288, used, 15), LIT_ROOT));
        let used = rng.uniform_u64(1, 32) as usize;
        sets.push((random_lengths(&mut rng, 32, used, 15), DIST_ROOT));
    }
    let mut table = vec![0; LIT_TABLE];
    let mut sorted = [0u16; MAX_LENGTHS];
    for (lengths, root) in sets {
        let size = if root == LIT_ROOT {
            LIT_TABLE
        } else {
            DIST_TABLE
        };
        build_table(&mut table[..size], root, &lengths, &mut sorted, clen_entry).unwrap();
        for (sym, &(code, len)) in canonical_codes(&lengths).iter().enumerate() {
            if len == 0 {
                continue;
            }
            for ones in [0, (1 << (15 - len)) - 1] {
                // The code followed by zeros, then by ones.
                let padded = code << (15 - len) | ones;
                let entry = lookup(&table, root, (padded << 17).reverse_bits() as u64);
                assert_eq!(
                    (entry_value(entry), entry & ENTRY_LEN),
                    (sym, len as u32),
                    "symbol {sym} of {lengths:?}"
                );
            }
        }
    }
}

/// One generated dynamic block: random (mostly incomplete) code-length sets
/// with long codes, a random run of literals and matches in them, reserved
/// symbols and unreachable distances included.
fn random_dynamic_member(rng: &mut TestRng) -> Vec<u8> {
    let mut pick = |lo: usize, hi: usize| rng.uniform_u64(lo as u64, hi as u64) as usize;
    let hlit = 257 + pick(0, 31);
    let hdist = 1 + pick(0, 31);
    let longest = [7u8, 10, 11, 15][pick(0, 3)];
    let mut rng_lengths = TestRng::from_name(&format!("lengths {}", pick(0, u32::MAX as usize)));
    let mut lit_lengths = random_lengths(&mut rng_lengths, hlit, pick(2, hlit), longest);
    let dist_lengths = random_lengths(&mut rng_lengths, hdist, pick(0, hdist), longest);
    if lit_lengths[256] == 0 && pick(0, 9) > 0 {
        // Usually make room for the end-of-block code.
        lit_lengths = vec![0; hlit];
        (0..hlit)
            .step_by(1 + pick(0, 5))
            .for_each(|s| lit_lengths[s] = 9);
        lit_lengths[256] = 9;
    }

    let mut w = BitWriter::default();
    w.int(1, 1);
    w.int(2, 2); // final, dynamic
    w.int(hlit as u32 - 257, 5);
    w.int(hdist as u32 - 1, 5);
    w.int(19 - 4, 4);
    // The code-length code: all nineteen symbols in five bits, lengths
    // written one by one — except zeros, sometimes as a run.
    CLEN_ORDER.iter().for_each(|_| w.int(5, 3));
    let clen = canonical_codes(&[5; 19]);
    let all: Vec<u8> = lit_lengths.iter().chain(&dist_lengths).copied().collect();
    let mut i = 0;
    while i < all.len() {
        let zeros = all[i..].iter().take_while(|&&l| l == 0).count();
        if zeros >= 11 && pick(0, 1) == 0 {
            let n = zeros.min(138);
            w.code(clen[18]);
            w.int(n as u32 - 11, 7);
            i += n;
        } else if zeros >= 3 && pick(0, 1) == 0 {
            let n = zeros.min(10);
            w.code(clen[17]);
            w.int(n as u32 - 3, 3);
            i += n;
        } else {
            w.code(clen[all[i] as usize]);
            i += 1;
        }
    }

    let lit = canonical_codes(&lit_lengths);
    let dist = canonical_codes(&dist_lengths);
    let coded = |codes: &[(u32, u8)]| -> Vec<usize> {
        (0..codes.len()).filter(|&s| codes[s].1 != 0).collect()
    };
    let (lit_syms, dist_syms) = (coded(&lit), coded(&dist));
    for _ in 0..pick(0, 400) {
        let sym = lit_syms[pick(0, lit_syms.len() - 1)];
        if sym == 256 && pick(0, 3) > 0 {
            continue; // keep most blocks going
        }
        w.code(lit[sym]);
        if (257..286).contains(&sym) {
            let extra = LEN_EXTRA[sym - 257] as u32;
            w.int(pick(0, (1 << extra) - 1) as u32, extra);
            if let Some(&d) = dist_syms.get(pick(0, dist_syms.len().max(1) - 1)) {
                w.code(dist[d]);
                if d < 30 {
                    // Small extras mostly: near matches are the valid ones.
                    let extra = DIST_EXTRA[d] as u32;
                    let value = pick(0, (1 << extra) - 1) >> pick(0, extra as usize);
                    w.int(value as u32, extra);
                }
            }
        }
    }
    if lit[256].1 != 0 {
        w.code(lit[256]);
    }
    // The trailer is wrong unless the block is empty; both decoders check
    // it last, so that is one more thing to agree on.
    w.into_gzip(b"")
}

#[test]
fn generated_dynamic_blocks_decode_alike() {
    let mut rng = TestRng::from_name("gzip::differential::generated_dynamic_blocks");
    let mut endings = std::collections::BTreeSet::new();
    for case in 0..1500 {
        let mut gz = random_dynamic_member(&mut rng);
        if case % 8 == 0 {
            gz.truncate(rng.uniform_u64(10, gz.len() as u64) as usize);
        }
        let (_, ending) = assert_same(&gz, &format!("generated block {case}"));
        let message = ending.map_or("clean".to_string(), |(_, m)| m);
        endings.insert(family(&message).to_string());
    }
    for expected in [
        "invalid huffman code",
        "invalid literal/length symbol",
        "invalid distance symbol",
        "back-reference before stream start",
        "dynamic block without an end-of-block code",
        "truncated gzip stream",
        "gzip CRC mismatch",
    ] {
        assert!(
            endings.contains(expected),
            "no block ended in '{expected}': {endings:?}"
        );
    }
}

/// A gzip file is a series of members (`cat a.gz b.gz`): they inflate back
/// to back, each under its own CRC32 and ISIZE.
#[test]
fn members_inflate_back_to_back() {
    for names in [
        &["fixture.stored.gz", "bytes256.stored.gz"][..],
        &["fixture.gzip6.gz", "large.gzip9.gz"],
        &["fixture.fixed.gz", "bytes256.stored.gz", "run.rle.gz"],
        &["large.gzip6.gz", "empty.gzip6.gz", "fixture.huffman.gz"],
        &["empty.stored.gz", "empty.gzip6.gz", "empty.stored.gz"],
        &["fixture.flags.gz", "fixture.flags.gz"],
    ] {
        let (mut gz, mut plain) = (Vec::new(), Vec::new());
        for name in names {
            let m = corpus::member(name);
            gz.extend_from_slice(&m.gz);
            plain.extend_from_slice(&m.plain);
        }
        let (out, ending) = assert_same(&gz, &names.join(" + "));
        assert!(out == plain && ending.is_none(), "{names:?}: {ending:?}");
    }
}

#[test]
fn a_damaged_later_member_fails_after_the_sound_ones() {
    let (first, second) = (
        corpus::member("fixture.gzip6.gz"),
        corpus::member("fixture.stored.gz"),
    );
    let mut gz = [first.gz.clone(), second.gz.clone()].concat();
    let n = gz.len();
    gz[n - 6] ^= 0x10; // the second member's CRC32
    let (out, ending) = assert_same(&gz, "second CRC");
    assert_eq!(out, [first.plain.clone(), second.plain].concat());
    let (kind, message) = ending.unwrap();
    assert_eq!(kind, ErrorKind::InvalidData);
    assert!(message.starts_with("gzip CRC mismatch"), "{message}");

    // The header of a later member is held to the rules of the first.
    let mut gz = [first.gz.clone(), first.gz.clone()].concat();
    gz[first.gz.len() + 2] = 7;
    let (out, ending) = assert_same(&gz, "second method");
    assert_eq!(out, first.plain);
    let message = ending.unwrap().1;
    assert_eq!(message, "unsupported gzip compression method 7");
}

#[test]
fn trailing_bytes_that_start_no_member_are_an_error() {
    let m = corpus::member("fixture.gzip6.gz");
    for garbage in [&b"garbage"[..], b"\0", b"\x1f", b"\x8b\x1f...."] {
        let gz = [&m.gz[..], garbage].concat();
        let (out, ending) = assert_same(&gz, "trailing garbage");
        assert_eq!(out, m.plain, "everything before the garbage is delivered");
        let expected = "trailing data after gzip member".to_string();
        assert_eq!(ending, Some((ErrorKind::InvalidData, expected)));
    }
    // The magic and nothing more is a member cut short.
    let gz = [&m.gz[..], &GZIP_MAGIC].concat();
    let (out, ending) = assert_same(&gz, "trailing magic");
    assert_eq!(
        (out, ending.unwrap().0),
        (m.plain, ErrorKind::UnexpectedEof)
    );
}

/// The window still holds the previous member's bytes, but a match may not
/// reach them: "before stream start" is per member.
#[test]
fn a_match_cannot_reach_into_the_previous_member() {
    let first = corpus::member("fixture.gzip6.gz");
    let lit = canonical_codes(&fixed_litlen_lengths());
    let dist = canonical_codes(&[5; 30]);
    let mut w = BitWriter::default();
    w.int(1, 1);
    w.int(1, 2); // final, fixed Huffman
    w.code(lit[b'x' as usize]);
    w.code(lit[257]); // length 3
    w.code(dist[1]); // distance 2: one byte before this member
    w.code(lit[256]);
    let gz = [first.gz.clone(), w.into_gzip(b"")].concat();
    let (out, ending) = assert_same(&gz, "match across members");
    assert_eq!(out, [&first.plain[..], b"x"].concat());
    let expected = "back-reference before stream start".to_string();
    assert_eq!(ending, Some((ErrorKind::InvalidData, expected)));
}
