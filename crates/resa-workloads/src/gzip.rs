//! Minimal streaming gzip support for archive-scale SWF traces.
//!
//! The real CTC/SDSC/KTH logs behind the SWF format ship gzip-compressed,
//! and the container building this workspace has no network access and no
//! compression crates — so this module vendors the two halves the trace
//! pipeline needs, with no dependency beyond `std`:
//!
//! * [`GzipReader`] — a streaming RFC 1952 (gzip) / RFC 1951 (deflate)
//!   *inflater* implementing [`std::io::Read`] and [`std::io::BufRead`]:
//!   stored, fixed-Huffman and dynamic-Huffman blocks over a 32 KiB
//!   back-reference window, decoding on demand so a multi-million-line log
//!   is never materialized. A file is a *series* of members (RFC 1952 §2.2),
//!   inflated back to back as `gzip -d` does; each member's CRC32 and ISIZE
//!   are verified as it drains; every corruption is surfaced as an
//!   [`std::io::ErrorKind::InvalidData`] error and a cut-off stream as
//!   [`std::io::ErrorKind::UnexpectedEof`] (the loader tests pin truncation
//!   and bit-flip cases).
//! * [`compress_stored`] / [`write_gz`] — a gzip *writer* emitting stored
//!   (uncompressed) deflate blocks. It exists so tests and examples can
//!   fabricate valid `.swf.gz` fixtures; real archives arrive
//!   already compressed, so the write side never needs entropy coding.
//!
//! The inflater is table-driven, after zlib's `inflate_fast`: a 64-bit bit
//! buffer refilled eight input bytes at a time, and per block one lookup
//! table per alphabet, indexed by the next 10 bits (literal/length) or 8
//! bits (distance), whose entries carry the code length, the literal or the
//! length/distance base and its extra-bit count; the rare codes longer than
//! that go through a second lookup in an overflow subtable. Tables, window
//! and input buffer are allocated once by [`GzipReader::new`]; the tables
//! are rebuilt in place per block. One call decodes until a block ends or
//! the window is full of undelivered bytes, and a fault met on the way is
//! raised only after every byte decoded before it has been delivered — the
//! order a one-symbol-per-call decoder produces. That decoder (the classic
//! `puff` construction, one Huffman bit at a time) is what this module used
//! to be; it survives as the `#[cfg(test)]` oracle the differential tests
//! compare against.

use std::io::{BufRead, Error, ErrorKind, Read, Result};

#[cfg(test)]
mod differential;
#[cfg(test)]
mod oracle;

/// Magic bytes opening every gzip member.
pub const GZIP_MAGIC: [u8; 2] = [0x1f, 0x8b];

/// Slice-by-8 tables: `CRC_TABLES[k][b]` is the CRC of byte `b` followed by
/// `k` zero bytes, so eight input bytes fold into the register per step.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][n] = c;
        n += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut n = 0;
        while n < 256 {
            let prev = t[k - 1][n];
            t[k][n] = t[0][(prev & 0xff) as usize] ^ (prev >> 8);
            n += 1;
        }
        k += 1;
    }
    t
};

/// CRC32 (IEEE, reflected) over `data`, continuing from `crc` (start with 0).
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !crc;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][(lo >> 8 & 0xff) as usize]
            ^ t[5][(lo >> 16 & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][(hi >> 8 & 0xff) as usize]
            ^ t[1][(hi >> 16 & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// Whether `head` starts with the gzip magic (callers peek two bytes to
/// decide between the plain and compressed trace paths).
pub fn is_gzip(head: &[u8]) -> bool {
    head.len() >= 2 && head[0] == GZIP_MAGIC[0] && head[1] == GZIP_MAGIC[1]
}

fn corrupt(msg: impl Into<String>) -> Error {
    Error::new(ErrorKind::InvalidData, msg.into())
}

fn truncated() -> Error {
    Error::new(
        ErrorKind::UnexpectedEof,
        "truncated gzip stream".to_string(),
    )
}

/// Extra bits and base values for length codes 257..=285.
const LEN_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
const LEN_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
/// Extra bits and base values for distance codes 0..=29.
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];
/// Order in which code-length-code lengths are stored in a dynamic block.
const CLEN_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

/// Back-reference window: the 32 KiB of history deflate may point into. It
/// doubles as the output buffer — undelivered bytes are its newest part.
const WINDOW: usize = 32 * 1024;
const WINDOW_MASK: usize = WINDOW - 1;
/// The longest match. Decoding a symbol is allowed while `avail + MAX_MATCH
/// <= WINDOW`, so no symbol overwrites a byte not yet delivered.
const MAX_MATCH: usize = 258;
/// A stored block is copied in chunks of at most this many bytes, each
/// committed whole or — when the input ends inside it — not at all.
const STORED_CHUNK: usize = 4096;
const INPUT_BUF: usize = 16 * 1024;

/// A decode-table entry, one `u32`:
/// bits 0–3 the code's length in bits, 4–7 an extra-bit count (or a
/// subtable's index width), 8–11 the kind, 16–31 the value — a literal, a
/// length or distance base, a code-length symbol, or a subtable's offset.
type Entry = u32;
const ENTRY_LEN: u32 = 0xf;
const ENTRY_KIND: u32 = 0xf00;
const KIND_LITERAL: u32 = 0;
/// A length or distance: value is the base, bits 4–7 its extra-bit count.
const KIND_BASE: u32 = 1 << 8;
const KIND_END_OF_BLOCK: u32 = 2 << 8;
/// The code is longer than the root: look the bits after the root up in the
/// subtable at `value`, `2^(bits 4–7)` entries wide.
const KIND_SUBTABLE: u32 = 3 << 8;
/// A symbol deflate reserves (literal/length 286–287, distance 30–31).
const KIND_RESERVED: u32 = 4 << 8;
/// No code has this bit pattern (incomplete code). It claims the 15 bits
/// the bit-by-bit decoder reads before it gives up, so that a stream ending
/// sooner reports truncation, as it does there.
const NO_CODE: Entry = (5 << 8) | 15;

fn entry_extra(e: Entry) -> u32 {
    e >> 4 & 0xf
}

fn entry_value(e: Entry) -> usize {
    (e >> 16) as usize
}

/// The entry for the code at the bottom of `bits`: one lookup for codes up
/// to `root` bits, a second in the subtable for longer ones.
#[inline(always)]
fn lookup(table: &[Entry], root: u32, bits: u64) -> Entry {
    let entry = table[bits as usize & ((1 << root) - 1)];
    if entry & ENTRY_KIND != KIND_SUBTABLE {
        return entry;
    }
    let index = (bits >> root) as usize & ((1 << entry_extra(entry)) - 1);
    table[entry_value(entry) + index]
}

fn base_entry(base: u16, extra: u8) -> Entry {
    KIND_BASE | (base as u32) << 16 | (extra as u32) << 4
}

fn litlen_entry(sym: usize) -> Entry {
    match sym {
        0..=255 => KIND_LITERAL | (sym as u32) << 16,
        256 => KIND_END_OF_BLOCK,
        257..=285 => base_entry(LEN_BASE[sym - 257], LEN_EXTRA[sym - 257]),
        _ => KIND_RESERVED,
    }
}

fn dist_entry(sym: usize) -> Entry {
    match sym {
        0..=29 => base_entry(DIST_BASE[sym], DIST_EXTRA[sym]),
        _ => KIND_RESERVED,
    }
}

fn clen_entry(sym: usize) -> Entry {
    KIND_LITERAL | (sym as u32) << 16
}

/// Index widths of the first-level tables. Codes up to the root decode in
/// one lookup; the code-length alphabet's codes are at most 7 bits, so its
/// table has no second level.
const LIT_ROOT: u32 = 10;
const DIST_ROOT: u32 = 8;
const CLEN_ROOT: u32 = 7;
/// Room after the first level for the overflow subtables. Canonical codes
/// tile the code space from zero without gaps, so every subtable but the
/// last is full, and a full subtable of `2^k` entries holds at least `k + 1`
/// codes: 288 literal/length symbols fill at most 288 · 32/6 = 1536 entries
/// plus one last subtable of 32; 32 distance symbols at most 4 · 128 plus
/// one of 128.
const LIT_TABLE: usize = (1 << LIT_ROOT) + 2048;
const DIST_TABLE: usize = (1 << DIST_ROOT) + 768;
/// Literal/length plus distance code lengths of one dynamic block.
const MAX_LENGTHS: usize = 288 + 32;

/// The decode tables of the current block and the scratch they are built
/// from — fixed-size, owned by the reader, rebuilt in place per block.
struct Tables {
    lit: [Entry; LIT_TABLE],
    dist: [Entry; DIST_TABLE],
    clen: [Entry; 1 << CLEN_ROOT],
    lengths: [u8; MAX_LENGTHS],
    sorted: [u16; MAX_LENGTHS],
}

/// Fill `table` for the canonical Huffman code with these per-symbol code
/// lengths (0 = unused, at most 15): `root` index bits on the first level,
/// subtables after it. Rejects over-subscribed length sets; incomplete sets
/// are accepted (deflate allows them for the distance table of degenerate
/// blocks) and leave [`NO_CODE`] in the unassigned slots.
fn build_table(
    table: &mut [Entry],
    root: u32,
    lengths: &[u8],
    sorted: &mut [u16; MAX_LENGTHS],
    entry_of: fn(usize) -> Entry,
) -> Result<()> {
    let mut counts = [0u16; 16];
    for &l in lengths {
        counts[l as usize] += 1;
    }
    counts[0] = 0;
    let mut left = 1i32;
    for &count in &counts[1..] {
        left = (left << 1) - count as i32;
        if left < 0 {
            return Err(corrupt("over-subscribed huffman code lengths"));
        }
    }
    // Symbols sorted by (length, symbol value): canonical code order.
    let mut offsets = [0u16; 16];
    for l in 1..15 {
        offsets[l + 1] = offsets[l] + counts[l];
    }
    for (sym, &l) in lengths.iter().enumerate() {
        if l != 0 {
            sorted[offsets[l as usize] as usize] = sym as u16;
            offsets[l as usize] += 1;
        }
    }

    let primary = 1usize << root;
    table[..primary].fill(NO_CODE);
    let mut next_free = primary;
    // The subtable being filled: its first-level slot, where it starts, its
    // index width. Codes sharing a root prefix are consecutive.
    let (mut sub_prefix, mut sub_start, mut sub_bits) = (usize::MAX, 0usize, 0u32);
    let mut code = 0u32;
    let mut next_symbol = sorted.iter();
    for len in 1..=15u32 {
        for nth in 0..counts[len as usize] {
            let sym = *next_symbol
                .next()
                .expect("one sorted symbol per counted code");
            let entry = entry_of(sym as usize) | len;
            // Deflate packs codes most significant bit first into a stream
            // read least significant bit first: index by the reversed code.
            let reversed = ((code as u16).reverse_bits() >> (16 - len)) as usize;
            code += 1;
            if len <= root {
                for slot in table[reversed..primary].iter_mut().step_by(1 << len) {
                    *slot = entry;
                }
                continue;
            }
            let prefix = reversed & (primary - 1);
            if prefix != sub_prefix {
                // Width: grow until the codes not yet placed fill the
                // subtree under this prefix (or run out).
                let mut longest = len as usize;
                let mut bits = len - root;
                let mut free = (1i32 << bits) - (counts[longest] - nth) as i32;
                while free > 0 && longest < 15 {
                    longest += 1;
                    bits += 1;
                    free = (free << 1) - counts[longest] as i32;
                }
                (sub_prefix, sub_start, sub_bits) = (prefix, next_free, bits);
                next_free += 1 << bits;
                table[sub_start..next_free].fill(NO_CODE);
                table[prefix] = KIND_SUBTABLE | (sub_start as u32) << 16 | bits << 4 | root;
            }
            let sub_end = sub_start + (1 << sub_bits);
            for slot in table[sub_start + (reversed >> root)..sub_end]
                .iter_mut()
                .step_by(1 << (len - root))
            {
                *slot = entry;
            }
        }
        code <<= 1;
    }
    Ok(())
}

/// The compressed input: one buffer read straight from the source, and the
/// bit buffer on top of it. Every input byte — headers and trailers
/// included — passes through the bit buffer, so there is one cursor.
struct Input<R> {
    inner: R,
    buf: Box<[u8; INPUT_BUF]>,
    pos: usize,
    len: usize,
    /// The source has reported end of input.
    eof: bool,
    /// The next `bit_count` bits of the stream, least significant first.
    /// Bits above `bit_count` are zero or a copy of what `buf[pos..]` holds.
    bits: u64,
    bit_count: u32,
}

impl<R: Read> Input<R> {
    /// Read more input behind `buf[..len]`; false at end of input.
    fn read_more(&mut self) -> Result<bool> {
        while !self.eof {
            match self.inner.read(&mut self.buf[self.len..]) {
                Ok(0) => self.eof = true,
                Ok(n) => {
                    self.len += n;
                    return Ok(true);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(false)
    }

    /// Top the bit buffer up to at least 56 bits, or to everything that is
    /// left when the input ends sooner.
    #[inline(always)]
    fn refill(&mut self) -> Result<()> {
        if let Some(word) = self.buf[self.pos..self.len].first_chunk::<8>() {
            self.bits |= u64::from_le_bytes(*word) << self.bit_count;
            self.pos += (63 - self.bit_count as usize) >> 3;
            self.bit_count |= 56;
            Ok(())
        } else {
            self.refill_bytewise()
        }
    }

    /// [`Self::refill`] near the end of the buffer: byte by byte, reading
    /// the next buffer-full when this one is used up.
    #[cold]
    fn refill_bytewise(&mut self) -> Result<()> {
        while self.bit_count < 56 {
            if self.pos == self.len {
                (self.pos, self.len) = (0, 0);
                if !self.read_more()? {
                    break;
                }
            }
            self.bits |= (self.buf[self.pos] as u64) << self.bit_count;
            self.pos += 1;
            self.bit_count += 8;
        }
        Ok(())
    }

    /// Take the next `n <= 32` bits; a stream that ends first is truncated.
    fn take(&mut self, n: u32) -> Result<u32> {
        if self.bit_count < n {
            self.refill()?;
            if self.bit_count < n {
                return Err(truncated());
            }
        }
        let out = self.bits & ((1u64 << n) - 1);
        self.bits >>= n;
        self.bit_count -= n;
        Ok(out as u32)
    }

    fn byte(&mut self) -> Result<u8> {
        Ok(self.take(8)? as u8)
    }

    fn align_to_byte(&mut self) {
        let partial = self.bit_count % 8;
        self.bits >>= partial;
        self.bit_count -= partial;
    }

    /// Decode one symbol of a single-level table (the code-length code).
    fn decode(&mut self, table: &[Entry; 1 << CLEN_ROOT]) -> Result<usize> {
        if self.bit_count < 15 {
            self.refill()?;
        }
        let entry = table[self.bits as usize & ((1 << CLEN_ROOT) - 1)];
        let len = entry & ENTRY_LEN;
        if len > self.bit_count {
            return Err(truncated());
        }
        if entry == NO_CODE {
            return Err(corrupt("invalid huffman code"));
        }
        self.bits >>= len;
        self.bit_count -= len;
        Ok(entry_value(entry))
    }

    /// Whether `n` more whole bytes can be had (byte-aligned callers only),
    /// reading ahead as needed. `n` is at most [`STORED_CHUNK`].
    fn has_bytes(&mut self, n: usize) -> Result<bool> {
        while (self.bit_count / 8) as usize + (self.len - self.pos) < n {
            self.buf.copy_within(self.pos..self.len, 0);
            (self.pos, self.len) = (0, self.len - self.pos);
            if !self.read_more()? {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// What the inflater is currently working through.
#[derive(Clone, Copy)]
enum State {
    /// Before a member's header: the start of the file, or after a member.
    Member { first: bool },
    /// Between blocks; `last_seen` once the final block has been consumed.
    Boundary { last_seen: bool },
    /// Inside a stored block with this many bytes left to copy.
    Stored { remaining: usize, last: bool },
    /// Inside a compressed block whose tables are in place.
    Huffman { last: bool },
    /// Every member decoded and verified, input exhausted.
    Done,
}

/// How one run of the symbol loop ended.
enum Stop {
    EndOfBlock,
    WindowFull,
    Fault(Error),
}

/// Streaming gzip decompressor over any [`Read`].
///
/// Reads compressed bytes on demand and serves decompressed bytes through
/// [`Read::read`] or, without a copy, [`BufRead::fill_buf`], keeping only a
/// 32 KiB sliding window, a 16 KiB input buffer and the decode tables
/// resident — memory is O(1) in the archive size and nothing is allocated
/// after construction. The gzip header is parsed lazily on the first read;
/// each member's CRC32/ISIZE trailer is checked when its deflate stream
/// ends, so a fully drained reader is a verified one.
pub struct GzipReader<R: Read> {
    input: Input<R>,
    /// Sliding output window (ring buffer): `avail` undelivered bytes end
    /// at `wpos`.
    window: Box<[u8; WINDOW]>,
    wpos: usize,
    avail: usize,
    tables: Box<Tables>,
    /// Running CRC32 / byte count of the current member's decoded output.
    crc: u32,
    member_len: u64,
    state: State,
    /// The first fault met, raised once everything decoded before it has
    /// been delivered, and again by every later read.
    fault: Option<(ErrorKind, String)>,
}

impl<R: Read> GzipReader<R> {
    /// Wrap `inner`, which must yield a complete gzip file: one member or
    /// several back to back.
    pub fn new(inner: R) -> Self {
        GzipReader {
            input: Input {
                inner,
                buf: Box::new([0u8; INPUT_BUF]),
                pos: 0,
                len: 0,
                eof: false,
                bits: 0,
                bit_count: 0,
            },
            window: Box::new([0u8; WINDOW]),
            wpos: 0,
            avail: 0,
            tables: Box::new(Tables {
                lit: [NO_CODE; LIT_TABLE],
                dist: [NO_CODE; DIST_TABLE],
                clen: [NO_CODE; 1 << CLEN_ROOT],
                lengths: [0; MAX_LENGTHS],
                sorted: [0; MAX_LENGTHS],
            }),
            crc: 0,
            member_len: 0,
            state: State::Member { first: true },
            fault: None,
        }
    }

    /// Parse a member header, or find the end of the file. After a verified
    /// member, end of input ends the stream, the gzip magic starts the next
    /// member, and anything else is trailing data.
    fn begin_member(&mut self, first: bool) -> Result<()> {
        let input = &mut self.input;
        if !first {
            input.refill()?;
            if input.bit_count == 0 {
                self.state = State::Done;
                return Ok(());
            }
            if input.bit_count < 16 || (input.bits as u16).to_le_bytes() != GZIP_MAGIC {
                return Err(corrupt("trailing data after gzip member"));
            }
        }
        if [input.byte()?, input.byte()?] != GZIP_MAGIC {
            return Err(corrupt("not a gzip stream (bad magic)"));
        }
        let cm = input.byte()?;
        if cm != 8 {
            return Err(corrupt(format!("unsupported gzip compression method {cm}")));
        }
        let flg = input.byte()?;
        for _ in 0..6 {
            input.byte()?; // MTIME, XFL, OS
        }
        if flg & 0x04 != 0 {
            // FEXTRA
            let lo = input.byte()? as usize;
            let hi = input.byte()? as usize;
            for _ in 0..(hi << 8 | lo) {
                input.byte()?;
            }
        }
        if flg & 0x08 != 0 {
            while input.byte()? != 0 {} // FNAME
        }
        if flg & 0x10 != 0 {
            while input.byte()? != 0 {} // FCOMMENT
        }
        if flg & 0x02 != 0 {
            input.byte()?;
            input.byte()?; // FHCRC
        }
        (self.crc, self.member_len) = (0, 0);
        self.state = State::Boundary { last_seen: false };
        Ok(())
    }

    fn begin_block(&mut self) -> Result<()> {
        let input = &mut self.input;
        let t = &mut *self.tables;
        let last = input.take(1)? == 1;
        match input.take(2)? {
            0 => {
                input.align_to_byte();
                let len = input.take(16)? as u16;
                let nlen = input.take(16)? as u16;
                if len != !nlen {
                    return Err(corrupt("stored block LEN/NLEN mismatch"));
                }
                self.state = State::Stored {
                    remaining: len as usize,
                    last,
                };
                return Ok(());
            }
            1 => {
                t.lengths[..144].fill(8);
                t.lengths[144..256].fill(9);
                t.lengths[256..280].fill(7);
                t.lengths[280..288].fill(8);
                build_table(
                    &mut t.lit,
                    LIT_ROOT,
                    &t.lengths[..288],
                    &mut t.sorted,
                    litlen_entry,
                )?;
                build_table(&mut t.dist, DIST_ROOT, &[5; 30], &mut t.sorted, dist_entry)?;
            }
            2 => {
                let hlit = input.take(5)? as usize + 257;
                let hdist = input.take(5)? as usize + 1;
                let hclen = input.take(4)? as usize + 4;
                let mut clen_lengths = [0u8; 19];
                for &pos in CLEN_ORDER.iter().take(hclen) {
                    clen_lengths[pos] = input.take(3)? as u8;
                }
                build_table(
                    &mut t.clen,
                    CLEN_ROOT,
                    &clen_lengths,
                    &mut t.sorted,
                    clen_entry,
                )?;
                let lengths = &mut t.lengths[..hlit + hdist];
                lengths.fill(0);
                let mut i = 0usize;
                while i < lengths.len() {
                    let sym = input.decode(&t.clen)?;
                    match sym {
                        0..=15 => {
                            lengths[i] = sym as u8;
                            i += 1;
                        }
                        16 => {
                            if i == 0 {
                                return Err(corrupt("length repeat with no previous length"));
                            }
                            let prev = lengths[i - 1];
                            let n = 3 + input.take(2)? as usize;
                            if i + n > lengths.len() {
                                return Err(corrupt("length repeat overflows the table"));
                            }
                            lengths[i..i + n].fill(prev);
                            i += n;
                        }
                        17 => {
                            let n = 3 + input.take(3)? as usize;
                            if i + n > lengths.len() {
                                return Err(corrupt("zero-length run overflows the table"));
                            }
                            i += n;
                        }
                        _ => {
                            let n = 11 + input.take(7)? as usize;
                            if i + n > lengths.len() {
                                return Err(corrupt("zero-length run overflows the table"));
                            }
                            i += n;
                        }
                    }
                }
                if lengths[256] == 0 {
                    return Err(corrupt("dynamic block without an end-of-block code"));
                }
                let (lit_lengths, dist_lengths) = lengths.split_at(hlit);
                build_table(
                    &mut t.lit,
                    LIT_ROOT,
                    lit_lengths,
                    &mut t.sorted,
                    litlen_entry,
                )?;
                build_table(
                    &mut t.dist,
                    DIST_ROOT,
                    dist_lengths,
                    &mut t.sorted,
                    dist_entry,
                )?;
            }
            _ => return Err(corrupt("reserved deflate block type")),
        }
        self.state = State::Huffman { last };
        Ok(())
    }

    /// Verify the member's trailer: CRC32 + ISIZE, little-endian,
    /// byte-aligned.
    fn finish_member(&mut self) -> Result<()> {
        self.input.align_to_byte();
        let crc = self.input.take(32)?;
        let isize = self.input.take(32)?;
        if crc != self.crc {
            return Err(corrupt(format!(
                "gzip CRC mismatch: stored {crc:#010x}, computed {:#010x}",
                self.crc
            )));
        }
        if isize != self.member_len as u32 {
            return Err(corrupt(format!(
                "gzip ISIZE mismatch: stored {isize}, decompressed {} (mod 2^32)",
                self.member_len as u32
            )));
        }
        self.state = State::Member { first: false };
        Ok(())
    }

    /// Copy stored bytes into the window, chunk by chunk, until the block
    /// ends or the window is full.
    fn copy_stored(&mut self, mut remaining: usize, last: bool) -> Result<()> {
        let input = &mut self.input;
        input.align_to_byte();
        while remaining > 0 && self.avail + STORED_CHUNK <= WINDOW {
            let n = remaining.min(STORED_CHUNK);
            if !input.has_bytes(n)? {
                return Err(truncated());
            }
            // Whole bytes the bit buffer already holds come first.
            let mut left = n;
            while left > 0 && input.bit_count > 0 {
                self.window[self.wpos] = input.bits as u8;
                self.wpos = (self.wpos + 1) & WINDOW_MASK;
                input.bits >>= 8;
                input.bit_count -= 8;
                left -= 1;
            }
            if left > 0 {
                input.bits = 0;
                let src = &input.buf[input.pos..input.pos + left];
                let head = left.min(WINDOW - self.wpos);
                self.window[self.wpos..self.wpos + head].copy_from_slice(&src[..head]);
                self.window[..left - head].copy_from_slice(&src[head..]);
                self.wpos = (self.wpos + left) & WINDOW_MASK;
                input.pos += left;
            }
            self.avail += n;
            remaining -= n;
        }
        self.state = match remaining {
            0 => State::Boundary { last_seen: last },
            _ => State::Stored { remaining, last },
        };
        Ok(())
    }

    /// The symbol loop of a compressed block: decode until the block ends,
    /// the window is full, or a fault. Called with nothing undelivered.
    fn inflate(&mut self) -> Stop {
        let input = &mut self.input;
        let window = &mut *self.window;
        let lit = &self.tables.lit;
        let dist_table = &self.tables.dist;
        let mut wpos = self.wpos;
        let mut produced = 0usize;
        let stop = loop {
            if produced + MAX_MATCH > WINDOW {
                break Stop::WindowFull;
            }
            // One refill covers a whole length/distance pair: 15 + 5 + 15 +
            // 13 bits. Past it only the end of the input leaves fewer, which
            // the length checks below report.
            if let Err(e) = input.refill() {
                break Stop::Fault(e);
            }
            let entry = lookup(lit, LIT_ROOT, input.bits);
            let len = entry & ENTRY_LEN;
            if len > input.bit_count {
                break Stop::Fault(truncated());
            }
            if entry & ENTRY_KIND == KIND_LITERAL {
                input.bits >>= len;
                input.bit_count -= len;
                window[wpos] = (entry >> 16) as u8;
                wpos = (wpos + 1) & WINDOW_MASK;
                produced += 1;
                continue;
            }
            match entry & ENTRY_KIND {
                KIND_BASE => {}
                KIND_END_OF_BLOCK => {
                    input.bits >>= len;
                    input.bit_count -= len;
                    break Stop::EndOfBlock;
                }
                KIND_RESERVED => break Stop::Fault(corrupt("invalid literal/length symbol")),
                _ => break Stop::Fault(corrupt("invalid huffman code")),
            }
            let extra = entry_extra(entry);
            if len + extra > input.bit_count {
                break Stop::Fault(truncated());
            }
            input.bits >>= len;
            let length = entry_value(entry) + (input.bits as usize & ((1 << extra) - 1));
            input.bits >>= extra;
            input.bit_count -= len + extra;

            let entry = lookup(dist_table, DIST_ROOT, input.bits);
            let len = entry & ENTRY_LEN;
            if len > input.bit_count {
                break Stop::Fault(truncated());
            }
            match entry & ENTRY_KIND {
                KIND_BASE => {}
                KIND_RESERVED => break Stop::Fault(corrupt("invalid distance symbol")),
                _ => break Stop::Fault(corrupt("invalid huffman code")),
            }
            let extra = entry_extra(entry);
            if len + extra > input.bit_count {
                break Stop::Fault(truncated());
            }
            input.bits >>= len;
            let distance = entry_value(entry) + (input.bits as usize & ((1 << extra) - 1));
            input.bits >>= extra;
            input.bit_count -= len + extra;
            if distance as u64 > self.member_len + produced as u64 {
                break Stop::Fault(corrupt("back-reference before stream start"));
            }

            let from = wpos.wrapping_sub(distance) & WINDOW_MASK;
            if from.max(wpos) + length <= WINDOW {
                if distance >= length {
                    window.copy_within(from..from + length, wpos);
                } else if distance == 1 {
                    let byte = window[from];
                    window[wpos..wpos + length].fill(byte);
                } else {
                    // The match overlaps its own output: the bytes repeat
                    // with period `distance`.
                    for i in 0..length {
                        window[wpos + i] = window[from + i];
                    }
                }
            } else {
                for i in 0..length {
                    window[(wpos + i) & WINDOW_MASK] = window[(from + i) & WINDOW_MASK];
                }
            }
            wpos = (wpos + length) & WINDOW_MASK;
            produced += length;
        };
        self.wpos = wpos;
        self.avail += produced;
        stop
    }

    /// One step of the state machine; see [`Self::fill`].
    fn step(&mut self) -> Result<()> {
        match self.state {
            State::Done => {}
            State::Member { first } => self.begin_member(first)?,
            State::Boundary { last_seen: true } => self.finish_member()?,
            State::Boundary { last_seen: false } => self.begin_block()?,
            State::Stored { remaining, last } => self.copy_stored(remaining, last)?,
            State::Huffman { last } => match self.inflate() {
                Stop::EndOfBlock => self.state = State::Boundary { last_seen: last },
                Stop::WindowFull => {}
                Stop::Fault(e) => return Err(e),
            },
        }
        Ok(())
    }

    /// Decode until at least one output byte is available or the stream
    /// ends. Called with nothing undelivered, so a member's trailer is only
    /// reached with its CRC complete. A fault is kept: whatever was decoded
    /// ahead of it is handed out first, then every call reports it.
    fn fill(&mut self) -> Result<()> {
        while self.avail == 0 && self.fault.is_none() && !matches!(self.state, State::Done) {
            if let Err(e) = self.step() {
                self.fault = Some((e.kind(), e.to_string()));
            }
        }
        // Everything undelivered is what this call decoded.
        let start = self.wpos.wrapping_sub(self.avail) & WINDOW_MASK;
        let head = self.avail.min(WINDOW - start);
        self.crc = crc32_update(self.crc, &self.window[start..start + head]);
        self.crc = crc32_update(self.crc, &self.window[..self.avail - head]);
        self.member_len += self.avail as u64;
        match &self.fault {
            Some((kind, message)) if self.avail == 0 => Err(Error::new(*kind, message.clone())),
            _ => Ok(()),
        }
    }
}

impl<R: Read> Read for GzipReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        if self.avail == 0 {
            self.fill()?; // leaves nothing only at the verified end of stream
        }
        let n = self.avail.min(buf.len());
        let start = self.wpos.wrapping_sub(self.avail) & WINDOW_MASK;
        let head = n.min(WINDOW - start);
        buf[..head].copy_from_slice(&self.window[start..start + head]);
        buf[head..n].copy_from_slice(&self.window[..n - head]);
        self.avail -= n;
        Ok(n)
    }
}

/// The undelivered bytes straight out of the window (up to where it wraps):
/// a line reader on top needs no buffer of its own.
impl<R: Read> BufRead for GzipReader<R> {
    fn fill_buf(&mut self) -> Result<&[u8]> {
        if self.avail == 0 {
            self.fill()?;
        }
        let start = self.wpos.wrapping_sub(self.avail) & WINDOW_MASK;
        Ok(&self.window[start..(start + self.avail).min(WINDOW)])
    }

    fn consume(&mut self, amount: usize) {
        self.avail -= amount.min(self.avail);
    }
}

/// Compress `data` into a complete gzip member using stored (uncompressed)
/// deflate blocks — valid input for any inflater, including [`GzipReader`].
/// Used to fabricate `.swf.gz` fixtures; real archives arrive compressed.
pub fn compress_stored(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() + 32 + data.len() / 65_535 * 5);
    out.extend_from_slice(&GZIP_MAGIC);
    out.push(8); // CM = deflate
    out.push(0); // FLG
    out.extend_from_slice(&[0, 0, 0, 0]); // MTIME
    out.push(0); // XFL
    out.push(255); // OS = unknown
    let mut chunks = data.chunks(65_535).peekable();
    if data.is_empty() {
        out.push(0x01); // final empty stored block
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&(!0u16).to_le_bytes());
    }
    while let Some(chunk) = chunks.next() {
        out.push(if chunks.peek().is_none() { 0x01 } else { 0x00 });
        let len = chunk.len() as u16;
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&(!len).to_le_bytes());
        out.extend_from_slice(chunk);
    }
    out.extend_from_slice(&crc32_update(0, data).to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out
}

/// Write `data` to `path` as a gzip member (stored blocks).
pub fn write_gz(path: &std::path::Path, data: &[u8]) -> Result<()> {
    std::fs::write(path, compress_stored(data))
}

/// Decompress a complete gzip file held in memory (test convenience).
pub fn decompress(data: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    GzipReader::new(data).read_to_end(&mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // CRC32("123456789") = 0xCBF43926, the classic check value.
        assert_eq!(crc32_update(0, b"123456789"), 0xCBF4_3926);
        // Incremental == one-shot.
        let a = crc32_update(0, b"1234");
        assert_eq!(crc32_update(a, b"56789"), 0xCBF4_3926);
    }

    #[test]
    fn stored_roundtrip() {
        for data in [
            &b""[..],
            &b"hello, gzip"[..],
            &vec![0xAB; 200_000][..], // multiple stored blocks
        ] {
            let gz = compress_stored(data);
            assert!(is_gzip(&gz));
            assert_eq!(decompress(&gz).unwrap(), data);
        }
    }

    #[test]
    fn tiny_read_chunks_see_the_same_bytes() {
        let data: Vec<u8> = (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect();
        let gz = compress_stored(&data);
        let mut r = GzipReader::new(&gz[..]);
        let mut out = Vec::new();
        let mut buf = [0u8; 3];
        loop {
            let n = r.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            out.extend_from_slice(&buf[..n]);
        }
        assert_eq!(out, data);
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let gz = compress_stored(b"some trace data that will be cut short");
        for cut in [3, 12, gz.len() - 3] {
            let err = decompress(&gz[..cut]).unwrap_err();
            assert!(
                matches!(
                    err.kind(),
                    ErrorKind::UnexpectedEof | ErrorKind::InvalidData
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn corrupted_payload_fails_the_crc() {
        let mut gz = compress_stored(b"bytes whose checksum is pinned in the trailer");
        let payload_at = 10 + 5; // header + stored-block header
        gz[payload_at] ^= 0x40;
        let err = decompress(&gz).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert!(err.to_string().contains("CRC"), "{err}");
    }

    #[test]
    fn corrupted_isize_is_reported() {
        let mut gz = compress_stored(b"length is pinned too");
        let n = gz.len();
        gz[n - 1] ^= 0x01;
        let err = decompress(&gz).unwrap_err();
        assert!(err.to_string().contains("ISIZE"), "{err}");
    }

    #[test]
    fn bad_magic_and_bad_method_are_rejected() {
        let mut gz = compress_stored(b"x");
        gz[0] = 0x1e;
        assert!(decompress(&gz).unwrap_err().to_string().contains("magic"));
        let mut gz = compress_stored(b"x");
        gz[2] = 7;
        assert!(decompress(&gz)
            .unwrap_err()
            .to_string()
            .contains("compression method"));
    }

    #[test]
    fn stored_len_nlen_mismatch_is_rejected() {
        let mut gz = compress_stored(b"abcdef");
        // Byte 10 is the stored-block header; bytes 11..15 are LEN/NLEN.
        gz[13] ^= 0xFF;
        let err = decompress(&gz).unwrap_err();
        assert!(err.to_string().contains("LEN/NLEN"), "{err}");
    }

    /// A handcrafted fixed-Huffman member: literals "ab" then a
    /// length-3/distance-2 match, yielding "ababa". Exercises the
    /// compressed-block decoder without a reference compressor.
    #[test]
    fn fixed_huffman_with_back_reference() {
        let mut bits: Vec<bool> = Vec::new();
        let push_code = |bits: &mut Vec<bool>, code: u32, n: u32| {
            // Huffman codes are written MSB-first.
            for i in (0..n).rev() {
                bits.push(code >> i & 1 == 1);
            }
        };
        let push_int = |bits: &mut Vec<bool>, v: u32, n: u32| {
            // Extra-bit integers are written LSB-first.
            for i in 0..n {
                bits.push(v >> i & 1 == 1);
            }
        };
        // Block header: BFINAL=1, BTYPE=01 (LSB-first).
        push_int(&mut bits, 1, 1);
        push_int(&mut bits, 1, 2);
        // 'a' = 97 → fixed code 0x30 + 97, 8 bits; same for 'b'.
        push_code(&mut bits, 0x30 + 97, 8);
        push_code(&mut bits, 0x30 + 98, 8);
        // Length 3 → symbol 257, fixed 7-bit code 0b0000001; no extra bits.
        push_code(&mut bits, 1, 7);
        // Distance 2 → symbol 1, 5-bit code; no extra bits.
        push_code(&mut bits, 1, 5);
        // End of block → symbol 256, 7-bit code 0.
        push_code(&mut bits, 0, 7);
        let mut deflate = Vec::new();
        for chunk in bits.chunks(8) {
            let mut b = 0u8;
            for (i, &bit) in chunk.iter().enumerate() {
                b |= (bit as u8) << i;
            }
            deflate.push(b);
        }
        let mut gz = vec![0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 255];
        gz.extend_from_slice(&deflate);
        gz.extend_from_slice(&crc32_update(0, b"ababa").to_le_bytes());
        gz.extend_from_slice(&5u32.to_le_bytes());
        assert_eq!(decompress(&gz).unwrap(), b"ababa");
    }
}
