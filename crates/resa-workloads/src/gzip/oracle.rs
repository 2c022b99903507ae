//! The bit-by-bit inflater [`super::GzipReader`] replaced, kept as the test
//! oracle for it (`differential.rs`): the classic `puff` construction —
//! per-length symbol counts plus a sorted symbol table, one Huffman bit per
//! `read_bits(1)`, one symbol per `fill`, one byte per window access. It
//! reads exactly one gzip member and never looks past its trailer;
//! [`PuffReader::consumed`] says where that was.

use super::{
    corrupt, crc32_update, truncated, CLEN_ORDER, DIST_BASE, DIST_EXTRA, GZIP_MAGIC, LEN_BASE,
    LEN_EXTRA, WINDOW,
};
use std::io::{Read, Result};

/// Canonical Huffman decoding table: `counts[l]` codes of length `l`,
/// symbols sorted by (length, symbol value).
struct Huffman {
    counts: [u16; 16],
    symbols: Vec<u16>,
}

impl Huffman {
    /// Build from per-symbol code lengths (0 = unused). Rejects
    /// over-subscribed length sets; incomplete sets are accepted (deflate
    /// allows them for the distance table of degenerate blocks).
    fn new(lengths: &[u8]) -> Result<Self> {
        let mut counts = [0u16; 16];
        for &l in lengths {
            if l > 15 {
                return Err(corrupt("huffman code length exceeds 15"));
            }
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
        let mut offsets = [0u16; 16];
        for l in 1..15 {
            offsets[l + 1] = offsets[l] + counts[l];
        }
        let mut symbols = vec![0u16; lengths.iter().filter(|&&l| l != 0).count()];
        for (sym, &l) in lengths.iter().enumerate() {
            if l != 0 {
                symbols[offsets[l as usize] as usize] = sym as u16;
                offsets[l as usize] += 1;
            }
        }
        Ok(Huffman { counts, symbols })
    }
}

/// What the inflater is currently working through.
enum BlockState {
    /// Between blocks; `true` once the final block has been consumed.
    Boundary { last_seen: bool },
    /// Inside a stored block with this many bytes left to copy.
    Stored { remaining: u16, last: bool },
    /// Inside a compressed block with these tables.
    Huffman {
        litlen: Huffman,
        dist: Huffman,
        last: bool,
    },
    /// Deflate stream fully decoded and trailer verified.
    Done,
}

/// The pre-PR 22 streaming gzip decompressor, single member.
pub(super) struct PuffReader<R: Read> {
    inner: R,
    in_buf: Vec<u8>,
    in_pos: usize,
    in_len: usize,
    /// Bytes taken from `inner` so far (the one addition to the old reader).
    in_total: usize,
    bit_buf: u32,
    bit_count: u32,
    window: Box<[u8]>,
    wpos: usize,
    avail: usize,
    crc: u32,
    out_len: u64,
    header_done: bool,
    state: BlockState,
}

impl<R: Read> PuffReader<R> {
    pub(super) fn new(inner: R) -> Self {
        PuffReader {
            inner,
            in_buf: vec![0u8; 8 * 1024],
            in_pos: 0,
            in_len: 0,
            in_total: 0,
            bit_buf: 0,
            bit_count: 0,
            window: vec![0u8; WINDOW].into_boxed_slice(),
            wpos: 0,
            avail: 0,
            crc: 0,
            out_len: 0,
            header_done: false,
            state: BlockState::Boundary { last_seen: false },
        }
    }

    /// Input bytes decoded so far: once the reader has ended cleanly, the
    /// length of the member.
    pub(super) fn consumed(&self) -> usize {
        self.in_total - (self.in_len - self.in_pos)
    }

    fn next_byte(&mut self) -> Result<u8> {
        if self.in_pos == self.in_len {
            self.in_len = self.inner.read(&mut self.in_buf)?;
            self.in_total += self.in_len;
            self.in_pos = 0;
            if self.in_len == 0 {
                return Err(truncated());
            }
        }
        let b = self.in_buf[self.in_pos];
        self.in_pos += 1;
        Ok(b)
    }

    fn read_bits(&mut self, n: u32) -> Result<u32> {
        while self.bit_count < n {
            let b = self.next_byte()?;
            self.bit_buf |= (b as u32) << self.bit_count;
            self.bit_count += 8;
        }
        let out = if n == 0 {
            0
        } else {
            self.bit_buf & ((1u32 << n) - 1)
        };
        self.bit_buf >>= n;
        self.bit_count -= n;
        Ok(out)
    }

    fn drop_partial_bits(&mut self) {
        let drop = self.bit_count % 8;
        self.bit_buf >>= drop;
        self.bit_count -= drop;
    }

    fn decode(&mut self, which: Which) -> Result<u16> {
        let mut code = 0usize;
        let mut first = 0usize;
        let mut index = 0usize;
        for len in 1..=15usize {
            code |= self.read_bits(1)? as usize;
            let h = match (&self.state, which) {
                (BlockState::Huffman { litlen, .. }, Which::LitLen) => litlen,
                (BlockState::Huffman { dist, .. }, Which::Dist) => dist,
                _ => unreachable!("decode called outside a huffman block"),
            };
            let count = h.counts[len] as usize;
            if code < first + count {
                return Ok(h.symbols[index + (code - first)]);
            }
            index += count;
            first = (first + count) << 1;
            code <<= 1;
        }
        Err(corrupt("invalid huffman code"))
    }

    /// Decode with an explicit table (used while reading dynamic headers,
    /// before the block tables are installed in `state`).
    fn decode_with(&mut self, h: &Huffman) -> Result<u16> {
        let mut code = 0usize;
        let mut first = 0usize;
        let mut index = 0usize;
        for len in 1..=15usize {
            code |= self.read_bits(1)? as usize;
            let count = h.counts[len] as usize;
            if code < first + count {
                return Ok(h.symbols[index + (code - first)]);
            }
            index += count;
            first = (first + count) << 1;
            code <<= 1;
        }
        Err(corrupt("invalid huffman code"))
    }

    fn push_out(&mut self, b: u8) {
        self.window[self.wpos] = b;
        self.wpos = (self.wpos + 1) % WINDOW;
        self.avail += 1;
    }

    fn parse_header(&mut self) -> Result<()> {
        let m0 = self.next_byte()?;
        let m1 = self.next_byte()?;
        if [m0, m1] != GZIP_MAGIC {
            return Err(corrupt("not a gzip stream (bad magic)"));
        }
        let cm = self.next_byte()?;
        if cm != 8 {
            return Err(corrupt(format!("unsupported gzip compression method {cm}")));
        }
        let flg = self.next_byte()?;
        for _ in 0..6 {
            self.next_byte()?; // MTIME, XFL, OS
        }
        if flg & 0x04 != 0 {
            // FEXTRA
            let lo = self.next_byte()? as usize;
            let hi = self.next_byte()? as usize;
            for _ in 0..(hi << 8 | lo) {
                self.next_byte()?;
            }
        }
        if flg & 0x08 != 0 {
            while self.next_byte()? != 0 {} // FNAME
        }
        if flg & 0x10 != 0 {
            while self.next_byte()? != 0 {} // FCOMMENT
        }
        if flg & 0x02 != 0 {
            self.next_byte()?;
            self.next_byte()?; // FHCRC
        }
        self.header_done = true;
        Ok(())
    }

    fn begin_block(&mut self) -> Result<()> {
        let last = self.read_bits(1)? == 1;
        let btype = self.read_bits(2)?;
        match btype {
            0 => {
                self.drop_partial_bits();
                let len = self.read_bits(16)? as u16;
                let nlen = self.read_bits(16)? as u16;
                if len != !nlen {
                    return Err(corrupt("stored block LEN/NLEN mismatch"));
                }
                self.state = BlockState::Stored {
                    remaining: len,
                    last,
                };
            }
            1 => {
                let mut litlen = [0u8; 288];
                litlen[..144].fill(8);
                litlen[144..256].fill(9);
                litlen[256..280].fill(7);
                litlen[280..288].fill(8);
                let dist = [5u8; 30];
                self.state = BlockState::Huffman {
                    litlen: Huffman::new(&litlen)?,
                    dist: Huffman::new(&dist)?,
                    last,
                };
            }
            2 => {
                let hlit = self.read_bits(5)? as usize + 257;
                let hdist = self.read_bits(5)? as usize + 1;
                let hclen = self.read_bits(4)? as usize + 4;
                let mut clen_lengths = [0u8; 19];
                for &pos in CLEN_ORDER.iter().take(hclen) {
                    clen_lengths[pos] = self.read_bits(3)? as u8;
                }
                let clen = Huffman::new(&clen_lengths)?;
                let mut lengths = vec![0u8; hlit + hdist];
                let mut i = 0usize;
                while i < lengths.len() {
                    let sym = self.decode_with(&clen)?;
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
                            let n = 3 + self.read_bits(2)? as usize;
                            if i + n > lengths.len() {
                                return Err(corrupt("length repeat overflows the table"));
                            }
                            lengths[i..i + n].fill(prev);
                            i += n;
                        }
                        17 => {
                            let n = 3 + self.read_bits(3)? as usize;
                            if i + n > lengths.len() {
                                return Err(corrupt("zero-length run overflows the table"));
                            }
                            i += n;
                        }
                        18 => {
                            let n = 11 + self.read_bits(7)? as usize;
                            if i + n > lengths.len() {
                                return Err(corrupt("zero-length run overflows the table"));
                            }
                            i += n;
                        }
                        _ => return Err(corrupt("invalid code-length symbol")),
                    }
                }
                if lengths[256] == 0 {
                    return Err(corrupt("dynamic block without an end-of-block code"));
                }
                self.state = BlockState::Huffman {
                    litlen: Huffman::new(&lengths[..hlit])?,
                    dist: Huffman::new(&lengths[hlit..])?,
                    last,
                };
            }
            _ => return Err(corrupt("reserved deflate block type")),
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<()> {
        // Trailer: CRC32 + ISIZE, little-endian, byte-aligned.
        self.drop_partial_bits();
        let mut trailer = [0u8; 8];
        for b in trailer.iter_mut() {
            *b = self.next_byte()?;
        }
        let crc = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        let isize = u32::from_le_bytes([trailer[4], trailer[5], trailer[6], trailer[7]]);
        if crc != self.crc {
            return Err(corrupt(format!(
                "gzip CRC mismatch: stored {crc:#010x}, computed {:#010x}",
                self.crc
            )));
        }
        if isize != self.out_len as u32 {
            return Err(corrupt(format!(
                "gzip ISIZE mismatch: stored {isize}, decompressed {} (mod 2^32)",
                self.out_len as u32
            )));
        }
        self.state = BlockState::Done;
        Ok(())
    }

    /// Decode until at least one output byte is available (or the stream
    /// ends). One call decodes at most one symbol / one stored chunk, so
    /// `avail` stays far below the window size.
    fn fill(&mut self) -> Result<()> {
        if !self.header_done {
            self.parse_header()?;
        }
        while self.avail == 0 {
            match &mut self.state {
                BlockState::Done => return Ok(()),
                BlockState::Boundary { last_seen } => {
                    if *last_seen {
                        self.finish()?;
                        return Ok(());
                    }
                    self.begin_block()?;
                }
                BlockState::Stored { remaining, last } => {
                    if *remaining == 0 {
                        let last = *last;
                        self.state = BlockState::Boundary { last_seen: last };
                        continue;
                    }
                    let n = (*remaining).min(4096);
                    *remaining -= n;
                    self.drop_partial_bits();
                    for _ in 0..n {
                        let b = self.next_byte()?;
                        self.push_out(b);
                    }
                }
                BlockState::Huffman { last, .. } => {
                    let last = *last;
                    let sym = self.decode(Which::LitLen)?;
                    match sym {
                        0..=255 => self.push_out(sym as u8),
                        256 => self.state = BlockState::Boundary { last_seen: last },
                        257..=285 => {
                            let idx = (sym - 257) as usize;
                            let len = LEN_BASE[idx] as usize
                                + self.read_bits(LEN_EXTRA[idx] as u32)? as usize;
                            let dsym = self.decode(Which::Dist)? as usize;
                            if dsym >= 30 {
                                return Err(corrupt("invalid distance symbol"));
                            }
                            let dist = DIST_BASE[dsym] as usize
                                + self.read_bits(DIST_EXTRA[dsym] as u32)? as usize;
                            if dist as u64 > self.out_len + self.avail as u64 {
                                return Err(corrupt("back-reference before stream start"));
                            }
                            for _ in 0..len {
                                let b = self.window[(self.wpos + WINDOW - dist) % WINDOW];
                                self.push_out(b);
                            }
                        }
                        _ => return Err(corrupt("invalid literal/length symbol")),
                    }
                }
            }
        }
        Ok(())
    }
}

#[derive(Clone, Copy)]
enum Which {
    LitLen,
    Dist,
}

impl<R: Read> Read for PuffReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        if self.avail == 0 {
            self.fill()?;
            if self.avail == 0 {
                return Ok(0); // verified end of stream
            }
        }
        let n = self.avail.min(buf.len());
        let start = (self.wpos + WINDOW - self.avail) % WINDOW;
        for (i, slot) in buf[..n].iter_mut().enumerate() {
            *slot = self.window[(start + i) % WINDOW];
        }
        self.avail -= n;
        self.crc = crc32_update(self.crc, &buf[..n]);
        self.out_len += n as u64;
        Ok(n)
    }
}
