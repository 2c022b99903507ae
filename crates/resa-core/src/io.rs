//! On-disk formats: the textual instance format, and the record log,
//! checksum and atomic-replace primitives every binary file shares.
//!
//! # Textual instances
//!
//! A small, line-oriented format so instances can be stored in files, shared
//! between the experiment binaries, and attached to bug reports:
//!
//! ```text
//! # comments start with '#'
//! machines 8
//! job <width> <duration> [release]
//! reservation <width> <duration> <start>
//! ```
//!
//! Jobs and reservations are numbered densely in file order.
//!
//! # Record logs
//!
//! The resident service's op journal (`resa_sim::journal`) and each sweep
//! shard's log (`resa sweep --shard-dir`) are append-only sequences of
//! records, every one framed as
//!
//! ```text
//! [payload len: u32 LE][crc32(payload): u32 LE][payload bytes]
//! ```
//!
//! [`open_log`] opens a log for appending, [`frame_record`] writes a frame,
//! and [`Frames`] walks a file image from the front, yields each payload,
//! and stops at the first frame that is cut short, implausibly long or
//! fails its checksum — a *torn tail*, which a writer truncates back to
//! [`Frames::valid_len`] before appending again.
//! Payload fields are fixed-width little-endian: [`put_u32`] and friends
//! write them, [`Cursor`] reads them back. [`crc32`] is CRC-32 with the IEEE
//! polynomial, the same function gzip's member trailer uses.
//!
//! # Atomic replacement
//!
//! A file that is rewritten whole (a compacted journal, a shard manifest, a
//! trace-cache entry and its sidecar) is written under a temporary sibling
//! name, synced, and renamed over its target, and the directory is synced:
//! a reader sees the old content or the new, never a prefix. [`stage`]
//! writes and syncs the temporary file, [`Staged::commit`] renames it and
//! hands back the synced file, and [`atomic_write`] does both.

use crate::error::ModelError;
use crate::instance::ResaInstance;
use crate::job::Job;
use crate::reservation::Reservation;
use crate::time::Time;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Errors raised while parsing the textual instance format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A line starts with an unknown directive.
    UnknownDirective {
        /// 1-based line number of the unknown directive.
        line: usize,
        /// The directive as written.
        directive: String,
    },
    /// A directive has the wrong number of arguments.
    WrongArity {
        /// 1-based line number of the malformed directive.
        line: usize,
        /// The directive concerned.
        directive: &'static str,
        /// The argument shape it expects.
        expected: &'static str,
    },
    /// An argument is not a non-negative integer.
    BadNumber {
        /// 1-based line number of the malformed argument.
        line: usize,
        /// The argument as written.
        argument: String,
    },
    /// The `machines` directive is missing or appears after jobs/reservations.
    MachinesNotFirst {
        /// 1-based line number where the parser gave up.
        line: usize,
    },
    /// The parsed instance fails model validation.
    Invalid(ModelError),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::UnknownDirective { line, directive } => {
                write!(f, "line {line}: unknown directive '{directive}'")
            }
            ParseError::WrongArity {
                line,
                directive,
                expected,
            } => write!(f, "line {line}: '{directive}' expects {expected}"),
            ParseError::BadNumber { line, argument } => {
                write!(f, "line {line}: '{argument}' is not a non-negative integer")
            }
            ParseError::MachinesNotFirst { line } => write!(
                f,
                "line {line}: 'machines <m>' must appear once, before any job or reservation"
            ),
            ParseError::Invalid(e) => write!(f, "instance is invalid: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<ModelError> for ParseError {
    fn from(e: ModelError) -> Self {
        ParseError::Invalid(e)
    }
}

/// Parse an instance from its textual form.
pub fn parse_instance(text: &str) -> Result<ResaInstance, ParseError> {
    let mut machines: Option<u32> = None;
    let mut jobs: Vec<Job> = Vec::new();
    let mut reservations: Vec<Reservation> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut fields = trimmed.split_whitespace();
        let directive = fields.next().expect("non-empty line has a first token");
        let args: Vec<&str> = fields.collect();
        let num = |s: &str| -> Result<u64, ParseError> {
            s.parse::<u64>().map_err(|_| ParseError::BadNumber {
                line,
                argument: s.to_string(),
            })
        };
        match directive {
            "machines" => {
                if machines.is_some() || !jobs.is_empty() || !reservations.is_empty() {
                    return Err(ParseError::MachinesNotFirst { line });
                }
                if args.len() != 1 {
                    return Err(ParseError::WrongArity {
                        line,
                        directive: "machines",
                        expected: "exactly one argument: the machine count",
                    });
                }
                machines = Some(num(args[0])? as u32);
            }
            "job" => {
                if machines.is_none() {
                    return Err(ParseError::MachinesNotFirst { line });
                }
                if args.len() != 2 && args.len() != 3 {
                    return Err(ParseError::WrongArity {
                        line,
                        directive: "job",
                        expected: "<width> <duration> [release]",
                    });
                }
                let width = num(args[0])? as u32;
                let duration = num(args[1])?;
                let release = if args.len() == 3 { num(args[2])? } else { 0 };
                jobs.push(Job::released_at(jobs.len(), width, duration, release));
            }
            "reservation" => {
                if machines.is_none() {
                    return Err(ParseError::MachinesNotFirst { line });
                }
                if args.len() != 3 {
                    return Err(ParseError::WrongArity {
                        line,
                        directive: "reservation",
                        expected: "<width> <duration> <start>",
                    });
                }
                let width = num(args[0])? as u32;
                let duration = num(args[1])?;
                let start = num(args[2])?;
                reservations.push(Reservation::new(reservations.len(), width, duration, start));
            }
            other => {
                return Err(ParseError::UnknownDirective {
                    line,
                    directive: other.to_string(),
                })
            }
        }
    }
    let machines = machines.ok_or(ParseError::MachinesNotFirst { line: 0 })?;
    Ok(ResaInstance::new(machines, jobs, reservations)?)
}

/// Serialize an instance to the textual form.
pub fn write_instance(instance: &ResaInstance) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# resa-sched instance");
    let _ = writeln!(
        out,
        "# {} jobs, {} reservations",
        instance.n_jobs(),
        instance.n_reservations()
    );
    let _ = writeln!(out, "machines {}", instance.machines());
    for j in instance.jobs() {
        if j.release.ticks() == 0 {
            let _ = writeln!(out, "job {} {}", j.width, j.duration.ticks());
        } else {
            let _ = writeln!(
                out,
                "job {} {} {}",
                j.width,
                j.duration.ticks(),
                j.release.ticks()
            );
        }
    }
    for r in instance.reservations() {
        let _ = writeln!(
            out,
            "reservation {} {} {}",
            r.width,
            r.duration.ticks(),
            r.start.ticks()
        );
    }
    out
}

// -- crc32 -------------------------------------------------------------------

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

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `data`, continuing from
/// `crc` (start with 0) — how gzip checks a member streamed in pieces.
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

/// CRC-32 of `data` — the checksum in every record frame.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

// -- payload fields ----------------------------------------------------------

/// Append `v` little-endian.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` little-endian.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` little-endian.
pub fn put_u128(buf: &mut Vec<u8>, v: u128) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// `None` as a `0` byte, `Some(t)` as a `1` byte and the instant.
pub fn put_opt_time(buf: &mut Vec<u8>, t: Option<Time>) {
    match t {
        None => buf.push(0),
        Some(t) => {
            buf.push(1);
            put_u64(buf, t.ticks());
        }
    }
}

/// Forward-only reader over a payload; every `take_*` returns `None` once
/// the payload is exhausted (or a tag byte is out of range), which decoders
/// surface as corruption.
#[derive(Debug)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, at: 0 }
    }

    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let raw = self.bytes.get(self.at..self.at + N)?;
        self.at += N;
        Some(raw.try_into().expect("N-byte slice"))
    }

    /// One byte.
    pub fn take_u8(&mut self) -> Option<u8> {
        self.take::<1>().map(|[b]| b)
    }

    /// A little-endian `u32`.
    pub fn take_u32(&mut self) -> Option<u32> {
        self.take().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn take_u64(&mut self) -> Option<u64> {
        self.take().map(u64::from_le_bytes)
    }

    /// A little-endian `u128`.
    pub fn take_u128(&mut self) -> Option<u128> {
        self.take().map(u128::from_le_bytes)
    }

    /// A `0`/`1` byte.
    pub fn take_bool(&mut self) -> Option<bool> {
        match self.take_u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// What [`put_opt_time`] wrote.
    pub fn take_opt_time(&mut self) -> Option<Option<Time>> {
        match self.take_u8()? {
            0 => Some(None),
            1 => Some(Some(Time(self.take_u64()?))),
            _ => None,
        }
    }

    /// Whether every byte has been taken.
    pub fn done(&self) -> bool {
        self.at == self.bytes.len()
    }
}

// -- record framing ----------------------------------------------------------

/// Bytes in front of each payload: its length and its CRC.
pub const FRAME_HEADER: usize = 8;
/// Upper bound on a payload; a longer length prefix is corruption (a torn
/// length prefix can decode to anything).
const MAX_RECORD: u32 = 1 << 28;

/// Append `payload` to `out` as one frame: `[len][crc][payload]`.
pub fn frame_record(out: &mut Vec<u8>, payload: &[u8]) {
    put_u32(out, payload.len() as u32);
    put_u32(out, crc32(payload));
    out.extend_from_slice(payload);
}

/// The payloads of a record-log image, front to back, up to the first frame
/// that is incomplete, implausibly long or fails its CRC. Once the iterator
/// has returned `None`, [`Frames::valid_len`] is the length of the valid
/// prefix and [`Frames::torn`] says why the rest (if any) was refused.
#[derive(Debug, Clone)]
pub struct Frames<'a> {
    bytes: &'a [u8],
    at: usize,
    torn: Option<&'static str>,
}

impl<'a> Frames<'a> {
    /// Scan `bytes` from its first byte.
    pub fn new(bytes: &'a [u8]) -> Self {
        Frames {
            bytes,
            at: 0,
            torn: None,
        }
    }

    /// Bytes covered by the frames yielded so far.
    pub fn valid_len(&self) -> usize {
        self.at
    }

    /// Why the scan stopped short of the end, once it has; `None` while it
    /// has not, or when it consumed the whole image.
    pub fn torn(&self) -> Option<&'static str> {
        self.torn
    }

    fn stop(&mut self, reason: &'static str) -> Option<&'a [u8]> {
        self.torn = Some(reason);
        None
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let rest = &self.bytes[self.at..];
        if rest.is_empty() || self.torn.is_some() {
            return None;
        }
        let Some(head) = rest.get(..FRAME_HEADER) else {
            return self.stop("truncated record header");
        };
        let len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(head[4..].try_into().expect("4 bytes"));
        if len > MAX_RECORD {
            return self.stop("implausible record length");
        }
        let Some(payload) = rest.get(FRAME_HEADER..FRAME_HEADER + len as usize) else {
            return self.stop("truncated record payload");
        };
        if crc32(payload) != crc {
            return self.stop("record checksum mismatch");
        }
        self.at += FRAME_HEADER + payload.len();
        Some(payload)
    }
}

// -- atomic replacement ------------------------------------------------------

/// The temporary sibling a replacement of `path` is written under:
/// `.<file name>.tmp` in the same directory. The leading dot keeps it out of
/// listings that skip hidden names, such as the trace cache's.
fn temp_path(path: &Path) -> PathBuf {
    let mut name = std::ffi::OsString::from(".");
    name.push(path.file_name().unwrap_or_default());
    name.push(".tmp");
    path.with_file_name(name)
}

/// A replacement for a file, written and synced under its temporary sibling
/// `.<file name>.tmp` but not yet in place.
#[derive(Debug)]
pub struct Staged {
    path: PathBuf,
    tmp: PathBuf,
    file: File,
}

/// Write the replacement for `path`: create its temporary sibling, let
/// `fill` write it, and sync it. Nothing at `path` changes until
/// [`Staged::commit`].
pub fn stage(path: &Path, fill: impl FnOnce(&mut File) -> io::Result<()>) -> io::Result<Staged> {
    let tmp = temp_path(path);
    let mut file = File::create(&tmp)?;
    fill(&mut file)?;
    file.sync_data()?;
    Ok(Staged {
        path: path.to_path_buf(),
        tmp,
        file,
    })
}

impl Staged {
    /// Where the replacement is staged.
    pub fn tmp_path(&self) -> &Path {
        &self.tmp
    }

    /// Rename the staged file over its target, then sync the directory so
    /// the rename itself is durable where the platform allows it. Returns
    /// the synced file, open for writing at its end — it is now the file at
    /// the target path.
    pub fn commit(self) -> io::Result<File> {
        std::fs::rename(&self.tmp, &self.path)?;
        sync_parent(&self.path);
        Ok(self.file)
    }
}

/// Sync the directory holding `path`, so a rename into it or a file created
/// in it survives a crash — best effort: not every platform can open a
/// directory for syncing.
fn sync_parent(path: &Path) {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Open the record log at `path` for appending, creating it if needed, and
/// read its current bytes. An empty log's directory is synced, so a newly
/// created log keeps its name through a crash. Every write lands at the end
/// of the file, so after scanning the bytes with [`Frames`] a writer cuts a
/// torn tail off with `set_len` and appends.
pub fn open_log(path: &Path) -> io::Result<(File, Vec<u8>)> {
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .append(true)
        .create(true)
        .open(path)?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    if bytes.is_empty() {
        sync_parent(path);
    }
    Ok((file, bytes))
}

/// Replace `path` with `bytes` atomically: [`stage`], then
/// [`Staged::commit`].
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    stage(path, |f| f.write_all(bytes))?.commit().map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::ResaInstanceBuilder;
    use crate::time::Time;

    fn sample() -> ResaInstance {
        ResaInstanceBuilder::new(8)
            .job(4, 10u64)
            .job_released_at(2, 5u64, 7u64)
            .reservation(6, 4u64, 3u64)
            .build()
            .unwrap()
    }

    #[test]
    fn text_roundtrip() {
        let inst = sample();
        let text = write_instance(&inst);
        let parsed = parse_instance(&text).unwrap();
        assert_eq!(parsed, inst);
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "# header\n\nmachines 4\n  # indented comment\njob 2 3\n";
        let inst = parse_instance(text).unwrap();
        assert_eq!(inst.machines(), 4);
        assert_eq!(inst.n_jobs(), 1);
    }

    #[test]
    fn rejects_unknown_directive() {
        let err = parse_instance("machines 4\nfrobnicate 1 2\n").unwrap_err();
        assert!(matches!(err, ParseError::UnknownDirective { line: 2, .. }));
    }

    #[test]
    fn rejects_wrong_arity_and_bad_numbers() {
        assert!(matches!(
            parse_instance("machines 4\njob 2\n").unwrap_err(),
            ParseError::WrongArity { line: 2, .. }
        ));
        assert!(matches!(
            parse_instance("machines 4\njob 2 x\n").unwrap_err(),
            ParseError::BadNumber { line: 2, .. }
        ));
        assert!(matches!(
            parse_instance("machines many\n").unwrap_err(),
            ParseError::BadNumber { line: 1, .. }
        ));
        assert!(matches!(
            parse_instance("machines 4\nreservation 1 2\n").unwrap_err(),
            ParseError::WrongArity { line: 2, .. }
        ));
    }

    #[test]
    fn rejects_missing_or_late_machines() {
        assert!(matches!(
            parse_instance("job 1 2\n").unwrap_err(),
            ParseError::MachinesNotFirst { line: 1 }
        ));
        assert!(matches!(
            parse_instance("").unwrap_err(),
            ParseError::MachinesNotFirst { line: 0 }
        ));
        assert!(matches!(
            parse_instance("machines 4\nmachines 5\n").unwrap_err(),
            ParseError::MachinesNotFirst { line: 2 }
        ));
    }

    #[test]
    fn rejects_model_violations() {
        // Job wider than the cluster.
        let err = parse_instance("machines 2\njob 5 1\n").unwrap_err();
        assert!(matches!(
            err,
            ParseError::Invalid(ModelError::JobTooWide { .. })
        ));
        // Infeasible reservations.
        let err = parse_instance("machines 2\nreservation 2 5 0\nreservation 1 5 2\n").unwrap_err();
        assert!(matches!(
            err,
            ParseError::Invalid(ModelError::InfeasibleReservations { .. })
        ));
    }

    #[test]
    fn release_dates_preserved() {
        let text = write_instance(&sample());
        assert!(text.contains("job 2 5 7"));
        let parsed = parse_instance(&text).unwrap();
        assert_eq!(parsed.jobs()[1].release, Time(7));
    }

    #[test]
    fn error_display() {
        let e = ParseError::UnknownDirective {
            line: 3,
            directive: "x".into(),
        };
        assert!(e.to_string().contains("line 3"));
        assert!(ParseError::MachinesNotFirst { line: 1 }
            .to_string()
            .contains("machines"));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_known_vector() {
        // CRC32("123456789") = 0xCBF43926, also when streamed in pieces.
        assert_eq!(crc32_update(0, b"123456789"), 0xCBF4_3926);
        let a = crc32_update(0, b"1234");
        assert_eq!(crc32_update(a, b"56789"), 0xCBF4_3926);
    }

    /// An `io::Write` that fails after a budget of bytes — the disk-full /
    /// short-write fault model for the framing layer.
    struct FailingWriter {
        budget: usize,
        written: Vec<u8>,
    }

    impl Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.budget == 0 {
                return Err(io::Error::new(io::ErrorKind::WriteZero, "disk full"));
            }
            let n = buf.len().min(self.budget);
            self.written.extend_from_slice(&buf[..n]);
            self.budget -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn injected_write_errors_surface_and_leave_a_recoverable_prefix() {
        let payload = b"\x01\x07\x00 an op record".to_vec();
        let mut framed = Vec::new();
        frame_record(&mut framed, &payload);
        // Enough budget for one full record, then a short-write failure.
        let mut w = FailingWriter {
            budget: framed.len() + 4,
            written: Vec::new(),
        };
        w.write_all(&framed).expect("first record fits");
        let err = w.write_all(&framed).expect_err("second is short-written");
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        // The bytes that did land are a valid record followed by a torn
        // tail — exactly what recovery handles.
        let mut frames = Frames::new(&w.written);
        assert_eq!(frames.next(), Some(&payload[..]), "intact record");
        assert_eq!(frames.next(), None);
        assert_eq!(frames.valid_len(), framed.len());
        assert_eq!(frames.torn(), Some("truncated record header"));
    }

    #[test]
    fn bitflips_never_pass_the_crc() {
        let payload = b"\x01\x07\x00\x00\x00\x00\x00\x00\x00\x04\x63".to_vec();
        let mut framed = Vec::new();
        frame_record(&mut framed, &payload);
        for bit in 0..framed.len() * 8 {
            let mut corrupt = framed.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            let mut frames = Frames::new(&corrupt);
            match frames.next() {
                // A flip in the length prefix can only "succeed" by
                // shortening the frame; the payload CRC still guards
                // content, so a successful read must equal the original
                // payload.
                Some(p) => assert_eq!(p, &payload[..], "bit {bit} produced a different payload"),
                None => assert!(frames.torn().is_some(), "bit {bit} produced silent EOF"),
            }
        }
    }

    #[test]
    fn atomic_write_replaces_whole_files() {
        let mut path = std::env::temp_dir();
        path.push(format!("resa-io-atomic-{}.json", std::process::id()));
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second, longer").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer");
        assert!(
            !temp_path(&path).exists(),
            "temp file is consumed by the rename"
        );
        // A committed replacement hands back the file now at `path`, open
        // at its end: a journal keeps appending to it after compaction.
        let staged = stage(&path, |f| f.write_all(b"head")).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer");
        let mut file = staged.commit().unwrap();
        file.write_all(b"+tail").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"head+tail");
        std::fs::remove_file(&path).unwrap();
    }

    /// Bitwise CRC-32 in its textbook MSB-first form — normal polynomial,
    /// input bytes and result bit-reversed — so the reference shares no
    /// code or constant with the reflected tables it checks.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c ^= u32::from(b.reverse_bits()) << 24;
            for _ in 0..8 {
                c = if c & 0x8000_0000 != 0 {
                    (c << 1) ^ 0x04C1_1DB7
                } else {
                    c << 1
                };
            }
        }
        !c.reverse_bits()
    }

    /// Whether `bytes` starts with one well-formed frame, judged without
    /// [`Frames`]: its length if so.
    fn leading_frame(bytes: &[u8]) -> Option<usize> {
        let len = u32::from_le_bytes(bytes.get(..4)?.try_into().unwrap());
        let crc = u32::from_le_bytes(bytes.get(4..8)?.try_into().unwrap());
        let payload = bytes
            .get(8..8 + len as usize)
            .filter(|_| len <= MAX_RECORD)?;
        (crc32_bitwise(payload) == crc).then_some(8 + payload.len())
    }

    fn log_of(payloads: &[Vec<u8>]) -> (Vec<u8>, Vec<usize>) {
        let mut log = Vec::new();
        let mut ends = Vec::new();
        for p in payloads {
            frame_record(&mut log, p);
            ends.push(log.len());
        }
        (log, ends)
    }

    proptest::proptest! {
        #[test]
        fn slice_by_8_matches_the_bitwise_crc(
            data in proptest::collection::vec(0u8..=255, 0..200),
            split in 0usize..200,
        ) {
            let split = split.min(data.len());
            let whole = crc32_bitwise(&data);
            proptest::prop_assert_eq!(crc32(&data), whole);
            let head = crc32_update(0, &data[..split]);
            proptest::prop_assert_eq!(crc32_update(head, &data[split..]), whole);
        }

        /// On any bytes, the scanner yields framed payloads that re-frame to
        /// exactly the prefix it reports valid, and stops only where no
        /// frame starts.
        #[test]
        fn frame_scan_of_arbitrary_bytes_is_an_exact_valid_prefix(
            bytes in proptest::collection::vec(0u8..=255, 0..96),
        ) {
            let mut frames = Frames::new(&bytes);
            let payloads: Vec<Vec<u8>> = frames.by_ref().map(<[u8]>::to_vec).collect();
            let valid = frames.valid_len();
            proptest::prop_assert_eq!(&log_of(&payloads).0[..], &bytes[..valid]);
            proptest::prop_assert_eq!(frames.torn().is_some(), valid < bytes.len());
            proptest::prop_assert!(leading_frame(&bytes[valid..]).is_none());
        }

        /// A valid log cut anywhere yields exactly its whole records; a bit
        /// flipped anywhere leaves the records in front of it intact and,
        /// inside a CRC or a payload, refuses the record it hit.
        #[test]
        fn frame_scan_of_a_damaged_log_keeps_the_records_in_front(
            payloads in proptest::collection::vec(
                proptest::collection::vec(0u8..=255, 0..24), 1..6),
            cut in 0usize..256,
            flip in 0usize..2048,
        ) {
            let (log, ends) = log_of(&payloads);
            let cut = cut.min(log.len());
            let whole = ends.iter().filter(|&&e| e <= cut).count();
            let mut frames = Frames::new(&log[..cut]);
            let got: Vec<&[u8]> = frames.by_ref().collect();
            proptest::prop_assert_eq!(got.len(), whole);
            proptest::prop_assert_eq!(frames.valid_len(), if whole == 0 { 0 } else { ends[whole - 1] });

            let flip = flip % (log.len() * 8);
            let mut bent = log.clone();
            bent[flip / 8] ^= 1 << (flip % 8);
            let hit = ends.iter().position(|&e| flip / 8 < e).unwrap();
            let start = if hit == 0 { 0 } else { ends[hit - 1] };
            let got: Vec<&[u8]> = Frames::new(&bent).collect();
            proptest::prop_assert!(got.len() >= hit);
            for (g, p) in got.iter().zip(&payloads[..hit]) {
                proptest::prop_assert_eq!(*g, &p[..]);
            }
            if flip / 8 >= start + 4 {
                proptest::prop_assert_eq!(got.len(), hit);
            }
        }
    }
}
