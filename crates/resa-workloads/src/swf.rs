//! A minimal Standard-Workload-Format-style trace codec.
//!
//! The paper's motivation is production batch schedulers, whose workloads are
//! traditionally distributed in the Standard Workload Format (SWF) of the
//! Parallel Workloads Archive. No real trace ships with the paper, so this
//! module provides (a) a reader/writer for the subset of SWF fields the model
//! needs — job id, submit time, run time, number of processors — and (b) a
//! synthetic trace writer so experiments and examples can round-trip through
//! the same file format a real deployment would use.
//!
//! Format: one job per line, `;`-prefixed comment lines, whitespace-separated
//! fields `job_id submit_time run_time processors` (a strict subset of the
//! 18-field SWF records; extra fields on a line are ignored so genuine SWF
//! files parse too).

use crate::gzip::{is_gzip, GzipReader};
use resa_core::prelude::*;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Seek};
use std::path::Path;

/// Errors raised while parsing a trace.
///
/// Every variant carries the 1-based line number of the offending record, so
/// a malformed multi-megabyte archive trace points straight at the culprit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwfError {
    /// A record line does not have the four required fields (truncated line).
    MissingFields {
        /// 1-based line number of the truncated record.
        line: usize,
    },
    /// A field is not a valid integer at all.
    BadField {
        /// 1-based line number of the malformed record.
        line: usize,
        /// Name of the malformed field.
        field: &'static str,
    },
    /// A field parsed as a *negative* integer. Genuine SWF files use `-1`
    /// as a "missing value" sentinel; the rigid model has no meaningful
    /// interpretation for a negative runtime or width, so such records are
    /// rejected explicitly instead of being folded into [`SwfError::BadField`].
    NegativeField {
        /// 1-based line number of the record carrying the negative value.
        line: usize,
        /// Name of the negative field.
        field: &'static str,
        /// The offending value.
        value: i64,
    },
    /// A job has zero processors or zero runtime (invalid in the rigid model).
    DegenerateJob {
        /// 1-based line number of the degenerate record.
        line: usize,
    },
    /// A job requests more processors than the cluster has. Raised when the
    /// caller provides a cluster size, or when the trace's own `MaxProcs`
    /// header declares one.
    WidthExceedsCluster {
        /// 1-based line number of the oversized record.
        line: usize,
        /// Processors requested by the job.
        width: u64,
        /// Processors the cluster actually has.
        machines: u32,
    },
    /// With this record the trace no longer fits the time axis: the latest
    /// submit time so far plus the total run time so far — a bound on every
    /// instant a replay can reach, since past the last submission the
    /// cluster never idles while work remains — exceeds `i64::MAX`.
    HorizonOverflow {
        /// 1-based line number of the first record past the horizon.
        line: usize,
    },
}

/// The largest instant a trace may reach (see
/// [`SwfError::HorizonOverflow`]): 63 bits, like every field of a record.
/// The top bit of `Time` stays free for overlays generated out to twice the
/// last submission.
const SWF_HORIZON: u64 = i64::MAX as u64;

impl std::fmt::Display for SwfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwfError::MissingFields { line } => {
                write!(f, "line {line}: expected at least 4 fields")
            }
            SwfError::BadField { line, field } => {
                write!(f, "line {line}: field '{field}' is not an integer")
            }
            SwfError::NegativeField { line, field, value } => {
                write!(
                    f,
                    "line {line}: field '{field}' is negative ({value}); \
                     the rigid model requires non-negative values"
                )
            }
            SwfError::DegenerateJob { line } => {
                write!(f, "line {line}: job has zero processors or zero runtime")
            }
            SwfError::WidthExceedsCluster {
                line,
                width,
                machines,
            } => {
                write!(
                    f,
                    "line {line}: job requests {width} processors but the cluster has {machines}"
                )
            }
            SwfError::HorizonOverflow { line } => {
                write!(
                    f,
                    "line {line}: latest submit time plus total run time so far \
                     exceeds {SWF_HORIZON}; the trace does not fit the time axis"
                )
            }
        }
    }
}

impl std::error::Error for SwfError {}

/// A parsed trace: the jobs plus the metadata recovered from the header
/// comments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwfTrace {
    /// Jobs in file order, re-numbered densely.
    pub jobs: Vec<Job>,
    /// The `; MaxProcs: <n>` header value, when present — the cluster size
    /// the trace was recorded on.
    pub max_procs: Option<u32>,
}

/// Parse a trace from its textual form. Job ids are re-numbered densely in
/// file order (the original id is not preserved, matching how the simulator
/// identifies jobs).
///
/// Negative runtimes/widths (the SWF "missing value" sentinel `-1`) are
/// rejected with a line-numbered [`SwfError::NegativeField`], and if the
/// trace carries a `; MaxProcs:` header, any job wider than it is rejected
/// with [`SwfError::WidthExceedsCluster`]. Give [`parse_trace_full`] a
/// cluster size to enforce a specific one instead.
pub fn parse_trace(text: &str) -> Result<Vec<Job>, SwfError> {
    parse_trace_full(text, None).map(|t| t.jobs)
}

/// The full parser behind [`parse_trace`]: returns the jobs *and* the
/// header metadata. The width cap is `cluster` when given, else the
/// `; MaxProcs:` header when present, else unlimited.
///
/// This is now a thin collect over [`SwfStream`]; the streaming parser is
/// the single source of truth for SWF validation.
pub fn parse_trace_full(text: &str, cluster: Option<u32>) -> Result<SwfTrace, SwfError> {
    let mut stream = SwfStream::new(text.as_bytes(), cluster);
    let mut jobs = Vec::new();
    for item in stream.by_ref() {
        match item {
            Ok(job) => jobs.push(job),
            Err(SwfReadError::Swf(err)) => return Err(err),
            // Reading from an in-memory slice cannot fail.
            Err(SwfReadError::Io(err)) => unreachable!("in-memory read failed: {err}"),
        }
    }
    Ok(SwfTrace {
        jobs,
        max_procs: stream.max_procs(),
    })
}

/// Error from the streaming parser: either the underlying reader failed
/// (file truncated mid-download, gzip corruption, …) or a record is invalid.
#[derive(Debug)]
pub enum SwfReadError {
    /// The underlying byte stream failed.
    Io(std::io::Error),
    /// A record failed validation (carries the 1-based line number).
    Swf(SwfError),
}

impl std::fmt::Display for SwfReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwfReadError::Io(err) => write!(f, "trace read error: {err}"),
            SwfReadError::Swf(err) => err.fmt(f),
        }
    }
}

impl std::error::Error for SwfReadError {}

impl From<SwfError> for SwfReadError {
    fn from(err: SwfError) -> Self {
        SwfReadError::Swf(err)
    }
}

/// Incremental, line-at-a-time SWF parser over any [`BufRead`].
///
/// Yields jobs one by one with exactly the validation and dense re-numbering
/// of [`parse_trace_full`] (which is implemented as a collect over this
/// type), but holds only the current line in memory — a multi-million-line
/// archive trace streams in O(1) space. Comment lines are skipped inline and
/// the `; MaxProcs:` header is recovered as it is encountered; query it with
/// [`SwfStream::max_procs`] (its value at any point reflects the headers
/// *seen so far*, matching the batch parser's cap semantics, which apply the
/// latest header to each subsequent record).
///
/// Lines are read as bytes. The common record line is scanned in one pass
/// (`scan_record`); any other line is decoded and parsed field by field
/// (`step`), which is where every diagnostic comes from. Which of the two a
/// line takes depends on the line alone and is not observable.
///
/// After the first error the stream is fused: further calls return `None`.
pub struct SwfStream<R: BufRead> {
    reader: R,
    line: Vec<u8>,
    line_no: usize,
    cluster: Option<u32>,
    max_procs: Option<u32>,
    next_id: usize,
    /// Latest submit time and total run time of the records yielded so far.
    reach: (u64, u128),
    done: bool,
}

impl<R: BufRead> SwfStream<R> {
    /// Start streaming records from `reader`, capping widths at `cluster`
    /// when given (else at the trace's own `; MaxProcs:` header, else
    /// unlimited).
    pub fn new(reader: R, cluster: Option<u32>) -> Self {
        SwfStream {
            reader,
            line: Vec::new(),
            line_no: 0,
            cluster,
            max_procs: None,
            next_id: 0,
            reach: (0, 0),
            done: false,
        }
    }

    /// The `; MaxProcs:` header value seen so far, if any.
    pub fn max_procs(&self) -> Option<u32> {
        self.max_procs
    }

    /// Parse one raw line. `Ok(None)` means the line was blank or a comment.
    /// Free-standing over disjoint fields so the caller can keep the line
    /// buffer borrowed.
    fn step(
        line: usize,
        raw: &str,
        cluster: Option<u32>,
        max_procs: &mut Option<u32>,
        next_id: &mut usize,
        reach: &mut (u64, u128),
    ) -> Result<Option<Job>, SwfError> {
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with(';') || trimmed.starts_with('#') {
            // Recover the `MaxProcs` header the SWF standard puts in the
            // comment preamble (`; MaxProcs: 128`).
            let comment = trimmed.trim_start_matches([';', '#']).trim();
            if let Some(rest) = comment.strip_prefix("MaxProcs:") {
                *max_procs = rest.trim().parse::<u32>().ok().or(*max_procs);
            }
            return Ok(None);
        }
        // The field-count check comes before any field parse, so a short
        // line always reports `MissingFields` even when its present fields
        // are also malformed (matching the batch parser's error priority).
        if trimmed.split_whitespace().nth(3).is_none() {
            return Err(SwfError::MissingFields { line });
        }
        let mut fields = trimmed.split_whitespace();
        let mut parse = |name: &'static str| -> Result<u64, SwfError> {
            let raw = fields.next().expect("field count checked above");
            let value = raw
                .parse::<i64>()
                .map_err(|_| SwfError::BadField { line, field: name })?;
            u64::try_from(value).map_err(|_| SwfError::NegativeField {
                line,
                field: name,
                value,
            })
        };
        let record = [
            parse("job_id")?,
            parse("submit_time")?,
            parse("run_time")?,
            parse("processors")?,
        ];
        Self::admit(line, record, cluster.or(*max_procs), next_id, reach).map(Some)
    }

    /// The checks on a record's values — `[job_id, submit_time, run_time,
    /// processors]`, each already known to be a non-negative `i64` — and the
    /// dense id: where [`Self::step`] and [`scan_record`] meet.
    fn admit(
        line: usize,
        [_orig_id, submit, run_time, procs]: [u64; 4],
        cap: Option<u32>,
        next_id: &mut usize,
        reach: &mut (u64, u128),
    ) -> Result<Job, SwfError> {
        if run_time == 0 || procs == 0 {
            return Err(SwfError::DegenerateJob { line });
        }
        if let Some(machines) = cap {
            if procs > machines as u64 {
                return Err(SwfError::WidthExceedsCluster {
                    line,
                    width: procs,
                    machines,
                });
            }
        }
        let width = u32::try_from(procs).map_err(|_| SwfError::WidthExceedsCluster {
            line,
            width: procs,
            machines: u32::MAX,
        })?;
        // Same rule as the service's admission (`Horizon` in `resa-sim`),
        // in u128 so the check itself cannot wrap.
        let (latest, work) = (reach.0.max(submit), reach.1 + u128::from(run_time));
        if u128::from(latest) + work > u128::from(SWF_HORIZON) {
            return Err(SwfError::HorizonOverflow { line });
        }
        *reach = (latest, work);
        let id = *next_id;
        *next_id += 1;
        Ok(Job::released_at(id, width, run_time, submit))
    }
}

/// The four leading fields of a record line, when the line is the common
/// case: ASCII throughout, and up to the end of the fourth field nothing but
/// digit groups of at most 18 digits (so each fits an `i64`) set apart by
/// spaces and tabs. On these lines [`SwfStream::step`] cannot fail
/// before its value checks and parses the same four numbers; on any other
/// line — comments, signs, short lines, junk, other whitespace, non-ASCII —
/// this returns `None` and `step` decides, so every diagnostic is `step`'s.
fn scan_record(line: &[u8]) -> Option<[u64; 4]> {
    let mut at = 0;
    let mut record = [0u64; 4];
    for field in &mut record {
        while matches!(line.get(at), Some(b' ' | b'\t')) {
            at += 1;
        }
        let start = at;
        while let Some(digit @ b'0'..=b'9') = line.get(at) {
            *field = field.wrapping_mul(10).wrapping_add(u64::from(digit - b'0'));
            at += 1;
        }
        if at == start || at - start > 18 {
            return None;
        }
    }
    match &line[at..] {
        [] | [b'\n'] | [b'\r'] | [b'\r', b'\n'] => Some(record),
        [b' ' | b'\t', rest @ ..] if rest.is_ascii() => Some(record),
        _ => None,
    }
}

impl<R: BufRead> Iterator for SwfStream<R> {
    type Item = Result<Job, SwfReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            self.line.clear();
            match self.reader.read_until(b'\n', &mut self.line) {
                Ok(0) => {
                    self.done = true;
                    return None;
                }
                Ok(_) => {}
                Err(err) => {
                    self.done = true;
                    return Some(Err(SwfReadError::Io(err)));
                }
            }
            self.line_no += 1;
            let parsed = if let Some(record) = scan_record(&self.line) {
                Self::admit(
                    self.line_no,
                    record,
                    self.cluster.or(self.max_procs),
                    &mut self.next_id,
                    &mut self.reach,
                )
                .map(Some)
            } else if let Ok(raw) = std::str::from_utf8(&self.line) {
                Self::step(
                    self.line_no,
                    raw,
                    self.cluster,
                    &mut self.max_procs,
                    &mut self.next_id,
                    &mut self.reach,
                )
            } else {
                self.done = true;
                // What `BufRead::read_line` reports for such a line.
                return Some(Err(SwfReadError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "stream did not contain valid UTF-8",
                ))));
            };
            match parsed {
                Ok(Some(job)) => return Some(Ok(job)),
                Ok(None) => continue,
                Err(err) => {
                    self.done = true;
                    return Some(Err(SwfReadError::Swf(err)));
                }
            }
        }
    }
}

/// A boxed line reader over either a plain or a gzip-compressed trace file.
pub type TraceReader = Box<dyn BufRead>;

/// Open a trace file for streaming, transparently inflating gzip members
/// (sniffed by the two magic bytes, not the file name). A [`GzipReader`] is
/// its own line buffer and reads the file directly.
pub fn open_trace_reader(path: &Path) -> std::io::Result<TraceReader> {
    let mut file = std::fs::File::open(path)?;
    let mut head = [0u8; 2];
    let mut sniffed = 0;
    while sniffed < head.len() {
        match file.read(&mut head[sniffed..])? {
            0 => break,
            n => sniffed += n,
        }
    }
    file.rewind()?;
    if is_gzip(&head[..sniffed]) {
        Ok(Box::new(GzipReader::new(file)))
    } else {
        Ok(Box::new(BufReader::new(file)))
    }
}

/// Open a streaming SWF parser over `path` (plain or gzipped).
pub fn open_trace(path: &Path, cluster: Option<u32>) -> std::io::Result<SwfStream<TraceReader>> {
    Ok(SwfStream::new(open_trace_reader(path)?, cluster))
}

/// Read a trace file fully into a string, inflating gzip transparently —
/// the materialized counterpart of [`open_trace`].
pub fn read_trace_text(path: &Path) -> std::io::Result<String> {
    let mut text = String::new();
    open_trace_reader(path)?.read_to_string(&mut text)?;
    Ok(text)
}

/// Serialize jobs to the textual trace form (with a header comment).
pub fn write_trace(jobs: &[Job], cluster_machines: u32) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "; resa-sched synthetic trace");
    let _ = writeln!(out, "; MaxProcs: {cluster_machines}");
    let _ = writeln!(out, "; fields: job_id submit_time run_time processors");
    for job in jobs {
        let _ = writeln!(
            out,
            "{} {} {} {}",
            job.id.0,
            job.release.ticks(),
            job.duration.ticks(),
            job.width
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`parse_trace`] with an explicit cluster size: jobs wider than `machines`
    /// are rejected with a line-numbered [`SwfError::WidthExceedsCluster`]
    /// (overriding any `MaxProcs` header).
    fn parse_trace_for_cluster(text: &str, machines: u32) -> Result<Vec<Job>, SwfError> {
        parse_trace_full(text, Some(machines)).map(|t| t.jobs)
    }

    /// Convert a list of trace jobs (with release dates) into an off-line
    /// RESASCHEDULING instance by dropping the release dates — the paper's
    /// off-line model considers all jobs available at time 0.
    fn as_offline_instance(
        machines: u32,
        jobs: &[Job],
        reservations: Vec<Reservation>,
    ) -> Result<ResaInstance, ModelError> {
        let offline: Vec<Job> = jobs
            .iter()
            .map(|j| Job::new(j.id.0, j.width.min(machines).max(1), j.duration))
            .collect();
        ResaInstance::new(machines, offline, reservations)
    }

    #[test]
    fn roundtrip() {
        let jobs = vec![
            Job::released_at(0usize, 4, 100u64, 0u64),
            Job::released_at(1usize, 16, 50u64, 30u64),
            Job::released_at(2usize, 1, 7u64, 31u64),
        ];
        let text = write_trace(&jobs, 32);
        let parsed = parse_trace(&text).unwrap();
        assert_eq!(parsed, jobs);
    }

    #[test]
    fn parses_comments_and_extra_fields() {
        let text = "; comment\n# other comment\n\n 3 10 20 4 extra fields ignored 9 9\n";
        let jobs = parse_trace(text).unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].id, JobId(0)); // re-numbered densely
        assert_eq!(jobs[0].release, Time(10));
        assert_eq!(jobs[0].duration, Dur(20));
        assert_eq!(jobs[0].width, 4);
    }

    #[test]
    fn reports_errors_with_line_numbers() {
        assert_eq!(
            parse_trace("1 2 3").unwrap_err(),
            SwfError::MissingFields { line: 1 }
        );
        assert_eq!(
            parse_trace("; ok\n1 2 x 4").unwrap_err(),
            SwfError::BadField {
                line: 2,
                field: "run_time"
            }
        );
        assert_eq!(
            parse_trace("1 0 5 0").unwrap_err(),
            SwfError::DegenerateJob { line: 1 }
        );
        assert_eq!(
            parse_trace("1 0 0 5").unwrap_err(),
            SwfError::DegenerateJob { line: 1 }
        );
    }

    #[test]
    fn rejects_negative_runtime_and_width() {
        // `-1` is the SWF missing-value sentinel: rejected, with the line.
        assert_eq!(
            parse_trace("; header\n1 0 -1 4").unwrap_err(),
            SwfError::NegativeField {
                line: 2,
                field: "run_time",
                value: -1
            }
        );
        assert_eq!(
            parse_trace("1 0 5 -3").unwrap_err(),
            SwfError::NegativeField {
                line: 1,
                field: "processors",
                value: -3
            }
        );
        assert_eq!(
            parse_trace("1 -7 5 3").unwrap_err(),
            SwfError::NegativeField {
                line: 1,
                field: "submit_time",
                value: -7
            }
        );
    }

    #[test]
    fn rejects_truncated_line() {
        // A record cut mid-line (e.g. an interrupted download).
        assert_eq!(
            parse_trace("1 0 5 2\n2 10 7").unwrap_err(),
            SwfError::MissingFields { line: 2 }
        );
    }

    #[test]
    fn rejects_width_beyond_cluster() {
        let text = "1 0 5 8\n2 3 5 64\n";
        assert_eq!(
            parse_trace_for_cluster(text, 32).unwrap_err(),
            SwfError::WidthExceedsCluster {
                line: 2,
                width: 64,
                machines: 32
            }
        );
        // Within the cluster: both jobs parse.
        assert_eq!(parse_trace_for_cluster(text, 64).unwrap().len(), 2);
    }

    #[test]
    fn maxprocs_header_caps_widths() {
        let text = "; MaxProcs: 16\n1 0 5 8\n2 3 5 24\n";
        let err = parse_trace(text).unwrap_err();
        assert_eq!(
            err,
            SwfError::WidthExceedsCluster {
                line: 3,
                width: 24,
                machines: 16
            }
        );
        // An explicit cluster size overrides the header.
        assert_eq!(parse_trace_for_cluster(text, 32).unwrap().len(), 2);
        // The header is surfaced through the full parse.
        let full = parse_trace_full("; MaxProcs: 16\n1 0 5 8\n", None).unwrap();
        assert_eq!(full.max_procs, Some(16));
        assert_eq!(full.jobs.len(), 1);
    }

    #[test]
    fn error_display() {
        assert!(SwfError::MissingFields { line: 3 }
            .to_string()
            .contains("3"));
        assert!(SwfError::BadField {
            line: 1,
            field: "processors"
        }
        .to_string()
        .contains("processors"));
    }

    #[test]
    fn offline_instance_conversion() {
        let jobs = vec![
            Job::released_at(0usize, 4, 10u64, 5u64),
            Job::released_at(1usize, 64, 3u64, 9u64), // wider than the cluster: clamped
        ];
        let inst = as_offline_instance(16, &jobs, Vec::new()).unwrap();
        assert_eq!(inst.n_jobs(), 2);
        assert!(inst.jobs().iter().all(|j| j.release == Time::ZERO));
        assert_eq!(inst.jobs()[1].width, 16);
    }

    #[test]
    fn empty_trace() {
        assert!(parse_trace("").unwrap().is_empty());
        assert!(parse_trace("; nothing\n").unwrap().is_empty());
    }

    /// A reader that hands out at most `chunk` bytes per `read` call, to
    /// prove the streaming parser is agnostic to input chunking.
    struct ChunkReader<'a> {
        data: &'a [u8],
        pos: usize,
        chunk: usize,
    }

    impl std::io::Read for ChunkReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn stream_is_chunking_agnostic() {
        // Short and 18-field records, `\r\n` endings, a last line without
        // `\n`: whatever the reader's buffer (2 to 64 bytes) and however the
        // source fills it, lines that straddle a boundary parse the same.
        let text = "; MaxProcs: 32\n1 0 5 8\n\n# note\n2 3 7 32\r\n\
                    3 4 100 16 -1 -1 -1 16 100 -1 1 4 2 -1 3 -1 -1 -1\n\
                    \t4  5\t6 1 \r\n9 10 1 1";
        let whole = step_only(text.as_bytes(), None);
        assert_eq!(whole.len(), 5);
        for capacity in [2, 5, 16, 64] {
            for chunk in 1..=7usize {
                let reader = std::io::BufReader::with_capacity(
                    capacity,
                    ChunkReader {
                        data: text.as_bytes(),
                        pos: 0,
                        chunk,
                    },
                );
                let mut stream = SwfStream::new(reader, None);
                let jobs: Vec<_> = stream.by_ref().map(outcome).collect();
                assert_eq!(jobs, whole, "buffer {capacity}, chunk size {chunk}");
                assert_eq!(stream.max_procs(), Some(32));
            }
        }
    }

    /// One item of a stream, comparable: the job, or the error's text (an
    /// `io::Error` has no `PartialEq`).
    fn outcome(item: Result<Job, SwfReadError>) -> Result<Job, String> {
        item.map_err(|e| match e {
            SwfReadError::Io(e) => format!("{:?}: {e}", e.kind()),
            SwfReadError::Swf(e) => format!("{e:?}"),
        })
    }

    /// The parser as it was before the byte scan: `read_line` into a
    /// `String`, every line through [`SwfStream::step`], stop at the first
    /// error. What [`SwfStream`] must yield for any input.
    fn step_only(mut text: &[u8], cluster: Option<u32>) -> Vec<Result<Job, String>> {
        let (mut max_procs, mut next_id, mut reach) = (None, 0, (0, 0));
        let mut items = Vec::new();
        let mut line = String::new();
        for line_no in 1.. {
            line.clear();
            let parsed = match text.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => SwfStream::<&[u8]>::step(
                    line_no,
                    &line,
                    cluster,
                    &mut max_procs,
                    &mut next_id,
                    &mut reach,
                )
                .map_err(SwfReadError::Swf),
                Err(e) => Err(SwfReadError::Io(e)),
            };
            match parsed {
                Ok(Some(job)) => items.push(Ok(job)),
                Ok(None) => {}
                Err(e) => {
                    items.push(outcome(Err(e)));
                    break;
                }
            }
        }
        items
    }

    /// A line of 0–20 fields drawn from everything a trace file has been
    /// seen to hold, and then some: digit groups of 1–25 digits, signs, the
    /// `-1` sentinel, junk, ASCII and non-ASCII white space, comments and
    /// `MaxProcs` headers, stray `\r`, invalid UTF-8.
    fn arbitrary_line(rng: &mut proptest::prelude::TestRng) -> Vec<u8> {
        let mut pick = |n: u64| rng.uniform_u64(0, n - 1);
        let mut line = Vec::new();
        match pick(12) {
            0 => line.extend_from_slice(b"; MaxProcs: "),
            1 => line.extend_from_slice(b" #MaxProcs:"),
            2 => line.extend_from_slice(b";"),
            _ => {}
        }
        let plain = pick(4) > 0; // mostly the common shape, so traces get far
        for _ in 0..if plain { 4 + pick(3) / 2 } else { pick(21) } {
            match if plain { pick(2) } else { pick(10) } {
                0 | 1 | 7 => line.push(b' '),
                2 => line.push(b'\t'),
                3 => line.extend_from_slice(b"  \t"),
                4 => line.extend_from_slice("\u{a0}".as_bytes()),
                5 => line.extend_from_slice("\u{2003}".as_bytes()),
                6 => line.push(b"\r\x0b\x0c"[pick(3) as usize]),
                _ => {} // fields run together, or the line starts at once
            }
            let digits = match pick(if plain { 3 } else { 12 }) {
                0..=2 => 1 + pick(3),
                3 => 17 + pick(3),
                4 => 1 + pick(25),
                5 => {
                    line.extend_from_slice(b"-1");
                    continue;
                }
                6 => {
                    line.push(b"+-"[pick(2) as usize]);
                    1 + pick(19)
                }
                7 => {
                    line.extend_from_slice(
                        [&b"x"[..], b"1e3", b"0x10", b"-", b"\xff", b"\xc3"][pick(6) as usize],
                    );
                    continue;
                }
                _ => 1 + pick(2),
            };
            (0..digits).for_each(|_| line.push(b'0' + pick(10) as u8));
        }
        line.extend_from_slice(
            [&b"\n"[..], b"\n", b"\n", b"\r\n", b" \n", b"\r\r\n"][pick(6) as usize],
        );
        line
    }

    /// Whenever the byte scan takes a line, it yields exactly what `step`
    /// yields for it — in any parser state, since both end in `admit`.
    #[test]
    fn byte_scan_agrees_with_step_on_every_line_it_takes() {
        let mut rng = proptest::prelude::TestRng::from_name("swf::byte_scan_agrees_with_step");
        let (mut taken, mut left) = (0, 0);
        for case in 0..20_000u64 {
            let line = arbitrary_line(&mut rng);
            let Some(record) = scan_record(&line) else {
                left += 1;
                continue;
            };
            taken += 1;
            let raw = std::str::from_utf8(&line).expect("the scan takes ASCII only");
            let cluster = [None, Some(8)][case as usize % 2];
            let header = [None, Some(64)][case as usize / 2 % 2];
            let reach = [(0, 0), (1 << 40, SWF_HORIZON as u128 - (1 << 61))][case as usize / 4 % 2];
            let (mut procs_a, mut id_a, mut reach_a) = (header, 7, reach);
            let (mut id_b, mut reach_b) = (7, reach);
            let by_step =
                SwfStream::<&[u8]>::step(1, raw, cluster, &mut procs_a, &mut id_a, &mut reach_a);
            let by_scan =
                SwfStream::<&[u8]>::admit(1, record, cluster.or(header), &mut id_b, &mut reach_b);
            assert_eq!(by_scan.map(Some), by_step, "{raw:?}");
            assert_eq!((procs_a, id_a, reach_a), (header, id_b, reach_b), "{raw:?}");
        }
        assert!(
            taken > 4_000 && left > 4_000,
            "{taken} taken, {left} left to step"
        );
    }

    /// Whole traces of such lines: the same jobs, ids, line-numbered errors
    /// and `read_line` failures as the `step`-only parser, fused after the
    /// first error, with the same header and job count.
    #[test]
    fn stream_agrees_with_the_step_only_parser() {
        let mut rng = proptest::prelude::TestRng::from_name("swf::stream_agrees_with_step_only");
        let (mut jobs, mut failures) = (0, std::collections::BTreeSet::new());
        for case in 0..3_000u64 {
            let mut text = Vec::new();
            for _ in 0..rng.uniform_u64(0, 12) {
                text.extend(arbitrary_line(&mut rng));
            }
            if case % 3 == 0 {
                while text.last().is_some_and(|b| b"\r\n ".contains(b)) {
                    text.pop(); // a last line without `\n`
                }
            }
            let cluster = [None, Some(8)][case as usize % 2];
            let expected = step_only(&text, cluster);
            let mut stream = SwfStream::new(text.as_slice(), cluster);
            let got: Vec<_> = stream.by_ref().map(outcome).collect();
            let shown = String::from_utf8_lossy(&text);
            assert_eq!(got, expected, "{shown:?}");
            assert!(
                stream.next().is_none() && stream.next().is_none(),
                "{shown:?}"
            );
            jobs += got.iter().filter(|r| r.is_ok()).count();
            if let Some(Err(e)) = got.last() {
                failures.insert(e.split([' ', ':']).next().unwrap().to_string());
            }
        }
        assert!(jobs > 2_000, "{jobs} jobs parsed");
        for kind in [
            "MissingFields",
            "BadField",
            "NegativeField",
            "DegenerateJob",
            "WidthExceedsCluster",
            "HorizonOverflow",
            "InvalidData",
        ] {
            assert!(
                failures.contains(kind),
                "no trace failed with {kind}: {failures:?}"
            );
        }
    }

    #[test]
    fn stream_surfaces_errors_and_fuses() {
        let text = "1 0 5 2\n2 10 x 3\n3 20 5 2\n";
        let mut stream = SwfStream::new(text.as_bytes(), None);
        assert!(stream.next().unwrap().is_ok());
        match stream.next().unwrap() {
            Err(SwfReadError::Swf(err)) => assert_eq!(
                err,
                SwfError::BadField {
                    line: 2,
                    field: "run_time"
                }
            ),
            other => panic!("expected a parse error, got {other:?}"),
        }
        assert!(stream.next().is_none(), "stream must fuse after an error");
    }

    /// The horizon boundary: the last record that keeps latest submit +
    /// total run time on the time axis is accepted, the next tick is not.
    #[test]
    fn horizon_boundary_last_accepted_first_refused() {
        let room = SWF_HORIZON - 70 - 5;
        let inside = format!("1 0 5 2\n2 70 {room} 2\n");
        assert_eq!(parse_trace(&inside).unwrap().len(), 2);
        // One more tick of work, or of submit time, crosses it.
        for next in ["3 70 1 1\n", "3 71 1 1\n"] {
            let text = format!("{inside}{next}");
            assert_eq!(
                parse_trace(&text).unwrap_err(),
                SwfError::HorizonOverflow { line: 3 }
            );
        }
        let err = parse_trace(&format!("1 0 5 2\n2 70 {} 2\n", room + 1)).unwrap_err();
        assert_eq!(err, SwfError::HorizonOverflow { line: 2 });
        assert!(err.to_string().starts_with("line 2: "), "{err}");
        // A later submission below the running maximum adds only its work.
        let text = format!("1 70 {} 2\n2 0 5 2\n", room);
        assert_eq!(parse_trace(&text).unwrap().len(), 2);
    }

    #[test]
    fn short_line_with_bad_field_still_reports_missing_fields() {
        // Error-priority pin: field count is checked before field syntax.
        assert_eq!(
            parse_trace("x 2 3").unwrap_err(),
            SwfError::MissingFields { line: 1 }
        );
    }

    #[test]
    fn open_trace_sniffs_gzip() {
        let dir = std::env::temp_dir().join(format!(
            "resa-swf-gz-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let text = "; MaxProcs: 8\n1 0 5 4\n2 3 7 8\n";
        let plain = dir.join("t.swf");
        let gzed = dir.join("t.swf.gz");
        std::fs::write(&plain, text).unwrap();
        crate::gzip::write_gz(&gzed, text.as_bytes()).unwrap();
        for path in [&plain, &gzed] {
            let jobs: Vec<Job> = open_trace(path, None)
                .unwrap()
                .map(|r| r.unwrap())
                .collect();
            assert_eq!(jobs.len(), 2, "{}", path.display());
            assert_eq!(read_trace_text(path).unwrap(), text);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
