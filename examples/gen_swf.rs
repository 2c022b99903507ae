//! Generate a synthetic, release-sorted SWF trace for archive-scale smokes.
//!
//! `ci/local.sh` uses this to fabricate a ~500k-line log without
//! shipping a real archive in the repository:
//!
//! ```text
//! cargo run --release --example gen_swf -- 500000 /tmp/synthetic.swf.gz
//! ```
//!
//! A path ending in `.gz` is wrapped by the vendored gzip writer
//! (`resa_workloads::gzip::write_gz`), which emits stored blocks only: such
//! a file exercises the gzip framing and the streaming reader, not the
//! Huffman decoder real archives go through — for that, write the plain
//! trace and compress it with the system `gzip`, as `ci/local.sh` does.
//! Generation is fully deterministic — two invocations with the same
//! arguments produce byte-identical files.

use std::fmt::Write as _;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (jobs, out, machines): (u64, PathBuf, u64) = match args.as_slice() {
        [jobs, out] => (parse(jobs, "jobs"), PathBuf::from(out), 64),
        [jobs, out, m] => (
            parse(jobs, "jobs"),
            PathBuf::from(out),
            parse(m, "machines"),
        ),
        _ => {
            eprintln!("usage: gen_swf <jobs> <out[.gz]> [machines]");
            std::process::exit(2);
        }
    };

    let mut text = String::with_capacity(32 * jobs as usize);
    let _ = writeln!(text, "; MaxProcs: {machines}");
    let _ = writeln!(text, "; synthetic release-sorted trace, {jobs} jobs");
    // Keep the offered load safely under capacity (~30% of a 64-machine
    // cluster at the defaults): overload would grow the wait queue with the
    // trace length, defeating the bounded-memory property the smoke checks.
    let max_width = (machines / 8).max(1);
    for i in 0..jobs {
        // Release dates advance one job per two ticks (sorted, so the replay
        // streams); widths and runtimes cycle through co-prime strides for a
        // mixed but reproducible load.
        let _ = writeln!(
            text,
            "{} {} {} {}",
            i + 1,
            i * 2,
            1 + (i * 7919) % 30,
            1 + (i * 104729) % max_width
        );
    }

    let result = if out.extension().is_some_and(|e| e == "gz") {
        resa_workloads::gzip::write_gz(&out, text.as_bytes())
    } else {
        std::fs::write(&out, &text)
    };
    if let Err(e) = result {
        eprintln!("gen_swf: cannot write {}: {e}", out.display());
        std::process::exit(1);
    }
    println!(
        "wrote {} ({} jobs, {machines} machines)",
        out.display(),
        jobs
    );
}

fn parse(arg: &str, what: &str) -> u64 {
    arg.parse().unwrap_or_else(|_| {
        eprintln!("gen_swf: {what} must be a positive integer, got '{arg}'");
        std::process::exit(2);
    })
}
