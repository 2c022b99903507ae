//! The traced in-process run: replays the inputs the end-to-end driver
//! generated through each `resa-*` crate's public functions, with a span
//! around every call, and prints one JSON object of per-layer metrics as the
//! last line of its output. The spans go to `trace-<workload>.json`.
//!
//! This is the only part of the benchmark that links the `resa-*` crates,
//! and so the only part that has to follow their API. The spans are recorded
//! here, around the calls; the program carries none.
//!
//! ```text
//! layers --workload W --inputs DIR --out DIR --seed S --sizes full|quick --cores N
//! ```

mod ops;
mod replay;
mod serve;
mod sweep;
mod timeline;

use benchkit::gen::Sizes;
use benchkit::spans::{self, Open, Tracer};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Name of the span that covers the whole traced run; its self time is the
/// part of the run no layer's span covers.
const ROOT: &str = "workload";

/// The crates, as the first component of a span name.
const LAYERS: [&str; 6] = ["cli", "sim", "core", "algos", "workloads", "analysis"];

/// Spans and metrics of one traced run.
pub struct Collector {
    pub tracer: Tracer,
    pub seed: u64,
    pub sizes: Sizes,
    /// Directory of the generated inputs.
    pub inputs: PathBuf,
    /// The benchmark's output directory.
    pub out: PathBuf,
    /// CPUs of the machine, as the end-to-end driver counted them (this
    /// process may itself be pinned to one).
    pub cores: usize,
    metrics: BTreeMap<String, f64>,
    root: Option<Open>,
}

impl Collector {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Open the root span: everything from here to the end of the workload
    /// is the traced run. Untraced reference passes come before this.
    pub fn open_root(&mut self) {
        assert!(self.root.is_none(), "the root span opens once");
        self.root = Some(self.tracer.enter(ROOT, 0));
    }

    /// Run `f` inside a span; returns its result and its time in nanoseconds.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let open = self.tracer.enter(name, request);
        let started = Instant::now();
        let value = f();
        let ns = started.elapsed().as_nanos() as u64;
        self.tracer.exit(open);
        (value, ns)
    }

    /// [`Collector::timed`] for a call whose result is not needed.
    pub fn span(&mut self, name: &'static str, request: u64, f: impl FnOnce()) -> u64 {
        self.timed(name, request, f).1
    }

    /// Close the root span, attribute the run's wall time to the layers by
    /// self time, write the trace file and return the metrics.
    fn finish(mut self, workload: &str) -> Result<BTreeMap<String, f64>, String> {
        let root = self
            .root
            .take()
            .ok_or("the workload never opened the root span")?;
        self.tracer.exit(root);
        let spans = self.tracer.spans();
        let wall_ns = spans
            .iter()
            .find(|s| s.name == ROOT)
            .map_or(0, |s| s.end_ns - s.start_ns);
        let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
        let mut unattributed_ns = 0;
        for (name, time) in spans::self_times(spans) {
            match name.split('.').next() {
                Some(layer) if LAYERS.contains(&layer) => {
                    *by_layer.entry(layer).or_default() += time.self_ns
                }
                _ => unattributed_ns += time.self_ns,
            }
        }
        let n_spans = spans.len();
        let trace_path = self.out.join(format!("trace-{workload}.json"));
        std::fs::write(&trace_path, spans::to_json(spans))
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;

        self.set("trace.wall_s", wall_ns as f64 / 1e9);
        for layer in LAYERS {
            let ns = by_layer.get(layer).copied().unwrap_or(0);
            self.set(&format!("trace.self_s.{layer}"), ns as f64 / 1e9);
        }
        self.set(
            "trace.unattributed_frac",
            unattributed_ns as f64 / wall_ns.max(1) as f64,
        );
        self.set("trace.spans", n_spans as f64);
        Ok(self.metrics)
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name} <value>"))
}

fn run(args: &[String]) -> Result<String, String> {
    let workload = flag(args, "--workload")?;
    let sizes = match flag(args, "--sizes")? {
        "full" => Sizes::full(),
        "quick" => Sizes::quick(),
        other => return Err(format!("unknown sizes '{other}' (full|quick)")),
    };
    let mut collector = Collector {
        tracer: Tracer::new(true),
        seed: flag(args, "--seed")?
            .parse()
            .map_err(|_| "--seed expects an integer")?,
        sizes,
        inputs: PathBuf::from(flag(args, "--inputs")?),
        out: PathBuf::from(flag(args, "--out")?),
        cores: flag(args, "--cores")?
            .parse()
            .map_err(|_| "--cores expects an integer")?,
        metrics: BTreeMap::new(),
        root: None,
    };
    match workload {
        "serve-mix" | "serve-durable" | "serve-probe" => serve::run(&mut collector, workload)?,
        "replay-archive" => replay::run(&mut collector)?,
        "sweep-grid" => sweep::run(&mut collector)?,
        other => return Err(format!("unknown workload '{other}'")),
    }
    let metrics = collector.finish(workload)?;
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\":{}",
                if value.is_finite() { *value } else { 0.0 }
            )
        })
        .collect();
    Ok(format!("{{{}}}", fields.join(",")))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("layers: {e}");
            ExitCode::from(1)
        }
    }
}
