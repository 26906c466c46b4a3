//! The O-FSCIL cluster benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_hot|cluster_mixed|paper_session> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload against the workspace's public APIs, checks its
//! outputs, and prints one JSON object as the last line of standard output:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones of [`report::END_TO_END`]; with
//! `--trace 1` the per-layer ones of [`report::PER_LAYER`], from a run that
//! records spans and replays captured inputs into each layer. Files (spans,
//! store directories) go under `.perfbench_out/` in the working directory.

mod cluster_mixed;
mod load;
mod paper_session;
mod probe;
mod report;
mod serve_hot;
mod stats;
mod trace;

use load::{Answer, Outcome, Phase};
use ofscil::prelude::*;
use report::{Info, Metrics};
use std::path::PathBuf;
use trace::Tracer;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    };
    if !(1..=60).contains(&args.seconds) {
        return Err("--seconds must be within 1..=60".into());
    }
    Ok(args)
}

/// Requests attempted and failed over every phase of a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub attempted: usize,
    pub failed: usize,
}

impl Counts {
    pub fn add(&mut self, outcomes: &[Outcome]) {
        self.attempted += outcomes.len();
        self.failed += outcomes.iter().filter(|o| o.response.is_err()).count();
    }
}

/// Where runs keep their files: `.perfbench_out/` in the working directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench_out")
}

/// A support batch of `shots` renders of `class` (sample ids from
/// `first_sample`, stream 0).
pub fn support_batch(
    data: &SyntheticCifar,
    class: usize,
    first_sample: usize,
    shots: usize,
) -> Result<Batch, String> {
    let images = (0..shots)
        .map(|s| {
            data.render(class, first_sample + s, 0)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let refs: Vec<&Tensor> = images.iter().collect();
    Ok(Batch {
        images: Tensor::stack(&refs).map_err(|e| e.to_string())?,
        labels: vec![class; shots],
    })
}

/// A `LearnOnline` of one class must answer `Learned` with exactly that
/// class; returns the memory's class count.
pub fn check_learned(answer: &Answer, class: usize) -> Result<usize, String> {
    match answer {
        Answer::Learned {
            class: Some(c),
            total,
        } if *c == class => Ok(*total),
        other => Err(format!("learn of class {class} answered {other:?}")),
    }
}

/// Records a phase's open-loop validity figures and tail percentiles.
pub fn report_phase(info: &mut Info, name: &str, phase: &Phase) {
    info.num(format!("{name}.attempted"), phase.attempted as f64);
    info.num(format!("{name}.offered_rps"), phase.offered_rps);
    info.num(format!("{name}.lateness_p99_ms"), phase.lateness_p99_ms);
    info.num(format!("{name}.lateness_max_ms"), phase.lateness_max_ms);
    for (kind, q) in [("infer", phase.infer), ("learn", phase.learn)] {
        if let Some(q) = q {
            info.num(format!("{name}.{kind}_count"), q.count as f64);
            info.num(format!("{name}.{kind}_p99_ms"), q.p99);
            info.num(format!("{name}.{kind}_p999_ms"), q.p999);
        }
    }
}

/// Records every rate a stage of the `slo_rps` search tried.
pub fn report_probes(info: &mut Info, name: &str, probes: &[stats::Probe]) {
    let text: Vec<String> = probes
        .iter()
        .map(|p| format!("{:.0}:{}", p.rate, if p.pass { "pass" } else { "fail" }))
        .collect();
    info.text(name, &text.join(" "));
}

/// Tracing overhead: the traced infer p50 minus the untraced one (ms).
pub fn set_overhead(m: &mut Metrics, untraced_p50: f64, traced_p50: f64) {
    m.set("trace.overhead_infer_p50_ms", traced_p50 - untraced_p50);
    m.set(
        "trace.overhead_pct",
        100.0 * (traced_p50 / untraced_p50 - 1.0),
    );
}

fn run(args: &Args, tracer: &Tracer, m: &mut Metrics, info: &mut Info) -> Result<Counts, String> {
    stats::self_test().map_err(|e| format!("benchmark self-test failed: {e}"))?;
    std::fs::create_dir_all(out_dir())
        .map_err(|e| format!("create {}: {e}", out_dir().display()))?;
    report::fingerprint(info, &out_dir());
    info.text("workload", &args.workload);
    info.num("seed", args.seed as f64);
    match args.workload.as_str() {
        "serve_hot" => serve_hot::run(args, tracer, m, info),
        "cluster_mixed" => cluster_mixed::run(args, tracer, m, info),
        "paper_session" => paper_session::run(args, tracer, m, info),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let mut metrics = Metrics::default();
    let mut info = Info::default();
    let outcome = run(&args, &tracer, &mut metrics, &mut info).and_then(|counts| {
        let expected = if args.trace {
            report::PER_LAYER
        } else {
            report::END_TO_END
        };
        Ok((counts, metrics.to_json(expected)?))
    });
    if args.trace {
        let spans = tracer.spans();
        // One file per workload: the latest traced run replaces the last.
        let path = out_dir().join(format!("trace-{}.jsonl", args.workload));
        if let Err(e) = std::fs::write(&path, trace::to_jsonl(&spans)) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
        println!("{}", trace::self_time_table(&spans));
    }
    match outcome {
        Ok((counts, metrics)) if counts.failed == 0 => {
            println!("{}", info.to_json());
            println!(
                "{{\"correct\":true,\"attempted\":{},\"failed\":0,\"metrics\":{metrics}}}",
                counts.attempted
            );
        }
        Ok((counts, _)) => {
            println!("{}", info.to_json());
            eprintln!(
                "perfbench: {} of {} requests failed",
                counts.failed, counts.attempted
            );
            println!(
                "{{\"correct\":false,\"attempted\":{},\"failed\":{},\"metrics\":{{}}}}",
                counts.attempted, counts.failed
            );
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            println!("{{\"correct\":false,\"attempted\":1,\"failed\":1,\"metrics\":{{}}}}");
            std::process::exit(1);
        }
    }
}
