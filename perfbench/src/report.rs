//! Metric names, the machine fingerprint and the JSON lines a run prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// End-to-end metrics every untraced run reports, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("infer_p50_ms", "ms"),
    ("infer_p90_ms", "ms"),
    ("learn_p50_ms", "ms"),
    ("learn_p90_ms", "ms"),
    ("slo_rps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("mj_per_class", "mJ"),
    ("mj_per_infer", "mJ"),
];

/// Per-layer metrics every traced run reports, with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tensor.matmul_us", "us"),
    ("tensor.matmul_gmacs", "GMAC/s"),
    ("nn.backbone_b1_us", "us"),
    ("nn.backbone_bN_us", "us"),
    ("nn.backbone_gmacs", "GMAC/s"),
    ("nn.batch_amortization", "ratio"),
    ("core.fcr_us", "us"),
    ("core.extract_us", "us"),
    ("core.classify_us", "us"),
    ("core.learn_us", "us"),
    ("gap9.em_update_mj", "mJ"),
    ("gap9.bb_infer_mj", "mJ"),
    ("gap9.table4_err_pct", "%"),
    ("serve.mean_batch", "count"),
    ("serve.largest_batch", "count"),
    ("serve.refused", "count"),
    ("serve.call_us", "us"),
    ("serve.self_us", "us"),
    ("store.journal_us", "us"),
    ("store.checkpoint_ms", "ms"),
    ("store.recover_ms", "ms"),
    ("store.wal_bytes_per_learn", "B"),
    ("store.compactions", "count"),
    ("wire.call_us", "us"),
    ("wire.self_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.req_bytes", "B"),
    ("wire.resp_bytes", "B"),
    ("router.call_us", "us"),
    ("router.self_us", "us"),
    ("router.max_shard_share", "ratio"),
    ("obs.events", "count"),
    ("obs.dropped", "count"),
    ("obs.query_ms", "ms"),
    ("trace.overhead_infer_p50_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Named metric values of one run.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Renders the metrics object with exactly the names of `expected`,
    /// checking that each is present and finite. Values set for the other
    /// mode are left out; an undeclared name is an error.
    pub fn to_json(&self, expected: &[(&'static str, &'static str)]) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, (name, unit)) in expected.iter().enumerate() {
            let value = self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} missing"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_num(*value)
            );
        }
        let declared = |k: &&str| END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| n == k);
        if let Some(extra) = self.values.keys().find(|k| !declared(k)) {
            return Err(format!("metric {extra} is not declared"));
        }
        out.push('}');
        Ok(out)
    }
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip formatting gives.
pub fn json_num(value: f64) -> String {
    let text = format!("{value}");
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        format!("{text}.0")
    }
}

pub fn json_str(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Informational key/value pairs printed beside the metrics (rates,
/// lateness, tail percentiles, the fingerprint). Values are raw JSON.
#[derive(Debug, Default)]
pub struct Info {
    pairs: Vec<(String, String)>,
}

impl Info {
    pub fn num(&mut self, key: impl Into<String>, value: f64) {
        let text = if value.is_finite() {
            json_num(value)
        } else {
            "null".into()
        };
        self.pairs.push((key.into(), text));
    }

    pub fn text(&mut self, key: impl Into<String>, value: &str) {
        self.pairs.push((key.into(), json_str(value)));
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .pairs
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k)))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `path` (longest mount-point prefix
/// in `/proc/self/mountinfo`).
pub fn filesystem_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mountinfo = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in mountinfo.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), (*fstype).to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fstype)| fstype)
}

/// The machine fingerprint every result carries.
pub fn fingerprint(info: &mut Info, store_dir: &Path) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    info.num("nproc", nproc as f64);
    info.text("rustc", &command_line("rustc", &["--version"]));
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    info.text("kernel", kernel.trim());
    // Only a checkout that is itself a repository has a commit; git would
    // otherwise search the parent directories.
    let commit = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".into()
    };
    info.text("git_commit", &commit);
    info.text("store_fs", &filesystem_type(store_dir));
}
