//! Regenerates one bench artefact.
//!
//! Usage: `dt-bench <kernels|train_step|ann|quant|load> [--smoke]
//! [output-path]`. The default output is `BENCH_<report>.json` at the
//! repo root, resolved relative to this crate. `--smoke` runs the
//! report's tiny sweep and defaults the output to a scratch file under
//! the system temp dir, so CI exercises every report in seconds without
//! touching the committed artefacts.

use std::path::{Path, PathBuf};

const USAGE: &str = "usage: dt-bench <kernels|train_step|ann|quant|load> [--smoke] [output-path]";

fn main() {
    let mut smoke = false;
    let mut report: Option<String> = None;
    let mut path: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else if report.is_none() {
            report = Some(arg);
        } else {
            path = Some(arg.into());
        }
    }
    let Some(report) = report else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let path = path.unwrap_or_else(|| dt_bench::report::default_path(&report, smoke));
    let write: fn(&Path, bool) -> std::io::Result<()> = match report.as_str() {
        "kernels" => dt_bench::kernels::write,
        "train_step" => dt_bench::train_step::write,
        "ann" => dt_bench::ann::write,
        "quant" => dt_bench::quant::write,
        "load" => dt_bench::load::write,
        other => {
            eprintln!("unknown report {other:?}; {USAGE}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "writing {} {report} report to {}",
        if smoke { "smoke" } else { "full" },
        path.display()
    );
    if let Err(e) = write(&path, smoke) {
        eprintln!("failed to write {}: {e}", path.display());
        std::process::exit(1);
    }
}
