//! The one bench harness every report shares: the JSON header, a
//! best-of-N wall timer, the `pool::stats` fresh-alloc probe, the
//! xorshift64* input generator, the serving reports' random index and
//! pool widths, and the writer with its default output paths. The
//! emitters (`kernels`, `train_step`, `ann`, `quant`, `load`) keep only
//! their sweeps, row structs and schemas. The JSON is written by hand.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dt_serve::ScoringIndex;
use dt_tensor::{pool, Tensor};

/// Short git revision of the working tree (`git rev-parse --short HEAD`),
/// or `"unknown"` when git is unavailable or the cwd is not a repository.
/// Validated to be plain hex before it is embedded in a report, so a
/// mangled git invocation can never corrupt the JSON.
#[must_use]
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty() && s.chars().all(|c| c.is_ascii_hexdigit()))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host hardware thread count for the report header: validated to be at
/// least 1 (a zero or unreadable `available_parallelism` falls back to 1,
/// so downstream tooling can divide by it unconditionally).
#[must_use]
pub fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .max(1)
}

/// Shared JSON report header: the opening brace plus the `schema`,
/// `note`, `git_rev`, and `host_threads` fields every bench artefact
/// leads with, and `pool_threads` when the caller passes one. Keeps the
/// probes and the field order identical across artefacts by
/// construction. The caller appends its `"results"` array and the
/// closing brace.
#[must_use]
pub fn bench_header(schema: &str, note: &str, pool_threads: Option<usize>) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"{schema}\",");
    let _ = writeln!(s, "  \"note\": \"{note}\",");
    let _ = writeln!(s, "  \"git_rev\": \"{}\",", git_rev());
    let _ = writeln!(s, "  \"host_threads\": {},", host_threads());
    if let Some(threads) = pool_threads {
        let _ = writeln!(s, "  \"pool_threads\": {threads},");
    }
    s
}

/// Completes a report: `header` (from [`bench_header`]) followed by the
/// `"results"` array, one JSON object per row whose fields `row` renders,
/// and the closing brace.
pub(crate) fn with_results<R>(
    mut header: String,
    rows: &[R],
    row: impl Fn(&R) -> String,
) -> String {
    header.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(header, "    {{{}}}{sep}", row(r));
    }
    header.push_str("  ]\n}\n");
    header
}

/// Best-of-`reps` wall time of `f` in milliseconds.
pub(crate) fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Mean [`pool::stats`] fresh allocations per call over `runs` calls of
/// `f`, which gets the call index. Callers warm up first, so this reads
/// the steady state.
pub(crate) fn fresh_allocs_per(runs: usize, mut f: impl FnMut(usize)) -> f64 {
    let runs = runs.max(1);
    let before = pool::stats().fresh_allocs;
    for i in 0..runs {
        f(i);
    }
    (pool::stats().fresh_allocs - before) as f64 / runs as f64
}

/// Deterministic xorshift64* stream: every report's inputs come from it,
/// so the committed reports' inputs stay what they were recorded on.
pub(crate) struct XorShift(u64);

impl XorShift {
    /// The stream seeded at `seed | 1` (zero is xorshift's fixed point).
    pub(crate) fn new(seed: u64) -> Self {
        Self(seed | 1)
    }

    /// The stream seeded at `state` verbatim. Only the kernel report
    /// seeds this way: some of its seeds are even, and this keeps its
    /// inputs what they have always been.
    pub(crate) fn from_state(state: u64) -> Self {
        assert_ne!(state, 0, "xorshift state must be non-zero");
        Self(state)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[-1, 1)`.
    pub(crate) fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    pub(crate) fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A `rows × cols` tensor of [`XorShift::unit`] draws, row-major.
    pub(crate) fn filled(&mut self, rows: usize, cols: usize) -> Tensor {
        Tensor::from_fn(rows, cols, |_, _| self.unit())
    }
}

/// A serving index over random panels at one catalog size.
#[must_use]
pub fn build_index(n_users: usize, n_items: usize, dim: usize, seed: u64) -> ScoringIndex {
    let filled = |rows, cols, seed| XorShift::new(seed).filled(rows, cols);
    let p = filled(n_users, dim, seed ^ 0x9E37_79B9);
    let q = filled(n_items, dim, seed ^ 0xBF58_476D);
    let ub = filled(n_users, 1, seed ^ 0x94D0_49BB).data().to_vec();
    let ib = filled(n_items, 1, seed ^ 0xD6E8_FEB8).data().to_vec();
    ScoringIndex::new(p, q, ub, ib, 0.1)
}

/// The pool widths the ann, quant and load artefacts sweep.
pub const SWEEP_WIDTHS: [usize; 3] = [1, 2, 8];

/// Where a report goes when the command line names no path:
/// `BENCH_<report>.json` at the repo root (resolved at compile time from
/// this crate's manifest dir, so the bin runs from any cwd), or for a
/// `--smoke` run `BENCH_<report>_smoke.json` under the system temp dir,
/// so a smoke run never touches the committed artefact.
#[must_use]
pub fn default_path(report: &str, smoke: bool) -> PathBuf {
    if smoke {
        std::env::temp_dir().join(format!("BENCH_{report}_smoke.json"))
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../BENCH_{report}.json"))
    }
}

/// Writes a rendered report to `path`, then echoes one console line per
/// result row.
pub(crate) fn write_report<R>(
    path: &Path,
    json: &str,
    rows: &[R],
    line: impl Fn(&R) -> String,
) -> std::io::Result<()> {
    std::fs::write(path, json)?;
    for r in rows {
        eprintln!("{}", line(r));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_reference_values() {
        // Pins the stream behind every artefact's inputs: a changed state
        // machine, output map or seeding would silently change them all.
        let mut odd = XorShift::new(0x5EED);
        assert_eq!(odd.next_u64(), 0xa7f0_582f_07e8_a2d0);
        assert_eq!(odd.next_u64(), 0xe628_f82e_796c_2472);
        // An even seed runs at `seed | 1`; `from_state` takes it verbatim.
        let mut even = XorShift::new(42);
        assert_eq!(even.next_u64(), 0xc396_5a1c_5c63_fb9f);
        assert_eq!(even.next_u64(), 0xbdad_4075_645a_e0c6);
        assert_eq!(XorShift::from_state(43).next_u64(), 0xc396_5a1c_5c63_fb9f);
        assert_eq!(XorShift::from_state(42).next_u64(), 0x089b_8aba_0d62_3742);
    }

    #[test]
    fn unit_draws_stay_in_range_and_filled_is_row_major() {
        let mut rng = XorShift::new(9);
        assert!((0..1000).all(|_| (-1.0..1.0).contains(&rng.unit())));
        let t = XorShift::new(9).filled(2, 3);
        let mut again = XorShift::new(9);
        let flat: Vec<f64> = (0..6).map(|_| again.unit()).collect();
        assert_eq!(t.data(), &flat[..]);
        assert!((0..100).all(|_| rng.index(7) < 7));
    }

    #[test]
    fn default_paths_split_committed_and_smoke_output() {
        let full = default_path("quant", false);
        assert!(full.ends_with("../../BENCH_quant.json"), "{full:?}");
        assert!(full.starts_with(env!("CARGO_MANIFEST_DIR")));
        let smoke = default_path("quant", true);
        assert_eq!(smoke, std::env::temp_dir().join("BENCH_quant_smoke.json"));
    }

    #[test]
    fn alloc_probe_averages_fresh_allocs_per_call() {
        let _pool = crate::stats_lock();
        let per = fresh_allocs_per(4, |i| {
            if i % 2 == 0 {
                pool::with_disabled(|| Tensor::pooled_zeros(3, 3).recycle());
            }
        });
        assert!((per - 0.5).abs() < 1e-12, "{per}");
    }

    #[test]
    fn timer_takes_the_best_of_reps() {
        let mut calls = 0;
        let ms = time_ms(3, || {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        assert_eq!(calls, 3);
        assert!(ms >= 1.0, "{ms}");
    }

    #[test]
    fn results_array_separates_rows_and_closes_the_report() {
        let json = with_results("{\n".to_string(), &[1, 2], |r| format!("\"x\": {r}"));
        assert_eq!(
            json,
            "{\n  \"results\": [\n    {\"x\": 1},\n    {\"x\": 2}\n  ]\n}\n"
        );
    }

    #[test]
    fn git_rev_is_hex_or_unknown() {
        let rev = git_rev();
        assert!(
            rev == "unknown" || (!rev.is_empty() && rev.chars().all(|c| c.is_ascii_hexdigit())),
            "unexpected git_rev {rev:?}"
        );
    }

    #[test]
    fn host_threads_is_at_least_one() {
        assert!(host_threads() >= 1);
    }

    #[test]
    fn bench_header_fields_are_ordered_and_optional_pool_threads_works() {
        let bare = bench_header("dt-bench/x/v1", "a note", None);
        let lines: Vec<&str> = bare.lines().collect();
        assert_eq!(lines[0], "{");
        assert_eq!(lines[1], "  \"schema\": \"dt-bench/x/v1\",");
        assert_eq!(lines[2], "  \"note\": \"a note\",");
        assert!(lines[3].starts_with("  \"git_rev\": \""));
        assert!(lines[4].starts_with("  \"host_threads\": "));
        assert_eq!(lines.len(), 5);
        let pooled = bench_header("dt-bench/x/v1", "a note", Some(7));
        assert!(pooled.lines().nth(5) == Some("  \"pool_threads\": 7,"));
    }
}
