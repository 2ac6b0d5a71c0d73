//! Regenerate the PR-trajectory benchmark snapshot.
//!
//! ```text
//! cargo run --release -p precis-bench --bin bench_report -- BENCH_PR7.json
//! cargo run --release -p precis-bench --bin bench_report -- --quick out.json
//! ```
//!
//! With no path, the JSON is printed to stdout only.

use precis_bench::bench_report::{run_report, Scale};
use std::time::Instant;

fn main() {
    let mut scale = Scale::Full;
    let mut path: Option<String> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--full" => scale = Scale::Full,
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other:?} (expected --quick | --full)");
                std::process::exit(2);
            }
            other => path = Some(other.to_owned()),
        }
    }
    let t0 = Instant::now();
    let report = run_report(scale);
    let json = report.to_json();
    print!("{json}");
    if let Some(path) = path {
        std::fs::write(&path, &json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote {path}");
    }
    eprintln!("(total wall time {:.1}s)", t0.elapsed().as_secs_f64());
}
