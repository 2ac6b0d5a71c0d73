//! promcheck — validate a Prometheus text exposition or a canonical-JSON
//! body read from stdin. CI pipes live `/v1/metrics` and `/v1/debug/slow`
//! scrapes through this.
//!
//! ```text
//! curl -s localhost:9090/v1/metrics    | promcheck         # exposition format
//! curl -s localhost:9090/v1/debug/slow | promcheck --json  # canonical JSON
//! ```
//!
//! Exit status 0 means the input passed; violations are printed to stderr
//! and exit with status 1.

use precis_server::json;
use std::io::Read;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mode = std::env::args().nth(1).unwrap_or_default();
    let mut input = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut input) {
        eprintln!("promcheck: cannot read stdin: {e}");
        return ExitCode::FAILURE;
    }
    match mode.as_str() {
        "" | "--prom" => match precis_obs::validate_exposition(&input) {
            Ok(samples) => {
                println!("promcheck: ok, {samples} samples");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("promcheck: exposition invalid: {e}");
                ExitCode::FAILURE
            }
        },
        "--json" => {
            // The body must parse with the server's own JSON reader and
            // survive a canonical render → parse round trip unchanged.
            let doc = match json::parse(&input) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("promcheck: body is not valid JSON: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let rendered = json::render(&doc);
            match json::parse(&rendered) {
                Ok(again) if again == doc => {
                    println!("promcheck: ok, canonical JSON round-trips");
                    ExitCode::SUCCESS
                }
                Ok(_) => {
                    eprintln!("promcheck: canonical render changed the document");
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("promcheck: canonical render does not re-parse: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        other => {
            eprintln!("promcheck: unknown mode {other:?} (use --prom or --json)");
            ExitCode::FAILURE
        }
    }
}
