use precis_benchmark::run::{self, RunConfig, Scale};
use precis_benchmark::spec::RUN_SECONDS;
use precis_benchmark::suite::{self, SuiteConfig};
use precis_benchmark::workload::Workload;
use precis_benchmark::world;
use std::process::ExitCode;

const USAGE: &str = "\
precis-benchmark: the Précis serving benchmark

  precis-benchmark [--seed N] [--seconds N] [--quick] [--aa]
      every workload for 3 rounds of --seconds measured seconds (default 20),
      then one traced run per workload; prints every metric and the latency
      budget by layer. --aa runs the set twice and compares the medians
      against the bounds. --quick is a seconds-long smoke run (2,000 movies,
      1 round, 2 s).

  precis-benchmark --workload NAME --seed N --seconds N --trace 0|1 [--quick]
      one run; the last line of output is the result as one JSON object:
      the end-to-end metrics, or with --trace 1 the per-layer metrics.

workloads: narrow_open hot_closed broad_closed mixed_write";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    quick: bool,
    aa: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        aa: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                out.workload =
                    Some(Workload::from_name(&name).ok_or(format!("no workload {name:?}"))?);
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be within 1..=60".to_owned());
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => out.quick = true,
            "--aa" => out.aa = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("precis-benchmark measures optimized code only: build with --release");
        return ExitCode::from(2);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("{message}\n");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let default_seconds = if args.quick { 2 } else { RUN_SECONDS };
    let seconds = args.seconds.unwrap_or(default_seconds);

    let outcome = match args.workload {
        Some(workload) => run::run(&RunConfig {
            workload,
            seed: args.seed,
            seconds: seconds as f64,
            trace: args.trace,
            scale: if args.quick {
                Scale::QUICK
            } else {
                Scale::FULL
            },
            out_dir: world::out_dir(),
        })
        .map(|out| {
            for note in &out.notes {
                println!("{note}");
            }
            println!("{}", suite::encode(&out));
            out.correct
        }),
        None => suite::run(&SuiteConfig {
            seed: args.seed,
            seconds,
            quick: args.quick,
            aa: args.aa,
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("precis-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
