//! The `precis` binary: an interactive explorer for précis queries — the
//! "appropriate user interface" the paper imagines for setting weights at
//! query time and exploring a database interactively (§3.1).
//!
//! ```text
//! precis --demo                       # the paper's Woody Allen database
//! precis --synthetic 2000            # seeded synthetic movies database
//! precis --load dump.precisdb        # a database saved with `save`
//! precis --demo --exec 'query "Woody Allen"; quit'   # scripted
//! ```

use precis_cli::{Session, SessionOutcome};
use std::io::{BufRead, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut source = None;
    let mut exec: Option<String> = None;
    let mut serve: Option<precis_cli::ServeOptions> = None;
    let mut testkit: Option<precis_cli::TestkitOptions> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "serve" => serve = Some(precis_cli::ServeOptions::default()),
            "testkit" => testkit = Some(precis_cli::TestkitOptions::default()),
            "--seed" => {
                i += 1;
                let opts = testkit
                    .as_mut()
                    .unwrap_or_else(|| usage("--seed needs `testkit`"));
                opts.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--cases" => {
                i += 1;
                let opts = testkit
                    .as_mut()
                    .unwrap_or_else(|| usage("--cases needs `testkit`"));
                opts.cases = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--cases needs a count")),
                );
            }
            "--profile" => {
                i += 1;
                let opts = testkit
                    .as_mut()
                    .unwrap_or_else(|| usage("--profile needs `testkit`"));
                opts.profile = args
                    .get(i)
                    .and_then(|s| precis_testkit::Profile::parse(s))
                    .unwrap_or_else(|| usage("--profile needs `quick` or `soak`"));
            }
            "--repro-out" => {
                i += 1;
                let opts = testkit
                    .as_mut()
                    .unwrap_or_else(|| usage("--repro-out needs `testkit`"));
                opts.repro_out = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| usage("--repro-out needs a path")),
                );
            }
            "--addr" => {
                i += 1;
                let opts = serve
                    .as_mut()
                    .unwrap_or_else(|| usage("--addr needs `serve`"));
                opts.addr = args
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| usage("--addr needs an address"));
            }
            "--workers" => {
                i += 1;
                let opts = serve
                    .as_mut()
                    .unwrap_or_else(|| usage("--workers needs `serve`"));
                opts.workers = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--workers needs a thread count"));
            }
            "--queue" => {
                i += 1;
                let opts = serve
                    .as_mut()
                    .unwrap_or_else(|| usage("--queue needs `serve`"));
                opts.queue = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--queue needs a capacity"));
            }
            "--deadline-ms" => {
                i += 1;
                let opts = serve
                    .as_mut()
                    .unwrap_or_else(|| usage("--deadline-ms needs `serve`"));
                opts.deadline_ms = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--deadline-ms needs milliseconds (0 = none)"));
            }
            "--data-dir" => {
                i += 1;
                let opts = serve
                    .as_mut()
                    .unwrap_or_else(|| usage("--data-dir needs `serve`"));
                opts.data_dir = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| usage("--data-dir needs a directory")),
                );
            }
            "--checkpoint-every" => {
                i += 1;
                let opts = serve
                    .as_mut()
                    .unwrap_or_else(|| usage("--checkpoint-every needs `serve`"));
                opts.checkpoint_every = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--checkpoint-every needs a count (0 = never)"));
            }
            "--trace-slow-ms" => {
                i += 1;
                let opts = serve
                    .as_mut()
                    .unwrap_or_else(|| usage("--trace-slow-ms needs `serve`"));
                opts.trace_slow_ms = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--trace-slow-ms needs milliseconds (0 = all)")),
                );
            }
            "--demo" => source = Some(precis_cli::Source::Demo),
            "--synthetic" => {
                i += 1;
                let movies = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--synthetic needs a movie count"));
                source = Some(precis_cli::Source::Synthetic { movies });
            }
            "--load" => {
                i += 1;
                let path = args
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| usage("--load needs a path"));
                source = Some(precis_cli::Source::File(path));
            }
            "--exec" => {
                i += 1;
                exec = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| usage("--exec needs commands")),
                );
            }
            "--help" | "-h" => {
                println!("{}", precis_cli::HELP);
                return;
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }

    let source = source.unwrap_or(precis_cli::Source::Demo);

    if let Some(options) = testkit {
        let ok = precis_cli::run_testkit(&options);
        std::process::exit(if ok { 0 } else { 1 });
    }

    if let Some(options) = serve {
        match precis_cli::start_server(source, &options) {
            Ok((handle, label)) => {
                println!(
                    "precis-server listening on http://{} — {label} \
                     ({} workers, queue {}, POST /shutdown to stop)",
                    handle.local_addr(),
                    options.workers,
                    options.queue
                );
                handle.wait();
                println!("precis-server stopped");
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let mut session = match Session::open(source) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    println!("{}", session.banner());

    if let Some(script) = exec {
        for command in script.split(';') {
            if run_one(&mut session, command) {
                return;
            }
        }
        return;
    }

    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        print!("precis> ");
        let _ = std::io::stdout().flush();
        line.clear();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => return, // EOF
            Ok(_) => {
                if run_one(&mut session, &line) {
                    return;
                }
            }
            Err(e) => {
                eprintln!("input error: {e}");
                return;
            }
        }
    }
}

/// Returns true when the session should end.
fn run_one(session: &mut Session, command: &str) -> bool {
    match session.execute(command) {
        SessionOutcome::Output(text) => {
            if !text.is_empty() {
                println!("{text}");
            }
            false
        }
        SessionOutcome::Error(text) => {
            eprintln!("error: {text}");
            false
        }
        SessionOutcome::Quit => true,
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{}", precis_cli::HELP);
    std::process::exit(2)
}
