//! One run: one workload, one seed, one measured window.

use crate::load::{self, sleep_until, Acked, OpLog, QueryPlan, Window};
use crate::scrape::{delta, Scrape};
use crate::workload::{poisson_schedule, Workload, Writer, OPEN_RATE_PER_S, WRITER_KEY_BASE};
use crate::{http, other, probes, spec, stats, trace, world};
use precis_durability::DurableStore;
use precis_storage::{Database, ValueRef};
use std::collections::{BTreeMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How big a run is. The benchmark proper runs at [`Scale::FULL`]; `QUICK`
/// exists so the whole path can be exercised in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub movies: usize,
    /// Distinct narrow request bodies (and search words).
    pub pool: usize,
    pub warm_up: Duration,
    /// Set-ups per run; `setup_s` is their median. A traced run, which does
    /// not report it, sets up once.
    pub setups: usize,
    pub traced_requests: usize,
    /// Wall-clock cap on the traced pass: broad requests take tens of ms to
    /// send and replay, and a run has to end.
    pub trace_budget: Duration,
}

impl Scale {
    pub const FULL: Scale = Scale {
        movies: 34_000,
        pool: 8_192,
        warm_up: Duration::from_secs(2),
        setups: 5,
        traced_requests: 2_000,
        trace_budget: Duration::from_secs(4),
    };
    pub const QUICK: Scale = Scale {
        movies: 2_000,
        pool: 1_024,
        warm_up: Duration::from_millis(300),
        setups: 2,
        traced_requests: 200,
        trace_budget: Duration::from_secs(2),
    };
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Where the run may write: its data directories and the trace file.
    pub out_dir: PathBuf,
}

/// What a run reports.
#[derive(Debug)]
pub struct RunOutput {
    /// No operation failed, no body was wrong, no acknowledged write lost.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The gate's metrics: every [`spec::END_TO_END`] name, or — traced —
    /// every [`spec::PER_LAYER`] name.
    pub metrics: Metrics,
    /// Reported beside them: every [`spec::UNRESOLVED`] name (`None` for
    /// the write path where the workload has no writer), `fail_share`,
    /// sample counts.
    pub extra: BTreeMap<&'static str, Option<f64>>,
    /// Human-readable lines: the budget table, where the trace went.
    pub notes: Vec<String>,
}

fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    stats::sort(&mut v);
    v
}

/// What the load phase measured.
struct Loaded {
    queries: OpLog,
    /// The writer's log and acknowledgements, when the workload has one.
    writes: Option<(OpLog, Acked)>,
    before: Scrape,
    after: Scrape,
    peak_rss_mb: f64,
    seconds: f64,
}

/// Drive the workload against `addr` through warm-up and the window.
fn load(
    config: &RunConfig,
    addr: std::net::SocketAddr,
    bodies: &[String],
    expected: Option<&[(usize, u64)]>,
    writer: &mut Writer,
) -> io::Result<Loaded> {
    let workload = config.workload;
    let start = Instant::now() + Duration::from_millis(20);
    let from = start + config.scale.warm_up;
    let window = Window {
        from,
        until: from + Duration::from_secs_f64(config.seconds),
    };
    let plan = QueryPlan {
        addr,
        bodies,
        expected,
        limit_ms: workload.query_limit_ms(),
        window,
    };
    let n = bodies.len();
    let clients = clients();

    // The open loop's arrivals, shared: each goes to whichever client is free
    // next, so a request waits in the generator only when every connection
    // is in flight.
    let arrivals: Vec<(Instant, usize)> = if workload.is_open_loop() {
        poisson_schedule(config.seed, OPEN_RATE_PER_S, window.until - start)
            .into_iter()
            .map(|at| start + at)
            .zip(workload.stream(config.seed, 0, n))
            .collect()
    } else {
        Vec::new()
    };
    let next_arrival = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let mut query_threads = Vec::new();
        let mut write_thread = None;
        if workload.is_open_loop() {
            for _ in 0..clients {
                let (plan, arrivals, next) = (&plan, &arrivals, &next_arrival);
                let mine = std::iter::from_fn(move || {
                    arrivals.get(next.fetch_add(1, Ordering::Relaxed)).copied()
                });
                query_threads.push(scope.spawn(move || load::open_loop(plan, mine)));
            }
        } else {
            let readers = if workload.is_durable() { 1 } else { clients };
            for c in 0..readers {
                let plan = &plan;
                let ids = workload.stream(config.seed, c as u64, n);
                query_threads.push(scope.spawn(move || {
                    sleep_until(start);
                    load::closed_loop(plan, ids)
                }));
            }
            if workload.is_durable() {
                write_thread = Some(scope.spawn(|| {
                    sleep_until(start);
                    load::write_loop(addr, writer, window)
                }));
            }
        }

        sleep_until(window.from);
        let before = Scrape::parse(&http::fetch_metrics(addr)?);
        sleep_until(window.until);
        let after = Scrape::parse(&http::fetch_metrics(addr)?);
        let peak_rss_mb = world::peak_rss_mb().ok_or_else(|| other("no VmHWM in /proc"))?;

        let mut queries = OpLog::default();
        for t in query_threads {
            queries.absorb(t.join().map_err(|_| other("query client panicked"))?);
        }
        let writes = write_thread
            .map(|t| t.join().map_err(|_| other("writer panicked")))
            .transpose()?;
        Ok(Loaded {
            queries,
            writes,
            before,
            after,
            peak_rss_mb,
            seconds: window.seconds(),
        })
    })
}

/// Copy the data directory of a server that is still running.
fn copy_data_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// Keys at or above [`WRITER_KEY_BASE`] in the first column of `relation`.
fn writer_keys(db: &Database, relation: &str) -> HashSet<u64> {
    let rel = db.schema().relation_id(relation).expect("movies relation");
    db.table(rel)
        .iter()
        .filter_map(|(_, t)| match t.get(0) {
            ValueRef::Int(k) if k as u64 >= WRITER_KEY_BASE => Some(k as u64),
            _ => None,
        })
        .collect()
}

/// Recover from `copy` and count acknowledged writes it does not reflect:
/// inserted rows that are missing (unless their delete was acknowledged
/// too) and deleted rows that are still there.
fn acked_lost(copy: &Path, acked: &Acked) -> io::Result<u64> {
    let recovered = DurableStore::open(copy)
        .and_then(|store| store.recover())
        .map_err(other)?
        .ok_or_else(|| other("the copied data directory holds nothing"))?;
    let deleted: HashSet<u64> = acked.deleted.iter().copied().collect();
    let mut lost = 0;
    for relation in ["MOVIE", "GENRE", "CAST"] {
        let present = writer_keys(&recovered.db, relation);
        lost += acked
            .inserted
            .iter()
            .filter(|(r, key)| *r == relation && !(relation == "CAST" && deleted.contains(key)))
            .filter(|(_, key)| !present.contains(key))
            .count() as u64;
        if relation == "CAST" {
            lost += deleted.iter().filter(|key| present.contains(key)).count() as u64;
        }
    }
    Ok(lost)
}

/// Write-path numbers of a writer's log over `seconds`.
fn write_path(log: &OpLog, seconds: f64) -> io::Result<[f64; 3]> {
    let ok = sorted(log.ok_ms.clone());
    let p = |q| stats::percentile(&ok, q).ok_or_else(|| other("no batch was acknowledged"));
    Ok([p(0.5)?, p(0.95)?, ok.len() as f64 / seconds])
}

pub type Metrics = BTreeMap<&'static str, f64>;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Server-side means and counters over the window, from the two scrapes.
fn scraped_metrics(loaded: &Loaded, metrics: &mut Metrics) {
    let d = |series: &str| delta(&loaded.before, &loaded.after, series);
    let cache_rate = |layer: &str| {
        let series =
            |kind: &str| format!("precis_cache_events_total{{layer=\"{layer}\",kind=\"{kind}\"}}");
        let (hit, miss) = (d(&series("hit")), d(&series("miss")));
        ratio(hit, hit + miss)
    };
    let answered = d("precis_request_duration_seconds_count{endpoint=\"query\"}");
    metrics.insert(
        "server.queue_wait_mean_us",
        1e6 * ratio(
            d("precis_queue_wait_seconds_sum"),
            d("precis_queue_wait_seconds_count"),
        ),
    );
    metrics.insert(
        "server.service_mean_us",
        1e6 * ratio(
            d("precis_request_duration_seconds_sum{endpoint=\"query\"}"),
            answered,
        ),
    );
    metrics.insert(
        "server.coalesce_hit_rate",
        ratio(d("precis_sched_coalesced_total"), answered),
    );
    metrics.insert("server.shed_total", d("precis_sched_shed_total"));
    metrics.insert("server.reordered_total", d("precis_sched_reordered_total"));
    metrics.insert(
        "server.cost_ratio",
        ratio(
            d("precis_cost_model_measured_seconds_total"),
            d("precis_cost_model_predicted_seconds_total"),
        ),
    );
    metrics.insert("core.token_cache_hit_rate", cache_rate("token"));
    metrics.insert("core.schema_cache_hit_rate", cache_rate("schema"));
}

/// What the traced pass measured, per layer. `measured_p50_ms` is the load
/// phase's median, for the cost of running traced.
fn traced_metrics(traced: &trace::Traced, measured_p50_ms: f64, metrics: &mut Metrics) {
    let (t, c) = (&traced.trace, &traced.counts);
    let n = c.requests.max(1) as f64;
    metrics.insert("server.http.connect_us", t.p50_us(trace::CONNECT));
    metrics.insert("server.http.ttfb_us", t.p50_us(trace::TTFB));
    metrics.insert("server.http.read_body_us", t.p50_us(trace::READ_BODY));
    metrics.insert(
        "server.unattributed_us",
        stats::median(&c.unattributed_us).unwrap_or(0.0),
    );
    metrics.insert("server.parse_us", t.p50_us(trace::PARSE));
    metrics.insert(
        "server.render_us",
        stats::median(&c.render_only_us).unwrap_or(0.0),
    );
    metrics.insert("server.render_bytes", c.render_bytes as f64 / n);
    metrics.insert("core.predict_cost_us", t.p50_us(trace::PREDICT));
    metrics.insert("core.schema_gen_us", t.p50_us(trace::SCHEMA_GEN));
    metrics.insert("core.db_gen_us.naive", t.p50_us(trace::DB_GEN_NAIVE));
    metrics.insert(
        "core.db_gen_us.roundrobin",
        t.p50_us(trace::DB_GEN_ROUNDROBIN),
    );
    let db_gen_s: f64 = t.sorted_us(trace::DB_GEN).iter().sum::<f64>() / 1e6;
    metrics.insert(
        "core.db_gen_tuples_per_s",
        ratio(c.result_tuples as f64, db_gen_s),
    );
    metrics.insert("core.answer_us", t.p50_us(trace::ANSWER));
    metrics.insert("core.result_tuples_per_query", c.result_tuples as f64 / n);
    metrics.insert("index.lookup_us", t.p50_us(trace::LOOKUP));
    metrics.insert(
        "index.tids_per_token",
        ratio(c.tids as f64, c.tokens as f64),
    );
    metrics.insert("storage.index_probes_per_query", c.index_probes as f64 / n);
    metrics.insert("storage.tuple_reads_per_query", c.tuple_reads as f64 / n);
    metrics.insert(
        "storage.tuple_reads_per_result_tuple",
        ratio(c.tuple_reads as f64, c.result_tuples as f64),
    );
    metrics.insert("nlg.translate_us", t.p50_us(trace::TRANSLATE));
    metrics.insert("nlg.narrative_bytes", c.narrative_bytes as f64 / n);
    let round_trip_us = t.p50_us(trace::ROUND_TRIP);
    let (rows, mean_round_trip) = trace::budget(traced);
    metrics.insert("loadgen.traced_round_trip_us", round_trip_us);
    metrics.insert(
        "loadgen.traced_over_measured",
        ratio(round_trip_us, measured_p50_ms * 1e3),
    );
    metrics.insert("loadgen.traced_requests", c.requests as f64);
    metrics.insert(
        "loadgen.budget_sum_over_round_trip",
        ratio(rows.iter().map(|r| r.mean_us).sum(), mean_round_trip),
    );
}

pub fn run(config: &RunConfig) -> io::Result<RunOutput> {
    let (workload, seed, scale) = (config.workload, config.seed, config.scale);
    let out_dir = &config.out_dir;
    std::fs::create_dir_all(out_dir)?;
    let mut notes = Vec::new();

    // Set up several times; serve from the last. Each set-up time is taken
    // relative to the host's speed right before it.
    let (mut generate_ms, mut setup_raw_s, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut serving = None;
    let setups = if config.trace { 1 } else { scale.setups };
    for i in 0..setups {
        let t = Instant::now();
        let db = world::generate(seed, scale.movies);
        generate_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let data_dir = workload
            .is_durable()
            .then(|| world::scratch_dir(out_dir, "data"))
            .transpose()?;
        let probe = world::host_probe();
        let served = world::set_up(db, data_dir.as_deref())?;
        let raw = served.setup.as_secs_f64();
        setup_raw_s.push(raw);
        setup_s.push(raw / probe.as_secs_f64() * world::HOST_PROBE_NOMINAL.as_secs_f64());
        if i + 1 < setups {
            served.shut_down();
            if let Some(dir) = &data_dir {
                std::fs::remove_dir_all(dir)?;
            }
        } else {
            serving = Some((served, data_dir));
        }
    }
    let (served, data_dir) = serving.ok_or_else(|| other("a run sets up at least once"))?;
    if !config.trace {
        notes.push(format!(
            "set-up as timed, before scaling to the host's speed: median {:.4} s of {setups}",
            stats::median(&setup_raw_s).expect("a run sets up at least once")
        ));
    }
    let addr = served.handle.local_addr();
    let engine = served.engine();

    let bodies = workload.bodies(&engine, seed, scale.pool);
    let expected = workload
        .checks_bodies()
        .then(|| world::expected_bodies(&engine, &served.vocabulary, &bodies, clients()));
    let mut writer = Writer::new(engine.database(), seed);
    drop(engine);

    let loaded = load(config, addr, &bodies, expected.as_deref(), &mut writer)?;

    // Durability: the data directory as it is right after the last
    // acknowledged batch, with the server still up, so nothing a graceful
    // shutdown would flush is in the copy.
    let mut lost = 0;
    if let (Some(dir), Some((_, acked))) = (&data_dir, &loaded.writes) {
        let copy = world::scratch_dir(out_dir, "copy")?;
        copy_data_dir(dir, &copy)?;
        lost = acked_lost(&copy, acked)?;
        std::fs::remove_dir_all(&copy)?;
    }

    let queries = &loaded.queries;
    let ok_ms = sorted(queries.ok_ms.clone());
    let q = |p| stats::percentile(&ok_ms, p).ok_or_else(|| other("no query was answered"));
    let write_log = loaded.writes.as_ref().map(|(log, _)| log);
    let attempted = queries.attempted + write_log.map_or(0, |w| w.attempted);
    let within = queries.within_limit + write_log.map_or(0, |w| w.within_limit);
    let mut failed = queries.failed + write_log.map_or(0, |w| w.failed) + lost;

    let mut metrics = BTreeMap::new();
    let mut extra = BTreeMap::new();
    extra.insert("query_samples", Some(ok_ms.len() as f64));
    extra.insert(
        "query_highest_supported_percentile",
        stats::highest_supported(ok_ms.len()),
    );
    let [mutate_p50, mutate_p95, mutate_per_s] = match write_log {
        Some(log) => write_path(log, loaded.seconds)?.map(Some),
        None => [None; 3],
    };
    // In the order of `spec::UNRESOLVED`.
    let unresolved = [
        Some(q(0.5)?),
        Some(q(0.95)?),
        Some(ok_ms.len() as f64 / loaded.seconds),
        mutate_p50,
        mutate_p95,
        mutate_per_s,
    ];
    for (m, v) in spec::UNRESOLVED.iter().zip(unresolved) {
        extra.insert(m.name, v);
    }
    extra.insert(
        "mutate_samples",
        write_log.map(|log| log.ok_ms.len() as f64),
    );

    let late = sorted(queries.late_ms.clone());
    let late_p95_ms = stats::percentile(&late, 0.95).unwrap_or(0.0);

    if !config.trace {
        // The suite reruns an open-loop round whose generator ran late.
        extra.insert("loadgen.late_p95_ms", Some(late_p95_ms));
        metrics.insert(
            "setup_s",
            stats::median(&setup_s).expect("a run sets up at least once"),
        );
        metrics.insert("slo_ok_share", within as f64 / attempted.max(1) as f64);
        metrics.insert("peak_rss_mb", loaded.peak_rss_mb);
    } else {
        scraped_metrics(&loaded, &mut metrics);
        metrics.insert(
            "datagen.generate_ms",
            stats::median(&generate_ms).expect("a run sets up at least once"),
        );
        metrics.insert("loadgen.late_p95_ms", late_p95_ms);
        // The gate takes a number from every workload: 0 without a writer.
        for (m, v) in spec::UNRESOLVED.iter().zip(unresolved) {
            metrics.insert(m.per_layer, v.unwrap_or(0.0));
        }
        metrics.insert("loadgen.query_p99_ms", q(0.99)?);
        metrics.insert("loadgen.sent", queries.attempted as f64);
        metrics.insert("loadgen.ok", ok_ms.len() as f64);

        // The traced pass: the same stream, one request at a time.
        let engine = served.engine();
        let traced = trace::traced_pass(
            addr,
            &engine,
            &served.vocabulary,
            &bodies,
            workload.stream(seed, 0, bodies.len()),
            scale.traced_requests,
            scale.trace_budget,
        );
        drop(engine);
        failed += traced.failed;
        traced_metrics(&traced, q(0.5)?, &mut metrics);
        let t = &traced.trace;
        notes.push(trace::budget_table(workload.name(), &traced));
        let trace_path = out_dir.join(format!("trace-{}.json", workload.name()));
        std::fs::write(&trace_path, t.to_chrome_json())?;
        notes.push(format!(
            "{} spans written to {}",
            t.spans.len(),
            trace_path.display()
        ));
    }

    served.shut_down();
    if let Some(dir) = &data_dir {
        std::fs::remove_dir_all(dir)?;
    }

    if config.trace {
        for (name, v) in probes::run(seed, scale.movies, out_dir)? {
            metrics.insert(name, v);
        }
        // Where the workload wrote through a live server, its own count of
        // lost acknowledged writes is the one that matters.
        if workload.is_durable() {
            metrics.insert("durability.acked_lost", lost as f64);
        }
    }

    extra.insert(
        spec::FAIL_SHARE,
        Some(failed as f64 / attempted.max(1) as f64),
    );
    Ok(RunOutput {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        extra,
        notes,
    })
}
