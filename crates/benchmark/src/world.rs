//! Building what a run serves from: the generated database, the engine and
//! the server, the way `precis serve` puts them together.

use crate::{http, other};
use precis_core::{AnswerSpec, CostModel, PrecisEngine};
use precis_datagen::{movies_graph, movies_vocabulary, MoviesConfig, MoviesGenerator};
use precis_durability::{write_snapshot, DurableStore, FsyncPolicy, SharedWal};
use precis_nlg::Vocabulary;
use precis_server::{
    parse_query_request, render_answer, Durability, Server, ServerConfig, ServerHandle,
};
use precis_storage::{Database, Value};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `precis serve --data-dir` defaults.
pub const FSYNC_POLICY: FsyncPolicy = FsyncPolicy::Batch(256);
pub const CHECKPOINT_EVERY: u64 = 10_000;

/// The movies database at `movies` films, every other relation in the
/// proportions of [`MoviesConfig::imdb_scale`] (which 34,000 reproduces).
pub fn generate(seed: u64, movies: usize) -> Database {
    let base = MoviesConfig::imdb_scale();
    let scaled = |n: usize| (n * movies / base.movies).max(1);
    MoviesGenerator::new(MoviesConfig {
        movies,
        directors: scaled(base.directors),
        actors: scaled(base.actors),
        theatres: scaled(base.theatres),
        plays: scaled(base.plays),
        seed,
        ..base
    })
    .generate()
}

/// Where the benchmark may write when run as a command: under the build
/// directory, inside the checkout it runs from.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("benchmark")
}

/// A fresh, empty directory under `out_dir`, unique to this call.
pub fn scratch_dir(out_dir: &Path, label: &str) -> io::Result<PathBuf> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = out_dir.join(format!("{label}-{}-{n}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Formula-2 micro-costs measured on the first indexed, populated attribute,
/// as `precis serve` calibrates them before it starts serving.
fn calibrate(db: &Database) -> Option<CostModel> {
    for (rel, schema) in db.schema().relations() {
        if db.len(rel) == 0 {
            continue;
        }
        for attr in (0..schema.arity()).filter(|a| db.has_index(rel, *a)) {
            let samples: Vec<Value> = db
                .table(rel)
                .iter()
                .take(32)
                .map(|(_, t)| t.value(attr))
                .collect();
            if let Some(model) = CostModel::calibrate(db, rel, attr, &samples, 8) {
                return Some(model);
            }
        }
    }
    None
}

/// A running server and the engine it was started with.
pub struct Served {
    pub handle: ServerHandle,
    pub vocabulary: Vocabulary,
    /// Taken from handing `db` to the engine (or, durable, to the snapshot
    /// writer) to the first `200` from `/v1/healthz`.
    pub setup: Duration,
}

impl Served {
    /// The engine new requests are answered from.
    pub fn engine(&self) -> Arc<PrecisEngine> {
        self.handle.engine()
    }

    pub fn shut_down(self) {
        self.handle.join();
    }
}

/// Start a default-configured server over `db`; durable when `data_dir` is
/// given (a fresh directory: initial snapshot, empty WAL at LSN 0).
pub fn set_up(mut db: Database, data_dir: Option<&Path>) -> io::Result<Served> {
    let vocabulary = movies_vocabulary(db.schema());
    let start = Instant::now();
    let durability = match data_dir {
        None => None,
        Some(dir) => {
            let store = DurableStore::open(dir).map_err(other)?;
            write_snapshot(&db, 0, store.snapshot_path()).map_err(other)?;
            let wal = store.create_wal(FSYNC_POLICY, 0).map_err(other)?;
            let wal = SharedWal::new(wal);
            db.set_wal_sink(Arc::new(wal.clone()));
            Some(Durability::new(store, wal, CHECKPOINT_EVERY))
        }
    };
    let mut engine = PrecisEngine::new(db, movies_graph()).map_err(other)?;
    if let Some(model) = calibrate(engine.database()) {
        engine.set_cost_model(model);
    }
    let handle = Server::start_durable(
        Arc::new(engine),
        Some(vocabulary.clone()),
        ServerConfig::default(),
        durability,
    )?;
    http::wait_healthy(handle.local_addr())?;
    Ok(Served {
        handle,
        vocabulary,
        setup: start.elapsed(),
    })
}

/// Length and hash of the body a correct server answers `request` with:
/// a direct engine call and the server's own pure renderer.
pub fn expected_body(
    engine: &PrecisEngine,
    vocabulary: &Vocabulary,
    request: &str,
) -> (usize, u64) {
    let request = parse_query_request(request).expect("harness bodies parse");
    let spec = AnswerSpec::new(request.degree, request.cardinality).with_strategy(request.strategy);
    let answer = engine
        .answer(&request.query, &spec)
        .expect("harness queries are not empty");
    let body = render_answer(engine, Some(vocabulary), &answer);
    (body.len(), http::hash64(body.as_bytes()))
}

/// [`expected_body`] for every body, split over `threads` threads.
pub fn expected_bodies(
    engine: &PrecisEngine,
    vocabulary: &Vocabulary,
    bodies: &[String],
    threads: usize,
) -> Vec<(usize, u64)> {
    let chunk = bodies.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = bodies
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|b| expected_body(engine, vocabulary, b))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("expected-body worker"))
            .collect()
    })
}

/// What [`host_probe`] takes on the builder's host at its usual speed: a
/// set-up time scaled by it reads in seconds of that host.
pub const HOST_PROBE_NOMINAL: Duration = Duration::from_millis(50);

/// A fixed piece of work (scattered writes over half a megabyte, then a
/// sort, 32 times over), timed: how fast the host is right now. The
/// shared host this was built on changes speed by a third within tens of
/// seconds, and a set-up time moves with it; a set-up time over the probe's
/// time taken right before it stays put. The probe works on its stack alone:
/// a buffer from the allocator, once freed, changes what the allocator maps
/// and keeps from then on, and `peak_rss_mb` with it.
pub fn host_probe() -> Duration {
    const SLOTS: usize = 1 << 16;
    let start = Instant::now();
    let mut table = [0u64; SLOTS];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..32 {
        for _ in 0..4 * SLOTS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut table[x as usize % SLOTS];
            *slot = slot.wrapping_add(x);
        }
        table.sort_unstable();
    }
    std::hint::black_box(table);
    start.elapsed()
}

/// High-water mark of this process's resident memory, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
