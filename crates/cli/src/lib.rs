//! # precis-cli
//!
//! Session logic behind the `precis` binary: command parsing and execution
//! over a [`PrecisEngine`]. Kept as a library so the whole REPL surface is
//! unit-testable without a terminal.

use precis_core::{
    explain, AnswerSpec, CardinalityConstraint, CostModel, DegreeConstraint, PrecisAnswer,
    PrecisEngine, PrecisQuery, RetrievalStrategy,
};
use precis_datagen::{
    movies_graph, movies_vocabulary, woody_allen_instance, MoviesConfig, MoviesGenerator,
};
use precis_graph::{SchemaGraph, WeightProfile};
use precis_nlg::{Translator, Vocabulary};
use precis_obs::{Phase, ProfileSnapshot, Trace};
use precis_storage::io::{dump_to_string, load_from_file};
use precis_storage::{Database, Value};
use std::fmt::Write as _;

/// Span cap of an `explain` trace; overflow is counted in the written
/// trace's `droppedSpans`.
const EXPLAIN_MAX_SPANS: usize = 8192;

/// CLI help text (also shown by `help`).
pub const HELP: &str = "\
precis — interactive précis query explorer

  precis --demo                  the paper's Woody Allen movies database
  precis --synthetic <movies>    seeded synthetic movies database
  precis --load <file>           a database saved with `save`
  precis ... --exec 'cmd; cmd'   run commands non-interactively
  precis ... serve [--addr A] [--workers N] [--queue N] [--deadline-ms MS]
                   [--data-dir DIR] [--checkpoint-every N]
                   [--trace-slow-ms MS]
                                 run the HTTP query service over the chosen
                                 database (POST /shutdown stops it; honored
                                 from loopback peers only — note the API has
                                 no auth, so think before binding --addr to
                                 a non-loopback address). With --data-dir,
                                 POST /v1/mutate writes are WAL-durable:
                                 the dir holds snapshot.precisdb + wal.log, and
                                 a restart recovers every acknowledged
                                 mutation (existing state beats the source).
                                 Telemetry is always on: every request gets
                                 a trace id and the tail sampler retains
                                 interesting traces at /v1/debug/traces;
                                 --trace-slow-ms overrides both classes' slow
                                 thresholds (0 retains everything)
  precis testkit [--seed N] [--cases N] [--profile quick|soak]
                 [--repro-out FILE]
                                 run the differential oracle + fault-injection
                                 harness; exits non-zero on any mismatch and
                                 writes a shrunk JSON reproduction to FILE

commands:
  query <tokens>                 answer a précis query (quotes group phrases)
  explain [--profile] [--trace-out FILE] <tokens>
                                 answer a query and show per-phase timings and
                                 per-relation traversal counts; --profile adds
                                 the cost model's predicted-vs-measured columns
                                 (calibrated on first use); --trace-out writes
                                 Chrome trace_event JSON for chrome://tracing
  set degree minweight <w> | top <r> | maxlen <l>
  set cardinality perrel <n> | total <n> | unbounded
  set strategy naive | roundrobin | topweight
  weight <REL.attr|FROM->TO> <w> override one edge weight for this session
  weights reset                  drop all session weight overrides
  schema                         show the database schema
  settings                       show the current constraints and strategy
  save <file>                    save the last answer's database as text
  help                           this text
  quit                           leave";

/// Where the session's database comes from.
#[derive(Debug, Clone)]
pub enum Source {
    /// The paper's hand-crafted Woody Allen instance + Figure 1 graph +
    /// narrative vocabulary.
    Demo,
    /// Seeded synthetic movies database of the given size.
    Synthetic { movies: usize },
    /// A text dump produced by `save` (graph derived from foreign keys).
    File(String),
}

/// The result of executing one command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionOutcome {
    Output(String),
    Error(String),
    Quit,
}

/// One interactive session: an engine plus mutable query settings.
pub struct Session {
    engine: PrecisEngine,
    vocabulary: Option<Vocabulary>,
    degree: DegreeConstraint,
    cardinality: CardinalityConstraint,
    strategy: RetrievalStrategy,
    overrides: Vec<(String, f64)>,
    base_graph: SchemaGraph,
    last_answer: Option<PrecisAnswer>,
    source_label: String,
}

/// Materialize a [`Source`]: the database, its schema graph, the designer
/// vocabulary when one exists, and a human-readable label. Shared by the
/// interactive session and the `serve` subcommand.
pub fn open_source(
    source: Source,
) -> Result<(Database, SchemaGraph, Option<Vocabulary>, String), String> {
    match source {
        Source::Demo => {
            let db = woody_allen_instance();
            let vocab = movies_vocabulary(db.schema());
            Ok((
                db,
                movies_graph(),
                Some(vocab),
                "demo movies database".into(),
            ))
        }
        Source::Synthetic { movies } => {
            let db = MoviesGenerator::new(MoviesConfig {
                movies,
                directors: (movies / 8).max(1),
                actors: (movies / 2).max(1),
                theatres: (movies / 50).max(1),
                plays: movies * 2,
                ..MoviesConfig::default()
            })
            .generate();
            let vocab = movies_vocabulary(db.schema());
            Ok((
                db,
                movies_graph(),
                Some(vocab),
                format!("synthetic movies database ({movies} movies)"),
            ))
        }
        Source::File(path) => {
            let db = load_from_file(&path).map_err(|e| e.to_string())?;
            let graph = SchemaGraph::from_foreign_keys(db.schema().clone(), 0.9, 0.8, 0.9)
                .map_err(|e| e.to_string())?;
            Ok((db, graph, None, format!("database loaded from {path}")))
        }
    }
}

/// Calibrate the paper's cost-model micro-costs (`IndexTime`, `TupleTime`)
/// against a live database: the first indexed attribute with data behind it
/// is probed with real stored values. Returns `None` when the database has
/// no indexed, populated attribute to measure against.
pub fn calibrate_cost_model(db: &Database) -> Option<CostModel> {
    for (rel, schema) in db.schema().relations() {
        if db.len(rel) == 0 {
            continue;
        }
        for attr in 0..schema.arity() {
            if !db.has_index(rel, attr) {
                continue;
            }
            let samples: Vec<Value> = db
                .table(rel)
                .iter()
                .take(32)
                .map(|(_, t)| t.values()[attr].clone())
                .collect();
            if let Some(model) = CostModel::calibrate(db, rel, attr, &samples, 8) {
                return Some(model);
            }
        }
    }
    None
}

/// Tuning for the `serve` subcommand.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address. The API is unauthenticated: binding a non-loopback
    /// address exposes `/v1/query` and `/v1/metrics` to every peer that can reach
    /// the port (`POST /shutdown` and `POST /v1/mutate` stay loopback-only
    /// regardless).
    pub addr: String,
    pub workers: usize,
    pub queue: usize,
    /// Default per-query deadline, milliseconds; 0 disables deadlines.
    pub deadline_ms: u64,
    /// Durable serving: the directory holding `snapshot.precisdb` and
    /// `wal.log`. When it already holds state, recovery wins over the
    /// `Source` (the source still provides the schema graph and
    /// vocabulary) and the slots of deleted tuples are reclaimed before
    /// serving starts — tuple ids are valid for the life of one process;
    /// when empty, the source bootstraps it. `None` serves purely in
    /// memory.
    pub data_dir: Option<String>,
    /// Snapshot + rotate the WAL after this many records (0 = never).
    pub checkpoint_every: u64,
    /// Tail-sampler slow threshold override, milliseconds, applied to both
    /// priority classes. `None` keeps the per-class defaults (25ms
    /// interactive / 250ms batch); 0 retains every completed request.
    pub trace_slow_ms: Option<u64>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:8617".to_owned(),
            workers: 4,
            queue: 64,
            deadline_ms: 10_000,
            data_dir: None,
            checkpoint_every: 10_000,
            trace_slow_ms: None,
        }
    }
}

/// Tuning for the `testkit` subcommand.
#[derive(Debug, Clone)]
pub struct TestkitOptions {
    pub seed: u64,
    /// Overrides the profile's default case count when set.
    pub cases: Option<usize>,
    pub profile: precis_testkit::Profile,
    /// Where to write the JSON reproduction artifact when the run fails.
    pub repro_out: Option<String>,
}

impl Default for TestkitOptions {
    fn default() -> Self {
        TestkitOptions {
            seed: 42,
            cases: None,
            profile: precis_testkit::Profile::Quick,
            repro_out: None,
        }
    }
}

/// Run the differential oracle + fault-injection harness, print the report,
/// and write the repro artifact on failure. Returns whether the run passed.
pub fn run_testkit(options: &TestkitOptions) -> bool {
    let mut config = precis_testkit::TestkitConfig::new(options.profile);
    config.seed = options.seed;
    if let Some(cases) = options.cases {
        config.cases = cases;
    }
    let report = precis_testkit::run(&config);
    print!("{}", report.render_text());
    if !report.ok() {
        if let Some(path) = &options.repro_out {
            match std::fs::write(path, report.to_json()) {
                Ok(()) => eprintln!("reproduction artifact written to {path}"),
                Err(e) => eprintln!("cannot write reproduction artifact {path}: {e}"),
            }
        }
    }
    report.ok()
}

/// Build the engine for `source` and start the HTTP service. The returned
/// handle serves until `POST /shutdown` (or `trigger_shutdown`); call
/// `wait()` to block until then.
pub fn start_server(
    source: Source,
    options: &ServeOptions,
) -> Result<(precis_server::ServerHandle, String), String> {
    let (source_db, graph, vocabulary, mut label) = open_source(source)?;

    // Durable serving: recover the data dir (its state beats the source) or
    // bootstrap it from the source; the database comes back logging every
    // mutation.
    let (db, durability) = match &options.data_dir {
        None => (source_db, None),
        Some(dir) => {
            use precis_durability::{DurableStore, FsyncPolicy};
            let store = DurableStore::open(dir).map_err(|e| e.to_string())?;
            let opened = store
                .open_or_bootstrap(source_db, FsyncPolicy::Batch(256))
                .map_err(|e| e.to_string())?;
            match &opened.recovered {
                None => {
                    let _ = write!(label, " (durable at {dir})");
                }
                Some(report) => {
                    let _ = write!(
                        label,
                        " (recovered from {dir}: {} replayed, {} skipped",
                        report.replayed, report.skipped
                    );
                    if let Some(why) = &report.truncated {
                        let _ = write!(label, ", tail truncated: {why}");
                    }
                    if opened.compacted > 0 {
                        let _ = write!(label, ", {} tombstoned slots compacted", opened.compacted);
                    }
                    label.push(')');
                }
            }
            let durability =
                precis_server::Durability::new(store, opened.wal, options.checkpoint_every);
            (opened.db, Some(durability))
        }
    };

    let mut engine = PrecisEngine::new(db, graph).map_err(|e| match &options.data_dir {
        Some(dir) => format!("state in {dir} is incompatible with the chosen source: {e}"),
        None => e.to_string(),
    })?;
    // Calibrate micro-costs up front so served query profiles carry the
    // cost model's predicted times next to the measured wall times.
    if let Some(model) = calibrate_cost_model(engine.database()) {
        engine.set_cost_model(model);
    }
    let engine = std::sync::Arc::new(engine);
    let telemetry = match options.trace_slow_ms {
        Some(ms) => precis_obs::TelemetryConfig {
            slow_interactive: std::time::Duration::from_millis(ms),
            slow_batch: std::time::Duration::from_millis(ms),
        },
        None => precis_obs::TelemetryConfig::default(),
    };
    let config = precis_server::ServerConfig {
        addr: options.addr.clone(),
        workers: options.workers,
        queue_capacity: options.queue,
        default_deadline: (options.deadline_ms > 0)
            .then(|| std::time::Duration::from_millis(options.deadline_ms)),
        telemetry,
        ..precis_server::ServerConfig::default()
    };
    let handle = precis_server::Server::start_durable(engine, vocabulary, config, durability)
        .map_err(|e| format!("cannot start server on {}: {e}", options.addr))?;
    Ok((handle, label))
}

impl Session {
    /// Open a session over the given source.
    pub fn open(source: Source) -> Result<Session, String> {
        let (db, graph, vocabulary, label) = open_source(source)?;
        let base_graph = graph.clone();
        let engine = PrecisEngine::new(db, graph).map_err(|e| e.to_string())?;
        Ok(Session {
            engine,
            vocabulary,
            degree: DegreeConstraint::MinWeight(0.9),
            cardinality: CardinalityConstraint::MaxTuplesPerRelation(10),
            strategy: RetrievalStrategy::RoundRobin,
            overrides: Vec::new(),
            base_graph,
            last_answer: None,
            source_label: label,
        })
    }

    /// The greeting printed when the session starts.
    pub fn banner(&self) -> String {
        format!(
            "précis explorer — {} ({} tuples, {} relations). Type `help` for commands.",
            self.source_label,
            self.engine.database().total_tuples(),
            self.engine.database().schema().relation_count()
        )
    }

    /// Parse and execute one command line.
    pub fn execute(&mut self, line: &str) -> SessionOutcome {
        let line = line.trim();
        if line.is_empty() {
            return SessionOutcome::Output(String::new());
        }
        let (verb, rest) = match line.find(char::is_whitespace) {
            Some(p) => (&line[..p], line[p..].trim()),
            None => (line, ""),
        };
        match verb {
            "help" => SessionOutcome::Output(HELP.to_owned()),
            "quit" | "exit" => SessionOutcome::Quit,
            "query" | "q" => self.run_query(rest),
            "explain" => self.run_explain(rest),
            "set" => self.run_set(rest),
            "weight" => self.run_weight(rest),
            "weights" if rest == "reset" => {
                self.overrides.clear();
                SessionOutcome::Output("weight overrides cleared".into())
            }
            "schema" => SessionOutcome::Output(self.render_schema()),
            "settings" => SessionOutcome::Output(self.render_settings()),
            "save" => self.run_save(rest),
            other => SessionOutcome::Error(format!("unknown command {other:?} (try `help`)")),
        }
    }

    fn current_graph(&self) -> Result<SchemaGraph, String> {
        if self.overrides.is_empty() {
            return Ok(self.base_graph.clone());
        }
        let mut profile = WeightProfile::new("session");
        for (edge, w) in &self.overrides {
            profile = profile.set(edge.clone(), *w);
        }
        self.base_graph
            .with_profile(&profile)
            .map_err(|e| e.to_string())
    }

    fn run_query(&mut self, tokens: &str) -> SessionOutcome {
        if tokens.is_empty() {
            return SessionOutcome::Error("query needs tokens".into());
        }
        let graph = match self.current_graph() {
            Ok(g) => g,
            Err(e) => return SessionOutcome::Error(e),
        };
        // Rebuild an engine view with the session graph (cheap: index and
        // database are shared by reference inside the engine, so we answer
        // through a temporary engine over the same data).
        let spec = AnswerSpec::new(self.degree.clone(), self.cardinality.clone())
            .with_strategy(self.strategy);
        let query = PrecisQuery::parse(tokens);
        let answer = {
            // The engine owns its graph; apply session overrides by
            // registering them as a one-off profile.
            let mut engine_spec = spec;
            if !self.overrides.is_empty() {
                let mut profile = WeightProfile::new("__session");
                for (edge, w) in &self.overrides {
                    profile = profile.set(edge.clone(), *w);
                }
                self.engine.register_profile(profile);
                engine_spec = engine_spec.with_profile("__session");
            }
            match self.engine.answer(&query, &engine_spec) {
                Ok(a) => a,
                Err(e) => return SessionOutcome::Error(e.to_string()),
            }
        };

        let mut out = String::new();
        let unmatched = answer.unmatched_tokens();
        if !unmatched.is_empty() {
            let _ = writeln!(out, "(no matches for: {})", unmatched.join(", "));
        }
        let _ = write!(out, "{}", explain::explain_schema(&graph, &answer.schema));
        let _ = write!(
            out,
            "{}",
            explain::explain_precis(self.engine.database(), &answer.precis)
        );
        let _ = write!(
            out,
            "{}",
            explain::explain_cache(&self.engine.cache_stats())
        );
        // Narrate with the designer vocabulary when we have one; otherwise
        // fall back to generic mechanical clauses so loaded databases still
        // read as text.
        let fallback_vocab = Vocabulary::new();
        let translator = match &self.vocabulary {
            Some(vocab) => Translator::new(self.engine.database(), self.engine.graph(), vocab),
            None => Translator::new(self.engine.database(), self.engine.graph(), &fallback_vocab)
                .with_generic_fallback(),
        };
        match translator.translate_ranked(&answer) {
            Ok(narratives) => {
                for n in narratives {
                    let _ = writeln!(out, "\n[{} — {}]\n{}", n.token, n.relation, n.text);
                }
            }
            Err(e) => {
                let _ = writeln!(out, "(narrative unavailable: {e})");
            }
        }
        self.last_answer = Some(answer);
        SessionOutcome::Output(out)
    }

    /// `explain [--profile] [--trace-out FILE] <tokens>`: answer a query
    /// inside a [`Trace`] and print the per-phase / per-relation table
    /// folded from its spans instead of the narrative.
    fn run_explain(&mut self, rest: &str) -> SessionOutcome {
        let mut want_predictions = false;
        let mut trace_out: Option<String> = None;
        let mut tokens = rest.trim();
        loop {
            if let Some(r) = tokens.strip_prefix("--profile") {
                if !r.is_empty() && !r.starts_with(char::is_whitespace) {
                    break;
                }
                want_predictions = true;
                tokens = r.trim_start();
            } else if let Some(r) = tokens.strip_prefix("--trace-out") {
                let r = r.trim_start();
                let (path, rem) = match r.find(char::is_whitespace) {
                    Some(p) => (&r[..p], r[p..].trim_start()),
                    None => (r, ""),
                };
                if path.is_empty() {
                    return SessionOutcome::Error("--trace-out needs a file path".into());
                }
                trace_out = Some(path.to_owned());
                tokens = rem;
            } else {
                break;
            }
        }
        if tokens.is_empty() {
            return SessionOutcome::Error(
                "usage: explain [--profile] [--trace-out FILE] <tokens>".into(),
            );
        }
        if want_predictions && self.engine.cost_model().is_none() {
            // Calibrate once per session; the model sticks to the engine.
            match calibrate_cost_model(self.engine.database()) {
                Some(model) => self.engine.set_cost_model(model),
                None => {
                    return SessionOutcome::Error(
                        "cannot calibrate the cost model: no indexed attribute with data".into(),
                    )
                }
            }
        }

        let mut spec = AnswerSpec::new(self.degree.clone(), self.cardinality.clone())
            .with_strategy(self.strategy);
        if !self.overrides.is_empty() {
            let mut weights = WeightProfile::new("__session");
            for (edge, w) in &self.overrides {
                weights = weights.set(edge.clone(), *w);
            }
            self.engine.register_profile(weights);
            spec = spec.with_profile("__session");
        }

        // Everything from parsing to narration records into this query's
        // trace; the profile printed below is folded from it.
        let mut trace = Trace::new(EXPLAIN_MAX_SPANS);
        let (query, answered) = {
            let _entered = trace.enter();
            let parse_span = precis_obs::span(Phase::Parse.span_name());
            let query = PrecisQuery::parse(tokens);
            drop(parse_span);
            let answered = self.engine.answer(&query, &spec).map(|answer| {
                let _nlg_span = precis_obs::span(Phase::Nlg.span_name());
                let fallback_vocab = Vocabulary::new();
                let db = self.engine.database();
                let translator = match &self.vocabulary {
                    Some(vocab) => Translator::new(db, self.engine.graph(), vocab),
                    None => Translator::new(db, self.engine.graph(), &fallback_vocab)
                        .with_generic_fallback(),
                };
                let narrated = translator.translate_ranked(&answer).map_or(0, |n| n.len());
                (answer, narrated)
            });
            (query, answered)
        };
        let (answer, narrated) = match answered {
            Ok(answered) => answered,
            Err(e) => return SessionOutcome::Error(e.to_string()),
        };
        let snap = ProfileSnapshot::fold(
            &query.tokens().join(" "),
            trace.spans(),
            self.engine.cost_params(),
        );

        let mut out = String::new();
        let unmatched = answer.unmatched_tokens();
        if !unmatched.is_empty() {
            let _ = writeln!(out, "(no matches for: {})", unmatched.join(", "));
        }
        let _ = writeln!(
            out,
            "answer: {} tuples across {} relations, {} narrative(s)",
            answer.precis.total_tuples(),
            answer.precis.database.schema().relation_count(),
            narrated
        );
        out.push_str(&precis_obs::render_profile_text(&snap));
        if let Some(path) = trace_out {
            let (spans, dropped) = trace.finish();
            let json = precis_obs::chrome_trace(&spans, dropped);
            match std::fs::write(&path, &json) {
                Ok(()) => {
                    let _ = writeln!(
                        out,
                        "trace: {} spans ({dropped} dropped) written to {path} — load in chrome://tracing",
                        spans.len(),
                    );
                }
                Err(e) => return SessionOutcome::Error(format!("cannot write {path}: {e}")),
            }
        }
        self.last_answer = Some(answer);
        SessionOutcome::Output(out)
    }

    fn run_set(&mut self, rest: &str) -> SessionOutcome {
        let parts: Vec<&str> = rest.split_whitespace().collect();
        match parts.as_slice() {
            ["degree", "minweight", w] => match w.parse::<f64>() {
                Ok(w) if (0.0..=1.0).contains(&w) => {
                    self.degree = DegreeConstraint::MinWeight(w);
                    SessionOutcome::Output(format!("degree: projections with weight >= {w}"))
                }
                _ => SessionOutcome::Error("minweight needs a number in [0, 1]".into()),
            },
            ["degree", "top", r] => match r.parse::<usize>() {
                Ok(r) => {
                    self.degree = DegreeConstraint::TopProjections(r);
                    SessionOutcome::Output(format!("degree: top {r} projections"))
                }
                Err(_) => SessionOutcome::Error("top needs a count".into()),
            },
            ["degree", "maxlen", l] => match l.parse::<usize>() {
                Ok(l) => {
                    self.degree = DegreeConstraint::MaxPathLength(l);
                    SessionOutcome::Output(format!("degree: paths of at most {l} edges"))
                }
                Err(_) => SessionOutcome::Error("maxlen needs a count".into()),
            },
            ["cardinality", "perrel", n] => match n.parse::<usize>() {
                Ok(n) => {
                    self.cardinality = CardinalityConstraint::MaxTuplesPerRelation(n);
                    SessionOutcome::Output(format!("cardinality: at most {n} tuples per relation"))
                }
                Err(_) => SessionOutcome::Error("perrel needs a count".into()),
            },
            ["cardinality", "total", n] => match n.parse::<usize>() {
                Ok(n) => {
                    self.cardinality = CardinalityConstraint::MaxTotalTuples(n);
                    SessionOutcome::Output(format!("cardinality: at most {n} tuples in total"))
                }
                Err(_) => SessionOutcome::Error("total needs a count".into()),
            },
            ["cardinality", "unbounded"] => {
                self.cardinality = CardinalityConstraint::Unbounded;
                SessionOutcome::Output("cardinality: unbounded".into())
            }
            ["strategy", s] => match *s {
                "naive" => {
                    self.strategy = RetrievalStrategy::NaiveQ;
                    SessionOutcome::Output("strategy: NaiveQ".into())
                }
                "roundrobin" => {
                    self.strategy = RetrievalStrategy::RoundRobin;
                    SessionOutcome::Output("strategy: Round-Robin".into())
                }
                "topweight" => {
                    self.strategy = RetrievalStrategy::TopWeight;
                    SessionOutcome::Output("strategy: TopWeight".into())
                }
                other => SessionOutcome::Error(format!(
                    "unknown strategy {other:?} (naive | roundrobin | topweight)"
                )),
            },
            _ => SessionOutcome::Error(
                "usage: set degree|cardinality|strategy ... (see `help`)".into(),
            ),
        }
    }

    fn run_weight(&mut self, rest: &str) -> SessionOutcome {
        let parts: Vec<&str> = rest.split_whitespace().collect();
        let [edge, w] = parts.as_slice() else {
            return SessionOutcome::Error("usage: weight <REL.attr|FROM->TO> <w>".into());
        };
        let Ok(w) = w.parse::<f64>() else {
            return SessionOutcome::Error("weight needs a number".into());
        };
        // Validate the override eagerly against the base graph.
        let trial = WeightProfile::new("trial").set(edge.to_string(), w);
        if let Err(e) = self.base_graph.with_profile(&trial) {
            return SessionOutcome::Error(e.to_string());
        }
        self.overrides.retain(|(e, _)| e != edge);
        self.overrides.push((edge.to_string(), w));
        SessionOutcome::Output(format!("weight override: {edge} = {w}"))
    }

    fn run_save(&mut self, path: &str) -> SessionOutcome {
        if path.is_empty() {
            return SessionOutcome::Error("save needs a path".into());
        }
        let Some(answer) = &self.last_answer else {
            return SessionOutcome::Error("nothing to save — run a query first".into());
        };
        let text = dump_to_string(&answer.precis.database);
        match std::fs::write(path, &text) {
            Ok(()) => SessionOutcome::Output(format!(
                "saved {} tuples ({} bytes) to {path}",
                answer.precis.total_tuples(),
                text.len()
            )),
            Err(e) => SessionOutcome::Error(format!("cannot write {path}: {e}")),
        }
    }

    fn render_schema(&self) -> String {
        let mut out = String::new();
        let schema = self.engine.database().schema();
        let _ = writeln!(out, "database {:?}", schema.name());
        for (rel, r) in schema.relations() {
            let attrs: Vec<String> = r
                .attributes()
                .iter()
                .enumerate()
                .map(|(i, a)| {
                    let pk = if r.primary_key() == Some(i) { "*" } else { "" };
                    format!("{pk}{}:{}", a.name, a.ty)
                })
                .collect();
            let _ = writeln!(
                out,
                "  {}({}) — {} tuples",
                r.name(),
                attrs.join(", "),
                self.engine.database().len(rel)
            );
        }
        for fk in schema.foreign_keys() {
            let _ = writeln!(
                out,
                "  fk {}.{} -> {}.{}",
                fk.relation, fk.attribute, fk.ref_relation, fk.ref_attribute
            );
        }
        out
    }

    fn render_settings(&self) -> String {
        let degree = match &self.degree {
            DegreeConstraint::MinWeight(w) => format!("projections with weight >= {w}"),
            DegreeConstraint::TopProjections(r) => format!("top {r} projections"),
            DegreeConstraint::MaxPathLength(l) => format!("paths of at most {l} edges"),
            DegreeConstraint::All(_) => "composite".to_owned(),
        };
        let cardinality = match &self.cardinality {
            CardinalityConstraint::MaxTuplesPerRelation(n) => {
                format!("at most {n} tuples per relation")
            }
            CardinalityConstraint::MaxTotalTuples(n) => format!("at most {n} tuples in total"),
            CardinalityConstraint::Unbounded => "unbounded".to_owned(),
            CardinalityConstraint::All(_) => "composite".to_owned(),
        };
        let strategy = match self.strategy {
            RetrievalStrategy::NaiveQ => "NaiveQ",
            RetrievalStrategy::RoundRobin => "Round-Robin",
            RetrievalStrategy::TopWeight => "TopWeight",
        };
        let mut out =
            format!("degree:      {degree}\ncardinality: {cardinality}\nstrategy:    {strategy}");
        if !self.overrides.is_empty() {
            out.push_str("\noverrides:");
            for (e, w) in &self.overrides {
                let _ = write!(out, " {e}={w}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Session {
        Session::open(Source::Demo).expect("demo opens")
    }

    fn output(s: SessionOutcome) -> String {
        match s {
            SessionOutcome::Output(t) => t,
            other => panic!("expected output, got {other:?}"),
        }
    }

    #[test]
    fn banner_and_schema() {
        let s = demo();
        assert!(s.banner().contains("demo movies database"));
        let schema = s.render_schema();
        assert!(schema.contains("MOVIE(*mid:INT"));
        assert!(schema.contains("fk MOVIE.did -> DIRECTOR.did"));
    }

    #[test]
    fn query_produces_schema_data_and_narrative() {
        let mut s = demo();
        let out = output(s.execute(r#"query "Woody Allen""#));
        assert!(out.contains("result schema"), "{out}");
        assert!(out.contains("précis database"));
        assert!(out.contains("As a director, Woody Allen's work includes"));
    }

    #[test]
    fn repeated_queries_report_cache_hits() {
        let mut s = demo();
        let first = output(s.execute(r#"query "Woody Allen""#));
        assert!(first.contains("cache: schema 0/1 hits (0.0%)\n"), "{first}");
        let second = output(s.execute(r#"query "Woody Allen""#));
        assert!(
            second.contains("cache: schema 1/2 hits (50.0%)\n"),
            "{second}"
        );
    }

    #[test]
    fn settings_commands_change_behavior() {
        let mut s = demo();
        output(s.execute("set degree top 2"));
        output(s.execute("set cardinality total 4"));
        output(s.execute("set strategy naive"));
        let settings = output(s.execute("settings"));
        assert!(settings.contains("top 2 projections"));
        assert!(settings.contains("at most 4 tuples in total"));
        assert!(settings.contains("NaiveQ"));
        let out = output(s.execute("query woody"));
        assert!(out.contains("précis database"));
    }

    #[test]
    fn weight_overrides_change_the_answer() {
        let mut s = demo();
        let before = output(s.execute(r#"query "Woody Allen""#));
        assert!(before.contains("GENRE"));
        output(s.execute("weight MOVIE->GENRE 0.1"));
        let after = output(s.execute(r#"query "Woody Allen""#));
        assert!(!after.contains("GENRE (in-degree"), "{after}");
        // A second override re-registers the session profile under the same
        // name: the schema memoized for the first must not be served.
        output(s.execute("weight MOVIE->GENRE 0.95"));
        let raised = output(s.execute(r#"query "Woody Allen""#));
        assert!(raised.contains("GENRE (in-degree 2)"), "{raised}");
        output(s.execute("weights reset"));
        let restored = output(s.execute(r#"query "Woody Allen""#));
        assert!(restored.contains("GENRE"));
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut s = demo();
        assert!(matches!(s.execute("nonsense"), SessionOutcome::Error(_)));
        assert!(matches!(s.execute("query"), SessionOutcome::Error(_)));
        assert!(matches!(
            s.execute("set degree minweight 2.0"),
            SessionOutcome::Error(_)
        ));
        assert!(matches!(
            s.execute("weight NOPE->NADA 0.5"),
            SessionOutcome::Error(_)
        ));
        assert!(matches!(s.execute("save /tmp/x"), SessionOutcome::Error(_)));
        assert!(matches!(s.execute("quit"), SessionOutcome::Quit));
        // Blank lines are fine.
        assert_eq!(s.execute("   "), SessionOutcome::Output(String::new()));
    }

    #[test]
    fn save_and_reload_round_trip() {
        let mut s = demo();
        output(s.execute(r#"query "Woody Allen""#));
        let path = std::env::temp_dir().join("precis_cli_test.precisdb");
        let path_str = path.to_str().unwrap().to_owned();
        let out = output(s.execute(&format!("save {path_str}")));
        assert!(out.contains("saved"));
        let mut loaded = Session::open(Source::File(path_str)).unwrap();
        let schema = output(loaded.execute("schema"));
        assert!(schema.contains("MOVIE"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn loaded_databases_narrate_with_generic_fallback() {
        let mut s = demo();
        output(s.execute(r#"query "Woody Allen""#));
        let path = std::env::temp_dir().join("precis_cli_fallback.precisdb");
        let path_str = path.to_str().unwrap().to_owned();
        output(s.execute(&format!("save {path_str}")));
        let mut loaded = Session::open(Source::File(path_str)).unwrap();
        output(loaded.execute("set degree minweight 0.5"));
        let out = output(loaded.execute("query woody"));
        // No designer vocabulary for loaded dumps, so generic clauses apply.
        assert!(out.contains("DIRECTOR:"), "{out}");
        assert!(out.contains("dname = Woody Allen"), "{out}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn explain_shows_phase_and_relation_profile() {
        let mut s = demo();
        let out = output(s.execute(r#"explain "Woody Allen""#));
        assert!(out.contains("query profile for \"Woody Allen\""), "{out}");
        assert!(out.contains("token_lookup"), "{out}");
        assert!(out.contains("db_gen"), "{out}");
        assert!(out.contains("nlg"), "{out}");
        assert!(out.contains("measured (ms)"), "{out}");
        // No cost model without --profile: predicted column shows dashes.
        assert!(!out.contains("cost model: predicted"), "{out}");
    }

    #[test]
    fn explain_profile_calibrates_and_predicts() {
        let mut s = demo();
        let out = output(s.execute(r#"explain --profile "Woody Allen""#));
        assert!(out.contains("cost model: predicted"), "{out}");
        assert!(out.contains("IndexTime"), "{out}");
        // The calibrated model sticks to the session engine.
        let again = output(s.execute(r#"explain woody"#));
        assert!(again.contains("cost model: predicted"), "{again}");
    }

    #[test]
    fn explain_trace_out_writes_chrome_trace_json() {
        let path = std::env::temp_dir().join("precis_cli_trace.json");
        let path_str = path.to_str().unwrap().to_owned();
        let mut s = demo();
        let out = output(s.execute(&format!("explain --trace-out {path_str} woody")));
        assert!(out.contains("trace:"), "{out}");
        assert!(out.contains("chrome://tracing"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"traceEvents\""), "{json}");
        assert!(json.contains("engine.answer"), "{json}");
        assert!(json.contains("db_gen.generate"), "{json}");
        assert!(json.contains("nlg.translate"), "{json}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn explain_rejects_bad_usage() {
        let mut s = demo();
        assert!(matches!(s.execute("explain"), SessionOutcome::Error(_)));
        assert!(matches!(
            s.execute("explain --profile"),
            SessionOutcome::Error(_)
        ));
        assert!(matches!(
            s.execute("explain --trace-out"),
            SessionOutcome::Error(_)
        ));
    }

    #[test]
    fn serve_starts_answers_and_shuts_down() {
        let options = ServeOptions {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue: 2,
            deadline_ms: 2_000,
            ..ServeOptions::default()
        };
        let (handle, label) = start_server(Source::Demo, &options).unwrap();
        assert!(label.contains("demo movies database"));
        use std::io::{Read as _, Write as _};
        let mut conn = std::net::TcpStream::connect(handle.local_addr()).unwrap();
        conn.write_all(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let mut reply = String::new();
        conn.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        handle.trigger_shutdown();
        handle.wait();
    }

    /// A fresh data directory and the options of a small durable server
    /// over it.
    fn durable_options(checkpoint_every: u64) -> (std::path::PathBuf, ServeOptions) {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "precis-cli-durable-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let options = ServeOptions {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue: 4,
            deadline_ms: 2_000,
            data_dir: Some(dir.to_str().unwrap().to_owned()),
            checkpoint_every,
            ..ServeOptions::default()
        };
        (dir, options)
    }

    fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> String {
        use std::io::{Read as _, Write as _};
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        conn.write_all(
            format!(
                "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
        let mut reply = String::new();
        conn.read_to_string(&mut reply).unwrap();
        reply
    }

    /// The full operator story: serve with `--data-dir`, mutate, stop without
    /// any orderly close of the durability state, then restart on the same
    /// directory and watch the mutation come back.
    #[test]
    fn serve_with_data_dir_recovers_mutations_across_restarts() {
        let (dir, options) = durable_options(0);

        // First life: fresh dir bootstraps from the demo source.
        let (handle, label) = start_server(Source::Demo, &options).unwrap();
        assert!(label.contains("durable at"), "{label}");
        let addr = handle.local_addr();
        let mutate = r#"{"ops":[{"op":"insert","relation":"DIRECTOR",
            "values":[777001,"Zzyxgnarp Qblitherton","Testville","1970-01-01"]}]}"#;
        let reply = post(addr, "/v1/mutate", mutate);
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        assert!(reply.contains("\"applied\": 1"), "{reply}");
        let reply = post(addr, "/v1/query", r#"{"tokens": "zzyxgnarp"}"#);
        assert!(reply.contains("Zzyxgnarp Qblitherton"), "{reply}");
        handle.trigger_shutdown();
        handle.wait();

        // Second life: recovery wins over the source; the mutation survives.
        let (handle, label) = start_server(Source::Demo, &options).unwrap();
        assert!(label.contains("recovered from"), "{label}");
        let reply = post(
            handle.local_addr(),
            "/v1/query",
            r#"{"tokens": "zzyxgnarp"}"#,
        );
        assert!(reply.contains("Zzyxgnarp Qblitherton"), "{reply}");
        handle.trigger_shutdown();
        handle.wait();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Tombstoned slots are reclaimed where it is free — at open, before
    /// anybody holds a tuple id — and only there: within a process a
    /// reported id stays good across checkpoints.
    #[test]
    fn serve_with_data_dir_compacts_tombstones_once_at_open() {
        let (dir, options) = durable_options(1); // a checkpoint per batch
        let insert = |addr, key: u32, name: &str| -> u64 {
            let reply = post(
                addr,
                "/v1/mutate",
                &format!(
                    r#"{{"ops":[{{"op":"insert","relation":"DIRECTOR",
                        "values":[{key},"{name}","Testville","1970-01-01"]}}]}}"#
                ),
            );
            assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
            assert!(reply.contains("\"checkpointed\": true"), "{reply}");
            let tids = reply.split("\"inserted_tids\": [").nth(1).unwrap();
            tids[..tids.find(']').unwrap()].parse().unwrap()
        };
        let served = |addr, token: &str, name: &str| -> bool {
            post(addr, "/v1/query", &format!(r#"{{"tokens": "{token}"}}"#)).contains(name)
        };

        // First life: two inserts, then the first deleted by the id its
        // insert reported two checkpoints earlier.
        let (handle, _) = start_server(Source::Demo, &options).unwrap();
        let addr = handle.local_addr();
        let first = insert(addr, 777_001, "Zzyxgnarp Qblitherton");
        let second = insert(addr, 777_002, "Vorpalwick Qblitherton");
        assert_eq!(second, first + 1);
        let reply = post(
            addr,
            "/v1/mutate",
            &format!(r#"{{"ops":[{{"op":"delete","relation":"DIRECTOR","tid":{first}}}]}}"#),
        );
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        assert!(!served(addr, "zzyxgnarp", "Zzyxgnarp"));
        assert!(served(addr, "vorpalwick", "Vorpalwick Qblitherton"));
        handle.trigger_shutdown();
        handle.wait();

        // Second life: the hole is reclaimed before serving starts, so the
        // survivor moved down one slot and the next insert takes the id the
        // survivor had.
        let (handle, label) = start_server(Source::Demo, &options).unwrap();
        assert!(label.contains("1 tombstoned slots compacted"), "{label}");
        let addr = handle.local_addr();
        assert!(!served(addr, "zzyxgnarp", "Zzyxgnarp"));
        assert!(served(addr, "vorpalwick", "Vorpalwick Qblitherton"));
        assert_eq!(insert(addr, 777_003, "Mimsyborough Qblitherton"), second);
        handle.trigger_shutdown();
        handle.wait();

        // Third life: nothing to compact, everything still there.
        let (handle, label) = start_server(Source::Demo, &options).unwrap();
        assert!(label.contains("recovered from"), "{label}");
        assert!(!label.contains("compacted"), "{label}");
        let addr = handle.local_addr();
        assert!(served(addr, "vorpalwick", "Vorpalwick Qblitherton"));
        assert!(served(addr, "mimsyborough", "Mimsyborough Qblitherton"));
        assert!(!served(addr, "zzyxgnarp", "Zzyxgnarp"));
        handle.trigger_shutdown();
        handle.wait();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn synthetic_source_opens_and_answers() {
        let mut s = Session::open(Source::Synthetic { movies: 100 }).unwrap();
        let out = output(s.execute("query comedy"));
        assert!(out.contains("précis database"));
    }
}
