//! The four workloads: what each sends and why it is there.
//!
//! Everything here is a function of the generated database and the seed; the
//! server sees only the request bytes.

use crate::rng::Rng;
use precis_core::PrecisEngine;
use precis_index::InvertedIndex;
use precis_server::json;
use precis_storage::{Database, TupleId, ValueRef};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    NarrowOpen,
    HotClosed,
    BroadClosed,
    MixedWrite,
}

/// Arrival rate of the open loop, requests per second over all clients.
pub const OPEN_RATE_PER_S: f64 = 600.0;
/// Latency limit of one `/v1/mutate` batch for `slo_ok_share`.
pub const MUTATE_LIMIT_MS: f64 = 250.0;
/// Hot bodies of `hot_closed`, and the share of its requests they take.
pub const HOT_BODIES: usize = 8;
pub const HOT_SHARE: f64 = 0.8;
/// Distinct bodies of `broad_closed`.
pub const BROAD_BODIES: usize = 16;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::NarrowOpen,
        Workload::HotClosed,
        Workload::BroadClosed,
        Workload::MixedWrite,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::NarrowOpen => "narrow_open",
            Workload::HotClosed => "hot_closed",
            Workload::BroadClosed => "broad_closed",
            Workload::MixedWrite => "mixed_write",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The reason the workload exists, as `BENCHMARK.json` records it.
    pub fn why(self) -> &'static str {
        match self {
            Workload::NarrowOpen => {
                "open loop at 600 req/s of small distinct queries: working set 16x the token \
                 cache, so caches and coalescing are bypassed and per-request transport, \
                 admission and scheduling carry the latency"
            }
            Workload::HotClosed => {
                "closed loop, 80% of requests from 8 hot bodies: everything fits the caches \
                 and duplicates coalesce, so the dedupe layers do the work"
            }
            Workload::BroadClosed => {
                "closed loop of 50-200 KB answers: db_gen, NLG and render do over 95% of the \
                 work and transport under 5%"
            }
            Workload::MixedWrite => {
                "durable server, one writer of 8-op batches beside one reader: storage, index \
                 and snapshot publication for writes next to reads"
            }
        }
    }

    /// Latency limit of one query for `slo_ok_share`.
    pub fn query_limit_ms(self) -> f64 {
        match self {
            Workload::NarrowOpen | Workload::HotClosed => 5.0,
            Workload::BroadClosed => 100.0,
            Workload::MixedWrite => 10.0,
        }
    }

    pub fn is_open_loop(self) -> bool {
        self == Workload::NarrowOpen
    }

    pub fn is_durable(self) -> bool {
        self == Workload::MixedWrite
    }

    /// Whether served bodies are compared with precomputed ones. Under
    /// writes the right body changes with every batch, so `mixed_write`
    /// checks its acknowledged writes instead.
    pub fn checks_bodies(self) -> bool {
        self != Workload::MixedWrite
    }

    /// The distinct request bodies this workload draws from.
    pub fn bodies(self, engine: &PrecisEngine, seed: u64, pool: usize) -> Vec<String> {
        let db = engine.database();
        match self {
            Workload::BroadClosed => broad_bodies(db, seed),
            _ => narrow_bodies(&sample_terms(db, engine.index(), seed, pool)),
        }
    }

    /// Draw the next request id from `rng`, given `n` bodies.
    fn pick(self, rng: &mut Rng, n: usize) -> usize {
        match self {
            Workload::HotClosed if rng.unit() < HOT_SHARE => zipf_rank(rng, HOT_BODIES.min(n)),
            _ => rng.below(n),
        }
    }

    /// The request ids one client sends, in order. Client 0's stream is also
    /// the open loop's and the traced run's.
    pub fn stream(self, seed: u64, client: u64, n: usize) -> impl Iterator<Item = usize> {
        let mut rng = Rng::new(seed, 0x57_0000 + client);
        std::iter::repeat_with(move || self.pick(&mut rng, n))
    }
}

/// Rank in `0..n` with probability proportional to `1 / (rank + 1)`.
fn zipf_rank(rng: &mut Rng, n: usize) -> usize {
    let total: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
    let mut u = rng.unit() * total;
    for k in 0..n {
        u -= 1.0 / (k + 1) as f64;
        if u < 0.0 {
            return k;
        }
    }
    n - 1
}

/// Text of attribute `attr` in a random live row of `relation`.
pub(crate) fn random_text<'a>(
    db: &'a Database,
    rng: &mut Rng,
    relation: &str,
    attr: &str,
) -> &'a str {
    let rel = db
        .schema()
        .relation_id(relation)
        .expect("movies schema relation");
    let pos = db
        .schema()
        .relation(rel)
        .attr_position(attr)
        .expect("movies schema attribute");
    let table = db.table(rel);
    loop {
        let tid = TupleId(rng.below(table.slot_count()) as u64);
        if let Some(ValueRef::Text(text)) = table.get(tid).map(|t| t.get(pos)) {
            return text;
        }
    }
}

fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|w| !w.is_empty())
}

/// A narrow search word matches at least one and at most this many tuples,
/// all relations together. Words of every seed then cost about the same, and
/// the common syllable pairs that match hundreds of rows stay out.
const NARROW_MATCHES: std::ops::RangeInclusive<usize> = 1..=8;

/// Up to `n` distinct search words: a word of a random actor's or director's
/// name, or the word of a random movie's title that no other title has (its
/// number), kept when it matches [`NARROW_MATCHES`] tuples. Fewer when the
/// database is too small to hold `n`.
pub fn sample_terms(db: &Database, index: &InvertedIndex, seed: u64, n: usize) -> Vec<String> {
    let mut rng = Rng::new(seed, 0x7E_0001);
    let mut seen = HashSet::new();
    let mut terms = Vec::with_capacity(n);
    for _ in 0..n * 64 {
        if terms.len() == n {
            break;
        }
        let word = match rng.below(3) {
            0 => {
                let name = random_text(db, &mut rng, "ACTOR", "aname");
                pick_word(&mut rng, name)
            }
            1 => {
                let name = random_text(db, &mut rng, "DIRECTOR", "dname");
                pick_word(&mut rng, name)
            }
            _ => words(random_text(db, &mut rng, "MOVIE", "title")).last(),
        };
        let Some(word) = word else { continue };
        let matches: usize = index
            .lookup(db, word)
            .iter()
            .map(|occurrence| occurrence.tids.len())
            .sum();
        if NARROW_MATCHES.contains(&matches) && seen.insert(word.to_lowercase()) {
            terms.push(word.to_owned());
        }
    }
    terms
}

fn pick_word<'a>(rng: &mut Rng, text: &'a str) -> Option<&'a str> {
    let all: Vec<&str> = words(text).collect();
    (!all.is_empty()).then(|| all[rng.below(all.len())])
}

/// The four constraint templates narrow requests rotate through.
const NARROW_TEMPLATES: [&str; 4] = [
    "",
    ", \"degree\": {\"minweight\": 0.5}",
    ", \"cardinality\": {\"perrel\": 20}, \"strategy\": \"naive\"",
    ", \"cardinality\": {\"total\": 40}, \"strategy\": \"topweight\"",
];

fn query_body(tokens: &[&str], rest: &str) -> String {
    let mut body = String::from("{\"tokens\": [");
    for (i, t) in tokens.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        json::write_str(&mut body, t);
    }
    body.push(']');
    body.push_str(rest);
    body.push('}');
    body
}

/// One request per term: even ids ask for the term alone, odd ids add a
/// second term from elsewhere in the pool; templates rotate every two ids so
/// word count and template are crossed.
pub fn narrow_bodies(terms: &[String]) -> Vec<String> {
    let n = terms.len();
    (0..n)
        .map(|i| {
            let template = NARROW_TEMPLATES[(i / 2) % NARROW_TEMPLATES.len()];
            if i % 2 == 0 {
                query_body(&[&terms[i]], template)
            } else {
                let other = (i.wrapping_mul(2_654_435_761) + 1) % n;
                query_body(&[&terms[i], &terms[other]], template)
            }
        })
        .collect()
}

/// Sixteen broad requests: a genre, a birth-place word or a title word
/// (each matches thousands of rows) under the Fig. 8 and Fig. 9 axes. Every
/// four ids run through 50, 100, 200 and 100 tuples per relation; degree 0.0
/// and 0.3 swap every four, NaïveQ and RoundRobin every eight, and the last
/// id caps the total at 400 instead. Cost follows the tuple count, so five
/// requests are small, seven middling and four large: the median request
/// sits inside the middle class for any seed, not on a class boundary.
pub fn broad_bodies(db: &Database, seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed, 0x7E_0002);
    (0..BROAD_BODIES)
        .map(|i| {
            let token = match i % 3 {
                0 => random_text(db, &mut rng, "GENRE", "genre"),
                1 => words(random_text(db, &mut rng, "ACTOR", "blocation"))
                    .next()
                    .expect("birth places have words"),
                _ => words(random_text(db, &mut rng, "MOVIE", "title"))
                    .nth(1)
                    .expect("titles have three words"),
            };
            let minweight = if (i / 4) % 2 == 0 { "0.0" } else { "0.3" };
            let cardinality = if i + 1 == BROAD_BODIES {
                "{\"total\": 400}".to_owned()
            } else {
                format!("{{\"perrel\": {}}}", [50, 100, 200, 100][i % 4])
            };
            let strategy = if (i / 8) % 2 == 0 {
                "naive"
            } else {
                "roundrobin"
            };
            query_body(
                &[token],
                &format!(
                    ", \"degree\": {{\"minweight\": {minweight}}}, \"cardinality\": \
                     {cardinality}, \"strategy\": \"{strategy}\""
                ),
            )
        })
        .collect()
}

/// Arrival offsets of a Poisson process of `rate_per_s` over `span`.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, span: Duration) -> Vec<Duration> {
    let mut rng = Rng::new(seed, 0x7E_0003);
    let mut at = 0.0;
    let mut schedule = Vec::with_capacity((rate_per_s * span.as_secs_f64() * 1.1) as usize);
    loop {
        at += rng.exponential(1.0 / rate_per_s);
        if at >= span.as_secs_f64() {
            return schedule;
        }
        schedule.push(Duration::from_secs_f64(at));
    }
}

/// Keys of rows the writer adds start here, far above any generated key.
pub const WRITER_KEY_BASE: u64 = 10_000_000;
/// `MOVIE` rows the writer's updates rotate over: generated rows, which it
/// never deletes, so their tuple ids survive checkpoint compaction.
const UPDATED_ROWS: u64 = 1_000;

/// One `/v1/mutate` body and the keys it writes.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    pub body: String,
    /// Operations in the batch; the server must report all of them applied.
    pub ops: usize,
    /// `(relation, primary key)` of each inserted row.
    pub inserts: Vec<(&'static str, u64)>,
    /// Primary key of the `CAST` row the batch deletes, if it deletes one.
    pub delete: Option<u64>,
    /// User bytes the batch carries: 8 per number, the length of each text.
    pub user_bytes: usize,
}

/// The writer's batch stream: 5 inserts (a new `MOVIE`, two `GENRE` rows and
/// two `CAST` rows pointing at it), 2 updates of generated `MOVIE` rows, and
/// 1 delete of a `CAST` row the previous batch inserted.
#[derive(Debug)]
pub struct Writer {
    rng: Rng,
    movies: u64,
    directors: u64,
    actors: u64,
    batches: u64,
    /// `(tuple id, key)` of the latest inserted `CAST` row, until deleted.
    deletable: Option<(u64, u64)>,
}

impl Writer {
    pub fn new(db: &Database, seed: u64) -> Writer {
        let len = |name: &str| {
            let rel = db.schema().relation_id(name).expect("movies relation");
            db.len(rel) as u64
        };
        Writer {
            rng: Rng::new(seed, 0x7E_0004),
            movies: len("MOVIE"),
            directors: len("DIRECTOR"),
            actors: len("ACTOR"),
            batches: 0,
            deletable: None,
        }
    }

    pub fn next_batch(&mut self) -> Batch {
        let k = self.batches;
        self.batches += 1;
        let mid = WRITER_KEY_BASE + k;
        let (gid, cid) = (WRITER_KEY_BASE + 2 * k, WRITER_KEY_BASE + 2 * k);
        let mut body = String::from("{\"ops\": [");
        let mut user_bytes = 0;
        let mut ops = 0;
        let mut op =
            |body: &mut String, kind: &str, relation: &str, tid: Option<u64>, values: &[Field]| {
                if ops > 0 {
                    body.push_str(", ");
                }
                ops += 1;
                let _ = write!(body, "{{\"op\": \"{kind}\", \"relation\": \"{relation}\"");
                if let Some(tid) = tid {
                    let _ = write!(body, ", \"tid\": {tid}");
                }
                if !values.is_empty() {
                    body.push_str(", \"values\": [");
                    for (i, v) in values.iter().enumerate() {
                        if i > 0 {
                            body.push_str(", ");
                        }
                        match v {
                            Field::Int(n) => {
                                let _ = write!(body, "{n}");
                                user_bytes += 8;
                            }
                            Field::Text(s) => {
                                json::write_str(body, s);
                                user_bytes += s.len();
                            }
                        }
                    }
                    body.push(']');
                }
                body.push('}');
            };

        let year = 1950 + self.rng.below(77) as u64;
        let did = 1 + self.rng.below(self.directors as usize) as u64;
        op(
            &mut body,
            "insert",
            "MOVIE",
            None,
            &[
                Field::Int(mid),
                Field::Text(format!("The Benchmark Premiere {mid}")),
                Field::Int(year),
                Field::Int(did),
            ],
        );
        for (i, genre) in ["Drama", "Comedy"].into_iter().enumerate() {
            op(
                &mut body,
                "insert",
                "GENRE",
                None,
                &[
                    Field::Int(gid + i as u64),
                    Field::Int(mid),
                    Field::Text(genre.to_owned()),
                ],
            );
        }
        for (i, role) in ["Lead", "Support"].into_iter().enumerate() {
            let aid = 1 + self.rng.below(self.actors as usize) as u64;
            op(
                &mut body,
                "insert",
                "CAST",
                None,
                &[
                    Field::Int(cid + i as u64),
                    Field::Int(mid),
                    Field::Int(aid),
                    Field::Text(role.to_owned()),
                ],
            );
        }
        for _ in 0..2 {
            // Generated movie `mid` sits at tuple id `mid - 1`.
            let tid = self.rng.below(UPDATED_ROWS.min(self.movies) as usize) as u64;
            let did = 1 + self.rng.below(self.directors as usize) as u64;
            op(
                &mut body,
                "update",
                "MOVIE",
                Some(tid),
                &[
                    Field::Int(tid + 1),
                    Field::Text(format!("The Revised Cut {}", tid + 1)),
                    Field::Int(1950 + self.rng.below(77) as u64),
                    Field::Int(did),
                ],
            );
        }
        let delete = self.deletable.take();
        if let Some((tid, _)) = delete {
            op(&mut body, "delete", "CAST", Some(tid), &[]);
        }
        body.push_str("]}");

        Batch {
            body,
            ops,
            inserts: vec![
                ("MOVIE", mid),
                ("GENRE", gid),
                ("GENRE", gid + 1),
                ("CAST", cid),
                ("CAST", cid + 1),
            ],
            delete: delete.map(|(_, key)| key),
            user_bytes,
        }
    }

    /// Take in the server's answer to `batch`: the tuple id its last `CAST`
    /// row landed on is the next batch's delete target — unless the server
    /// checkpointed, which renumbers tuple ids behind the answer's back.
    pub fn acknowledge(&mut self, batch: &Batch, inserted_tids: &[u64], checkpointed: bool) {
        self.deletable = match (inserted_tids.last(), batch.inserts.last()) {
            (Some(&tid), Some(&(_, key))) if !checkpointed => Some((tid, key)),
            _ => None,
        };
    }
}

enum Field {
    Int(u64),
    Text(String),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world;
    use precis_server::{parse_mutate_request, parse_query_request};

    fn small_db(seed: u64) -> Database {
        world::generate(seed, 400)
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{}", w.name());
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn schedule_and_streams_repeat_for_equal_seeds_only() {
        let span = Duration::from_secs(2);
        let a = poisson_schedule(5, 600.0, span);
        assert_eq!(a, poisson_schedule(5, 600.0, span));
        assert_ne!(a, poisson_schedule(6, 600.0, span));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|d| *d < span));
        // 1,200 expected arrivals; six standard deviations is about 200.
        assert!((1_000..1_400).contains(&a.len()), "{}", a.len());

        for w in Workload::ALL {
            let s = |seed, client| w.stream(seed, client, 512).take(64).collect::<Vec<_>>();
            assert_eq!(s(5, 0), s(5, 0));
            assert_ne!(s(5, 0), s(6, 0));
            assert_ne!(s(5, 0), s(5, 1));
            assert!(s(5, 0).iter().all(|id| *id < 512));
        }
    }

    #[test]
    fn hot_stream_concentrates_on_the_hot_bodies() {
        let ids: Vec<usize> = Workload::HotClosed
            .stream(1, 0, 4_096)
            .take(10_000)
            .collect();
        let hot = ids.iter().filter(|id| **id < HOT_BODIES).count();
        assert!((7_800..8_300).contains(&hot), "{hot}");
        let first = ids.iter().filter(|id| **id == 0).count();
        let last = ids.iter().filter(|id| **id == HOT_BODIES - 1).count();
        assert!(first > 4 * last, "{first} vs {last}");
    }

    #[test]
    fn bodies_are_seeded_distinct_and_parse() {
        let db = small_db(3);
        let index = InvertedIndex::build(&db);
        let terms = sample_terms(&db, &index, 9, 256);
        assert_eq!(terms.len(), 256);
        assert_eq!(terms, sample_terms(&db, &index, 9, 256));
        assert_ne!(terms, sample_terms(&db, &index, 10, 256));
        for term in &terms {
            let matches: usize = index.lookup(&db, term).iter().map(|o| o.tids.len()).sum();
            assert!(NARROW_MATCHES.contains(&matches), "{term}: {matches}");
        }
        let lowered: HashSet<String> = terms.iter().map(|t| t.to_lowercase()).collect();
        assert_eq!(lowered.len(), terms.len());

        let narrow = narrow_bodies(&terms);
        assert_eq!(narrow.len(), terms.len());
        let distinct: HashSet<&String> = narrow.iter().collect();
        assert_eq!(distinct.len(), narrow.len());
        let broad = broad_bodies(&db, 9);
        assert_eq!(broad.len(), BROAD_BODIES);
        assert_eq!(broad, broad_bodies(&db, 9));
        for body in narrow.iter().chain(&broad) {
            let request = parse_query_request(body).unwrap_or_else(|e| panic!("{body}: {e}"));
            assert!((1..=2).contains(&request.query.len()), "{body}");
        }
        // A database too small for the pool yields what it has, and ends.
        assert!(sample_terms(&db, &index, 9, 10_000).len() < 10_000);
    }

    #[test]
    fn writer_batches_parse_and_chain_their_deletes() {
        let db = small_db(3);
        let mut writer = Writer::new(&db, 4);
        let first = writer.next_batch();
        assert_eq!(parse_mutate_request(&first.body).unwrap().len(), 7);
        assert_eq!(first.delete, None);
        assert_eq!(first.inserts.len(), 5);
        writer.acknowledge(&first, &[400, 800, 801, 1600, 1601], false);
        let second = writer.next_batch();
        assert_eq!(parse_mutate_request(&second.body).unwrap().len(), 8);
        assert_eq!(second.delete, Some(first.inserts[4].1));
        assert!(second.body.contains("\"tid\": 1601"));
        // After a checkpoint the reported tuple ids are stale: no delete.
        writer.acknowledge(&second, &[401, 802, 803, 1602, 1603], true);
        assert_eq!(writer.next_batch().delete, None);
        // Keys never repeat across batches.
        let keys: HashSet<(&str, u64)> = [&first, &second]
            .iter()
            .flat_map(|b| b.inserts.iter().copied())
            .collect();
        assert_eq!(keys.len(), 10);
        assert_eq!(Writer::new(&db, 4).next_batch(), first);
    }
}
