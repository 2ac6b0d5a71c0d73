//! Shared helpers for the crate's tests: unique scratch directories (no
//! `tempfile` dependency) and a small movies database.

use crate::FsyncPolicy;
use precis_storage::{DataType, Database, DatabaseSchema, ForeignKey, RelationSchema, Value};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Group commit that syncs only at an explicit flush, for tests that do not
/// count fsyncs.
pub const LAZY: FsyncPolicy = FsyncPolicy::Batch(usize::MAX);

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// A fresh empty directory under the system temp dir, unique per call.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "precis-durability-{tag}-{}-{n}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The schema used across the crate's tests: DIRECTOR ← MOVIE.
pub fn sample_schema() -> DatabaseSchema {
    let mut s = DatabaseSchema::new("movies db");
    s.add_relation(
        RelationSchema::builder("DIRECTOR")
            .attr_not_null("did", DataType::Int)
            .attr("dname", DataType::Text)
            .attr("rating", DataType::Float)
            .primary_key("did")
            .build()
            .unwrap(),
    )
    .unwrap();
    s.add_relation(
        RelationSchema::builder("MOVIE")
            .attr_not_null("mid", DataType::Int)
            .attr("title", DataType::Text)
            .attr("did", DataType::Int)
            .primary_key("mid")
            .build()
            .unwrap(),
    )
    .unwrap();
    s.add_foreign_key(ForeignKey::new("MOVIE", "did", "DIRECTOR", "did"))
        .unwrap();
    s
}

/// A populated sample database (two directors, one movie).
pub fn sample_db() -> Database {
    let mut db = Database::new(sample_schema()).unwrap();
    db.insert(
        "DIRECTOR",
        vec![
            Value::from(1),
            Value::from("Woody Allen"),
            Value::from(7.25),
        ],
    )
    .unwrap();
    db.insert(
        "DIRECTOR",
        vec![Value::from(2), Value::from("Sofia Coppola"), Value::Null],
    )
    .unwrap();
    db.insert(
        "MOVIE",
        vec![Value::from(10), Value::from("Match Point"), Value::from(1)],
    )
    .unwrap();
    db
}
