//! # precis-storage
//!
//! An in-memory relational storage engine that plays the role Oracle 9i R2
//! played in the Précis paper (Koutrika, Simitsis, Ioannidis — ICDE 2006).
//!
//! The précis query-processing algorithms only ever touch the database
//! through a narrow access-path vocabulary:
//!
//! * fetch tuples by tuple id (the inverted index hands back tid lists),
//! * indexed `attr = v` probes returning a posting list, which the paper's
//!   *NaïveQ* retrieval walks value by value under a `ROWNUM`-style limit,
//! * one open scan of joining tuples per join value (the paper's
//!   *Round-Robin* retrieval).
//!
//! This crate implements exactly that vocabulary over typed tuples with
//! primary-key and foreign-key constraints, plus [`AccessStats`] counters for
//! the two primitives of the paper's cost model (Formula 2):
//! `IndexTime` (index probes) and `TupleTime` (tuple reads).
//!
//! ```
//! use precis_storage::{Database, DatabaseSchema, RelationSchema, DataType, Value};
//!
//! let mut schema = DatabaseSchema::new("demo");
//! schema
//!     .add_relation(
//!         RelationSchema::builder("MOVIE")
//!             .attr("mid", DataType::Int)
//!             .attr("title", DataType::Text)
//!             .primary_key("mid")
//!             .build()
//!             .unwrap(),
//!     )
//!     .unwrap();
//! let mut db = Database::new(schema).unwrap();
//! let tid = db
//!     .insert("MOVIE", vec![Value::from(1), Value::from("Match Point")])
//!     .unwrap();
//! let movie = db.fetch("MOVIE", tid).unwrap();
//! assert_eq!(movie.get(1), Value::from("Match Point"));
//! ```
//!
//! ## Memory layout
//!
//! A table is one layout: fixed-size chunks of rows, each one contiguous
//! column-major slab of words in which a cell takes its declared type's
//! width — 8 bytes an integer or a float, 4 a boolean or a text, which is
//! interned in the process-wide [`SymbolTable`] and stored as its symbol id
//! — beside a null bitmap per column. Reads hand out
//! [`TupleRef`]/[`ValueRef`] views instead of owned tuples, and rebuild the
//! 16-byte [`Datum`] a cell stands for from its column's type.
//!
//! An index is an exact-size base sorted by key, built once, beside a small
//! delta of the keys written since (see [`HashIndex`]). Chunks, index bases
//! and delta shards sit behind `Arc`s ([`cow`]): cloning a [`Database`]
//! copies pointers, and a mutation copies only the chunks, shards and index
//! entries it touches — which is what lets a server apply a batch to a
//! private copy while running answers keep reading the published one.

pub mod cow;
mod database;
mod error;
mod exec;
pub mod failpoint;
pub mod fasthash;
mod index;
pub mod io;
mod schema;
mod stats;
pub mod sym;
mod table;
pub mod tidlist;
mod tuple;
mod value;
pub mod wal;

pub use database::{Database, DatabaseBytes, IndexSize};
pub use error::StorageError;
pub use exec::ValueScan;
pub use fasthash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use index::{HashIndex, UniqueIndex};
pub use schema::{AttributeDef, DatabaseSchema, ForeignKey, RelationId, RelationSchema};
pub use stats::{AccessStats, StatsSnapshot, ThreadMeter};
pub use sym::{Sym, SymbolTable};
pub use table::{Table, TableIter, CHUNK_ROWS};
pub use tidlist::{TidList, SEGMENT_TIDS};
pub use tuple::{TupleId, TupleRef};
pub use value::{DataType, Datum, Value, ValueRef};
pub use wal::{MemoryWalSink, WalOp, WalSink};

/// Convenience result alias used across the storage engine.
pub type Result<T> = std::result::Result<T, StorageError>;
