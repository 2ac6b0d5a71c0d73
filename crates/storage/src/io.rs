//! A plain-text dump/load format for databases (no external dependencies),
//! so generated test databases and précis results can be saved and shared.
//!
//! ```text
//! precisdb 1
//! schema movies
//! relation MOVIE
//! attr mid INT notnull
//! attr title TEXT null
//! pk mid
//! end
//! fk MOVIE.did -> DIRECTOR.did
//! data MOVIE
//! 1<TAB>Match Point
//! \N<TAB>...                 (NULL marker)
//! \-                        (a hole: the tombstoned slot of a deleted tuple)
//! end
//! ```
//!
//! Values are tab-separated; `\t`, `\n`, `\r` and `\\` are escaped, NULL is
//! `\N`. A `data` block has one line per slot of its relation, in tuple-id
//! order: a row for a live tuple, the hole line `\-` (an escape no value
//! ever produces) for a tombstoned one — trailing tombstones and relations
//! with nothing but tombstones included. Loading appends slot by slot, so a
//! dump is lossless in tuple ids: `load(dump(db))` holds every tuple of `db`
//! under the id it has in `db` and hands out the same next id. A database
//! without tombstones dumps without hole lines.

use crate::database::Database;
use crate::error::StorageError;
use crate::schema::{DatabaseSchema, ForeignKey, RelationSchema};
use crate::sym::Sym;
use crate::value::{DataType, Datum, ValueRef};
use crate::Result;
use std::io::BufWriter;

const MAGIC: &str = "precisdb 1";
/// The line of a tombstoned slot inside a `data` block.
const HOLE: &str = r"\-";

/// Serialize a database (schema, constraints, every slot of every table) to
/// the text format.
pub fn dump_to_string(db: &Database) -> String {
    let mut out = Vec::new();
    dump_to(db, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("a dump is UTF-8: stored text and ASCII framing")
}

/// Stream the dump of `db` into `out`, one row at a time: every field goes
/// from the stored tuple straight into the writer, so nothing the size of
/// the database is ever held. Hand it a buffered writer — it issues one
/// small write per field.
pub fn dump_to(db: &Database, out: &mut impl std::io::Write) -> std::io::Result<()> {
    let schema = db.schema();
    writeln!(out, "{MAGIC}")?;
    writeln!(out, "schema {}", escape(schema.name()))?;
    for (_, rel) in schema.relations() {
        writeln!(out, "relation {}", escape(rel.name()))?;
        for a in rel.attributes() {
            writeln!(
                out,
                "attr {} {} {}",
                escape(&a.name),
                a.ty,
                if a.nullable { "null" } else { "notnull" }
            )?;
        }
        if let Some(pk) = rel.primary_key() {
            writeln!(out, "pk {}", escape(rel.attr_name(pk)))?;
        }
        writeln!(out, "end")?;
    }
    for fk in schema.foreign_keys() {
        writeln!(
            out,
            "fk {}.{} -> {}.{}",
            escape(&fk.relation),
            escape(&fk.attribute),
            escape(&fk.ref_relation),
            escape(&fk.ref_attribute)
        )?;
    }
    for (rel, rel_schema) in schema.relations() {
        if db.table(rel).slot_count() == 0 {
            continue;
        }
        writeln!(out, "data {}", escape(rel_schema.name()))?;
        for slot in db.table(rel).slots() {
            match slot {
                Some(t) => {
                    for (attr, value) in t.iter().enumerate() {
                        if attr > 0 {
                            out.write_all(b"\t")?;
                        }
                        write_value(out, value)?;
                    }
                }
                None => out.write_all(HOLE.as_bytes())?,
            }
            out.write_all(b"\n")?;
        }
        writeln!(out, "end")?;
    }
    Ok(())
}

/// Parse the text format back into a database. Foreign keys are validated
/// after loading; a violation fails the load.
pub fn load_from_string(text: &str) -> Result<Database> {
    crate::failpoint::check("load_from_string")?;
    let mut lines = text.lines().peekable();
    let magic = lines.next().unwrap_or_default();
    if magic != MAGIC {
        return Err(corrupt(format!("bad header {magic:?}")));
    }
    let schema_line = lines.next().unwrap_or_default();
    let name = schema_line
        .strip_prefix("schema ")
        .ok_or_else(|| corrupt("missing schema line"))?;
    let mut schema = DatabaseSchema::new(unescape(name)?);

    // Relations and foreign keys.
    let mut pending_fks: Vec<ForeignKey> = Vec::new();
    while let Some(line) = lines.peek() {
        if let Some(rel_name) = line.strip_prefix("relation ") {
            let rel_name = unescape(rel_name)?;
            lines.next();
            let mut b = RelationSchema::builder(rel_name);
            loop {
                let line = lines
                    .next()
                    .ok_or_else(|| corrupt("unterminated relation block"))?;
                if line == "end" {
                    break;
                }
                if let Some(rest) = line.strip_prefix("attr ") {
                    let mut parts = rest.split(' ');
                    let (Some(aname), Some(ty), Some(nullable)) =
                        (parts.next(), parts.next(), parts.next())
                    else {
                        return Err(corrupt(format!("bad attr line {line:?}")));
                    };
                    let ty = parse_type(ty)?;
                    let aname = unescape(aname)?;
                    b = match nullable {
                        "null" => b.attr(aname, ty),
                        "notnull" => b.attr_not_null(aname, ty),
                        other => return Err(corrupt(format!("bad nullability {other:?}"))),
                    };
                } else if let Some(pk) = line.strip_prefix("pk ") {
                    b = b.primary_key(unescape(pk)?);
                } else {
                    return Err(corrupt(format!("unexpected line {line:?}")));
                }
            }
            schema.add_relation(b.build()?)?;
        } else if let Some(rest) = line.strip_prefix("fk ") {
            let (from, to) = rest
                .split_once(" -> ")
                .ok_or_else(|| corrupt(format!("bad fk line {rest:?}")))?;
            let (fr, fa) = from
                .split_once('.')
                .ok_or_else(|| corrupt(format!("bad fk endpoint {from:?}")))?;
            let (tr, ta) = to
                .split_once('.')
                .ok_or_else(|| corrupt(format!("bad fk endpoint {to:?}")))?;
            pending_fks.push(ForeignKey::new(
                unescape(fr)?,
                unescape(fa)?,
                unescape(tr)?,
                unescape(ta)?,
            ));
            lines.next();
        } else {
            break;
        }
    }
    for fk in pending_fks {
        schema.add_foreign_key(fk)?;
    }

    let mut db = Database::new(schema)?;

    // Data blocks: every line decodes into the one `row`, in stored form.
    let mut row: Vec<Datum> = Vec::new();
    let mut unescaped = String::new();
    while let Some(line) = lines.next() {
        if line.is_empty() {
            continue;
        }
        let rel_name = line
            .strip_prefix("data ")
            .ok_or_else(|| corrupt(format!("expected data block, got {line:?}")))?;
        let rel_name = unescape(rel_name)?;
        let rel = db.schema().require_relation(&rel_name)?;
        let types: Vec<DataType> = db
            .relation_schema(rel)
            .attributes()
            .iter()
            .map(|a| a.ty)
            .collect();
        loop {
            let line = lines
                .next()
                .ok_or_else(|| corrupt("unterminated data block"))?;
            if line == "end" {
                break;
            }
            if line == HOLE {
                db.append_tombstone(rel);
                continue;
            }
            let fields = line.bytes().filter(|b| *b == b'\t').count() + 1;
            if fields != types.len() {
                return Err(corrupt(format!(
                    "row of {fields} fields for relation {rel_name} with {} attributes",
                    types.len()
                )));
            }
            row.clear();
            for (field, ty) in line.split('\t').zip(&types) {
                row.push(decode_datum(field, *ty, &mut unescaped)?);
            }
            db.insert_datums_from(rel, &row)?;
        }
    }

    let violations = db.validate_foreign_keys();
    if let Some(v) = violations.into_iter().next() {
        return Err(v);
    }
    Ok(db)
}

fn corrupt(msg: impl Into<String>) -> StorageError {
    StorageError::Corrupt(msg.into())
}

/// Write the dump to `path`, propagating I/O failures as
/// [`StorageError::Io`] instead of panicking.
///
/// The write is crash-atomic: the dump goes to a temporary sibling file,
/// is fsynced, and is renamed over `path` in one step, so a crash mid-dump
/// leaves either the old file or the new one — never a truncated,
/// unloadable hybrid. The containing directory is fsynced best-effort so
/// the rename itself survives a power cut.
pub fn dump_to_file(db: &Database, path: impl AsRef<std::path::Path>) -> Result<()> {
    crate::failpoint::check("dump_to_file")?;
    let path = path.as_ref();
    let io_err =
        |e: std::io::Error| StorageError::Io(format!("cannot write {}: {e}", path.display()));
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut w = BufWriter::new(std::fs::File::create(&tmp).map_err(io_err)?);
        dump_to(db, &mut w).map_err(io_err)?;
        let f = w.into_inner().map_err(|e| io_err(e.into_error()))?;
        f.sync_all().map_err(io_err)?;
    }
    std::fs::rename(&tmp, path).map_err(io_err)?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        // Persist the rename in the directory; best-effort because some
        // filesystems refuse to open directories for syncing.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Load a dump from `path`. A missing or unreadable file is
/// [`StorageError::Io`]; a malformed dump is [`StorageError::Corrupt`].
/// Neither panics — a serving process handed a bad save file must refuse it
/// and keep running.
pub fn load_from_file(path: impl AsRef<std::path::Path>) -> Result<Database> {
    crate::failpoint::check("load_from_file")?;
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| StorageError::Io(format!("cannot read {}: {e}", path.display())))?;
    load_from_string(&text)
}

fn parse_type(s: &str) -> Result<DataType> {
    match s {
        "INT" => Ok(DataType::Int),
        "FLOAT" => Ok(DataType::Float),
        "TEXT" => Ok(DataType::Text),
        "BOOL" => Ok(DataType::Bool),
        other => Err(corrupt(format!("unknown type {other:?}"))),
    }
}

/// Write one field of a data row.
fn write_value(out: &mut impl std::io::Write, v: ValueRef<'_>) -> std::io::Result<()> {
    match v {
        ValueRef::Null => out.write_all(br"\N"),
        ValueRef::Text(s) => write_escaped(out, s),
        ValueRef::Int(i) => write!(out, "{i}"),
        // Round-trippable float formatting.
        ValueRef::Float(f) => write!(out, "{f:?}"),
        ValueRef::Bool(b) => out.write_all(if b { b"true" } else { b"false" }),
    }
}

/// Decode one field of a data row into stored form. Text is interned
/// straight from the line unless it holds an escape, in which case it is
/// unescaped through `unescaped` (reused from field to field) first.
fn decode_datum(field: &str, ty: DataType, unescaped: &mut String) -> Result<Datum> {
    if field == r"\N" {
        return Ok(Datum::Null);
    }
    let bad = |w: &str| corrupt(format!("bad {ty} literal {w:?}"));
    match ty {
        DataType::Int => field.parse::<i64>().map(Datum::Int).map_err(|_| bad(field)),
        DataType::Float => field
            .parse::<f64>()
            .map(Datum::Float)
            .map_err(|_| bad(field)),
        DataType::Bool => match field {
            "true" => Ok(Datum::Bool(true)),
            "false" => Ok(Datum::Bool(false)),
            _ => Err(bad(field)),
        },
        DataType::Text => {
            let text = if field.contains('\\') {
                unescaped.clear();
                unescape_into(field, unescaped)?;
                unescaped.as_str()
            } else {
                field
            };
            Ok(Datum::Sym(Sym::intern(text)))
        }
    }
}

/// The byte that follows the backslash in the escape of `b`, if `b` must
/// be escaped. All four are ASCII, so they never occur inside a multi-byte
/// character and text can be scanned as bytes.
fn escape_code(b: u8) -> Option<u8> {
    match b {
        b'\\' => Some(b'\\'),
        b'\t' => Some(b't'),
        b'\n' => Some(b'n'),
        b'\r' => Some(b'r'),
        _ => None,
    }
}

/// Write `s` escaped: the stretches between bytes that need escaping go out
/// as they are, so text without any — nearly all of it — is one write.
fn write_escaped(out: &mut impl std::io::Write, s: &str) -> std::io::Result<()> {
    let bytes = s.as_bytes();
    let mut clean_from = 0;
    for (i, b) in bytes.iter().enumerate() {
        if let Some(code) = escape_code(*b) {
            out.write_all(&bytes[clean_from..i])?;
            out.write_all(&[b'\\', code])?;
            clean_from = i + 1;
        }
    }
    out.write_all(&bytes[clean_from..])
}

fn escape(s: &str) -> String {
    let mut out = Vec::with_capacity(s.len());
    write_escaped(&mut out, s).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("escaping valid UTF-8 inserts only ASCII")
}

fn unescape(s: &str) -> Result<String> {
    let mut out = String::with_capacity(s.len());
    unescape_into(s, &mut out)?;
    Ok(out)
}

/// Append the unescaped form of `s` to `out`.
fn unescape_into(s: &str, out: &mut String) -> Result<()> {
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('N') => out.push_str(r"\N"), // literal "\N" inside text
            other => return Err(corrupt(format!("bad escape \\{other:?}"))),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn sample_db() -> Database {
        let mut s = DatabaseSchema::new("movies db");
        s.add_relation(
            RelationSchema::builder("DIRECTOR")
                .attr_not_null("did", DataType::Int)
                .attr("dname", DataType::Text)
                .attr("rating", DataType::Float)
                .attr("active", DataType::Bool)
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
        let mut db = Database::new(s).unwrap();
        db.insert(
            "DIRECTOR",
            vec![
                Value::from(1),
                Value::from("Woody\tAllen\nJr\\"),
                Value::from(7.25),
                Value::from(true),
            ],
        )
        .unwrap();
        db.insert(
            "DIRECTOR",
            vec![Value::from(2), Value::Null, Value::Null, Value::Null],
        )
        .unwrap();
        db.insert(
            "MOVIE",
            vec![Value::from(10), Value::from("Match Point"), Value::from(1)],
        )
        .unwrap();
        db
    }

    #[test]
    fn round_trip_preserves_everything() {
        let db = sample_db();
        let text = dump_to_string(&db);
        let loaded = load_from_string(&text).unwrap();
        assert_eq!(loaded.schema().name(), "movies db");
        assert_eq!(loaded.schema().relation_count(), 2);
        assert_eq!(loaded.schema().foreign_keys().len(), 1);
        assert_eq!(loaded.total_tuples(), db.total_tuples());
        let dir = loaded.schema().relation_id("DIRECTOR").unwrap();
        let t = loaded.table(dir).get(crate::TupleId(0)).unwrap();
        assert_eq!(t.get(1), Value::from("Woody\tAllen\nJr\\"));
        assert_eq!(t.get(2), Value::from(7.25));
        assert_eq!(t.get(3), Value::from(true));
        let t2 = loaded.table(dir).get(crate::TupleId(1)).unwrap();
        assert!(t2.get(1).is_null());
        // Indexes work after load (FK endpoints auto-indexed).
        let movie = loaded.schema().relation_id("MOVIE").unwrap();
        let did = loaded.relation_schema(movie).attr_position("did").unwrap();
        assert_eq!(loaded.lookup(movie, did, &Value::from(1)).unwrap().len(), 1);
        // Second round trip is byte-identical.
        assert_eq!(dump_to_string(&loaded), text);
    }

    #[test]
    fn dump_bytes_are_golden() {
        let mut db = sample_db();
        db.insert(
            "DIRECTOR",
            vec![
                Value::from(3),
                Value::from(r"\N is text, so is \r\t"),
                Value::from(-0.0),
                Value::from(false),
            ],
        )
        .unwrap();
        db.insert(
            "MOVIE",
            vec![Value::from(11), Value::from("Île\rÉté"), Value::Null],
        )
        .unwrap();
        let golden = "precisdb 1\n\
            schema movies db\n\
            relation DIRECTOR\n\
            attr did INT notnull\n\
            attr dname TEXT null\n\
            attr rating FLOAT null\n\
            attr active BOOL null\n\
            pk did\n\
            end\n\
            relation MOVIE\n\
            attr mid INT notnull\n\
            attr title TEXT null\n\
            attr did INT null\n\
            pk mid\n\
            end\n\
            fk MOVIE.did -> DIRECTOR.did\n\
            data DIRECTOR\n\
            1\tWoody\\tAllen\\nJr\\\\\t7.25\ttrue\n\
            2\t\\N\t\\N\t\\N\n\
            3\t\\\\N is text, so is \\\\r\\\\t\t-0.0\tfalse\n\
            end\n\
            data MOVIE\n\
            10\tMatch Point\t1\n\
            11\tÎle\\rÉté\t\\N\n\
            end\n";
        assert_eq!(dump_to_string(&db), golden);
        let mut streamed = Vec::new();
        dump_to(&db, &mut streamed).unwrap();
        assert_eq!(streamed, golden.as_bytes());

        let loaded = load_from_string(golden).unwrap();
        assert_eq!(dump_to_string(&loaded), golden);
        for (rel, _) in db.schema().relations() {
            for (tid, t) in db.table(rel).iter() {
                assert_eq!(loaded.table(rel).get(tid).unwrap(), t);
            }
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        let mut s = DatabaseSchema::new("f");
        s.add_relation(
            RelationSchema::builder("R")
                .attr_not_null("id", DataType::Int)
                .attr("x", DataType::Float)
                .primary_key("id")
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut db = Database::new(s).unwrap();
        for (i, x) in [0.1, 1.0 / 3.0, f64::MAX, f64::MIN_POSITIVE]
            .iter()
            .enumerate()
        {
            db.insert("R", vec![Value::from(i), Value::from(*x)])
                .unwrap();
        }
        let loaded = load_from_string(&dump_to_string(&db)).unwrap();
        let r = loaded.schema().relation_id("R").unwrap();
        for (tid, t) in db.table(r).iter() {
            assert_eq!(loaded.table(r).get(tid).unwrap().get(1), t.get(1));
        }
    }

    #[test]
    fn corrupt_inputs_are_rejected() {
        assert!(load_from_string("nonsense").is_err());
        assert!(load_from_string("precisdb 1\n").is_err());
        let good = dump_to_string(&sample_db());
        // Break a data row's arity.
        let broken = good.replace("10\tMatch Point\t1", "10\tMatch Point");
        assert!(load_from_string(&broken).is_err());
        // Break a type literal.
        let broken = good.replace("10\tMatch Point\t1", "xx\tMatch Point\t1");
        assert!(load_from_string(&broken).is_err());
        // Violate the foreign key.
        let broken = good.replace("10\tMatch Point\t1", "10\tMatch Point\t99");
        assert!(load_from_string(&broken).is_err());
    }

    #[test]
    fn corruption_is_classified_not_conflated_with_fk_errors() {
        let err = load_from_string("nonsense").unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err:?}");
        assert!(err.to_string().contains("corrupt database dump"));
        // A genuine FK violation keeps its own variant.
        let good = dump_to_string(&sample_db());
        let broken = good.replace("10\tMatch Point\t1", "10\tMatch Point\t99");
        let err = load_from_string(&broken).unwrap_err();
        assert!(
            matches!(err, StorageError::ForeignKeyViolation { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn every_truncation_is_handled_cleanly() {
        // A serving process may be handed a dump cut off at any byte. Most
        // prefixes are errors; a few are a smaller valid database (e.g. cut
        // right after the schema header) — but none may panic, and none may
        // conjure tuples the original did not have.
        let db = sample_db();
        let good = dump_to_string(&db);
        for end in 0..good.len() {
            match load_from_string(&good[..end]) {
                Err(_) => {}
                Ok(partial) => assert!(
                    partial.total_tuples() <= db.total_tuples(),
                    "prefix of {end} bytes produced extra tuples"
                ),
            }
        }
        // Cuts inside a relation or data block are always errors.
        let mid_relation = &good[..good.find("attr dname").unwrap()];
        assert!(matches!(
            load_from_string(mid_relation),
            Err(StorageError::Corrupt(_))
        ));
        let mid_data = &good[..good.find("Match Point").unwrap()];
        assert!(matches!(
            load_from_string(mid_data),
            Err(StorageError::Corrupt(_))
        ));
        assert!(load_from_string(&good).is_ok());
    }

    #[test]
    fn file_helpers_propagate_errors() {
        let dir = std::env::temp_dir();
        let path = dir.join("precis_io_helper_test.precisdb");
        dump_to_file(&sample_db(), &path).unwrap();
        let loaded = load_from_file(&path).unwrap();
        assert_eq!(loaded.total_tuples(), sample_db().total_tuples());
        std::fs::remove_file(&path).unwrap();

        let missing = load_from_file(dir.join("precis_io_no_such_file.precisdb"));
        assert!(matches!(missing, Err(StorageError::Io(_))), "{missing:?}");
        let unwritable = dump_to_file(&sample_db(), dir.join("no_dir/x.precisdb"));
        assert!(
            matches!(unwritable, Err(StorageError::Io(_))),
            "{unwritable:?}"
        );
    }

    #[test]
    fn dump_to_file_installs_atomically() {
        // The dump lands via temp file + rename: after a successful dump no
        // temp sibling remains, and re-dumping over an existing file
        // replaces it wholesale.
        let dir = std::env::temp_dir();
        let path = dir.join(format!("precis_io_atomic_{}.precisdb", std::process::id()));
        let tmp = dir.join(format!(
            "precis_io_atomic_{}.precisdb.tmp",
            std::process::id()
        ));
        dump_to_file(&sample_db(), &path).unwrap();
        assert!(!tmp.exists(), "temp file must not outlive the install");
        // Overwrite with a smaller database; the file is fully replaced.
        let mut small = sample_db();
        let movie = small.schema().relation_id("MOVIE").unwrap();
        small.delete(movie, crate::TupleId(0)).unwrap();
        dump_to_file(&small, &path).unwrap();
        assert!(!tmp.exists());
        let loaded = load_from_file(&path).unwrap();
        assert_eq!(loaded.total_tuples(), small.total_tuples());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tombstones_dump_as_holes_and_load_back_in_place() {
        let mut db = sample_db();
        let dir = db.schema().relation_id("DIRECTOR").unwrap();
        let movie = db.schema().relation_id("MOVIE").unwrap();
        db.insert(
            "DIRECTOR",
            vec![Value::from(3), Value::Null, Value::Null, Value::Null],
        )
        .unwrap();
        // A hole in the middle, a trailing one, and a relation left with
        // nothing but a tombstone.
        db.delete(movie, crate::TupleId(0)).unwrap();
        db.delete(dir, crate::TupleId(0)).unwrap();
        db.delete(dir, crate::TupleId(2)).unwrap();
        let text = dump_to_string(&db);
        assert!(
            text.ends_with(
                "data DIRECTOR\n\\-\n2\t\\N\t\\N\t\\N\n\\-\nend\ndata MOVIE\n\\-\nend\n"
            ),
            "{text}"
        );

        let mut loaded = load_from_string(&text).unwrap();
        assert_eq!(dump_to_string(&loaded), text);
        for rel in [dir, movie] {
            assert_eq!(loaded.table(rel).slot_count(), db.table(rel).slot_count());
            assert!(loaded.table(rel).slots().eq(db.table(rel).slots()));
        }
        assert_eq!(loaded.len(dir), 1);
        assert_eq!(loaded.tombstoned_slots(), 3);
        // The survivor kept its id, its key still resolves to it, the freed
        // keys are free again, and the next insert claims the next slot.
        assert_eq!(
            loaded.lookup_pk(dir, &Value::from(2)),
            Some(crate::TupleId(1))
        );
        assert_eq!(loaded.lookup_pk(dir, &Value::from(1)), None);
        let row = vec![Value::from(1), Value::Null, Value::Null, Value::Null];
        assert_eq!(loaded.insert_into(dir, row).unwrap(), crate::TupleId(3));

        // Compaction is the explicit way to renumber: the survivors move
        // down, in order, and nothing else changes.
        let compacted = db.compacted();
        assert_eq!(compacted.tombstoned_slots(), 0);
        assert_eq!(compacted.total_tuples(), db.total_tuples());
        assert_eq!(
            compacted.lookup_pk(dir, &Value::from(2)),
            Some(crate::TupleId(0))
        );
        assert!(!dump_to_string(&compacted).contains(HOLE));
    }
}
