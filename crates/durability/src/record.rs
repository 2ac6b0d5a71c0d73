//! The WAL record format: length-prefixed, checksummed binary frames.
//!
//! ```text
//! frame   := len:u32 LE | crc:u32 LE | payload[len]
//! payload := lsn:u64 LE | kind:u8 | body
//! kind    := 1 insert | 2 update | 3 delete
//! body(insert|update) := rel | tid:u64 LE | nvalues:u16 LE | value*
//! body(delete)        := rel | tid:u64 LE
//! rel     := u16 LE length-prefixed UTF-8 relation name
//! value   := 0 null | 1 int:i64 LE | 2 float:f64-bits LE
//!          | 3 bool:u8 | 4 text:u32-prefixed UTF-8
//! ```
//!
//! The CRC covers the whole payload (including the LSN), so a torn write —
//! a frame whose length field promises more bytes than the file holds, or
//! whose payload was only partially flushed — is detected at the frame
//! boundary and replay truncates there. Every frame is a [`WalOp`]: a log
//! only ever continues a snapshot, so it never has to say what the schema is.

use crate::crc::crc32;
use precis_storage::{StorageError, TupleId, Value, WalOp};

const KIND_INSERT: u8 = 1;
const KIND_UPDATE: u8 = 2;
const KIND_DELETE: u8 = 3;

/// Hard cap on a single frame payload (16 MiB): a torn length field cannot
/// make the reader attempt a multi-gigabyte allocation.
const MAX_PAYLOAD: u32 = 16 << 20;

fn corrupt(msg: impl Into<String>) -> StorageError {
    StorageError::Corrupt(msg.into())
}

/// An encode-time size violation: a length that does not fit its field
/// width would otherwise be silently truncated, producing a frame that
/// passes its CRC but decodes to wrong data (or a "trailing bytes"
/// corruption that cuts the log on replay).
fn oversized(what: &str, len: usize, max: usize) -> StorageError {
    StorageError::WalFailed(format!(
        "{what} of {len} bytes exceeds the record cap {max}"
    ))
}

fn put_str(out: &mut Vec<u8>, s: &str, wide: bool) -> Result<(), StorageError> {
    if wide {
        let len =
            u32::try_from(s.len()).map_err(|_| oversized("text", s.len(), u32::MAX as usize))?;
        out.extend_from_slice(&len.to_le_bytes());
    } else {
        let len = u16::try_from(s.len())
            .map_err(|_| oversized("relation name", s.len(), u16::MAX as usize))?;
        out.extend_from_slice(&len.to_le_bytes());
    }
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn put_value(out: &mut Vec<u8>, v: &Value) -> Result<(), StorageError> {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(2);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Bool(b) => {
            out.push(3);
            out.push(*b as u8);
        }
        Value::Text(s) => {
            out.push(4);
            put_str(out, s, true)?;
        }
    }
    Ok(())
}

fn put_values(out: &mut Vec<u8>, values: &[Value]) -> Result<(), StorageError> {
    let n = u16::try_from(values.len())
        .map_err(|_| oversized("row", values.len(), u16::MAX as usize))?;
    out.extend_from_slice(&n.to_le_bytes());
    for v in values {
        put_value(out, v)?;
    }
    Ok(())
}

/// Serialize one operation into a complete frame (header + payload). Fails —
/// instead of silently truncating a length field — when a relation name,
/// value count, or text value exceeds its field width, or when the whole
/// payload would exceed the 16 MiB cap (the reader rejects such frames).
pub fn encode_frame(lsn: u64, op: &WalOp) -> Result<Vec<u8>, StorageError> {
    let mut payload = Vec::with_capacity(64);
    payload.extend_from_slice(&lsn.to_le_bytes());
    match op {
        WalOp::Insert {
            relation,
            tid,
            values,
        } => {
            payload.push(KIND_INSERT);
            put_str(&mut payload, relation, false)?;
            payload.extend_from_slice(&tid.0.to_le_bytes());
            put_values(&mut payload, values)?;
        }
        WalOp::Update {
            relation,
            tid,
            values,
        } => {
            payload.push(KIND_UPDATE);
            put_str(&mut payload, relation, false)?;
            payload.extend_from_slice(&tid.0.to_le_bytes());
            put_values(&mut payload, values)?;
        }
        WalOp::Delete { relation, tid } => {
            payload.push(KIND_DELETE);
            put_str(&mut payload, relation, false)?;
            payload.extend_from_slice(&tid.0.to_le_bytes());
        }
    }
    if payload.len() > MAX_PAYLOAD as usize {
        return Err(oversized(
            "record payload",
            payload.len(),
            MAX_PAYLOAD as usize,
        ));
    }
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    Ok(frame)
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        if self.buf.len() - self.pos < n {
            return Err(corrupt("payload shorter than its fields"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, StorageError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, StorageError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, StorageError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, StorageError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self, wide: bool) -> Result<String, StorageError> {
        let n = if wide {
            self.u32()? as usize
        } else {
            self.u16()? as usize
        };
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("non-UTF-8 string in record"))
    }

    fn value(&mut self) -> Result<Value, StorageError> {
        match self.u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Int(i64::from_le_bytes(
                self.take(8)?.try_into().unwrap(),
            ))),
            2 => Ok(Value::Float(f64::from_bits(u64::from_le_bytes(
                self.take(8)?.try_into().unwrap(),
            )))),
            3 => Ok(Value::Bool(self.u8()? != 0)),
            4 => Ok(Value::Text(self.str(true)?)),
            tag => Err(corrupt(format!("unknown value tag {tag}"))),
        }
    }
}

/// Decode one frame starting at `buf[offset..]`.
///
/// * `Ok(None)` — clean end of log (no bytes left).
/// * `Ok(Some((consumed, lsn, op)))` — a valid frame.
/// * `Err(Corrupt)` — a torn or corrupt frame at this offset: the caller
///   should truncate the log here.
pub(crate) fn decode_frame(
    buf: &[u8],
    offset: usize,
) -> Result<Option<(usize, u64, WalOp)>, StorageError> {
    let rest = &buf[offset..];
    if rest.is_empty() {
        return Ok(None);
    }
    if rest.len() < 8 {
        return Err(corrupt("torn frame header"));
    }
    let len = u32::from_le_bytes(rest[0..4].try_into().unwrap());
    if len > MAX_PAYLOAD {
        return Err(corrupt(format!("frame length {len} exceeds cap")));
    }
    let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
    let len = len as usize;
    if rest.len() < 8 + len {
        return Err(corrupt("torn frame payload"));
    }
    let payload = &rest[8..8 + len];
    if crc32(payload) != crc {
        return Err(corrupt("checksum mismatch"));
    }
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    let lsn = c.u64()?;
    let kind = c.u8()?;
    let op = match kind {
        KIND_INSERT | KIND_UPDATE => {
            let relation = c.str(false)?;
            let tid = TupleId(c.u64()?);
            let n = c.u16()? as usize;
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                values.push(c.value()?);
            }
            if kind == KIND_INSERT {
                WalOp::Insert {
                    relation,
                    tid,
                    values,
                }
            } else {
                WalOp::Update {
                    relation,
                    tid,
                    values,
                }
            }
        }
        KIND_DELETE => WalOp::Delete {
            relation: c.str(false)?,
            tid: TupleId(c.u64()?),
        },
        other => return Err(corrupt(format!("unknown record kind {other}"))),
    };
    if c.pos != payload.len() {
        return Err(corrupt("trailing bytes in record payload"));
    }
    Ok(Some((8 + len, lsn, op)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<WalOp> {
        vec![
            WalOp::Insert {
                relation: "MOVIE".into(),
                tid: TupleId(0),
                values: vec![
                    Value::from(42),
                    Value::from("Match\tPoint"),
                    Value::Null,
                    Value::from(2.5),
                    Value::Float(f64::NAN),
                    Value::from(true),
                ],
            },
            WalOp::Update {
                relation: "MOVIE".into(),
                tid: TupleId(7),
                values: vec![Value::from(1)],
            },
            WalOp::Delete {
                relation: "R".into(),
                tid: TupleId(u64::MAX),
            },
        ]
    }

    #[test]
    fn frames_round_trip() {
        for (i, op) in sample_ops().into_iter().enumerate() {
            let frame = encode_frame(i as u64 + 1, &op).unwrap();
            let (consumed, lsn, decoded) = decode_frame(&frame, 0).unwrap().unwrap();
            assert_eq!(consumed, frame.len());
            assert_eq!(lsn, i as u64 + 1);
            assert_eq!(decoded, op);
        }
    }

    /// One insert, one update and one delete, encoded at LSNs 5, 6, 7: the
    /// bytes a log on disk holds, so a data directory written by an older
    /// build replays on this one.
    const PINNED_FRAMES: &str = "\
        3f000000fd01c3ca05000000000000000105004d4f5649450300000000000000050001\
        2a00000000000000040b0000004d6174636809506f696e740002000000000000044003\
        012a000000e8f88c7c06000000000000000205004d4f56494507000000000000000200\
        01ffffffffffffffff0402000000c3a914000000ab5943400700000000000000030100\
        52ffffffffffffffff";

    #[test]
    fn frame_bytes_are_pinned() {
        let ops = [
            WalOp::Insert {
                relation: "MOVIE".into(),
                tid: TupleId(3),
                values: vec![
                    Value::from(42),
                    Value::from("Match\tPoint"),
                    Value::Null,
                    Value::from(2.5),
                    Value::from(true),
                ],
            },
            WalOp::Update {
                relation: "MOVIE".into(),
                tid: TupleId(7),
                values: vec![Value::from(-1), Value::from("é")],
            },
            WalOp::Delete {
                relation: "R".into(),
                tid: TupleId(u64::MAX),
            },
        ];
        let mut hex = String::new();
        for (lsn, op) in (5..).zip(&ops) {
            for b in encode_frame(lsn, op).unwrap() {
                hex.push_str(&format!("{b:02x}"));
            }
        }
        assert_eq!(hex, PINNED_FRAMES);
    }

    #[test]
    fn every_truncation_is_a_clean_corrupt_error() {
        let mut buf = Vec::new();
        for (i, op) in sample_ops().iter().enumerate() {
            buf.extend_from_slice(&encode_frame(i as u64, op).unwrap());
        }
        for end in 0..buf.len() {
            // Walk frames until the cut; the error must be Corrupt, never a
            // panic, and the prefix before the cut must decode intact.
            let mut off = 0;
            loop {
                match decode_frame(&buf[..end], off) {
                    Ok(Some((n, _, _))) => off += n,
                    Ok(None) => break,
                    Err(e) => {
                        assert!(matches!(e, StorageError::Corrupt(_)), "cut at {end}: {e:?}");
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn bit_flips_are_detected() {
        let frame = encode_frame(9, &sample_ops()[0]).unwrap();
        for i in 8..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            assert!(
                decode_frame(&bad, 0).is_err(),
                "payload flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn absurd_length_fields_are_rejected_without_allocating() {
        let mut frame = encode_frame(1, &sample_ops()[2]).unwrap();
        frame[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_frame(&frame, 0).is_err());
    }

    #[test]
    fn empty_buffer_is_clean_eof() {
        assert!(decode_frame(&[], 0).unwrap().is_none());
    }

    #[test]
    fn oversized_lengths_error_instead_of_truncating() {
        // A relation name wider than its u16 length field.
        let e = encode_frame(
            0,
            &WalOp::Delete {
                relation: "R".repeat((u16::MAX as usize) + 1),
                tid: TupleId(0),
            },
        )
        .unwrap_err();
        assert!(matches!(&e, StorageError::WalFailed(m) if m.contains("relation name")));
        // A row with more values than the u16 count field can carry.
        let e = encode_frame(
            0,
            &WalOp::Insert {
                relation: "R".into(),
                tid: TupleId(0),
                values: vec![Value::Null; (u16::MAX as usize) + 1],
            },
        )
        .unwrap_err();
        assert!(matches!(&e, StorageError::WalFailed(m) if m.contains("row")));
        // A payload past MAX_PAYLOAD (one big text value).
        let e = encode_frame(
            0,
            &WalOp::Insert {
                relation: "R".into(),
                tid: TupleId(0),
                values: vec![Value::from("x".repeat(MAX_PAYLOAD as usize + 1))],
            },
        )
        .unwrap_err();
        assert!(matches!(&e, StorageError::WalFailed(m) if m.contains("payload")));
    }
}
