//! The load loops: open (arrivals on a schedule, latency from the due time),
//! closed (the next request after the previous answer), and the writer.

use crate::http::{hash64, Client};
use crate::workload::{Batch, Writer, MUTATE_LIMIT_MS};
use precis_server::json::{self, Json};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// When a run measures. Requests are sent from `from - warm_up` on; only
/// those due within `[from, until)` count.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub from: Instant,
    pub until: Instant,
}

impl Window {
    pub fn holds(&self, at: Instant) -> bool {
        self.from <= at && at < self.until
    }

    pub fn seconds(&self) -> f64 {
        (self.until - self.from).as_secs_f64()
    }
}

pub fn sleep_until(at: Instant) {
    if let Some(wait) = at.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

/// What one client saw inside the window.
#[derive(Debug, Default)]
pub struct OpLog {
    /// Latency of each operation answered `200` with the right body, ms.
    pub ok_ms: Vec<f64>,
    pub attempted: u64,
    /// Not `200`, wrong body, or no answer.
    pub failed: u64,
    /// Answered correctly within the latency limit.
    pub within_limit: u64,
    /// Open loop: how long after its due time each request was sent, ms.
    pub late_ms: Vec<f64>,
}

impl OpLog {
    pub fn absorb(&mut self, other: OpLog) {
        self.ok_ms.extend(other.ok_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.within_limit += other.within_limit;
        self.late_ms.extend(other.late_ms);
    }

    fn record(&mut self, ok: bool, latency: Duration, limit_ms: f64) {
        self.attempted += 1;
        if ok {
            let ms = latency.as_secs_f64() * 1e3;
            self.ok_ms.push(ms);
            if ms <= limit_ms {
                self.within_limit += 1;
            }
        } else {
            self.failed += 1;
        }
    }
}

/// What a query client sends and how its answers are judged.
pub struct QueryPlan<'a> {
    pub addr: SocketAddr,
    pub bodies: &'a [String],
    /// Expected `(length, hash)` per body; `None` checks only that a `200`
    /// carries an answer object.
    pub expected: Option<&'a [(usize, u64)]>,
    pub limit_ms: f64,
    pub window: Window,
}

impl QueryPlan<'_> {
    fn body_is_right(&self, id: usize, body: &[u8]) -> bool {
        match self.expected {
            Some(expected) => expected[id] == (body.len(), hash64(body)),
            None => body.starts_with(b"{\"tokens\": [") && body.ends_with(b"}\n"),
        }
    }

    /// Send request `id`; `due` is when it was meant to leave (now, in a
    /// closed loop) and is where its latency counts from.
    fn send(&self, client: &mut Client, id: usize, due: Instant, log: &mut OpLog) {
        let outcome = client.post("/v1/query", &self.bodies[id]);
        if !self.window.holds(due) {
            return;
        }
        let (ok, done) = match outcome {
            Ok(reply) => (
                reply.status == 200 && self.body_is_right(id, client.body(&reply)),
                reply.phases.last_byte,
            ),
            Err(_) => (false, Instant::now()),
        };
        log.record(ok, done - due, self.limit_ms);
    }
}

/// Closed loop: one request in flight, the next drawn from `ids` as soon as
/// the answer is in, until the window ends.
pub fn closed_loop(plan: &QueryPlan, mut ids: impl Iterator<Item = usize>) -> OpLog {
    let mut client = Client::new(plan.addr);
    let mut log = OpLog::default();
    while Instant::now() < plan.window.until {
        let id = ids.next().expect("request streams are endless");
        plan.send(&mut client, id, Instant::now(), &mut log);
    }
    log
}

/// Open loop: each `(due, id)` is sent at its due time, or as soon after as
/// this client's one connection is free; the wait counts as latency.
pub fn open_loop(plan: &QueryPlan, arrivals: impl Iterator<Item = (Instant, usize)>) -> OpLog {
    let mut client = Client::new(plan.addr);
    let mut log = OpLog::default();
    for (due, id) in arrivals {
        sleep_until(due);
        if plan.window.holds(due) {
            let late = Instant::now().saturating_duration_since(due);
            log.late_ms.push(late.as_secs_f64() * 1e3);
        }
        plan.send(&mut client, id, due, &mut log);
    }
    log
}

/// Keys the server acknowledged writing, for the durability check.
#[derive(Debug, Default)]
pub struct Acked {
    pub inserted: Vec<(&'static str, u64)>,
    pub deleted: Vec<u64>,
}

/// `(inserted_tids, checkpointed)` of a `/v1/mutate` answer that applied the
/// whole batch.
fn parse_mutate_answer(body: &[u8], ops: usize) -> Option<(Vec<u64>, bool)> {
    let doc = json::parse(std::str::from_utf8(body).ok()?).ok()?;
    if doc.get("applied")?.as_usize()? != ops {
        return None;
    }
    let Json::Array(tids) = doc.get("inserted_tids")? else {
        return None;
    };
    let tids = tids
        .iter()
        .map(|t| t.as_usize().map(|t| t as u64))
        .collect::<Option<Vec<_>>>()?;
    let Json::Bool(checkpointed) = doc.get("checkpointed")? else {
        return None;
    };
    Some((tids, *checkpointed))
}

/// The writer: closed loop of `/v1/mutate` batches until `until`. Every
/// acknowledged batch is remembered, in or out of the window.
pub fn write_loop(addr: SocketAddr, writer: &mut Writer, window: Window) -> (OpLog, Acked) {
    let mut client = Client::new(addr);
    let mut log = OpLog::default();
    let mut acked = Acked::default();
    while Instant::now() < window.until {
        let batch: Batch = writer.next_batch();
        let start = Instant::now();
        let answer = client
            .post("/v1/mutate", &batch.body)
            .ok()
            .and_then(|reply| {
                let parsed = (reply.status == 200)
                    .then(|| parse_mutate_answer(client.body(&reply), batch.ops))
                    .flatten()?;
                Some((parsed, reply.phases.last_byte))
            });
        let (ok, done) = match answer {
            Some(((tids, checkpointed), done)) => {
                writer.acknowledge(&batch, &tids, checkpointed);
                acked.inserted.extend(&batch.inserts);
                acked.deleted.extend(batch.delete);
                (true, done)
            }
            None => (false, Instant::now()),
        };
        if window.holds(start) {
            log.record(ok, done - start, MUTATE_LIMIT_MS);
        }
    }
    (log, acked)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutate_answers_must_cover_the_whole_batch() {
        let full = b"{\"applied\": 8, \"inserted_tids\": [5, 6], \"durable_lsn\": 9, \"checkpointed\": false}\n";
        assert_eq!(parse_mutate_answer(full, 8), Some((vec![5, 6], false)));
        assert_eq!(parse_mutate_answer(full, 7), None);
        assert_eq!(parse_mutate_answer(b"{\"applied\": 8}", 8), None);
        assert_eq!(parse_mutate_answer(b"not json", 8), None);
    }

    #[test]
    fn a_failed_or_slow_operation_misses_the_limit() {
        let mut log = OpLog::default();
        log.record(true, Duration::from_millis(2), 5.0);
        log.record(true, Duration::from_millis(9), 5.0);
        log.record(false, Duration::from_millis(1), 5.0);
        assert_eq!((log.attempted, log.failed, log.within_limit), (3, 1, 1));
        assert_eq!(log.ok_ms.len(), 2);
    }
}
