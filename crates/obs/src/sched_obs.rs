//! Span vocabulary for the server's cost-aware scheduler.
//!
//! The scheduler emits one span per admission decision and one per
//! execution; keeping the names and field keys here (rather than as string
//! literals scattered through `precis-server`) makes them greppable,
//! typo-proof, and assertable from tests that record a trace.
//!
//! | Span                | When                                        | Fields |
//! |---------------------|---------------------------------------------|--------|
//! | [`SPAN_ADMIT`]      | a query is parsed and priced at admission   | [`FIELD_PREDICTED_NS`], [`FIELD_CLASS`] |
//! | [`SPAN_SHED`]       | admission refuses the query with 429        | [`FIELD_PREDICTED_NS`], [`FIELD_BACKLOG_NS`], [`FIELD_RETRY_AFTER_MS`] |
//! | [`SPAN_EXECUTE`]    | a worker runs a queued query and answers it | [`FIELD_PREDICTED_NS`], [`FIELD_CLASS`], [`FIELD_QUEUE_WAIT_NS`] |

/// A query was parsed eagerly at admission and priced with Formula 2.
pub const SPAN_ADMIT: &str = "sched.admit";
/// Admission shed the query (predicted cost cannot meet its deadline given
/// queue pressure, or the ready queue is at capacity).
pub const SPAN_SHED: &str = "sched.shed";
/// A worker executed a queued query and answered it.
pub const SPAN_EXECUTE: &str = "sched.execute";

/// Predicted Formula-2 cost, nanoseconds (0 when no model is calibrated).
pub const FIELD_PREDICTED_NS: &str = "predicted_ns";
/// Deadline class: 0 = interactive, 1 = batch.
pub const FIELD_CLASS: &str = "class";
/// Accept to execution start, nanoseconds: the profile's `queue_wait` phase.
pub const FIELD_QUEUE_WAIT_NS: &str = "queue_wait_ns";
/// Estimated queue backlog ahead of the decision, nanoseconds.
pub const FIELD_BACKLOG_NS: &str = "backlog_ns";
/// The retry hint handed back with a 429.
pub const FIELD_RETRY_AFTER_MS: &str = "retry_after_ms";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer;

    #[test]
    fn scheduler_spans_are_recorded_with_their_fields() {
        let mut trace = tracer::Trace::new(8);
        {
            let _entered = trace.enter();
            {
                let admit = tracer::span(SPAN_ADMIT);
                admit.field(FIELD_PREDICTED_NS, 12_000);
                admit.field(FIELD_CLASS, 0);
            }
            let exec = tracer::span(SPAN_EXECUTE);
            exec.field(FIELD_CLASS, 1);
        }
        let (spans, _) = trace.finish();
        let admit = spans.iter().find(|s| s.name == SPAN_ADMIT).unwrap();
        assert_eq!(
            *admit.fields,
            [(FIELD_PREDICTED_NS, 12_000), (FIELD_CLASS, 0)]
        );
        let exec = spans.iter().find(|s| s.name == SPAN_EXECUTE).unwrap();
        assert_eq!(*exec.fields, [(FIELD_CLASS, 1)]);
    }
}
