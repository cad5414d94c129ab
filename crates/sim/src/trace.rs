//! The simulator's trace events and the consumer interface they stream
//! through.

use prio_graph::NodeId;
use std::cell::RefCell;

/// One simulator event. `Copy` is load-bearing: the streaming trace
/// writer enqueues events by value into the bounded ring, so the hot
/// emission path is a register-sized memcpy, never an allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A batch of worker requests arrived.
    BatchArrived {
        /// Arrival time.
        time: f64,
        /// Number of requests in the batch.
        size: u64,
        /// How many jobs were assigned from this batch.
        assigned: usize,
        /// Whether the batch found pending work but nothing assignable.
        stalled: bool,
    },
    /// A job entered the run (schema v3): one per DAG node at run start,
    /// in node-id order, before any scheduling happens.
    JobSubmitted {
        /// Submission time (always the run's start, `0.0`).
        time: f64,
        /// The job.
        job: NodeId,
    },
    /// A job became eligible to run — all parents done (schema v3).
    /// Sources are eligible at time `0.0`; other jobs when their last
    /// parent completes; failed jobs re-enter eligibility via this event
    /// (legacy failure model) or `JobRetried` (fault-injection layer).
    JobEligible {
        /// Eligibility time.
        time: f64,
        /// The job.
        job: NodeId,
    },
    /// A job was handed to a worker.
    JobAssigned {
        /// Assignment time.
        time: f64,
        /// The job.
        job: NodeId,
        /// Scheduled completion time.
        completes_at: f64,
        /// Serving worker id (schema v3): sequential per run over
        /// granted requests. v1/v2 traces default it to 0 on read.
        worker: u64,
    },
    /// A worker returned a job's results.
    JobCompleted {
        /// Completion time.
        time: f64,
        /// The job.
        job: NodeId,
    },
    /// A worker failed; the job re-entered the eligible queue
    /// (robustness extension; never emitted under the paper's reliable
    /// model).
    JobFailed {
        /// Failure time.
        time: f64,
        /// The job.
        job: NodeId,
    },
    /// A transiently failed job re-entered the eligible queue after its
    /// retry backoff (fault-injection layer only).
    JobRetried {
        /// Re-entry time.
        time: f64,
        /// The job.
        job: NodeId,
        /// The attempt number about to run (1-based; attempt 2 is the
        /// first retry).
        attempt: u32,
        /// Backoff delay applied before this re-entry, in sim timeunits.
        delay: f64,
    },
    /// The worker pool went down; every in-flight job failed
    /// transiently (fault-injection layer only).
    WorkerDown {
        /// Outage time.
        time: f64,
        /// In-flight jobs killed by the outage.
        lost: u64,
    },
    /// The worker pool came back up (fault-injection layer only).
    WorkerUp {
        /// Recovery time.
        time: f64,
    },
}

/// A recorded event sequence.
pub type Trace = Vec<TraceEvent>;

/// Events per hand-off, on both sides of the streaming writer: the
/// engine buffers this many locally between [`TraceConsumer`] calls (a
/// plain `Vec` push per event, one `consume_batch` per run), and the
/// `StreamingTraceWriter` ships chunks of this many through the trace
/// ring, so a full-rate batch becomes exactly one chunk. Amortizes
/// queue traffic to a fraction of a nanosecond per event while bounding
/// both the latency of an event reaching disk and the drop granularity.
pub const TRACE_CHUNK_EVENTS: usize = 256;

/// A streaming consumer of trace events, called synchronously at each
/// emission site.
///
/// `consume` takes `&self` so one consumer can be shared by reference
/// with the engine; implementations needing state use interior
/// mutability (the production consumer — `StreamingTraceWriter` over the
/// `prio-obs` trace pipeline — only ever enqueues into a lock-free
/// ring). Implementations must not block: the simulator clock runs
/// through this call.
pub trait TraceConsumer {
    /// Receives one event, in emission order.
    fn consume(&self, event: &TraceEvent);

    /// Receives a run of consecutive events, in emission order. The
    /// engine batches emissions ([`TRACE_CHUNK_EVENTS`] at a time) so
    /// the consumer boundary is crossed once per batch instead of once
    /// per event; consumers that can ingest a slice wholesale (the
    /// production `StreamingTraceWriter` memcpys it into its chunk
    /// buffer) override this. The default forwards to [`Self::consume`]
    /// per event, so per-event consumers observe the same sequence
    /// either way.
    fn consume_batch(&self, events: &[TraceEvent]) {
        for event in events {
            self.consume(event);
        }
    }

    /// Called once by the engine when a run finishes, after the last
    /// event. Consumers that batch events internally (the production
    /// `StreamingTraceWriter` chunks them to amortize queue traffic)
    /// hand their tail downstream here; the default is a no-op.
    fn flush(&self) {}
}

/// The in-memory collector: `simulate_streamed(.., &RefCell::new(Vec::new()))`
/// records every event, in emission order, for tests and in-process
/// analyses that want the whole [`Trace`].
impl TraceConsumer for RefCell<Trace> {
    fn consume(&self, event: &TraceEvent) {
        self.borrow_mut().push(*event);
    }

    fn consume_batch(&self, events: &[TraceEvent]) {
        self.borrow_mut().extend_from_slice(events);
    }
}
