//! Property tests for the bounded trace pipeline's accounting invariant:
//! under arbitrary producer/consumer interleavings, every enqueued line
//! is either drained (written) or recorded as dropped — never silently
//! lost, never double-counted.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use prio_obs::{JsonlSink, Ring, TracePipeline};
use proptest::prelude::*;

/// A `Write` that appends into a shared buffer so tests can count the
/// lines the writer thread actually emitted.
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Raw ring: drained + rejected == pushed, for random capacities,
    /// producer counts, and per-producer volumes, with a consumer racing
    /// the producers (random interleavings come from the scheduler).
    #[test]
    fn ring_drained_plus_rejected_equals_pushed(
        capacity in 1usize..128,
        producers in 1usize..5,
        per_producer in 1usize..800,
    ) {
        let ring = Ring::with_capacity(capacity);
        let rejected = AtomicUsize::new(0);
        let drained = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for p in 0..producers {
                let (ring, rejected, done) = (&ring, &rejected, &done);
                scope.spawn(move || {
                    for i in 0..per_producer {
                        if ring.push(format!("{p}:{i}")).is_err() {
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    done.fetch_add(1, Ordering::Release);
                });
            }
            let (ring, drained, done) = (&ring, &drained, &done);
            scope.spawn(move || loop {
                match ring.pop() {
                    Some(_) => {
                        drained.fetch_add(1, Ordering::Relaxed);
                    }
                    None if done.load(Ordering::Acquire) == producers => {
                        while ring.pop().is_some() {
                            drained.fetch_add(1, Ordering::Relaxed);
                        }
                        break;
                    }
                    None => std::thread::yield_now(),
                }
            });
        });
        prop_assert_eq!(
            drained.load(Ordering::Relaxed) + rejected.load(Ordering::Relaxed),
            producers * per_producer
        );
        prop_assert!(ring.is_empty());
    }

    /// Full pipeline: written + dropped == emitted, and the lines on the
    /// output stream agree with the written count exactly.
    #[test]
    fn pipeline_written_plus_dropped_equals_emitted(
        capacity in 1usize..64,
        producers in 1usize..5,
        per_producer in 1usize..600,
    ) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let sink = JsonlSink::to_writer(Box::new(SharedBuf(buf.clone())));
        let pipeline = TracePipeline::start(sink, capacity, 1, |line: &String, out: &mut String| {
            out.push_str(line)
        });
        std::thread::scope(|scope| {
            for p in 0..producers {
                let pipeline = &pipeline;
                scope.spawn(move || {
                    for i in 0..per_producer {
                        pipeline.chunk(vec![format!("{{\"p\":{p},\"i\":{i}}}")]);
                    }
                });
            }
        });
        let (_sink, stats, result) = pipeline.finish();
        prop_assert!(result.is_ok());
        prop_assert_eq!(stats.enqueued, stats.written);
        prop_assert_eq!(
            stats.written + stats.dropped,
            (producers * per_producer) as u64
        );
        let written_lines = buf
            .lock()
            .unwrap()
            .iter()
            .filter(|&&b| b == b'\n')
            .count() as u64;
        prop_assert_eq!(written_lines, stats.written);
    }
}
