//! The daemon's client: a closed loop over two TCP connections, because
//! each caller (a submit wrapper) blocks on its reply. Latency runs from
//! just before a request is written until its whole reply line is read.
//! Every reply is checked after its latency is taken.

use crate::check::{self, ReplyTracker};
use crate::gen::{self, Families, Graph, PoolEntry, FORMATS};
use crate::minijson;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Closed-loop clients, one connection each.
pub const CONNECTIONS: usize = 2;

/// One request of the mix. `extra` is the job that makes a pool DAG
/// never-seen (a new child of job `extra.1`).
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    pub id: String,
    pub entry: usize,
    pub input: &'static str,
    pub output: &'static str,
    pub extra: Option<(String, u32)>,
}

impl Planned {
    pub fn graph(&self, pool: &[PoolEntry]) -> Graph {
        let g = &pool[self.entry].graph;
        match &self.extra {
            Some((name, parent)) => g.with_extra(name, *parent),
            None => g.clone(),
        }
    }

    pub fn workflow(&self, pool: &[PoolEntry]) -> String {
        let extra = self.extra.as_ref().map(|(n, p)| (n.as_str(), *p));
        gen::render(self.input, &pool[self.entry].graph, extra, true)
    }

    pub fn line(&self, pool: &[PoolEntry]) -> String {
        request_line(&self.id, self.input, self.output, &self.workflow(pool))
    }
}

pub fn request_line(id: &str, input: &str, output: &str, workflow: &str) -> String {
    let mut s = String::with_capacity(workflow.len() + 128);
    s.push_str("{\"v\":1,\"id\":");
    minijson::quote(id, &mut s);
    s.push_str(",\"verb\":\"prioritize\",\"format\":");
    minijson::quote(input, &mut s);
    s.push_str(",\"output\":");
    minijson::quote(output, &mut s);
    s.push_str(",\"workflow\":");
    minijson::quote(workflow, &mut s);
    s.push('}');
    s
}

/// The request mix of connection `conn`: half the requests are never-seen
/// DAGs (a pool DAG plus one unique job), half repeat a pool entry. A
/// quarter of the repeats change the input or output format, which hits
/// the cached schedule but misses the rendered output the first time.
/// Misses and repeats each walk a seeded shuffle of the pool, so every
/// stretch of the run asks for about the same work and the same cache
/// growth.
pub struct Mix {
    rng: SmallRng,
    conn: usize,
    next: u64,
    order: Vec<usize>,
    cursor: [usize; 2],
}

impl Mix {
    pub fn new(seed: u64, conn: usize, pool_len: usize) -> Mix {
        let mut rng =
            SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(conn as u64 + 1));
        let mut order: Vec<usize> = (0..pool_len).collect();
        for i in (1..pool_len).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        Mix {
            rng,
            conn,
            next: 0,
            order,
            cursor: [0, pool_len / 2],
        }
    }

    pub fn next(&mut self, pool: &[PoolEntry]) -> Planned {
        let id = format!("c{}-{}", self.conn, self.next);
        self.next += 1;
        let miss = self.rng.gen_bool(0.5);
        let cursor = &mut self.cursor[usize::from(miss)];
        let entry = self.order[*cursor % self.order.len()];
        *cursor += 1;
        let primary = pool[entry].format;
        if miss {
            let parent = self.rng.gen_range(0..pool[entry].graph.num_jobs()) as u32;
            let name = format!("x{}_{}", self.conn, self.next);
            Planned {
                id,
                entry,
                input: primary,
                output: primary,
                extra: Some((name, parent)),
            }
        } else if self.rng.gen_bool(0.75) {
            Planned {
                id,
                entry,
                input: primary,
                output: primary,
                extra: None,
            }
        } else {
            let input = FORMATS[self.rng.gen_range(0..FORMATS.len())];
            let output = FORMATS[self.rng.gen_range(0..FORMATS.len())];
            Planned {
                id,
                entry,
                input,
                output,
                extra: None,
            }
        }
    }
}

pub fn digest(text: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    tracker: ReplyTracker,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::with_capacity(1 << 20, s.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer: s,
            reader,
            tracker: ReplyTracker::default(),
        })
    }

    /// Sends one line and reads the reply line; returns it with the time
    /// between the two.
    fn call(&mut self, line: &str, reply: &mut String) -> Result<Duration, String> {
        reply.clear();
        let t0 = Instant::now();
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| e.to_string())?;
        self.writer.write_all(b"\n").map_err(|e| e.to_string())?;
        let n = self.reader.read_line(reply).map_err(|e| e.to_string())?;
        let dt = t0.elapsed();
        if n == 0 {
            return Err("daemon closed the connection".into());
        }
        Ok(dt)
    }
}

/// Sends each pool DAG once in its own format (the warm-up), over the same
/// connections the timed loop uses, checks the replies, and saves each
/// output for the later comparisons. Returns the pool's mean eligibility
/// measure.
pub fn warm(addr: &str, pool: &[PoolEntry], dir: &Path) -> Result<f64, String> {
    let served = dir.join("served");
    std::fs::create_dir_all(&served).map_err(|e| e.to_string())?;
    let sums: Vec<Result<f64, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let served = &served;
                scope.spawn(move || -> Result<f64, String> {
                    let mut conn = Conn::open(addr)?;
                    let mut reply = String::new();
                    let mut eligible = 0.0;
                    for (i, e) in pool.iter().enumerate().skip(c).step_by(CONNECTIONS) {
                        let id = format!("warm-{i}");
                        let text = gen::render(e.format, &e.graph, None, true);
                        conn.call(&request_line(&id, e.format, e.format, &text), &mut reply)?;
                        let r = conn.tracker.accept(&id, reply.trim_end())?;
                        let prio = check::priorities_from_output(&r.format, &r.output, &e.graph)
                            .map_err(|m| format!("warm-{i}: {m}"))?;
                        eligible += check::mean_eligible(&e.graph, &prio);
                        std::fs::write(served.join(format!("{i}.out")), &r.output)
                            .map_err(|e| e.to_string())?;
                    }
                    Ok(eligible)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("warm-up thread panicked".into()))
            })
            .collect()
    });
    let mut total = 0.0;
    for s in sums {
        total += s?;
    }
    Ok(total / pool.len() as f64)
}

/// One logged request, for the replay: the send order, the request and the
/// digest of the output the daemon returned.
pub struct Logged {
    pub seq: u64,
    pub planned: Planned,
    pub digest: u64,
}

/// What one connection has seen so far.
#[derive(Default)]
struct Tally {
    hit_us: Vec<f64>,
    miss_us: Vec<f64>,
    failed: u64,
    errors: Vec<String>,
    log: Vec<Logged>,
}

/// One closed-loop client per connection. The loop runs in slices
/// ([`Session::run_for`]) so the caller can interleave other work with it;
/// connections, request streams and checks carry over between slices.
pub struct Session<'p> {
    pool: &'p [PoolEntry],
    clients: Vec<(Conn, Mix, Tally)>,
    /// The first reply to each (entry, input, output); every later reply to
    /// the same request text must repeat it byte for byte.
    first: Mutex<HashMap<(usize, &'static str, &'static str), String>>,
    seq: AtomicU64,
    pub elapsed: f64,
}

impl<'p> Session<'p> {
    pub fn open(
        addr: &str,
        pool: &'p [PoolEntry],
        dir: &Path,
        seed: u64,
    ) -> Result<Session<'p>, String> {
        let mut first = HashMap::new();
        for (i, e) in pool.iter().enumerate() {
            let out = std::fs::read_to_string(dir.join("served").join(format!("{i}.out")))
                .map_err(|e| e.to_string())?;
            first.insert((i, e.format, e.format), out);
        }
        let clients = (0..CONNECTIONS)
            .map(|c| {
                Ok((
                    Conn::open(addr)?,
                    Mix::new(seed, c, pool.len()),
                    Tally::default(),
                ))
            })
            .collect::<Result<_, String>>()?;
        Ok(Session {
            pool,
            clients,
            first: Mutex::new(first),
            seq: AtomicU64::new(0),
            elapsed: 0.0,
        })
    }

    /// Runs every client's closed loop for `seconds`.
    pub fn run_for(&mut self, seconds: f64) -> Result<(), String> {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let (pool, first, seq) = (self.pool, &self.first, &self.seq);
        let results: Vec<Result<(), String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|(conn, mix, tally)| {
                    scope.spawn(move || -> Result<(), String> {
                        let mut reply = String::new();
                        while Instant::now() < deadline {
                            let p = mix.next(pool);
                            let line = p.line(pool);
                            let s = seq.fetch_add(1, Ordering::Relaxed);
                            let dt = conn.call(&line, &mut reply)?;
                            match check_reply(&mut conn.tracker, &p, reply.trim_end(), pool, first)
                            {
                                Ok((cached, output)) => {
                                    let us = dt.as_secs_f64() * 1e6;
                                    if cached {
                                        tally.hit_us.push(us)
                                    } else {
                                        tally.miss_us.push(us)
                                    }
                                    tally.log.push(Logged {
                                        seq: s,
                                        planned: p,
                                        digest: digest(&output),
                                    });
                                }
                                Err(m) => {
                                    tally.failed += 1;
                                    if tally.errors.len() < 5 {
                                        tally.errors.push(format!("{}: {m}", p.id));
                                    }
                                }
                            }
                        }
                        Ok(())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".into()))
                })
                .collect()
        });
        self.elapsed += start.elapsed().as_secs_f64();
        results.into_iter().collect()
    }

    /// Ends the session: asks the daemon for `stats` and merges what the
    /// clients saw.
    pub fn finish(self, addr: &str) -> Result<RunSummary, String> {
        let mut sum = RunSummary {
            attempted: 0,
            failed: 0,
            hit_us: Vec::new(),
            miss_us: Vec::new(),
            elapsed: self.elapsed,
            errors: Vec::new(),
            stats: minijson::Value::Null,
            log: Vec::new(),
        };
        for (_, _, t) in self.clients {
            sum.attempted += (t.hit_us.len() + t.miss_us.len()) as u64 + t.failed;
            sum.failed += t.failed;
            sum.hit_us.extend(t.hit_us);
            sum.miss_us.extend(t.miss_us);
            sum.errors.extend(t.errors);
            sum.log.extend(t.log);
        }
        sum.log.sort_by_key(|l| l.seq);
        let mut conn = Conn::open(addr)?;
        let mut reply = String::new();
        conn.call("{\"v\":1,\"id\":\"stats\",\"verb\":\"stats\"}", &mut reply)?;
        sum.stats = minijson::parse(reply.trim_end())?;
        Ok(sum)
    }
}

/// Result of the timed loop.
pub struct RunSummary {
    pub attempted: u64,
    pub failed: u64,
    pub hit_us: Vec<f64>,
    pub miss_us: Vec<f64>,
    pub elapsed: f64,
    pub errors: Vec<String>,
    pub stats: minijson::Value,
    pub log: Vec<Logged>,
}

/// Checks one reply; returns its `cached` flag and output.
fn check_reply(
    tracker: &mut ReplyTracker,
    p: &Planned,
    line: &str,
    pool: &[PoolEntry],
    first: &Mutex<HashMap<(usize, &'static str, &'static str), String>>,
) -> Result<(bool, String), String> {
    let r = tracker.accept(&p.id, line)?;
    if r.format != p.output {
        return Err(format!(
            "reply format {:?}, asked for {:?}",
            r.format, p.output
        ));
    }
    if p.extra.is_some() {
        check::priorities_from_output(p.output, &r.output, &p.graph(pool))?;
        return Ok((r.cached, r.output));
    }
    let key = (p.entry, p.input, p.output);
    let known = first
        .lock()
        .expect("no client thread panics holding the lock")
        .get(&key)
        .cloned();
    match known {
        Some(text) if text == r.output => {}
        Some(_) => return Err("repeat's output differs from the first reply".into()),
        None => {
            check::priorities_from_output(p.output, &r.output, &pool[p.entry].graph)?;
            first
                .lock()
                .expect("no client thread panics holding the lock")
                .insert(key, r.output.clone());
        }
    }
    Ok((r.cached, r.output))
}

/// The request log the replay reads, one request a line.
pub fn format_log(log: &[Logged]) -> String {
    let mut out = String::new();
    for l in log {
        let p = &l.planned;
        let (name, parent) = match &p.extra {
            Some((n, par)) => (n.as_str(), par.to_string()),
            None => ("-", "-".to_string()),
        };
        out.push_str(&format!(
            "{} {} {} {} {} {} {}\n",
            p.id, p.entry, p.input, p.output, name, parent, l.digest
        ));
    }
    out
}

/// Reads a request log back.
pub fn parse_log(text: &str) -> Result<Vec<(Planned, u64)>, String> {
    let fmt = |s: &str| {
        FORMATS
            .into_iter()
            .find(|f| *f == s)
            .ok_or(format!("bad format {s}"))
    };
    text.lines()
        .map(|line| {
            let f: Vec<&str> = line.split(' ').collect();
            if f.len() != 7 {
                return Err(format!("bad log line {line:?}"));
            }
            let extra = if f[4] == "-" {
                None
            } else {
                Some((f[4].to_string(), f[5].parse().map_err(|_| "bad parent")?))
            };
            let planned = Planned {
                id: f[0].to_string(),
                entry: f[1].parse().map_err(|_| "bad entry")?,
                input: fmt(f[2])?,
                output: fmt(f[3])?,
                extra,
            };
            Ok((planned, f[6].parse().map_err(|_| "bad digest")?))
        })
        .collect()
}

/// The pool a workload's requests draw from.
pub fn workload_pool(workload: &str, seed: u64) -> Result<Vec<PoolEntry>, String> {
    let families = match workload {
        "instrument_montage" => Families::Montage,
        "schedule_layered" => Families::Layered,
        "serve_mix" => Families::Mix,
        other => return Err(format!("unknown workload {other:?}")),
    };
    Ok(gen::pool(families, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_seeded_and_about_half_misses() {
        let pool = gen::pool(Families::Mix, 5);
        let a: Vec<Planned> = {
            let mut m = Mix::new(5, 0, pool.len());
            (0..400).map(|_| m.next(&pool)).collect()
        };
        let b: Vec<Planned> = {
            let mut m = Mix::new(5, 0, pool.len());
            (0..400).map(|_| m.next(&pool)).collect()
        };
        assert_eq!(a, b);
        let misses = a.iter().filter(|p| p.extra.is_some()).count();
        assert!((150..250).contains(&misses), "{misses}");
        assert!(a
            .iter()
            .any(|p| p.extra.is_none() && p.input != pool[p.entry].format));
    }

    #[test]
    fn log_round_trips() {
        let pool = gen::pool(Families::Montage, 1);
        let mut m = Mix::new(1, 1, pool.len());
        let log: Vec<Logged> = (0..50)
            .map(|i| Logged {
                seq: i,
                planned: m.next(&pool),
                digest: i * 7,
            })
            .collect();
        let back = parse_log(&format_log(&log)).unwrap();
        assert_eq!(back.len(), 50);
        for (l, (p, d)) in log.iter().zip(&back) {
            assert_eq!(&l.planned, p);
            assert_eq!(l.digest, *d);
        }
    }
}
