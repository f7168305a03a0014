//! Closed- and open-loop load generator for the serving layer.
//!
//! Simulates N concurrent clients firing single-query requests at a
//! [`qec_serve::Server`] and reports p50/p99 latency and throughput.
//!
//! ```text
//! cargo run --release -p qec-serve --bin loadgen -- \
//!     --clients 1000 --requests 20 --mode closed --n 32
//! ```
//!
//! * `--mode closed` — every client waits for its response before
//!   sending the next request (concurrency = clients).
//! * `--mode open` — every client submits its whole schedule up front
//!   and then collects tickets (tests queue backpressure).
//! * `--no-coalesce` — batch-size-1 serving (`max_batch = 1`), the A/B
//!   baseline.
//! * `--cold` — zero cache budget on a per-request key-salted query
//!   stream is not simulatable here; instead `--cold` restarts with an
//!   empty cache (first request pays the compile).

use std::sync::Arc;
use std::time::{Duration, Instant};

use qec_serve::{Request, Server, ServerConfig};

struct Args {
    clients: usize,
    requests: usize,
    open_loop: bool,
    max_batch: usize,
    n: u64,
    flush_us: u64,
    queue_capacity: usize,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            clients: 64,
            requests: 32,
            open_loop: false,
            max_batch: ServerConfig::default().max_batch,
            n: 32,
            flush_us: 500,
            queue_capacity: 65_536,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let val = |it: &mut dyn Iterator<Item = String>| {
                it.next().unwrap_or_else(|| panic!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--clients" => args.clients = val(&mut it).parse().expect("usize"),
                "--requests" => args.requests = val(&mut it).parse().expect("usize"),
                "--mode" => args.open_loop = val(&mut it) == "open",
                "--no-coalesce" => args.max_batch = 1,
                "--n" => args.n = val(&mut it).parse().expect("u64"),
                "--flush-us" => args.flush_us = val(&mut it).parse().expect("u64"),
                "--queue" => args.queue_capacity = val(&mut it).parse().expect("usize"),
                other => panic!("unknown flag {other}"),
            }
        }
        args
    }
}

/// The standard workload: the triangle query over pseudo-random
/// relations, varied per client so responses differ.
fn request(client: usize, n: u64) -> Request {
    let seed = client as u64 * 1_000_003 + 17;
    let rows = |salt: u64| -> Vec<Vec<u64>> {
        (0..n)
            .map(|i| {
                vec![
                    (i * 7 + seed + salt) % n,
                    (i * 13 + seed + 2 * salt + 1) % n,
                ]
            })
            .collect()
    };
    Request {
        tenant: format!("client-{}", client % 16),
        query: "Q(a, b, c) :- R(a, b), S(b, c), T(a, c)".into(),
        n,
        rels: vec![
            ("R".into(), rows(1)),
            ("S".into(), rows(2)),
            ("T".into(), rows(3)),
        ],
    }
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() {
    let args = Args::parse();
    let server = Arc::new(Server::start(ServerConfig {
        queue_capacity: args.queue_capacity,
        flush: Duration::from_micros(args.flush_us),
        max_batch: args.max_batch,
        ..ServerConfig::default()
    }));

    // Pay the one compile up front so the measured section is the
    // serving path (use `--requests 1 --clients 1` to see cold cost).
    let warm = Instant::now();
    server.query(request(0, args.n)).expect("warmup");
    eprintln!("warmup (compile) took {:?}", warm.elapsed());

    let t0 = Instant::now();
    let handles: Vec<_> = (0..args.clients)
        .map(|c| {
            let server = server.clone();
            let (requests, n, open) = (args.requests, args.n, args.open_loop);
            std::thread::spawn(move || {
                let mut lat: Vec<Duration> = Vec::with_capacity(requests);
                let mut rejected = 0usize;
                if open {
                    let t = Instant::now();
                    let tickets: Vec<_> = (0..requests)
                        .map(|_| server.submit(request(c, n)))
                        .collect();
                    for ticket in tickets {
                        match ticket {
                            Ok(t) => {
                                t.wait().expect("response");
                            }
                            Err(_) => rejected += 1,
                        }
                    }
                    lat.push(t.elapsed());
                } else {
                    for _ in 0..requests {
                        let t = Instant::now();
                        match server.query(request(c, n)) {
                            Ok(_) => lat.push(t.elapsed()),
                            Err(_) => rejected += 1,
                        }
                    }
                }
                (lat, rejected)
            })
        })
        .collect();
    let mut latencies = Vec::new();
    let mut rejected = 0;
    for h in handles {
        let (lat, rej) = h.join().unwrap();
        latencies.extend(lat);
        rejected += rej;
    }
    let wall = t0.elapsed();
    latencies.sort();
    let total = args.clients * args.requests;
    let stats = server.cache_stats();
    println!(
        "mode={} coalesce={} clients={} requests={} n={}",
        if args.open_loop { "open" } else { "closed" },
        args.max_batch > 1,
        args.clients,
        args.requests,
        args.n
    );
    println!(
        "served={} rejected={} wall={:?} qps={:.0}",
        total - rejected,
        rejected,
        wall,
        (total - rejected) as f64 / wall.as_secs_f64()
    );
    println!(
        "p50={:?} p99={:?} max={:?}",
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.99),
        percentile(&latencies, 1.0)
    );
    println!(
        "cache: hits={} waits={} misses={} evictions={}",
        stats.hits, stats.waits, stats.misses, stats.evictions
    );
}
