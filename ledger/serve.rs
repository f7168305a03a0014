//! The three serving workloads, driven through `qec_serve::Server` with
//! its default configuration.
//!
//! Every request comes from one of three query families — the triangle,
//! the path projection and transitive closure in Datalog — each with a
//! pool of seeded databases whose answers are computed beforehand by the
//! RAM references (`evaluate_pairwise`, semi-naive evaluation). A cold
//! request appends a fresh suffix to every predicate name: atom names
//! are part of the plan key, so it misses the cache while its circuit
//! stays the same size as the warm one.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use qec_datalog::{database, result_relation, seminaive, workloads, DatalogProgram};
use qec_obs::Recorder;
use qec_query::{baseline::evaluate_pairwise, parse_cq};
use qec_relation::{Database, Relation};
use qec_serve::{Request, Response, ServeError, Server, ServerConfig, Ticket};

use crate::stats::{mean, median, percentile};
use crate::trace::Spans;
use crate::{measured, planted, Outcome, Params, Rng, DEADLINE};

/// Offered rate of `serve-warm`'s fixed-rate phase.
const WARM_RATE_QPS: f64 = 150.0;
/// Offered warm rate of `serve-mixed`. With a compile always holding one
/// worker, 150 qps kept two cores near saturation, where a slightly
/// slower stretch of a shared host nearly doubled the warm median; at
/// 100 qps the run-to-run spread of that median fell from 29% to 8%.
const MIXED_RATE_QPS: f64 = 100.0;
/// `serve-mixed` sends one cold request per this interval of its measured
/// phase. A fixed count, rather than as many as the host's speed allows,
/// keeps the plans the cache keeps (so peak RSS) the same on every run.
const MIXED_COLD_EVERY: Duration = Duration::from_secs(2);
/// Requests kept in flight in the saturation phase of `serve-warm`.
const IN_FLIGHT: usize = 192;
/// `serve-cold` runs one cycle of three cold requests per this many
/// seconds of `--seconds`: about a cycle's length on the host the
/// benchmark was calibrated on. A fixed count, rather than a deadline,
/// keeps the cache misses, and the plans the cache keeps (so peak RSS),
/// the same on every run.
const COLD_CYCLE_SECONDS: f64 = 3.0;

/// A query, the relations its requests carry, and seeded databases with
/// their reference answers.
struct Family {
    query: &'static str,
    /// Predicates a cold request renames.
    preds: &'static [&'static str],
    /// Relations every request carries rows for, in `dbs` column order.
    edbs: &'static [&'static str],
    n: u64,
    dbs: Vec<Vec<Vec<Vec<u64>>>>,
    expected: Vec<Relation>,
}

impl Family {
    /// The request for database `db`; `cold` suffixes every predicate.
    fn request(&self, db: usize, cold: Option<u64>) -> Request {
        let name = |p: &str| match cold {
            Some(k) => format!("{p}_{k}"),
            None => p.to_string(),
        };
        let mut query = self.query.to_string();
        if cold.is_some() {
            for p in self.preds {
                query = query.replace(&format!("{p}("), &format!("{}(", name(p)));
            }
        }
        Request {
            tenant: "ledger".into(),
            query,
            n: self.n,
            rels: self
                .edbs
                .iter()
                .zip(&self.dbs[db])
                .map(|(e, rows)| (name(e), rows.clone()))
                .collect(),
        }
    }

    fn matches(&self, db: usize, resp: &Response) -> bool {
        resp.relations.len() == 1 && resp.relations[0] == self.expected[db]
    }
}

/// `count` distinct pairs over `0..domain`.
fn pairs(rng: &mut Rng, count: usize, domain: u64) -> Vec<Vec<u64>> {
    let mut rows: Vec<Vec<u64>> = Vec::with_capacity(count);
    while rows.len() < count {
        let row = vec![rng.next_u64() % domain, rng.next_u64() % domain];
        if !rows.contains(&row) {
            rows.push(row);
        }
    }
    rows
}

fn cq_family(
    query: &'static str,
    rels: &'static [&'static str],
    n: u64,
    pool: usize,
    rng: &mut Rng,
) -> Result<Family, String> {
    let cq = parse_cq(query).map_err(|e| e.to_string())?;
    // A domain of n/2 values makes the relations dense enough to join.
    let domain = (n / 2).max(2);
    let mut dbs = Vec::with_capacity(pool);
    let mut expected = Vec::with_capacity(pool);
    for _ in 0..pool {
        let rows: Vec<Vec<Vec<u64>>> = rels
            .iter()
            .map(|_| pairs(rng, n as usize, domain))
            .collect();
        let mut db = Database::new();
        for (name, r) in rels.iter().zip(&rows) {
            let atom = cq
                .atoms
                .iter()
                .find(|a| a.name == *name)
                .ok_or_else(|| format!("{name} is not an atom of {query}"))?;
            db.insert(*name, Relation::from_rows(atom.vars.to_vec(), r.clone()));
        }
        expected.push(evaluate_pairwise(&cq, &db).map_err(|e| e.to_string())?);
        dbs.push(rows);
    }
    Ok(Family {
        query,
        preds: rels,
        edbs: rels,
        n,
        dbs,
        expected,
    })
}

fn tc_family(n: u64, pool: usize, rng: &mut Rng) -> Result<Family, String> {
    let dp = DatalogProgram::parse(workloads::TRANSITIVE_CLOSURE).map_err(|e| e.to_string())?;
    let mut dbs = Vec::with_capacity(pool);
    let mut expected = Vec::with_capacity(pool);
    for _ in 0..pool {
        let edges = workloads::random_edges(n, n as usize, rng.next_u64());
        let db = database(&dp, &[("edge", edges.clone())]).map_err(|e| e.to_string())?;
        // Paths over n vertices close within n rounds: the fixpoint.
        let fx = seminaive(&dp, &db, n as usize).map_err(|e| e.to_string())?;
        expected.push(result_relation(&dp, &fx));
        dbs.push(vec![edges]);
    }
    Ok(Family {
        query: workloads::TRANSITIVE_CLOSURE,
        preds: &["path", "edge"],
        edbs: &["edge"],
        n,
        dbs,
        expected,
    })
}

fn families(p: &Params) -> Result<Vec<Family>, String> {
    let s = p.scale;
    let mut rng = Rng::new(p.seed ^ 0x5e7e_0001);
    Ok(vec![
        cq_family(
            "Q(a, b, c) :- R(a, b), S(b, c), T(a, c)",
            &["R", "S", "T"],
            s.triangle_n,
            s.pool,
            &mut rng,
        )?,
        cq_family(
            "Q(a, c) :- R(a, b), S(b, c)",
            &["R", "S"],
            s.path_n,
            s.pool,
            &mut rng,
        )?,
        tc_family(s.tc_n, s.pool, &mut rng)?,
    ])
}

/// Set-up: data, references, a started server, and one request per
/// family so that every family's plan is compiled and cached. A planted
/// wrong reference goes in after the warm-up has been checked, so only
/// the timed phase can catch it.
fn start(p: &Params, rec: &Recorder) -> Result<(Server, Vec<Family>), String> {
    let mut fams = families(p)?;
    let mut cfg = ServerConfig::default();
    cfg.recorder = rec.clone();
    cfg.compile = cfg.compile.with_recorder(rec.clone());
    let server = Server::start(cfg);
    let tickets: Vec<Ticket> = fams
        .iter()
        .map(|f| server.submit(f.request(0, None)))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("warm-up: {e}"))?;
    for (f, t) in fams.iter().zip(tickets) {
        let resp = t
            .wait_deadline(Instant::now() + DEADLINE)
            .map_err(|e| format!("warm-up: {e}"))?;
        if !f.matches(0, &resp) {
            return Err(format!("warm-up answer of {:?} is wrong", f.query));
        }
    }
    if p.plant_wrong_reference {
        for e in &mut fams[0].expected {
            *e = planted(e);
        }
    }
    Ok((server, fams))
}

/// One answered request.
struct Served {
    /// Open loop: from the scheduled send time to the response, that is
    /// lateness and admission timed here, then the server's queue wait
    /// and service. Closed loop: send to response as this thread saw it.
    latency_ns: u64,
    /// How late the generator sent it.
    late_ns: u64,
    /// `Server::submit` on the caller's thread.
    admit_ns: u64,
    queue_ns: u64,
    service_ns: u64,
    batch: usize,
    cold: bool,
}

/// Counts `result` against the reference; the response when answered.
fn settle(
    out: &mut Outcome,
    fam: &Family,
    db: usize,
    result: Result<Response, ServeError>,
) -> Option<Response> {
    match result {
        Ok(resp) => {
            out.answered(fam.matches(db, &resp));
            Some(resp)
        }
        Err(e) => {
            out.unanswered(&e);
            None
        }
    }
}

struct Sent {
    due: Instant,
    fam: usize,
    db: usize,
    cold: bool,
    measured: bool,
    late_ns: u64,
    admit_ns: u64,
    ticket: Result<Ticket, ServeError>,
}

/// The open-loop traffic of one phase.
struct Traffic {
    rate_qps: f64,
    /// Requests due this early are checked but not measured.
    warmup: Duration,
    measure: Duration,
    /// After the warm-up, also send one cold request per this interval,
    /// `measure / interval` (rounded up) in all. One that falls due while
    /// the previous is unanswered waits for that answer, so two compiles
    /// never overlap; any still unsent when the warm traffic ends follow
    /// it, one at a time.
    cold_every: Option<Duration>,
}

/// Open loop: a submitter thread sends round-robin warm requests at the
/// traffic's rate regardless of completions; this thread collects.
///
/// The collector waits on tickets in send order and a wait consumes its
/// ticket, so a response that overtook an earlier one (a warm request
/// behind a cold compile) sits unseen until the collector reaches it.
/// Each request's latency is therefore measured up to the response the
/// server produced: the enqueue moment timed here plus the server's
/// `queue_ns` and `total_ns`. The second result checks that account: on
/// the requests the collector was already waiting for when, by that
/// account, their response was produced (so it saw the response arrive),
/// it is the share of the observed latency the account explains, taken
/// for warm and cold requests apart and the lower of the two reported:
/// pooled, the second-long cold requests would hide a few milliseconds
/// missing from every warm one.
fn open_loop(
    server: &Server,
    fams: &[Family],
    seed: u64,
    traffic: &Traffic,
    out: &mut Outcome,
) -> (Vec<Served>, f64) {
    let Traffic {
        rate_qps,
        warmup,
        measure,
        cold_every,
    } = *traffic;
    let end = warmup + measure;
    let cold_total = cold_every.map_or(0, |every| {
        (measure.as_secs_f64() / every.as_secs_f64()).ceil() as u64
    });
    let cold_busy = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<Sent>();
    let mut served = Vec::new();
    // (explained, observed) nanoseconds of warm and of cold requests.
    let mut observed = [(0u64, 0u64); 2];
    let start = Instant::now();
    std::thread::scope(|scope| {
        let cold_busy = &cold_busy;
        scope.spawn(move || {
            let mut rng = Rng::new(seed);
            let mut colds = 0u64;
            let mut i = 0u32;
            loop {
                let at = Duration::from_secs_f64(f64::from(i) / rate_qps);
                let warm = at < end;
                if !warm && colds == cold_total {
                    return;
                }
                let mut sends = Vec::with_capacity(2);
                if warm {
                    sends.push((i as usize % fams.len(), None));
                    i += 1;
                } else {
                    // The warm traffic is over: send the remaining cold
                    // requests, each once the previous is answered.
                    std::thread::sleep(Duration::from_millis(1));
                }
                let cold_due = cold_every.map_or(end, |every| warmup + every * colds as u32);
                if colds < cold_total
                    && (!warm || at >= cold_due)
                    && !cold_busy.swap(true, Ordering::SeqCst)
                {
                    sends.push((colds as usize % fams.len(), Some(colds)));
                    colds += 1;
                }
                let due = if warm { start + at } else { Instant::now() };
                for (fam, cold) in sends {
                    let db = rng.below(fams[fam].dbs.len());
                    let req = fams[fam].request(db, cold);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let send = Instant::now();
                    let ticket = server.submit(req);
                    let sent = Sent {
                        due,
                        fam,
                        db,
                        cold: cold.is_some(),
                        measured: at >= warmup,
                        late_ns: (send - due).as_nanos() as u64,
                        admit_ns: send.elapsed().as_nanos() as u64,
                        ticket,
                    };
                    if tx.send(sent).is_err() {
                        return;
                    }
                }
            }
        });
        for s in rx {
            let waiting = Instant::now();
            let result = s.ticket.and_then(|t| t.wait_deadline(s.due + DEADLINE));
            let got = Instant::now();
            if s.cold {
                cold_busy.store(false, Ordering::SeqCst);
            }
            let Some(resp) = settle(out, &fams[s.fam], s.db, result) else {
                continue;
            };
            let split = s.late_ns + s.admit_ns + resp.queue_ns + resp.total_ns;
            if waiting < s.due + Duration::from_nanos(split) {
                let class = &mut observed[usize::from(s.cold)];
                class.0 += split;
                class.1 += (got - s.due).as_nanos() as u64;
            }
            if s.measured {
                served.push(Served {
                    latency_ns: split,
                    late_ns: s.late_ns,
                    admit_ns: s.admit_ns,
                    queue_ns: resp.queue_ns,
                    service_ns: resp.total_ns,
                    batch: resp.batch_size,
                    cold: s.cold,
                });
            }
        }
    });
    let coverage = observed
        .iter()
        .filter(|(_, seen)| *seen > 0)
        .map(|&(explained, seen)| explained as f64 / seen as f64)
        .fold(f64::INFINITY, f64::min);
    (served, if coverage.is_finite() { coverage } else { 0.0 })
}

/// Saturation: [`IN_FLIGHT`] requests outstanding, the oldest awaited
/// before the next is sent. Returns completions per second within
/// `measure` and the batch sizes seen.
fn saturate(
    server: &Server,
    fams: &[Family],
    rng: &mut Rng,
    measure: Duration,
    out: &mut Outcome,
) -> (f64, Vec<usize>) {
    let mut inflight: VecDeque<(usize, usize, Ticket)> = VecDeque::with_capacity(IN_FLIGHT);
    let mut batches = Vec::new();
    let mut completed = 0u64;
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < measure {
        while inflight.len() < IN_FLIGHT {
            let fam = i % fams.len();
            let db = rng.below(fams[fam].dbs.len());
            i += 1;
            match server.submit(fams[fam].request(db, None)) {
                Ok(t) => inflight.push_back((fam, db, t)),
                Err(e) => {
                    out.unanswered(&e);
                    break;
                }
            }
        }
        let Some((fam, db, t)) = inflight.pop_front() else {
            break;
        };
        if let Some(resp) = settle(
            out,
            &fams[fam],
            db,
            t.wait_deadline(Instant::now() + DEADLINE),
        ) {
            batches.push(resp.batch_size);
            completed += u64::from(start.elapsed() <= measure);
        }
    }
    let elapsed = start.elapsed().min(measure).as_secs_f64();
    for (fam, db, t) in inflight {
        settle(
            out,
            &fams[fam],
            db,
            t.wait_deadline(Instant::now() + DEADLINE),
        );
    }
    (completed as f64 / elapsed, batches)
}

/// Closed loop: one request at a time, `cycles` round-robin cycles over
/// the families, each request cold.
fn cold_loop(
    server: &Server,
    fams: &[Family],
    rng: &mut Rng,
    cycles: usize,
    rec: &Recorder,
    out: &mut Outcome,
) -> Vec<Served> {
    let mut served = Vec::new();
    let mut k = 0u64;
    for _ in 0..cycles {
        for fam in fams {
            let db = rng.below(fam.dbs.len());
            let req = fam.request(db, Some(k));
            k += 1;
            let sent = Instant::now();
            let ticket = {
                let _span = rec.span("serve.submit");
                server.submit(req)
            };
            let admit_ns = sent.elapsed().as_nanos() as u64;
            let result = {
                let _span = rec.span("serve.wait");
                ticket.and_then(|t| t.wait_deadline(sent + DEADLINE))
            };
            let latency_ns = sent.elapsed().as_nanos() as u64;
            if let Some(resp) = settle(out, fam, db, result) {
                served.push(Served {
                    latency_ns,
                    late_ns: 0,
                    admit_ns,
                    queue_ns: resp.queue_ns,
                    service_ns: resp.total_ns,
                    batch: resp.batch_size,
                    cold: true,
                });
            }
        }
    }
    served
}

fn ms_of(served: &[Served], f: impl Fn(&Served) -> u64) -> Vec<f64> {
    served.iter().map(|s| f(s) as f64 / 1e6).collect()
}

/// Latency percentiles of `served` plus every serve-layer metric the
/// run measured.
fn report(out: &mut Outcome, served: &[Served], server: &Server, rec: &Recorder) {
    let latency = ms_of(served, |s| s.latency_ns);
    let warm: Vec<f64> = served
        .iter()
        .filter(|s| !s.cold)
        .map(|s| s.latency_ns as f64 / 1e6)
        .collect();
    // End-to-end latency is the warm traffic's when there is any
    // (`serve-mixed` reports its cold requests as a layer metric).
    let e2e = if warm.is_empty() { &latency } else { &warm };
    out.set("p50_ms", median(e2e));
    out.set("p90_ms", percentile(e2e, 0.9));
    out.set("p99_ms", percentile(e2e, 0.99));

    out.set(
        "serve.admit_us.p50",
        median(&ms_of(served, |s| s.admit_ns)) * 1e3,
    );
    let queue = ms_of(served, |s| s.queue_ns);
    out.set("serve.queue_ms.p50", median(&queue));
    out.set("serve.queue_ms.p99", percentile(&queue, 0.99));
    out.set(
        "serve.service_ms.p50",
        median(&ms_of(served, |s| s.service_ns)),
    );
    let batches: Vec<f64> = served.iter().map(|s| s.batch as f64).collect();
    out.set("serve.batch_jobs", mean(&batches));
    let cold: Vec<f64> = served
        .iter()
        .filter(|s| s.cold)
        .map(|s| s.latency_ns as f64 / 1e6)
        .collect();
    out.set("serve.cold_p50_ms", median(&cold));
    out.set(
        "gen.late_ms.p99",
        percentile(&ms_of(served, |s| s.late_ns), 0.99),
    );

    let cache = server.cache_stats();
    let lookups = (cache.hits + cache.misses + cache.waits).max(1);
    out.set("serve.cache.hit_ratio", cache.hits as f64 / lookups as f64);
    out.set("serve.cache.misses", cache.misses as f64);
    out.set("serve.cache.waits", cache.waits as f64);
    out.set("serve.cache.evictions", cache.evictions as f64);

    if !rec.is_enabled() {
        return;
    }
    let spans = Spans::new(rec);
    out.set("serve.compile_ms", spans.mean_ms("serve.compile"));
    out.set("serve.compile.self_ms", spans.mean_self_ms("serve.compile"));
    out.set("serve.evaluate_ms", spans.mean_ms("serve.evaluate"));
    let (_, evaluate_ns, _) = spans.totals("serve.evaluate");
    let jobs = spans.counter("serve.batch.jobs").max(1);
    out.set(
        "evaluate.us_per_job",
        evaluate_ns as f64 / jobs as f64 / 1e3,
    );
    crate::trace::word_pipeline(out, &spans);
}

/// `serve-warm`: three warm plans; a fixed-rate phase for latency, then
/// a shorter saturation phase for throughput.
pub fn warm(p: &Params, rec: &Recorder) -> Result<Outcome, String> {
    measured(
        rec,
        |r| start(p, r),
        |(server, fams), out| {
            let mut rng = Rng::new(p.seed ^ 0x5e7e_0002);
            let timed = p.timed();
            let traffic = Traffic {
                rate_qps: WARM_RATE_QPS,
                warmup: timed / 15,
                measure: timed * 3 / 4,
                cold_every: None,
            };
            let (served, coverage) = open_loop(&server, &fams, rng.next_u64(), &traffic, out);
            let (qps, sat_batches) = saturate(&server, &fams, &mut rng, timed / 4, out);
            report(out, &served, &server, rec);
            let sat: Vec<f64> = sat_batches.iter().map(|&b| b as f64).collect();
            out.set("serve.max_qps", qps);
            out.set("serve.batch_jobs.sat", mean(&sat));
            out.set("coverage", coverage);
            Ok(())
        },
    )
}

/// `serve-mixed`: the warm round robin at [`MIXED_RATE_QPS`] plus one
/// cold request per [`MIXED_COLD_EVERY`].
pub fn mixed(p: &Params, rec: &Recorder) -> Result<Outcome, String> {
    measured(
        rec,
        |r| start(p, r),
        |(server, fams), out| {
            let timed = p.timed();
            let traffic = Traffic {
                rate_qps: MIXED_RATE_QPS,
                warmup: timed / 15,
                measure: timed,
                cold_every: Some(MIXED_COLD_EVERY),
            };
            let (served, coverage) = open_loop(&server, &fams, p.seed ^ 0x5e7e_0003, &traffic, out);
            report(out, &served, &server, rec);
            out.set("coverage", coverage);
            Ok(())
        },
    )
}

/// `serve-cold`: sequential requests that all miss the plan cache.
pub fn cold(p: &Params, rec: &Recorder) -> Result<Outcome, String> {
    measured(
        rec,
        |r| start(p, r),
        |(server, fams), out| {
            let mut rng = Rng::new(p.seed ^ 0x5e7e_0004);
            let phase = rec.span("timed");
            let cycles = (p.seconds / COLD_CYCLE_SECONDS).ceil().max(1.0) as usize;
            let served = cold_loop(&server, &fams, &mut rng, cycles, rec, out);
            drop(phase);
            report(out, &served, &server, rec);
            if rec.is_enabled() {
                // Closed loop: the timed phase is the sum of its requests,
                // each of which is admission, queue wait, then the worker's
                // compile and evaluate spans.
                let spans = Spans::new(rec);
                let phase = spans.only("timed").ok_or("no timed span")?;
                let worker_ns: u64 = ["serve.compile", "serve.evaluate"]
                    .iter()
                    .map(|name| spans.total_since(name, phase.start_ns))
                    .sum();
                let client_ns: u64 = served.iter().map(|s| s.admit_ns + s.queue_ns).sum();
                out.set(
                    "coverage",
                    (worker_ns + client_ns) as f64 / phase.dur_ns.max(1) as f64,
                );
            }
            Ok(())
        },
    )
}
