//! The admission/batching layer: a bounded queue, worker threads, and
//! coalescing of same-plan requests into engine batches.
//!
//! Life of a request:
//!
//! 1. **Admission** ([`Server::submit`], cheap, caller's thread): parse
//!    the query, canonicalize it, translate the request's relations
//!    into canonical variable space, derive the [`PlanKey`]. Tenant
//!    quota and queue capacity are enforced here — an over-quota or
//!    over-capacity request fails with a typed error immediately
//!    instead of occupying queue space.
//! 2. **Batching** (worker thread): a worker pops the oldest job, then
//!    — when `max_batch` > 1 — drains every queued job with the *same
//!    key* and keeps the batch open until either `max_batch` jobs have
//!    joined or the flush deadline (first job's enqueue time +
//!    `flush`) passes, picking up newcomers as they arrive. This is
//!    continuous batching: a lone request waits at most `flush`, a
//!    busy key fills whole batches.
//! 3. **Evaluation**: one [`PlanCache::get_or_compile`] (single-flight
//!    compile on cold keys; [`qec_core::plan`] picks a CQ's circuit,
//!    classical or PANDA-C), one `evaluate_batch` over the batch's
//!    instances, per-job decode back to the request's variable space.
//!
//! Worker count defaults to `std::thread::available_parallelism()`.
//! Workers are plain `std::thread`s that live as long as the server.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use qec_circuit::{decode_relation, CompileOptions, CompiledCircuit, Mode, WordTape};
use qec_core::plan;
use qec_datalog::{DatalogProgram, FixpointBounds};
use qec_obs::Recorder;
use qec_query::{canonicalize, parse_cq, CanonicalCq};
use qec_relation::{Database, DcSet, DegreeConstraint, Relation, Var};

use crate::cache::{CacheStats, CompiledPlan, PlanCache};
use crate::key::{bucket_n, dc_signature, PlanKey};
use crate::ServeError;

/// Server configuration. `Default` gives a small single-process setup
/// suitable for tests; production knobs are all here.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads; 0 means `std::thread::available_parallelism()`.
    pub workers: usize,
    /// Admission queue capacity; a full queue rejects with
    /// [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Maximum jobs coalesced into one engine batch; 1 evaluates every
    /// request alone (the batch-size-1 A/B baseline).
    pub max_batch: usize,
    /// How long a batch stays open for latecomers, measured from its
    /// first job's enqueue time.
    pub flush: Duration,
    /// Maximum in-flight requests per tenant; 0 = unlimited.
    pub tenant_quota: usize,
    /// Plan-cache byte budget; 0 = unlimited.
    pub cache_budget_bytes: usize,
    /// Directory for plan persistence: compiled plans are written
    /// through to it, and the server warm-starts from the plans it
    /// already holds (none when it is missing or empty).
    pub persist_dir: Option<std::path::PathBuf>,
    /// Options for plan compilation (optimizer, recorder).
    pub compile: CompileOptions,
    /// Observability sink for serve-layer counters/gauges/spans.
    pub recorder: Recorder,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 0,
            queue_capacity: 1024,
            max_batch: 64,
            flush: Duration::from_micros(500),
            tenant_quota: 0,
            cache_budget_bytes: 0,
            persist_dir: None,
            compile: CompileOptions::sequential(),
            recorder: Recorder::disabled(),
        }
    }
}

/// A single-query request. Relation rows are given per atom name, with
/// columns in the sorted variable order of that atom in the (parsed)
/// query — the same convention as the differential-fuzzing corpus.
#[derive(Clone, Debug)]
pub struct Request {
    /// Tenant identifier for quotas and per-tenant counters.
    pub tenant: String,
    /// Query source, `parse_cq` syntax.
    pub query: String,
    /// Per-relation cardinality bound; buckets to the plan capacity.
    pub n: u64,
    /// `(relation name, rows)` for every atom of the query.
    pub rels: Vec<(String, Vec<Vec<u64>>)>,
}

/// A completed request: the output relations (in the request's own
/// variable space) plus serving metadata.
#[derive(Clone, Debug)]
pub struct Response {
    /// Decoded output relations, one per circuit output group.
    pub relations: Vec<Relation>,
    /// `true` when the plan came from the cache (no compile ran for
    /// this request, including single-flight waits).
    pub cache_hit: bool,
    /// Number of requests evaluated in the same engine batch.
    pub batch_size: usize,
    /// Nanoseconds spent queued before a worker picked the job up.
    pub queue_ns: u64,
    /// Nanoseconds from dequeue to response.
    pub total_ns: u64,
}

/// Handle to a submitted request; [`Ticket::wait`] blocks for the
/// response.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<Response, ServeError>>,
}

impl Ticket {
    /// Blocks until the request completes.
    pub fn wait(self) -> Result<Response, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }

    /// Blocks until the request completes or `deadline` passes —
    /// whichever comes first. A passed deadline is a typed
    /// [`ServeError::Deadline`], never a hang; the request itself still
    /// runs to completion server-side (its quota slot is released by
    /// the worker), only the wait is abandoned.
    pub fn wait_deadline(self, deadline: Instant) -> Result<Response, ServeError> {
        let start = Instant::now();
        let budget = deadline.saturating_duration_since(start);
        match self.rx.recv_timeout(budget) {
            Ok(result) => result,
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ServeError::Deadline {
                waited: start.elapsed(),
            }),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServeError::ShuttingDown),
        }
    }

    /// [`Ticket::wait_deadline`] with a relative timeout.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Response, ServeError> {
        self.wait_deadline(Instant::now() + timeout)
    }
}

/// What a job compiles when its key misses the cache, plus how its
/// outputs map back to the caller's space.
#[derive(Clone)]
enum JobPlan {
    /// A conjunctive query: outputs are translated back into the
    /// request's own variable space via `from_canon`.
    Cq { canon: Arc<CanonicalCq>, dcs: DcSet },
    /// A recursive Datalog program, unrolled to `depth` delta rounds.
    /// Outputs stay in the canonical key space (`Var(0..arity)`, plus
    /// the annotation column for non-Boolean semirings) — Datalog heads
    /// have no per-request variable spelling to restore.
    Datalog {
        program: Arc<DatalogProgram>,
        depth: u64,
    },
}

/// One queued job: the request translated into canonical space.
struct Job {
    key: PlanKey,
    plan: JobPlan,
    db: Database,
    tenant: String,
    enqueued: Instant,
    reply: mpsc::Sender<Result<Response, ServeError>>,
}

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    shutdown: AtomicBool,
    cache: PlanCache,
    tenants: Mutex<HashMap<String, usize>>,
    cfg: ServerConfig,
}

/// The serving loop: admission, plan cache, batching workers.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Starts the server: builds the plan cache (warm-starting it from
    /// `persist_dir`, if set) and spawns the worker threads.
    pub fn start(cfg: ServerConfig) -> Server {
        let cache = PlanCache::new(
            cfg.cache_budget_bytes,
            cfg.persist_dir.clone(),
            cfg.recorder.clone(),
        );
        cache.warm_start(&cfg.compile);
        let workers = if cfg.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            cfg.workers
        };
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            cache,
            tenants: Mutex::new(HashMap::new()),
            cfg,
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Server {
            shared,
            workers: handles,
        }
    }

    /// Admits a request: parse, canonicalize, check quota and queue
    /// capacity, enqueue. Returns immediately with a [`Ticket`].
    pub fn submit(&self, req: Request) -> Result<Ticket, ServeError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        let cfg = &self.shared.cfg;
        let (key, plan, db) = if is_datalog(&req.query) {
            admit_datalog(&req)?
        } else {
            admit_cq(&req)?
        };

        // Tenant quota, charged until the response is sent.
        if cfg.tenant_quota > 0 {
            let mut tenants = self.shared.tenants.lock().unwrap();
            let count = tenants.entry(req.tenant.clone()).or_insert(0);
            if *count >= cfg.tenant_quota {
                return Err(ServeError::QuotaExceeded {
                    tenant: req.tenant.clone(),
                    in_flight: *count,
                    quota: cfg.tenant_quota,
                });
            }
            *count += 1;
        }

        let (tx, rx) = mpsc::channel();
        let job = Job {
            key,
            plan,
            db,
            tenant: req.tenant.clone(),
            enqueued: Instant::now(),
            reply: tx,
        };
        {
            let mut queue = self.shared.queue.lock().unwrap();
            if queue.len() >= cfg.queue_capacity {
                drop(queue);
                release_tenant(&self.shared, &req.tenant);
                let depth = cfg.queue_capacity;
                cfg.recorder.add("serve.rejected.overloaded", 1);
                return Err(ServeError::Overloaded { queue_depth: depth });
            }
            queue.push_back(job);
            cfg.recorder
                .gauge_max("serve.queue_depth.max", queue.len() as u64);
        }
        self.shared.cv.notify_one();
        cfg.recorder.add("serve.requests", 1);
        cfg.recorder
            .add(&format!("serve.tenant.{}.requests", req.tenant), 1);
        Ok(Ticket { rx })
    }

    /// Submit-and-wait convenience.
    pub fn query(&self, req: Request) -> Result<Response, ServeError> {
        self.submit(req)?.wait()
    }

    /// [`Server::query`] with an upper bound on the caller's wait:
    /// admission errors surface immediately, and a response that does
    /// not arrive within `timeout` is a typed [`ServeError::Deadline`].
    pub fn query_timeout(&self, req: Request, timeout: Duration) -> Result<Response, ServeError> {
        self.submit(req)?.wait_timeout(timeout)
    }

    /// Plan-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Stops accepting requests, drains the queue, joins the workers.
    /// Called automatically on drop.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A request is a Datalog program when it has at least two rules — a
/// single `:-` is a plain conjunctive query (`parse_cq` syntax), and a
/// single-rule program has no recursion to unroll.
fn is_datalog(query: &str) -> bool {
    query.matches(":-").count() >= 2
}

/// Admission for a conjunctive query: parse, canonicalize, translate
/// the relations into canonical variable space, derive the key.
fn admit_cq(req: &Request) -> Result<(PlanKey, JobPlan, Database), ServeError> {
    let cq = parse_cq(&req.query).map_err(|e| ServeError::Parse(e.to_string()))?;
    let canon = Arc::new(canonicalize(&cq));

    // Translate relations into canonical variable space. Columns
    // arrive in the atom's sorted original-variable order; mapping
    // each column's variable and letting `Relation::from_rows`
    // re-sort yields the canonical-space relation.
    let mut db = Database::new();
    for (name, rows) in &req.rels {
        let Some(atom) = cq.atoms.iter().find(|a| a.name == *name) else {
            continue; // let the layout report the mismatch
        };
        let schema: Vec<Var> = atom
            .vars
            .iter()
            .map(|v| canon.to_canon[v.index()])
            .collect();
        db.insert(name.clone(), Relation::from_rows(schema, rows.clone()));
    }

    let n_bucket = bucket_n(req.n);
    let dcs = DcSet::from_vec(
        canon
            .cq
            .atoms
            .iter()
            .map(|a| DegreeConstraint::cardinality(a.vars, n_bucket))
            .collect(),
    );
    let key = PlanKey {
        query: canon.text.clone(),
        dc_sig: dc_signature(&dcs),
        n_bucket,
        fixpoint_depth: 0,
    };
    Ok((key, JobPlan::Cq { canon, dcs }, db))
}

/// Admission for a Datalog program. `req.n` bounds both the active
/// domain (key values range over `0..bucket`) and each EDB's
/// cardinality; the bucket doubles as the unrolling depth, which makes
/// Boolean and min-tropical fixpoints exact and keeps the plan a pure
/// function of the key.
fn admit_datalog(req: &Request) -> Result<(PlanKey, JobPlan, Database), ServeError> {
    let dp = DatalogProgram::parse(&req.query).map_err(|e| ServeError::Parse(e.to_string()))?;
    let rels: Vec<(&str, Vec<Vec<u64>>)> = req
        .rels
        .iter()
        .map(|(n, r)| (n.as_str(), r.clone()))
        .collect();
    let db = qec_datalog::database(&dp, &rels).map_err(|e| ServeError::Layout(e.to_string()))?;
    let depth = bucket_n(req.n);
    let key = PlanKey {
        query: dp.program.canonical_text(),
        dc_sig: String::new(),
        n_bucket: depth,
        fixpoint_depth: depth,
    };
    Ok((
        key,
        JobPlan::Datalog {
            program: Arc::new(dp),
            depth,
        },
        db,
    ))
}

fn release_tenant(shared: &Shared, tenant: &str) {
    if shared.cfg.tenant_quota > 0 {
        let mut tenants = shared.tenants.lock().unwrap();
        if let Some(count) = tenants.get_mut(tenant) {
            *count = count.saturating_sub(1);
        }
    }
}

/// Sends a job's result and releases its tenant-quota slot. A closed
/// receiver (caller dropped the ticket) is not an error.
fn respond(shared: &Shared, job: Job, result: Result<Response, ServeError>) {
    let _ = job.reply.send(result);
    release_tenant(shared, &job.tenant);
}

/// Moves every queued job with `key` into `batch`, up to `max`.
fn drain_same_key(queue: &mut VecDeque<Job>, key: &PlanKey, batch: &mut Vec<Job>, max: usize) {
    let mut i = 0;
    while i < queue.len() && batch.len() < max {
        if queue[i].key == *key {
            batch.push(queue.remove(i).expect("index in bounds"));
        } else {
            i += 1;
        }
    }
}

fn worker_loop(shared: &Shared) {
    let cfg = &shared.cfg;
    loop {
        let mut queue = shared.queue.lock().unwrap();
        loop {
            if !queue.is_empty() {
                break;
            }
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            queue = shared.cv.wait(queue).unwrap();
        }
        let first = queue.pop_front().expect("non-empty");
        let key = first.key.clone();
        let mut batch = vec![first];
        if cfg.max_batch > 1 {
            drain_same_key(&mut queue, &key, &mut batch, cfg.max_batch);
            // Keep the batch open until the flush deadline, picking up
            // newcomers. The deadline is anchored to the first job's
            // enqueue time so coalescing bounds added latency by
            // `flush` even under a steady trickle.
            let deadline = batch[0].enqueued + cfg.flush;
            while batch.len() < cfg.max_batch && !shared.shutdown.load(Ordering::Acquire) {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, timeout) = shared.cv.wait_timeout(queue, deadline - now).unwrap();
                queue = guard;
                drain_same_key(&mut queue, &key, &mut batch, cfg.max_batch);
                if timeout.timed_out() {
                    break;
                }
            }
        }
        cfg.recorder
            .gauge_set("serve.queue_depth", queue.len() as u64);
        drop(queue);
        // Another worker may be waiting on jobs we did not take.
        shared.cv.notify_one();
        process_batch(shared, batch);
    }
}

fn process_batch(shared: &Shared, mut batch: Vec<Job>) {
    let cfg = &shared.cfg;
    let t0 = Instant::now();
    let key = batch[0].key.clone();
    let spec = batch[0].plan.clone();
    cfg.recorder.add("serve.batches", 1);
    cfg.recorder.add("serve.batch.jobs", batch.len() as u64);
    cfg.recorder
        .gauge_max("serve.batch.occupancy.max", batch.len() as u64);

    let built = shared.cache.get_or_compile(&key, || {
        let _span = cfg.recorder.span("serve.compile");
        let t = Instant::now();
        let lowered = match &spec {
            JobPlan::Cq { canon, dcs } => {
                let planned = {
                    let _span = cfg.recorder.span("plan");
                    plan(&canon.cq, dcs).map_err(|e| ServeError::Compile(e.to_string()))?
                };
                cfg.recorder
                    .add(&format!("plan.{}", planned.construction.name()), 1);
                cfg.recorder
                    .gauge_set("plan.predicted_gates", planned.predicted_gates);
                planned.rc.lower_with(Mode::Build, &cfg.compile)
            }
            JobPlan::Datalog { program, depth } => {
                let bounds = FixpointBounds::for_domain(*depth, *depth);
                let fx = qec_datalog::compile(program, &bounds)
                    .map_err(|e| ServeError::Compile(e.to_string()))?;
                fx.rc.lower_with(Mode::Build, &cfg.compile)
            }
        };
        let engine = CompiledCircuit::compile_with(&lowered.circuit, &cfg.compile)
            .map_err(|e| ServeError::Compile(format!("{e:?}")))?;
        // The budget charge is the tape's length, counted without
        // encoding it: a tape is encoded only when `persist` writes one.
        let plan = CompiledPlan {
            key: key.clone(),
            engine,
            layout: lowered.layout,
            outputs: lowered.outputs,
            plan_bytes: WordTape::encoded_byte_len(&lowered.circuit),
            compile_ns: t.elapsed().as_nanos() as u64,
        };
        shared.cache.persist(&plan, &lowered.circuit)?;
        Ok(plan)
    });
    let (plan, cache_hit) = match built {
        Ok(x) => x,
        Err(e) => {
            for job in batch {
                respond(shared, job, Err(e.clone()));
            }
            return;
        }
    };

    // Bind each job's database to the plan layout; jobs that do not
    // fit fail individually without sinking the batch.
    let mut inputs: Vec<Vec<u64>> = Vec::with_capacity(batch.len());
    let mut live: Vec<Job> = Vec::with_capacity(batch.len());
    for job in batch.drain(..) {
        match plan.layout.values(&job.db) {
            Ok(vals) => {
                inputs.push(vals);
                live.push(job);
            }
            Err(e) => respond(shared, job, Err(ServeError::Layout(format!("{e:?}")))),
        }
    }
    if live.is_empty() {
        return;
    }

    let results = {
        let _span = cfg.recorder.span("serve.evaluate");
        plan.engine.evaluate_batch(&inputs)
    };
    let batch_size = live.len();
    for (job, result) in live.into_iter().zip(results) {
        let response = result
            .map_err(|e| ServeError::Eval(format!("{e:?}")))
            .map(|raw| {
                let relations = plan
                    .outputs
                    .iter()
                    .map(|(schema, start, len)| {
                        let canon_rel = decode_relation(schema, &raw[*start..*start + *len]);
                        match &job.plan {
                            // Translate back into the request's
                            // variable space; `from_rows` re-sorts the
                            // schema.
                            JobPlan::Cq { canon, .. } => {
                                let orig_schema: Vec<Var> = canon_rel
                                    .schema()
                                    .iter()
                                    .map(|v| canon.from_canon[v.index()])
                                    .collect();
                                Relation::from_rows(orig_schema, canon_rel.rows().to_vec())
                            }
                            // Datalog outputs are already in their
                            // only space: keys `Var(0..arity)` (plus
                            // the annotation column).
                            JobPlan::Datalog { .. } => canon_rel,
                        }
                    })
                    .collect();
                Response {
                    relations,
                    cache_hit,
                    batch_size,
                    queue_ns: (t0 - job.enqueued).as_nanos() as u64,
                    total_ns: t0.elapsed().as_nanos() as u64,
                }
            });
        respond(shared, job, response);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qec_query::baseline::evaluate_pairwise;

    fn triangle_request(tenant: &str, n: u64, seed: u64) -> Request {
        let rows = |salt: u64| -> Vec<Vec<u64>> {
            (0..n)
                .map(|i| {
                    let x = (i * 7 + seed + salt) % n;
                    let y = (i * 13 + seed + 2 * salt + 1) % n;
                    vec![x, y]
                })
                .collect()
        };
        Request {
            tenant: tenant.into(),
            query: "Q(a, b, c) :- R(a, b), S(b, c), T(a, c)".into(),
            n,
            rels: vec![
                ("R".into(), rows(1)),
                ("S".into(), rows(2)),
                ("T".into(), rows(3)),
            ],
        }
    }

    /// Direct evaluation of a request through the RAM baseline, for
    /// ground truth.
    fn baseline_eval(req: &Request) -> Relation {
        let cq = parse_cq(&req.query).unwrap();
        let mut db = Database::new();
        for (name, rows) in &req.rels {
            let atom = cq.atoms.iter().find(|a| a.name == *name).unwrap();
            db.insert(
                name.clone(),
                Relation::from_rows(atom.vars.to_vec(), rows.clone()),
            );
        }
        evaluate_pairwise(&cq, &db).unwrap()
    }

    #[test]
    fn serves_correct_results_and_caches_plans() {
        let mut server = Server::start(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        });
        for seed in 0..4 {
            let req = triangle_request("t0", 4, seed);
            let expect = baseline_eval(&req);
            let resp = server.query(req).unwrap();
            assert_eq!(resp.relations.len(), 1);
            assert_eq!(resp.relations[0], expect, "seed {seed}");
        }
        let stats = server.cache_stats();
        assert_eq!(stats.misses, 1, "one compile for four requests");
        assert!(stats.hits >= 3);
        server.shutdown();
    }

    #[test]
    fn alpha_variant_queries_share_one_plan() {
        let mut server = Server::start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let mut a = triangle_request("t0", 4, 7);
        let expect = baseline_eval(&a);
        let got_a = server.query(a.clone()).unwrap();
        assert_eq!(got_a.relations[0], expect);
        // The same query with variables renamed and atoms reordered:
        // same answers, and — the point — no second compile.
        a.query = "Q(x, y, z) :- T(x, z), S(y, z), R(x, y)".into();
        let got_b = server.query(a).unwrap();
        assert_eq!(got_b.relations[0], expect);
        assert!(got_b.cache_hit);
        assert_eq!(server.cache_stats().misses, 1);
        server.shutdown();
    }

    #[test]
    fn bucketed_capacities_share_a_plan_and_stay_correct() {
        let mut server = Server::start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        // n = 5 and n = 8 both bucket to capacity 8.
        let r5 = triangle_request("t0", 5, 1);
        let r8 = triangle_request("t0", 8, 2);
        let e5 = baseline_eval(&r5);
        let e8 = baseline_eval(&r8);
        assert_eq!(server.query(r5).unwrap().relations[0], e5);
        let resp8 = server.query(r8).unwrap();
        assert_eq!(resp8.relations[0], e8);
        assert!(resp8.cache_hit, "n=8 reuses the n=5 bucket-8 plan");
        server.shutdown();
    }

    #[test]
    fn quota_and_backpressure_are_typed_errors() {
        // Small fast-to-compile requests with *distinct* plan keys, so
        // the flush-window worker does not coalesce them away.
        let small = |tenant: &str, query: &str, rels: Vec<(&str, Vec<Vec<u64>>)>| Request {
            tenant: tenant.into(),
            query: query.into(),
            n: 2,
            rels: rels
                .into_iter()
                .map(|(n, rows)| (n.to_string(), rows))
                .collect(),
        };
        let mut server = Server::start(ServerConfig {
            workers: 1,
            queue_capacity: 2,
            tenant_quota: 1,
            // One worker held in a long flush window on the first key
            // makes queue growth deterministic.
            flush: Duration::from_secs(5),
            max_batch: 64,
            ..ServerConfig::default()
        });
        // Worker picks this up and waits in its flush window.
        let t_busy = server
            .submit(small(
                "a",
                "Q(x, y) :- R(x, y)",
                vec![("R", vec![vec![1, 2]])],
            ))
            .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        // Different tenants/keys fill the queue (capacity 2)...
        let t1 = server
            .submit(small("b", "Q(x) :- R(x, y)", vec![("R", vec![vec![1, 2]])]))
            .unwrap();
        let t2 = server
            .submit(small("c", "Q() :- R(x, y)", vec![("R", vec![vec![1, 2]])]))
            .unwrap();
        // ...and the next submit is rejected, not dropped.
        let err = server
            .submit(small("d", "Q(y) :- R(x, y)", vec![("R", vec![vec![1, 2]])]))
            .unwrap_err();
        assert_eq!(err, ServeError::Overloaded { queue_depth: 2 });
        // Tenant "b" already has a request in flight; quota is checked
        // before queue capacity, so the error is the quota's.
        let err = server
            .submit(small("b", "Q(y) :- R(x, y)", vec![("R", vec![vec![1, 2]])]))
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::QuotaExceeded {
                tenant: "b".into(),
                in_flight: 1,
                quota: 1,
            }
        );
        // Shutdown cuts the flush window short and drains the queue:
        // every admitted request still completes.
        server.shutdown();
        assert!(t_busy.wait().is_ok());
        assert!(t1.wait().is_ok());
        assert!(t2.wait().is_ok());
    }

    #[test]
    fn warm_start_skips_recompilation() {
        let dir = std::env::temp_dir().join(format!("qec-serve-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let req = triangle_request("t0", 4, 3);
        let expect = baseline_eval(&req);
        {
            let mut server = Server::start(ServerConfig {
                workers: 1,
                persist_dir: Some(dir.clone()),
                ..ServerConfig::default()
            });
            assert_eq!(server.query(req.clone()).unwrap().relations[0], expect);
            assert_eq!(server.cache_stats().misses, 1);
            server.shutdown();
        }
        {
            let mut server = Server::start(ServerConfig {
                workers: 1,
                persist_dir: Some(dir.clone()),
                ..ServerConfig::default()
            });
            let resp = server.query(req).unwrap();
            assert_eq!(resp.relations[0], expect);
            assert!(resp.cache_hit, "persisted plan served without compile");
            assert_eq!(server.cache_stats().misses, 0);
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The budget charge of a plan is its tape's length whether or not
    /// the tape is written: a fresh compile without a persist directory
    /// (which encodes nothing), one with it, and a warm start all charge
    /// `WordTape::encode(&circuit).byte_len()`, which is also the length
    /// of the persisted `.wtape` file.
    #[test]
    fn plan_bytes_is_the_tape_length_with_or_without_persistence() {
        let dir = std::env::temp_dir().join(format!("qec-serve-bytes-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let req = triangle_request("t0", 4, 3);
        let start = |persist_dir: Option<std::path::PathBuf>| {
            Server::start(ServerConfig {
                workers: 1,
                persist_dir,
                ..ServerConfig::default()
            })
        };

        let mut server = start(None);
        server.query(req.clone()).unwrap();
        let unpersisted = server.cache_stats().used_bytes;
        server.shutdown();

        let mut server = start(Some(dir.clone()));
        server.query(req.clone()).unwrap();
        let persisted = server.cache_stats().used_bytes;
        server.shutdown();
        let tapes: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "wtape"))
            .collect();
        assert_eq!(tapes.len(), 1);
        let file_len = std::fs::metadata(&tapes[0]).unwrap().len();
        let circuit = WordTape::load(&tapes[0]).unwrap().decode().unwrap();
        let encoded = WordTape::encode(&circuit).byte_len() as u64;

        let mut server = start(Some(dir.clone()));
        let warm = server.cache_stats().used_bytes;
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(encoded, file_len);
        assert_eq!(unpersisted, encoded, "fresh compile, no persist directory");
        assert_eq!(persisted, encoded, "fresh compile, persisted");
        assert_eq!(warm, encoded, "warm start");
    }

    #[test]
    fn deadlines_are_typed_never_a_hang() {
        let mut server = Server::start(ServerConfig {
            workers: 1,
            // Hold the lone worker in a long flush window so queued
            // requests observably outlive a short caller deadline.
            flush: Duration::from_secs(5),
            max_batch: 64,
            ..ServerConfig::default()
        });
        let _busy = server.submit(triangle_request("hold", 4, 0)).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        let t = Instant::now();
        let err = server
            .query_timeout(triangle_request("t0", 4, 1), Duration::from_millis(50))
            .unwrap_err();
        assert!(matches!(err, ServeError::Deadline { .. }), "{err}");
        assert!(t.elapsed() < Duration::from_secs(4), "wait was bounded");
        // An already-expired deadline returns immediately.
        let err = server
            .submit(triangle_request("t1", 4, 2))
            .unwrap()
            .wait_deadline(Instant::now() - Duration::from_millis(1))
            .unwrap_err();
        assert!(matches!(err, ServeError::Deadline { .. }));
        server.shutdown();
    }

    #[test]
    fn deadline_stress_every_wait_resolves() {
        // Many concurrent callers racing tiny deadlines against a
        // deliberately slow batcher: every single wait must resolve to
        // a response or a typed error — and the server must stay
        // healthy enough to serve a normal query afterwards.
        let server = std::sync::Arc::new(Server::start(ServerConfig {
            workers: 2,
            flush: Duration::from_millis(40),
            max_batch: 8,
            queue_capacity: 16,
            ..ServerConfig::default()
        }));
        let expect = baseline_eval(&triangle_request("t", 4, 9));
        let handles: Vec<_> = (0..4)
            .map(|c| {
                let server = server.clone();
                std::thread::spawn(move || {
                    let mut outcomes = [0usize; 3]; // ok, deadline, other
                    for i in 0..12 {
                        let timeout = Duration::from_micros(200 + 7919 * (c * 12 + i) % 60_000);
                        match server.query_timeout(triangle_request("t", 4, 9), timeout) {
                            Ok(_) => outcomes[0] += 1,
                            Err(ServeError::Deadline { .. }) => outcomes[1] += 1,
                            Err(ServeError::Overloaded { .. }) => outcomes[2] += 1,
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                    outcomes
                })
            })
            .collect();
        for h in handles {
            h.join().expect("stress thread finished (no hang)");
        }
        // The queue may still be draining abandoned jobs; back off on
        // Overloaded as a real client would.
        let resp = loop {
            match server.query_timeout(triangle_request("t", 4, 9), Duration::from_secs(30)) {
                Ok(r) => break r,
                Err(ServeError::Overloaded { .. }) => std::thread::sleep(Duration::from_millis(20)),
                Err(e) => panic!("unexpected error after stress: {e}"),
            }
        };
        assert_eq!(resp.relations[0], expect, "server healthy after stress");
    }

    #[test]
    fn serves_datalog_fixpoints_and_caches_by_program_and_depth() {
        use qec_datalog::{database, result_relation, seminaive, workloads};
        let mut server = Server::start(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        });
        let edges = vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 0]];
        let req = Request {
            tenant: "t".into(),
            query: workloads::TRANSITIVE_CLOSURE.into(),
            n: 4,
            rels: vec![("edge".into(), edges.clone())],
        };
        let dp = DatalogProgram::parse(workloads::TRANSITIVE_CLOSURE).unwrap();
        let db = database(&dp, &[("edge", edges)]).unwrap();
        let expect = result_relation(&dp, &seminaive(&dp, &db, 4).unwrap());
        let r1 = server.query(req.clone()).unwrap();
        assert_eq!(r1.relations.len(), 1);
        assert_eq!(r1.relations[0], expect);
        assert!(!r1.cache_hit);
        // An alpha/whitespace variant of the same program shares the
        // plan via `canonical_text` — no second compile.
        let mut variant = req.clone();
        variant.query = "path(a,b) :- edge(a,b).  path(a,c) :- path(a,b), edge(b,c).".into();
        let r2 = server.query(variant).unwrap();
        assert_eq!(r2.relations[0], expect);
        assert!(r2.cache_hit);
        assert_eq!(server.cache_stats().misses, 1);
        // A different capacity bucket is a different unrolling depth,
        // hence a fresh plan — with the same (converged) fixpoint.
        let mut deeper = req;
        deeper.n = 8;
        let r3 = server.query(deeper).unwrap();
        assert_eq!(r3.relations[0], expect);
        assert!(!r3.cache_hit);
        assert_eq!(server.cache_stats().misses, 2);
        server.shutdown();
    }

    #[test]
    fn serves_min_tropical_shortest_paths() {
        use qec_datalog::{database, result_relation, seminaive, workloads};
        let mut server = Server::start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        // The direct edge 0->2 (weight 9) must lose to 0->1->2 (3).
        let edges = vec![vec![0, 1, 2], vec![1, 2, 1], vec![0, 2, 9], vec![2, 3, 1]];
        let req = Request {
            tenant: "t".into(),
            query: workloads::SHORTEST_PATH.into(),
            n: 4,
            rels: vec![("edge".into(), edges.clone())],
        };
        let dp = DatalogProgram::parse(workloads::SHORTEST_PATH).unwrap();
        let db = database(&dp, &[("edge", edges)]).unwrap();
        let expect = result_relation(&dp, &seminaive(&dp, &db, 4).unwrap());
        let resp = server.query(req).unwrap();
        assert_eq!(resp.relations[0], expect);
        server.shutdown();
    }

    #[test]
    fn rejected_datalog_programs_are_typed_admission_errors() {
        let server = Server::start(ServerConfig::default());
        // Recursive under a non-idempotent semiring: no finite
        // unrolling computes the fixpoint, so admission rejects it.
        let err = server
            .submit(Request {
                tenant: "t".into(),
                query: "p(x, y) :- e*(x, y) @nat. p(x, z) :- p(x, y), e*(y, z) @nat.".into(),
                n: 2,
                rels: vec![("e".into(), vec![vec![0, 1, 1]])],
            })
            .unwrap_err();
        assert!(matches!(err, ServeError::Parse(_)), "{err}");
        // A malformed instance (wrong arity) fails the layout at
        // admission, before any queue slot is taken.
        let err = server
            .submit(Request {
                tenant: "t".into(),
                query: "p(x, y) :- e(x, y). p(x, z) :- p(x, y), e(y, z).".into(),
                n: 2,
                rels: vec![("e".into(), vec![vec![0, 1, 7]])],
            })
            .unwrap_err();
        assert!(matches!(err, ServeError::Layout(_)), "{err}");
    }

    #[test]
    fn parse_errors_are_reported_at_admission() {
        let server = Server::start(ServerConfig::default());
        let err = server
            .submit(Request {
                tenant: "t".into(),
                query: "Q(a :- R(a)".into(),
                n: 2,
                rels: vec![],
            })
            .unwrap_err();
        assert!(matches!(err, ServeError::Parse(_)));
    }
}
