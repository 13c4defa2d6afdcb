//! The fault-tolerant serving layer: a pool of QPU workers behind
//! deadline-aware retry, per-worker circuit breakers, an escalation
//! ladder, and recorded load shedding.
//!
//! [`ResilientServer`] is the guarded counterpart of dispatching
//! frames straight at one [`QpuServer`]: jobs are validated, admission-
//! controlled, routed to the least-loaded healthy worker, and — when a
//! [`FaultPlan`] injects a device fault — retried under the frame's
//! remaining deadline slack ([`RetryPolicy::fund_retry`]), escalated
//! down the ladder (QPU → hybrid → classical), or failed *with a
//! classified error*. Nothing is silently lost: the [`Ledger`]
//! conserves `submitted == completed + shed + failed`.
//!
//! With a quiet plan, one worker, and [`Guardrails::on`], the guarded
//! path is bit-identical to the unguarded [`QpuServer`] dispatch — the
//! resilience machinery prices exactly zero when nothing goes wrong
//! (tested in `tests/properties.rs`).

use crate::breaker::CircuitBreaker;
use crate::cpu::CpuPool;
use crate::fault::{FaultClass, FaultPlan, ServeError};
use crate::hybrid::HybridServer;
use crate::qpu::{JobDirection, QpuServer};
use crate::retry::RetryPolicy;
use quamax_telemetry::{CounterHandle, HistogramHandle, Telemetry};

/// A job's admission-control class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Never shed under the standard policy (control traffic, HARQ
    /// retransmissions already on their last chance).
    High,
    /// Ordinary uplink frames.
    Normal,
    /// Background / delay-tolerant traffic: shed first.
    Low,
}

impl Priority {
    /// Every class, in declaration order.
    pub(crate) const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

    /// A short lowercase label for reports and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }
}

/// Per-priority backpressure limits: a job is shed when every healthy
/// worker's projected queue wait exceeds its priority's limit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShedPolicy {
    /// Max projected wait for [`Priority::High`], µs (`None` = never).
    pub high_max_wait_us: Option<f64>,
    /// Max projected wait for [`Priority::Normal`], µs.
    pub normal_max_wait_us: Option<f64>,
    /// Max projected wait for [`Priority::Low`], µs.
    pub low_max_wait_us: Option<f64>,
}

impl ShedPolicy {
    /// Never sheds (the unguarded configuration — and also what keeps
    /// the guarded fair-weather path bit-identical to plain dispatch).
    pub fn disabled() -> Self {
        ShedPolicy {
            high_max_wait_us: None,
            normal_max_wait_us: None,
            low_max_wait_us: None,
        }
    }

    /// The guarded default: high never sheds, normal sheds past 20 ms
    /// of projected wait, low past 5 ms.
    pub fn standard() -> Self {
        ShedPolicy {
            high_max_wait_us: None,
            normal_max_wait_us: Some(20_000.0),
            low_max_wait_us: Some(5_000.0),
        }
    }

    /// The wait limit for `priority`, µs (`None` = never shed).
    pub fn limit_us(&self, priority: Priority) -> Option<f64> {
        match priority {
            Priority::High => self.high_max_wait_us,
            Priority::Normal => self.normal_max_wait_us,
            Priority::Low => self.low_max_wait_us,
        }
    }
}

/// The full guardrail configuration: what the resilience subsystem is
/// allowed to do about a failure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Guardrails {
    /// Retry funding policy.
    pub retry: RetryPolicy,
    /// Consecutive failures that open a worker's breaker.
    pub breaker_threshold: u32,
    /// Breaker cooldown before a half-open probe, µs.
    pub breaker_cooldown_us: f64,
    /// Backpressure limits.
    pub shed: ShedPolicy,
    /// Whether exhausted jobs escalate down the ladder (hybrid, then
    /// classical) instead of failing.
    pub escalate: bool,
}

impl Guardrails {
    /// Everything on: standard retries, breakers tripping after 3
    /// consecutive failures with a 10 ms cooldown, standard shedding,
    /// escalation enabled.
    pub fn on() -> Self {
        Guardrails {
            retry: RetryPolicy::standard(),
            breaker_threshold: 3,
            breaker_cooldown_us: 10_000.0,
            shed: ShedPolicy::standard(),
            escalate: true,
        }
    }

    /// Everything off: one attempt, breakers that never trip, no
    /// shedding, no escalation — a fault kills its job. The control
    /// arm of the resilience bench.
    pub fn off() -> Self {
        Guardrails {
            retry: RetryPolicy::disabled(),
            breaker_threshold: u32::MAX,
            breaker_cooldown_us: 1.0,
            shed: ShedPolicy::disabled(),
            escalate: false,
        }
    }
}

/// One decode job as the serving layer sees it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Job {
    /// Source key (access-point id): scopes programming sessions.
    pub source: usize,
    /// Uplink detection or downlink precoding. The serving layer's
    /// queueing treats both identically (anneals are anneals); the
    /// direction matters because it is folded into `channel_hash`
    /// upstream ([`crate::channel_hash_directed`]), so a detection
    /// session and a precoding session from the same `H` never share
    /// a cache entry or a batch.
    pub direction: JobDirection,
    /// Channel-estimate hash for the session cache, direction already
    /// folded in (`None` = use the frame-counted coherence model).
    pub channel_hash: Option<u64>,
    /// Subcarrier problems in this frame.
    pub problems: usize,
    /// Logical Ising variables per problem.
    pub logical_vars: usize,
    /// Concurrent users (sizes the classical rungs' service time).
    pub users: usize,
    /// Decode budget relative to submission time, µs — what funds
    /// retries ([`RetryPolicy::fund_retry`]).
    pub deadline_us: f64,
    /// Admission-control class.
    pub priority: Priority,
}

/// Which rung of the escalation ladder served a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ServeRung {
    /// A QPU worker (possibly after retries).
    Qpu,
    /// The classical-first hybrid server.
    Hybrid,
    /// The classical pool floor.
    Classical,
}

impl ServeRung {
    /// Every rung, top of the ladder first.
    pub(crate) const ALL: [ServeRung; 3] =
        [ServeRung::Qpu, ServeRung::Hybrid, ServeRung::Classical];

    /// A short lowercase label for reports and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            ServeRung::Qpu => "qpu",
            ServeRung::Hybrid => "hybrid",
            ServeRung::Classical => "classical",
        }
    }
}

/// A successfully served job.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Served {
    /// Completion time at the data center, µs.
    pub done_us: f64,
    /// QPU attempts consumed (1 = first try; escalated jobs report the
    /// attempts burned before escalating).
    pub attempts: u32,
    /// The rung that produced the answer.
    pub rung: ServeRung,
    /// The worker that served it (`None` for escalated jobs).
    pub worker: Option<usize>,
}

/// The conservation ledger: every submitted job is accounted for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs that produced an answer (any rung).
    pub completed: u64,
    /// Jobs shed by admission control (recorded, not lost).
    pub shed: u64,
    /// Jobs that failed with a classified error.
    pub failed: u64,
    /// In-flight gauge (not a terminal counter): jobs admitted into
    /// the brokered pipeline — sitting in a per-cell queue or an open
    /// batch — whose fate is not yet resolved. The direct
    /// [`ResilientServer::submit`] path resolves within the call, so
    /// it never moves this gauge.
    pub batched: u64,
}

impl Ledger {
    /// The invariant: no job is silently dropped. In-flight jobs are
    /// tolerated at snapshot time — `submitted == completed + shed +
    /// failed + in-flight` — and a drained pipeline has `batched == 0`,
    /// collapsing this to the classic terminal identity.
    pub fn conserved(&self) -> bool {
        self.submitted == self.completed + self.shed + self.failed + self.batched
    }

    /// Jobs admitted but not yet resolved (the `batched` gauge).
    pub fn in_flight(&self) -> u64 {
        self.batched
    }
}

/// One QPU worker plus its health state.
#[derive(Clone, Debug)]
struct QpuWorker {
    qpu: QpuServer,
    breaker: CircuitBreaker,
    /// Time until which this worker is down after a crash, µs.
    crashed_until_us: f64,
    /// Service time of work the batch scheduler has *assigned* to this
    /// worker but not yet dispatched (open batches filling toward
    /// their close time), µs. Counted into the projected queue wait so
    /// admission control and placement see the same load a dispatch
    /// is about to add — without it, every open batch looks free and
    /// shedding/placement systematically under-estimate.
    reserved_us: f64,
}

/// The server's per-job and per-attempt series, resolved once when
/// telemetry is attached. Arrays are indexed like the enums' `ALL`.
#[derive(Clone, Debug, Default)]
struct ServeSeries {
    /// `[direction][priority]`.
    submitted: [[CounterHandle; 3]; 2],
    shed: [CounterHandle; 3],
    served: [CounterHandle; 3],
    attempts: HistogramHandle,
    retries_funded: CounterHandle,
    retries_denied: CounterHandle,
    restarts_warm: CounterHandle,
    restarts_cold: CounterHandle,
    breaker_opened: CounterHandle,
}

impl ServeSeries {
    fn resolve(t: &Telemetry) -> Self {
        let outcome = |o: &str| t.counter("quamax_serve_retries_total", &[("outcome", o)]);
        let restart = |k: &str| t.counter("quamax_serve_restarts_total", &[("kind", k)]);
        ServeSeries {
            submitted: JobDirection::ALL.map(|d| {
                Priority::ALL.map(|p| {
                    t.counter(
                        "quamax_serve_submitted_total",
                        &[("direction", d.name()), ("priority", p.name())],
                    )
                })
            }),
            shed: Priority::ALL
                .map(|p| t.counter("quamax_serve_shed_total", &[("priority", p.name())])),
            served: ServeRung::ALL
                .map(|r| t.counter("quamax_serve_served_total", &[("rung", r.name())])),
            attempts: t.histogram("quamax_serve_attempts", &[]),
            retries_funded: outcome("funded"),
            retries_denied: outcome("denied"),
            restarts_warm: restart("warm"),
            restarts_cold: restart("cold"),
            breaker_opened: t.counter("quamax_breaker_transitions_total", &[("to", "open")]),
        }
    }

    fn submitted(&self, job: &Job) -> &CounterHandle {
        &self.submitted[job.direction as usize][job.priority as usize]
    }
}

/// A pool of QPU workers behind the full guardrail stack.
pub struct ResilientServer {
    workers: Vec<QpuWorker>,
    /// The classical floor of the escalation ladder: always present,
    /// always assumed reliable (it is a plain multicore pool).
    classical: CpuPool,
    /// Optional middle rung: classical-first with quantum fallback.
    hybrid: Option<HybridServer>,
    plan: FaultPlan,
    guardrails: Guardrails,
    ledger: Ledger,
    /// Monotone job ids — the `job` axis of the fault plan's draws.
    job_seq: u64,
    /// Metrics handle (disabled by default). Recording never feeds
    /// back into routing, retry funding, or the fault schedule, so
    /// enabling it cannot perturb any completion time.
    telemetry: Telemetry,
    /// `telemetry`'s per-job series.
    series: ServeSeries,
}

impl ResilientServer {
    /// A server over `workers` identical QPUs with `classical` as the
    /// escalation floor, injecting faults from `plan` under
    /// `guardrails`.
    ///
    /// # Panics
    /// Panics when `workers` is empty.
    pub fn new(
        workers: Vec<QpuServer>,
        classical: CpuPool,
        plan: FaultPlan,
        guardrails: Guardrails,
    ) -> Self {
        assert!(!workers.is_empty(), "need at least one QPU worker");
        let breaker =
            CircuitBreaker::new(guardrails.breaker_threshold, guardrails.breaker_cooldown_us);
        ResilientServer {
            workers: workers
                .into_iter()
                .map(|qpu| QpuWorker {
                    qpu,
                    breaker: breaker.clone(),
                    crashed_until_us: 0.0,
                    reserved_us: 0.0,
                })
                .collect(),
            classical,
            hybrid: None,
            plan,
            guardrails,
            ledger: Ledger::default(),
            job_seq: 0,
            telemetry: Telemetry::disabled(),
            series: ServeSeries::default(),
        }
    }

    /// Inserts the hybrid middle rung of the escalation ladder.
    pub fn with_hybrid(mut self, hybrid: HybridServer) -> Self {
        self.hybrid = Some(hybrid);
        self
    }

    /// Attaches a metrics handle, propagating it to every worker QPU
    /// (their enqueues record the per-stage spans into the same
    /// registry).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.set_telemetry(telemetry);
        self
    }

    /// In-place [`ResilientServer::with_telemetry`].
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        for w in &mut self.workers {
            w.qpu.set_telemetry(telemetry.clone());
        }
        self.series = ServeSeries::resolve(&telemetry);
        self.telemetry = telemetry;
    }

    /// The attached metrics handle (disabled unless configured).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Publishes the snapshot-time views — conservation ledger,
    /// per-worker breaker trips and session-cache counters, per-class
    /// fault census — into the registry. The programmatic accessors
    /// ([`ResilientServer::ledger`], [`ResilientServer::breaker_trips`],
    /// [`ResilientServer::fault_plan`]) are unchanged; this is the
    /// collect-callback view of the same numbers.
    pub fn publish_telemetry(&self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let t = &self.telemetry;
        let ledger = self.ledger;
        for (state, v) in [
            ("submitted", ledger.submitted),
            ("completed", ledger.completed),
            ("shed", ledger.shed),
            ("failed", ledger.failed),
        ] {
            t.counter_store("quamax_serve_ledger_total", &[("state", state)], v);
        }
        t.gauge_set("quamax_serve_in_flight", &[], ledger.batched as f64);
        let counters = self.plan.counters();
        for class in FaultClass::ALL {
            t.counter_store(
                "quamax_serve_faults_total",
                &[("class", class.name())],
                counters.count(class),
            );
        }
        for (i, w) in self.workers.iter().enumerate() {
            let worker = i.to_string();
            let labels = [("worker", worker.as_str())];
            t.counter_store("quamax_breaker_trips_total", &labels, w.breaker.trips());
            if let Some(cache) = w.qpu.session_cache() {
                cache.publish_telemetry(t, &labels);
            }
        }
    }

    /// The conservation ledger so far.
    pub fn ledger(&self) -> Ledger {
        self.ledger
    }

    /// The fault plan (for its counters).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Lifetime breaker trips summed over workers.
    pub fn breaker_trips(&self) -> u64 {
        self.workers.iter().map(|w| w.breaker.trips()).sum()
    }

    /// Worker count.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// The session-cache coherence time of worker 0, if its QPU has a
    /// cache attached — the simulation uses it to synthesize channel
    /// hashes exactly as it does for a plain [`QpuServer`].
    pub fn coherence_us(&self) -> Option<f64> {
        self.workers[0]
            .qpu
            .session_cache()
            .map(|c| c.coherence_us())
    }

    /// Resets every worker, the ladder rungs, the plan counters, and
    /// the ledger (new simulation; the fault *schedule* is unchanged).
    pub fn reset(&mut self) {
        for w in &mut self.workers {
            w.qpu.reset();
            w.breaker.reset();
            w.crashed_until_us = 0.0;
            w.reserved_us = 0.0;
        }
        self.classical.reset();
        if let Some(h) = self.hybrid.as_mut() {
            h.reset();
        }
        self.plan.reset();
        self.ledger = Ledger::default();
        self.job_seq = 0;
    }

    /// Workers currently allowed to take a job at `now_us` (repaired
    /// and breaker-permitted), with their projected queue waits —
    /// FIFO backlog *plus* reserved (batched-but-undispatched) work.
    fn eligible(&mut self, now_us: f64) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        for (i, w) in self.workers.iter_mut().enumerate() {
            if w.crashed_until_us <= now_us && w.breaker.allows(now_us) {
                out.push((i, (w.qpu.busy_until_us() - now_us).max(0.0) + w.reserved_us));
            }
        }
        out
    }

    /// Projected wait of one worker at `now_us`: its FIFO backlog plus
    /// the service time of open batches the scheduler has assigned to
    /// it. `None` when the worker is crashed or breaker-blocked.
    ///
    /// This is *the* load estimate: admission control
    /// ([`ResilientServer::shed_wait_us`]), least-loaded placement, and
    /// the batch scheduler's close-time projection all read it, so a
    /// job a worker is batching is never invisible to any of them.
    pub fn queue_depth_us(&mut self, worker: usize, now_us: f64) -> Option<f64> {
        let w = &mut self.workers[worker];
        if w.crashed_until_us <= now_us && w.breaker.allows(now_us) {
            Some((w.qpu.busy_until_us() - now_us).max(0.0) + w.reserved_us)
        } else {
            None
        }
    }

    /// The pool's projected wait at `now_us`: the minimum
    /// [`ResilientServer::queue_depth_us`] over eligible workers, or
    /// `None` when no worker can take a job right now.
    pub fn projected_wait_us(&mut self, now_us: f64) -> Option<f64> {
        let eligible = self.eligible(now_us);
        if eligible.is_empty() {
            return None;
        }
        Some(
            eligible
                .iter()
                .map(|&(_, w)| w)
                .fold(f64::INFINITY, f64::min),
        )
    }

    /// Until when the projected wait behind `worker` (or, for `None`,
    /// behind the least-loaded eligible worker — the
    /// [`ResilientServer::projected_wait_us`] view) keeps draining one
    /// µs per µs at `now_us`: that worker's busy-until, or `now_us` when
    /// it is idle or no such worker is eligible. The batch scheduler
    /// re-arms a close event there instead of re-pricing a draining
    /// wait at every step.
    pub(crate) fn wait_drains_until_us(&mut self, now_us: f64, worker: Option<usize>) -> f64 {
        let worker = match worker {
            Some(w) => self.queue_depth_us(w, now_us).map(|_| w),
            None => self
                .eligible(now_us)
                .into_iter()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(w, _)| w),
        };
        worker.map_or(now_us, |w| self.workers[w].qpu.busy_until_us().max(now_us))
    }

    /// The single shedding estimate shared by direct submission and
    /// broker admission: `Some(projected wait)` when a job of
    /// `priority` must be shed at `now_us` (every healthy worker's
    /// projected wait — batching reservations included — exceeds the
    /// priority's limit), `None` when it may proceed. A pool with no
    /// eligible worker does not shed: the job proceeds into the retry/
    /// escalation machinery, which knows what to do about an empty
    /// pool.
    pub fn shed_wait_us(&mut self, now_us: f64, priority: Priority) -> Option<f64> {
        let limit = self.guardrails.shed.limit_us(priority)?;
        let wait = self.projected_wait_us(now_us)?;
        (wait > limit).then_some(wait)
    }

    /// Reserves `delta_us` of projected service on `worker` for an
    /// open (not yet dispatched) batch. The reservation is visible to
    /// every load estimate until released.
    pub fn reserve_batch_us(&mut self, worker: usize, delta_us: f64) {
        assert!(delta_us >= 0.0, "reservations only grow the backlog");
        self.workers[worker].reserved_us += delta_us;
    }

    /// Releases `delta_us` of reservation on `worker` (the batch was
    /// dispatched — its load now lives in the worker's real FIFO — or
    /// abandoned). Saturates at zero.
    pub fn release_batch_us(&mut self, worker: usize, delta_us: f64) {
        assert!(delta_us >= 0.0, "releases cannot be negative");
        let w = &mut self.workers[worker];
        w.reserved_us = (w.reserved_us - delta_us).max(0.0);
    }

    /// The lowest-index worker whose session cache holds a fresh
    /// `(key, hash)` entry at `now_us` — the cache-aware placement
    /// preference: dispatching there skips preprocessing + programming
    /// entirely. Placement preference only; dispatch still checks
    /// breaker/crash eligibility.
    pub fn cached_worker(&self, now_us: f64, key: usize, hash: u64) -> Option<usize> {
        self.workers
            .iter()
            .position(|w| w.qpu.has_cached_session(now_us, key, hash))
    }

    /// Until when [`ResilientServer::cached_worker`] keeps finding
    /// `(key, hash)`: the last instant any worker's entry expires (see
    /// [`crate::qpu::SessionCache::expires_us`]), or `None` when no
    /// worker holds it fresh at `now_us`.
    pub(crate) fn cached_until_us(&self, now_us: f64, key: usize, hash: u64) -> Option<f64> {
        self.workers
            .iter()
            .filter_map(|w| w.qpu.session_cache()?.expires_us(now_us, key, hash))
            .max_by(f64::total_cmp)
    }

    /// Service time of one combined batch on a pool worker (the
    /// workers are identical): `program` charges preprocessing +
    /// programming (a cache miss on the target).
    pub fn batch_service_us(&self, problems: usize, logical_vars: usize, program: bool) -> f64 {
        self.workers[0]
            .qpu
            .amortized_service_time_us(problems, logical_vars, program)
    }

    /// Service time of one combined batch on the classical floor.
    pub fn classical_service_us(&self, problems: usize, users: usize) -> f64 {
        self.classical.service_time_us(problems, users)
    }

    /// When the classical floor's FIFO drains, µs — the cost-aware
    /// policy projects classical completion times from it.
    pub fn classical_busy_until_us(&self) -> f64 {
        self.classical.busy_until_us()
    }

    /// Picks the worker for an attempt at `now_us`: the least-loaded
    /// eligible worker (ties to the lowest index — deterministic).
    /// Warm retries prefer the previous worker (its chip still holds
    /// the programmed problem); cold retries prefer an *alternate*
    /// when one is eligible (the previous worker just failed).
    fn pick_worker(&mut self, now_us: f64, warm: bool, prev: Option<usize>) -> Option<usize> {
        let eligible = self.eligible(now_us);
        if eligible.is_empty() {
            return None;
        }
        if warm {
            if let Some(p) = prev {
                if eligible.iter().any(|&(i, _)| i == p) {
                    return Some(p);
                }
            }
        }
        let exclude_prev = match prev {
            Some(p) if !warm => eligible.iter().any(|&(i, _)| i != p),
            _ => false,
        };
        let mut best: Option<(usize, f64)> = None;
        for &(i, wait) in &eligible {
            if exclude_prev && Some(i) == prev {
                continue;
            }
            // Strict `<` keeps ties on the lowest index: deterministic.
            let better = match best {
                None => true,
                Some((_, bw)) => wait < bw,
            };
            if better {
                best = Some((i, wait));
            }
        }
        best.map(|(i, _)| i)
    }

    /// Shape validation shared by direct submission and broker
    /// admission.
    fn validate(job: &Job) -> Result<(), ServeError> {
        if job.problems == 0 {
            return Err(ServeError::InvalidJob("zero problems in frame"));
        }
        if job.logical_vars == 0 {
            return Err(ServeError::InvalidJob("zero logical variables"));
        }
        Ok(())
    }

    /// Submits one job at `now_us`; returns where and when it was
    /// served, or a classified [`ServeError`]. Updates the ledger
    /// either way.
    pub fn submit(&mut self, now_us: f64, job: &Job) -> Result<Served, ServeError> {
        self.ledger.submitted += 1;
        self.series.submitted(job).inc();
        if let Err(e) = Self::validate(job) {
            self.job_seq += 1;
            self.ledger.failed += 1;
            return Err(e);
        }

        // Backpressure: shed when every healthy worker's projected
        // wait exceeds this priority's limit. Shedding is a final,
        // recorded admission decision — never a silent drop.
        if let Some(wait) = self.shed_wait_us(now_us, job.priority) {
            self.job_seq += 1;
            self.ledger.shed += 1;
            self.series.shed[job.priority as usize].inc();
            return Err(ServeError::Shed {
                projected_wait_us: wait,
            });
        }

        match self.serve_attempts(now_us, job, job.problems, None) {
            Ok(served) => {
                self.ledger.completed += 1;
                Ok(served)
            }
            Err(e) => {
                self.ledger.failed += 1;
                Err(e)
            }
        }
    }

    /// Admits one job into the brokered pipeline at `now_us` without
    /// serving it: validation and the shared shedding estimate run
    /// now (an invalid or shed job is a terminal, ledgered decision),
    /// an admitted job moves the ledger's `batched` in-flight gauge
    /// and *must* later be resolved by exactly one of
    /// [`ResilientServer::dispatch_batch`],
    /// [`ResilientServer::dispatch_batch_classical`], or
    /// [`ResilientServer::resolve_shed`].
    ///
    /// Admission and dispatch burn fault-plan job ids exactly like the
    /// direct path — one id per terminal admission decision, one per
    /// dispatched batch — so a broker that dispatches every job as a
    /// batch of one replays [`ResilientServer::submit`]'s fault
    /// schedule bit for bit.
    pub fn admit(&mut self, now_us: f64, job: &Job) -> Result<(), ServeError> {
        self.ledger.submitted += 1;
        self.series.submitted(job).inc();
        if let Err(e) = Self::validate(job) {
            self.job_seq += 1;
            self.ledger.failed += 1;
            return Err(e);
        }
        if let Some(wait) = self.shed_wait_us(now_us, job.priority) {
            self.job_seq += 1;
            self.ledger.shed += 1;
            self.series.shed[job.priority as usize].inc();
            return Err(ServeError::Shed {
                projected_wait_us: wait,
            });
        }
        self.ledger.batched += 1;
        Ok(())
    }

    /// Resolves `count` previously admitted jobs as shed (a queue the
    /// scheduler decided to cut under backpressure after admission).
    pub fn resolve_shed(&mut self, count: u64) {
        assert!(
            self.ledger.batched >= count,
            "cannot shed more jobs than are in flight"
        );
        self.ledger.batched -= count;
        self.ledger.shed += count;
    }

    /// Dispatches a closed batch of `count` previously admitted jobs
    /// sharing one compiled problem (same cell, same channel hash) as
    /// a single combined frame of `problems` subcarrier problems:
    /// one fault-plan draw per attempt, one programming decision, the
    /// anneal waves tiled across the whole batch. `proto` carries the
    /// batch's shared coordinates; its `deadline_us` must be the
    /// *earliest member's* remaining slack, so deadline-funded retries
    /// never overdraw any member. `preferred` is the scheduler's
    /// cache-aware placement hint, honored on the first attempt when
    /// that worker is eligible.
    ///
    /// Every member completes when the batch completes. The ledger
    /// moves `count` jobs from the `batched` gauge to `completed` or
    /// `failed`.
    pub fn dispatch_batch(
        &mut self,
        now_us: f64,
        proto: &Job,
        problems: usize,
        count: u64,
        preferred: Option<usize>,
    ) -> Result<Served, ServeError> {
        assert!(count > 0, "a batch holds at least one job");
        assert!(
            self.ledger.batched >= count,
            "dispatching jobs that were never admitted"
        );
        self.ledger.batched -= count;
        match self.serve_attempts(now_us, proto, problems, preferred) {
            Ok(served) => {
                self.ledger.completed += count;
                Ok(served)
            }
            Err(e) => {
                self.ledger.failed += count;
                Err(e)
            }
        }
    }

    /// Dispatches a closed batch of `count` admitted jobs straight to
    /// the classical floor — the cost-aware policy's route for batches
    /// whose slack can afford CPU service at CPU prices, keeping the
    /// annealer pool for the tight tail.
    pub fn dispatch_batch_classical(
        &mut self,
        now_us: f64,
        proto: &Job,
        problems: usize,
        count: u64,
    ) -> Served {
        assert!(count > 0, "a batch holds at least one job");
        assert!(
            self.ledger.batched >= count,
            "dispatching jobs that were never admitted"
        );
        self.ledger.batched -= count;
        let done = self.classical.enqueue(now_us, problems, proto.users);
        self.ledger.completed += count;
        self.series.served[ServeRung::Classical as usize].add(count);
        Served {
            done_us: done,
            attempts: 0,
            rung: ServeRung::Classical,
            worker: None,
        }
    }

    /// The retry/escalation loop shared by [`ResilientServer::submit`]
    /// (one job, its own problem count) and
    /// [`ResilientServer::dispatch_batch`] (a coalesced batch serving
    /// `problems` combined subcarrier problems). Burns one fault-plan
    /// job id. Ledger accounting is the caller's.
    fn serve_attempts(
        &mut self,
        now_us: f64,
        job: &Job,
        problems: usize,
        preferred: Option<usize>,
    ) -> Result<Served, ServeError> {
        let job_id = self.job_seq;
        self.job_seq += 1;

        let mut attempt: u32 = 1;
        let mut t = now_us;
        let mut warm = false;
        let mut prev: Option<usize> = None;
        let mut last_err = ServeError::WorkerUnavailable;
        loop {
            // Cache-aware placement: the scheduler's preferred worker
            // (its chip already programmed with this batch's problem)
            // wins the first attempt when eligible; retries fall back
            // to the standard warm/alternate routing.
            let picked = match preferred {
                Some(p) if attempt == 1 && self.eligible(t).iter().any(|&(i, _)| i == p) => Some(p),
                _ => self.pick_worker(t, warm, prev),
            };
            let Some(w) = picked else { break };
            let fault = self.plan.draw(w, job_id, attempt);
            let worker = &mut self.workers[w];
            match fault {
                None | Some(FaultClass::WorkerStall) => {
                    // The job runs to completion — a stall just lands
                    // it late (and holds the worker through the stall).
                    let mut done = if warm {
                        worker.qpu.enqueue_warm_retry(
                            t,
                            problems,
                            job.logical_vars,
                            self.guardrails.retry.warm_fraction,
                        )
                    } else if let Some(hash) = job.channel_hash {
                        worker
                            .qpu
                            .enqueue_channel(t, job.source, hash, problems, job.logical_vars)
                    } else {
                        worker
                            .qpu
                            .enqueue_keyed(t, job.source, problems, job.logical_vars)
                    };
                    if fault.is_some() {
                        done = worker.qpu.occupy_us(done, self.plan.stall_us());
                    }
                    worker.breaker.on_success();
                    self.series.served[ServeRung::Qpu as usize].inc();
                    self.series.attempts.observe(f64::from(attempt));
                    return Ok(Served {
                        done_us: done,
                        attempts: attempt,
                        rung: ServeRung::Qpu,
                        worker: Some(w),
                    });
                }
                Some(class @ FaultClass::WorkerCrash) => {
                    // The dispatcher learns immediately; the worker is
                    // down for the repair interval. The job never ran,
                    // so a retry is cold and must use an alternate.
                    worker.crashed_until_us = t + self.plan.repair_us();
                    note_breaker_failure(&self.series.breaker_opened, &mut worker.breaker, t);
                    last_err = ServeError::Fault { class };
                    warm = false;
                }
                Some(class @ FaultClass::ProgrammingFailure) => {
                    // Fail fast: only the programming cycle is lost,
                    // nothing was annealed — the retry is cold.
                    let fail_at = worker
                        .qpu
                        .occupy_us(t, worker.qpu.overheads().programming_us);
                    note_breaker_failure(&self.series.breaker_opened, &mut worker.breaker, fail_at);
                    last_err = ServeError::Fault { class };
                    warm = false;
                    t = fail_at;
                }
                Some(class) => {
                    // Chain-break storm / ICE drift: the anneals ran
                    // (full service charged) but their quality is
                    // garbage. The best candidate survives, so the
                    // retry is a warm reverse-anneal restart.
                    debug_assert!(class.warm_restartable());
                    let fail_at = if warm {
                        worker.qpu.enqueue_warm_retry(
                            t,
                            problems,
                            job.logical_vars,
                            self.guardrails.retry.warm_fraction,
                        )
                    } else if let Some(hash) = job.channel_hash {
                        worker
                            .qpu
                            .enqueue_channel(t, job.source, hash, problems, job.logical_vars)
                    } else {
                        worker
                            .qpu
                            .enqueue_keyed(t, job.source, problems, job.logical_vars)
                    };
                    note_breaker_failure(&self.series.breaker_opened, &mut worker.breaker, fail_at);
                    last_err = ServeError::Fault { class };
                    warm = true;
                    t = fail_at;
                }
            }
            // The attempt failed at time `t`. Fund a retry from the
            // remaining deadline slack, or leave the loop.
            prev = Some(w);
            let retry_cost = if warm {
                self.workers[w].qpu.warm_retry_time_us(
                    problems,
                    job.logical_vars,
                    self.guardrails.retry.warm_fraction,
                )
            } else {
                self.workers[w]
                    .qpu
                    .service_time_us(problems, job.logical_vars)
            };
            match self.guardrails.retry.fund_retry(
                attempt + 1,
                t - now_us,
                job.deadline_us,
                retry_cost,
                self.plan.seed() ^ job_id,
            ) {
                Some(backoff) => {
                    self.series.retries_funded.inc();
                    if warm {
                        self.series.restarts_warm.inc();
                    } else {
                        self.series.restarts_cold.inc();
                    }
                    t += backoff;
                    attempt += 1;
                }
                None => {
                    self.series.retries_denied.inc();
                    break;
                }
            }
        }

        // Retries exhausted (or no worker): walk down the ladder.
        if self.guardrails.escalate {
            let (done, rung) = match self.hybrid.as_mut() {
                Some(h) => (
                    h.enqueue_keyed(t, job.source, problems, job.users, job.logical_vars),
                    ServeRung::Hybrid,
                ),
                None => (
                    self.classical.enqueue(t, problems, job.users),
                    ServeRung::Classical,
                ),
            };
            self.series.served[rung as usize].inc();
            self.series.attempts.observe(f64::from(attempt));
            return Ok(Served {
                done_us: done,
                attempts: attempt,
                rung,
                worker: None,
            });
        }
        Err(last_err)
    }
}

/// Records the breaker failure and, when it tripped the breaker from
/// closed to open, bumps the transition counter. Uses the pure-read
/// [`CircuitBreaker::trips`] delta — never an extra
/// [`CircuitBreaker::state`] call, which would advance open → half-open
/// and perturb routing when telemetry is on.
fn note_breaker_failure(opened: &CounterHandle, breaker: &mut CircuitBreaker, at_us: f64) {
    let before = breaker.trips();
    breaker.on_failure(at_us);
    if breaker.trips() > before {
        opened.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuPolicy;
    use crate::fault::FaultRates;
    use crate::qpu::QpuOverheads;

    fn qpu() -> QpuServer {
        QpuServer::new(QpuOverheads::integrated(), 1.0, 10)
    }

    fn classical() -> CpuPool {
        CpuPool::new(
            8,
            CpuPolicy::ZeroForcing {
                vectors_per_channel: 1,
            },
        )
    }

    fn job(deadline_us: f64) -> Job {
        Job {
            source: 0,
            direction: JobDirection::Uplink,
            channel_hash: None,
            problems: 1,
            logical_vars: 16,
            users: 16,
            deadline_us,
            priority: Priority::Normal,
        }
    }

    #[test]
    fn quiet_plan_serves_like_a_plain_qpu() {
        let mut srv = ResilientServer::new(
            vec![qpu()],
            classical(),
            FaultPlan::quiet(1),
            Guardrails::on(),
        );
        let mut plain = qpu();
        for k in 0..20 {
            let at = 100.0 * k as f64;
            let served = srv.submit(at, &job(1e6)).unwrap();
            let expect = plain.enqueue_keyed(at, 0, 1, 16);
            assert_eq!(served.done_us.to_bits(), expect.to_bits(), "job {k}");
            assert_eq!(served.attempts, 1);
            assert_eq!(served.rung, ServeRung::Qpu);
            assert_eq!(served.worker, Some(0));
        }
        let ledger = srv.ledger();
        assert_eq!(ledger.submitted, 20);
        assert_eq!(ledger.completed, 20);
        assert!(ledger.conserved());
        assert_eq!(srv.breaker_trips(), 0);
    }

    #[test]
    fn invalid_jobs_are_classified_and_ledgered() {
        let mut srv = ResilientServer::new(
            vec![qpu()],
            classical(),
            FaultPlan::quiet(1),
            Guardrails::on(),
        );
        let mut bad = job(1e6);
        bad.problems = 0;
        assert_eq!(
            srv.submit(0.0, &bad),
            Err(ServeError::InvalidJob("zero problems in frame"))
        );
        bad.problems = 1;
        bad.logical_vars = 0;
        assert_eq!(
            srv.submit(0.0, &bad),
            Err(ServeError::InvalidJob("zero logical variables"))
        );
        let ledger = srv.ledger();
        assert_eq!(ledger.failed, 2);
        assert!(ledger.conserved());
    }

    /// A plan whose rates make *every* draw fire as `class`.
    fn always(class: FaultClass) -> FaultPlan {
        let mut r = FaultRates::none();
        match class {
            FaultClass::ChainBreakStorm => r.chain_break_storm = 1.0,
            FaultClass::IceDrift => r.ice_drift = 1.0,
            FaultClass::ProgrammingFailure => r.programming_failure = 1.0,
            FaultClass::WorkerStall => r.worker_stall = 1.0,
            FaultClass::WorkerCrash => r.worker_crash = 1.0,
        }
        FaultPlan::new(5, r)
    }

    #[test]
    fn stalls_complete_late_but_complete() {
        let mut srv = ResilientServer::new(
            vec![qpu()],
            classical(),
            always(FaultClass::WorkerStall).with_stall_us(500.0),
            Guardrails::off(),
        );
        let served = srv.submit(0.0, &job(1e6)).unwrap();
        let plain = qpu().enqueue_keyed(0.0, 0, 1, 16);
        assert!((served.done_us - plain - 500.0).abs() < 1e-9);
        assert!(srv.ledger().conserved());
        assert_eq!(srv.fault_plan().counters().worker_stalls, 1);
    }

    #[test]
    fn unguarded_faults_kill_their_jobs() {
        let mut srv = ResilientServer::new(
            vec![qpu()],
            classical(),
            always(FaultClass::IceDrift),
            Guardrails::off(),
        );
        assert_eq!(
            srv.submit(0.0, &job(1e6)),
            Err(ServeError::Fault {
                class: FaultClass::IceDrift
            })
        );
        let ledger = srv.ledger();
        assert_eq!((ledger.failed, ledger.completed), (1, 0));
        assert!(ledger.conserved());
    }

    #[test]
    fn guarded_jobs_escalate_to_the_classical_floor() {
        // Every QPU attempt drifts; guardrails exhaust the retries and
        // the classical pool answers.
        let mut srv = ResilientServer::new(
            vec![qpu(), qpu()],
            classical(),
            always(FaultClass::IceDrift),
            Guardrails::on(),
        );
        let served = srv.submit(0.0, &job(1e9)).unwrap();
        assert_eq!(served.rung, ServeRung::Classical);
        assert_eq!(served.worker, None);
        assert_eq!(served.attempts, RetryPolicy::standard().max_attempts);
        assert!(srv.ledger().conserved());
        assert_eq!(srv.ledger().completed, 1);
    }

    #[test]
    fn hybrid_rung_precedes_classical() {
        let hybrid = HybridServer::new(classical(), qpu(), 0.1);
        let mut srv = ResilientServer::new(
            vec![qpu()],
            classical(),
            always(FaultClass::ProgrammingFailure),
            Guardrails::on(),
        )
        .with_hybrid(hybrid);
        let served = srv.submit(0.0, &job(1e9)).unwrap();
        assert_eq!(served.rung, ServeRung::Hybrid);
    }

    #[test]
    fn crash_downs_the_worker_and_retries_route_around_it() {
        // Worker picked first crashes on its first draw; the retry must
        // land on the other worker. Keyed draws: (w, job 0, attempt 1)
        // crashes for every worker under `always`, so attempt 2 also
        // crashes... instead use a plan where only attempt 1 fires.
        let mut plan = always(FaultClass::WorkerCrash);
        plan = plan.with_repair_us(1_000.0);
        let mut srv = ResilientServer::new(
            vec![qpu(), qpu()],
            classical(),
            plan,
            Guardrails {
                escalate: false,
                ..Guardrails::on()
            },
        );
        // Every attempt crashes its worker; after both workers are
        // down, no worker is available and (escalation off) the job
        // fails classified.
        let err = srv.submit(0.0, &job(1e9)).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Fault {
                class: FaultClass::WorkerCrash
            } | ServeError::WorkerUnavailable
        ));
        // Both workers are down until repair.
        assert!(srv.eligible(10.0).is_empty());
        assert_eq!(srv.eligible(2_000.0).len(), 2, "repair restores both");
        assert!(srv.ledger().conserved());
    }

    #[test]
    fn breaker_opens_after_threshold_and_sheds_traffic_to_floor() {
        let mut srv = ResilientServer::new(
            vec![qpu()],
            classical(),
            always(FaultClass::ProgrammingFailure),
            Guardrails {
                retry: RetryPolicy::disabled(),
                ..Guardrails::on()
            },
        );
        // Threshold 3: three one-attempt failures trip the breaker.
        for k in 0..3 {
            let served = srv.submit(k as f64, &job(1e9)).unwrap();
            assert_eq!(served.rung, ServeRung::Classical, "job {k} escalates");
        }
        assert_eq!(srv.breaker_trips(), 1);
        // With the breaker open, the next job never touches the QPU:
        // no new fault draw fires.
        let before = srv.fault_plan().counters().total();
        let served = srv.submit(3.0, &job(1e9)).unwrap();
        assert_eq!(served.rung, ServeRung::Classical);
        assert_eq!(srv.fault_plan().counters().total(), before);
    }

    #[test]
    fn backpressure_sheds_low_priority_first_and_records_it() {
        // Saturate the single worker, then submit one job per class.
        let slow = QpuServer::new(QpuOverheads::current_dw2q(), 2.0, 50);
        let mut srv = ResilientServer::new(
            vec![slow],
            classical(),
            FaultPlan::quiet(1),
            Guardrails::on(),
        );
        let mut high = job(1e9);
        high.priority = Priority::High;
        for k in 0..20 {
            let _ = srv.submit(k as f64, &high).unwrap();
        }
        let mut low = job(1e9);
        low.priority = Priority::Low;
        let shed = srv.submit(20.0, &low).unwrap_err();
        assert!(matches!(shed, ServeError::Shed { projected_wait_us } if projected_wait_us > 0.0));
        let kept = srv.submit(21.0, &high).unwrap();
        assert_eq!(kept.rung, ServeRung::Qpu, "high priority is never shed");
        let ledger = srv.ledger();
        assert_eq!(ledger.shed, 1);
        assert!(ledger.conserved());
    }

    #[test]
    fn warm_retry_is_cheaper_than_a_cold_second_attempt() {
        // One storm, then success: the retry reverse-anneals warm. With
        // jitter off the completion time is exactly first-failure +
        // backoff + warm service.
        let mut rates = FaultRates::none();
        rates.chain_break_storm = 0.6;
        let plan = FaultPlan::new(9, rates);
        // Find a job id whose attempt 1 faults and attempt 2 does not.
        let mut probe = None;
        for j in 0..100 {
            if plan.peek(0, j, 1).is_some() && plan.peek(0, j, 2).is_none() {
                probe = Some(j);
                break;
            }
        }
        let probe = probe.expect("a storm-then-clear job exists");
        let guard = Guardrails {
            retry: RetryPolicy {
                jitter_fraction: 0.0,
                ..RetryPolicy::standard()
            },
            ..Guardrails::on()
        };
        let mut srv = ResilientServer::new(vec![qpu()], classical(), plan, guard);
        // Burn job ids up to the probe (deadline 0 funds nothing, so
        // each is a single attempt; escalation completes them).
        for _ in 0..probe {
            let _ = srv.submit(0.0, &job(0.0));
        }
        let t0 = srv.workers[0].qpu.busy_until_us();
        let served = srv.submit(t0, &job(1e9)).unwrap();
        assert_eq!(served.attempts, 2);
        let cold = qpu().service_time_us(1, 16);
        let warm = qpu().warm_retry_time_us(1, 16, guard.retry.warm_fraction);
        let expect = t0 + cold + 20.0 + warm;
        assert!(
            (served.done_us - expect).abs() < 1e-9,
            "done {} expect {expect}",
            served.done_us
        );
    }

    #[test]
    fn reset_clears_state_but_not_the_schedule() {
        let mut srv = ResilientServer::new(
            vec![qpu()],
            classical(),
            FaultPlan::new(3, FaultRates::uniform(0.1)),
            Guardrails::on(),
        );
        let mut first = Vec::new();
        for k in 0..50 {
            first.push(srv.submit(100.0 * k as f64, &job(1e9)).map(|s| s.done_us));
        }
        let ledger = srv.ledger();
        srv.reset();
        assert_eq!(srv.ledger(), Ledger::default());
        let mut again = Vec::new();
        for k in 0..50 {
            again.push(srv.submit(100.0 * k as f64, &job(1e9)).map(|s| s.done_us));
        }
        assert_eq!(first, again, "same schedule after reset");
        assert_eq!(ledger, srv.ledger());
    }

    #[test]
    fn telemetry_never_perturbs_serving_and_counts_the_right_events() {
        // Same faulty workload with telemetry off and on: every outcome
        // (including completion-time bits and the fault schedule) must
        // match, because recording may observe the serve path but never
        // feed back into it.
        let plan = || FaultPlan::new(3, FaultRates::uniform(0.1));
        let run = |telemetry: Telemetry| {
            let mut srv =
                ResilientServer::new(vec![qpu(), qpu()], classical(), plan(), Guardrails::on())
                    .with_telemetry(telemetry);
            let mut outcomes = Vec::new();
            for k in 0..200 {
                outcomes.push(
                    srv.submit(40.0 * k as f64, &job(1e4))
                        .map(|s| (s.done_us.to_bits(), s.attempts, s.rung, s.worker)),
                );
            }
            srv.publish_telemetry();
            (outcomes, srv.ledger(), srv.breaker_trips())
        };

        let t = Telemetry::enabled();
        let (plain, plain_ledger, plain_trips) = run(Telemetry::disabled());
        let (observed, ledger, trips) = run(t.clone());
        assert_eq!(plain, observed, "telemetry changed a serve outcome");
        assert_eq!(plain_ledger, ledger);
        assert_eq!(plain_trips, trips);

        let snap = t.snapshot();
        assert_eq!(
            snap.counter_total("quamax_serve_submitted_total"),
            ledger.submitted
        );
        assert_eq!(
            snap.counter("quamax_serve_ledger_total", &[("state", "submitted")]),
            Some(ledger.submitted)
        );
        let served = snap.counter_total("quamax_serve_served_total");
        assert_eq!(served, ledger.completed);
        assert_eq!(snap.counter_total("quamax_serve_shed_total"), ledger.shed);
        assert_eq!(
            snap.counter_total("quamax_breaker_transitions_total"),
            trips
        );
        // Every completed job recorded its attempt count.
        let attempts = snap
            .histogram("quamax_serve_attempts", &[])
            .expect("attempts histogram");
        assert_eq!(attempts.count, ledger.completed);
        // Funded retries and the serve outcomes agree: each attempt
        // beyond the first on a completed job was funded.
        let funded = snap
            .counter("quamax_serve_retries_total", &[("outcome", "funded")])
            .unwrap_or(0);
        let extra_attempts: u64 = observed
            .iter()
            .filter_map(|o| o.as_ref().ok())
            .map(|&(_, attempts, _, _)| u64::from(attempts - 1))
            .sum();
        assert!(
            funded >= extra_attempts,
            "funded {funded} < extra attempts {extra_attempts}"
        );
    }
}
