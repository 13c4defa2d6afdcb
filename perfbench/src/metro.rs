//! `metro_duplex`: the serving sim with no host annealing.
//!
//! Four cells of full-duplex traffic (30% downlink) at 0.012 jobs/µs
//! aggregate, brokered first-in first-out (one job per dispatch) onto
//! two QPU workers plus an 8-core ZF floor, with guardrails on, a
//! 1%-per-class fault plan, and telemetry enabled as
//! `cran_datacenter --metrics` deploys it. One item is one sim over one
//! window of seeded traffic, open-loop in simulated time; latency runs
//! from each job's scheduled arrival.

use crate::layers::Layers;
use crate::report::{closed_loop, mix, Clock, EndToEnd, Outcome, SetupClock};
use crate::spans::Spans;
use quamax_chimera::parallelization;
use quamax_ran::{
    BatchScheduler, Broker, CpuPolicy, CpuPool, FaultPlan, FaultRates, Guardrails, JobState,
    LoadGen, Policy, QpuOverheads, QpuServer, ResilientServer, SchedConfig, ScheduleReport,
    UserJob,
};
use quamax_telemetry::{MetricValue, Telemetry};
use std::time::{Duration, Instant};

const CELLS: usize = 4;
const RATE_TOTAL: f64 = 0.012; // jobs/µs across all cells
const DOWNLINK_FRACTION: f64 = 0.3;
/// `Fifo`, not `DeadlineBatch`: `BatchScheduler::run`'s slack rule
/// re-prices a batch waiting behind a busy worker at `now`, so its close
/// time recedes as fast as time advances and the event loop creeps
/// forward in steps of the leftover slack (down to 1e-9 µs). One 10 ms
/// window took over 180 s of host time that way. Batching comes back
/// once the loop jumps to the end of the wait, with `max_batch` 24.
const POLICY: Policy = Policy::Fifo;
const FAULT_RATE: f64 = 0.01; // per class
/// Simulated traffic per item.
const WINDOW_US: f64 = 10_000.0;
/// Distinct windows generated in set-up; the sim metrics are read over
/// exactly these, the timed loop then cycles through them.
const WINDOWS: usize = 360;
/// Items every run completes (the tail percentile is fixed by it).
const MIN_ITEMS: usize = WINDOWS;
/// Windows the traced run replays (each three times: untraced, traced,
/// telemetry off).
const TRACE_WINDOWS: usize = 6;

fn loadgen(seed: u64) -> LoadGen {
    LoadGen::full_duplex(seed, CELLS, RATE_TOTAL / CELLS as f64, DOWNLINK_FRACTION)
}

fn qpu() -> QpuServer {
    let overheads = QpuOverheads {
        preprocessing_us: 0.0,
        programming_us: 200.0,
        readout_per_anneal_us: 25.0,
    };
    QpuServer::new(overheads, 2.0, 5).with_session_cache(10_000.0)
}

fn pool(seed: u64, telemetry: &Telemetry) -> ResilientServer {
    ResilientServer::new(
        vec![qpu(), qpu()],
        CpuPool::new(
            8,
            CpuPolicy::ZeroForcing {
                vectors_per_channel: 1,
            },
        ),
        FaultPlan::new(seed, FaultRates::uniform(FAULT_RATE)),
        Guardrails::on(),
    )
    .with_telemetry(telemetry.clone())
}

struct Served {
    report: ScheduleReport,
    broker: Broker,
    server: ResilientServer,
}

fn scheduler(telemetry: &Telemetry) -> BatchScheduler {
    // `Fifo` dispatches every job alone; the batch cap is unused.
    BatchScheduler::new(SchedConfig::new(POLICY, 1)).with_telemetry(telemetry.clone())
}

/// One item: a fresh pool, broker and scheduler serve one window.
fn serve(trace: Vec<UserJob>, seed: u64, telemetry: Telemetry) -> Served {
    let mut server = pool(seed, &telemetry);
    let mut broker = Broker::new();
    let report = scheduler(&telemetry).run(&mut server, &mut broker, trace);
    server.publish_telemetry();
    broker.publish_telemetry(&telemetry);
    Served {
        report,
        broker,
        server,
    }
}

/// User payload bits of one job: users × bits/symbol per problem, read
/// off the generator's class of the job's size.
fn payload_bits(gen: &LoadGen, job: &UserJob) -> usize {
    let bps = gen
        .classes
        .iter()
        .find(|c| c.users == job.users)
        .map_or(1, |c| c.modulation.bits_per_symbol());
    job.users * bps * job.problems
}

fn window_seed(seed: u64, w: usize) -> u64 {
    mix(seed, w as u64 + 1)
}

fn generate(seed: u64) -> Vec<Vec<UserJob>> {
    (0..WINDOWS)
        .map(|w| loadgen(window_seed(seed, w)).generate(WINDOW_US))
        .collect()
}

fn params(out: &mut Outcome) {
    out.param("cells", CELLS);
    out.param("offered_jobs_per_us", RATE_TOTAL);
    out.param("downlink_fraction", DOWNLINK_FRACTION);
    out.param("window_us", WINDOW_US);
    out.param("windows", WINDOWS);
    out.param("qpu_workers", 2);
    out.param_str(
        "qpu",
        "200 us programming, 25 us readout/anneal, 2 us cycle, 5 anneals, 10 ms session cache",
    );
    out.param("zf_floor_cores", 8);
    out.param_str("policy", "fifo");
    out.param("fault_rate_per_class", FAULT_RATE);
    out.param_str("guardrails", "on");
    out.param_str("telemetry", "enabled");
}

fn conserved(s: &Served) -> bool {
    let ledger = s.server.ledger();
    s.broker.drained()
        && s.broker.census().conserved()
        && ledger.conserved()
        && ledger.in_flight() == 0
        && s.report.outcomes.len() as u64 == ledger.submitted
}

/// Turns off glibc's heap trimming for this process. Each window builds
/// and drops a fresh pool, and with glibc's defaults the freed heap top
/// goes back to the kernel and is faulted in again by the next window:
/// about half the host time was page faults, and that share moved the
/// item time by a quartile spread of 0.2 to 0.3 between runs minutes
/// apart on a shared host. A long-running server keeps its heap; so
/// does this workload.
fn keep_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        // SAFETY: `mallopt` only sets an allocator parameter; glibc
        // allows it at any time.
        let ok = unsafe { mallopt(M_TRIM_THRESHOLD, 512 << 20) };
        assert_eq!(ok, 1, "mallopt(M_TRIM_THRESHOLD) failed");
    }
}

pub fn run(seed: u64, seconds: u64) -> Outcome {
    keep_heap();
    let mut out = Outcome::default();
    params(&mut out);

    let (mut setup, traces) = SetupClock::new(|| generate(seed));
    let gen = loadgen(seed);

    // Per window: its report and each job's payload bits. Servers (and
    // their telemetry) drop after each item, as a deployment's would.
    let mut eval: Vec<Option<(ScheduleReport, Vec<usize>)>> = (0..WINDOWS).map(|_| None).collect();
    let (mut item_bits, mut item_jobs) = (Vec::new(), Vec::new());
    let mut all_conserved = true;
    let durations = closed_loop(Duration::from_secs(seconds), MIN_ITEMS, &mut setup, |i| {
        let w = i % WINDOWS;
        let trace = traces[w].clone();
        let t = Instant::now();
        let s = serve(trace, window_seed(seed, w), Telemetry::enabled());
        let dt = t.elapsed().as_secs_f64();
        all_conserved &= conserved(&s);
        let job_bits: Vec<usize> = s
            .report
            .outcomes
            .iter()
            .map(|o| payload_bits(&gen, s.broker.job(o.id)))
            .collect();
        item_jobs.push(s.report.completed() as f64);
        let bits: usize = s
            .report
            .outcomes
            .iter()
            .zip(&job_bits)
            .filter(|(o, _)| o.state == JobState::Completed)
            .map(|(_, b)| b)
            .sum();
        item_bits.push(bits as f64);
        if eval[w].is_none() {
            eval[w] = Some((s.report, job_bits));
        }
        dt
    });
    out.attempted = durations.len() as u64;
    let eval: Vec<(ScheduleReport, Vec<usize>)> = eval
        .into_iter()
        .map(|s| s.expect("every window ran"))
        .collect();

    // Checks: conservation everywhere, and on two windows served again,
    // once as before and once with telemetry off, every decision is
    // the same.
    out.check("broker_and_ledger_conserved", all_conserved);
    for w in [0, WINDOWS / 2] {
        let again = serve(
            traces[w].clone(),
            window_seed(seed, w),
            Telemetry::enabled(),
        );
        out.check(
            &format!("repeat_window_identical_w{w}"),
            again.report == eval[w].0,
        );
        let off = serve(
            traces[w].clone(),
            window_seed(seed, w),
            Telemetry::disabled(),
        );
        out.check(
            &format!("telemetry_on_equals_off_w{w}"),
            off.report == eval[w].0,
        );
    }
    out.attempted += out.checks.len() as u64;

    let outcomes = || eval.iter().flat_map(|(r, b)| r.outcomes.iter().zip(b));
    let offered = outcomes().count();
    let met = outcomes().filter(|(o, _)| o.met_deadline).count();
    let lost: usize = eval.iter().map(|(r, _)| r.shed() + r.failed()).sum();
    let offered_bits: usize = outcomes().map(|(_, b)| b).sum();
    let missed_bits: usize = outcomes()
        .filter(|(o, _)| !o.met_deadline)
        .map(|(_, b)| b)
        .sum();
    let latencies: Vec<f64> = outcomes()
        .filter(|(o, _)| o.state == JobState::Completed)
        .map(|(o, _)| o.latency_us)
        .collect();
    out.end_to_end(EndToEnd {
        setup_s: setup.median_s(),
        durations: &durations,
        min_items: MIN_ITEMS,
        item_bits: &item_bits,
        item_jobs: &item_jobs,
        ber: missed_bits as f64 / offered_bits.max(1) as f64,
        success_ratio: 1.0 - lost as f64 / offered.max(1) as f64,
        quality_clock: Clock::Sim,
        deadline_rate: met as f64 / offered.max(1) as f64,
        sim_latency_us: &latencies,
    });
    out.note("offered_jobs", offered);
    out
}

/// The traced run: times the `ran`, `chimera` and `telemetry` layers'
/// public calls over the same windows.
pub fn trace(seed: u64, layers: &mut Layers) -> Outcome {
    keep_heap();
    let mut out = Outcome::default();
    params(&mut out);
    let mut spans = Spans::default();
    let traces: Vec<Vec<UserJob>> = (0..TRACE_WINDOWS)
        .map(|w| {
            spans.time("loadgen", |_| {
                loadgen(window_seed(seed, w)).generate(WINDOW_US)
            })
        })
        .collect();
    let gen = loadgen(seed);

    let (mut untraced, mut traced, mut off) = (0.0, 0.0, 0.0);
    let mut jobs = 0usize;
    let (mut occupancy, mut dispatches) = (Vec::new(), 0usize);
    let (mut hits, mut misses, mut retries, mut shed) = (0u64, 0u64, 0u64, 0usize);
    let mut retained = 0u64;
    for (w, t) in traces.iter().enumerate() {
        let s_seed = window_seed(seed, w);
        let timed = |telemetry| {
            let start = Instant::now();
            let s = serve(t.clone(), s_seed, telemetry);
            (s, start.elapsed().as_secs_f64())
        };
        // The untraced sim with telemetry on and off, alternating which
        // runs first so neither always finds the warmer cache.
        let ((plain, on_s), (_, off_s)) = if w % 2 == 0 {
            let on = timed(Telemetry::enabled());
            (on, timed(Telemetry::disabled()))
        } else {
            let off = timed(Telemetry::disabled());
            (timed(Telemetry::enabled()), off)
        };
        untraced += on_s;
        off += off_s;

        let start = Instant::now();
        let telemetry = Telemetry::enabled();
        let mut server = pool(s_seed, &telemetry);
        let mut broker = Broker::new();
        let mut sched = scheduler(&telemetry);
        let report = spans.time("sched.run", |_| {
            sched.run(&mut server, &mut broker, t.clone())
        });
        spans.time("telemetry.publish", |_| {
            server.publish_telemetry();
            broker.publish_telemetry(&telemetry);
        });
        let snap = spans.time("telemetry.snapshot", |_| telemetry.snapshot());
        traced += start.elapsed().as_secs_f64();
        out.check(
            &format!("traced_equals_untraced_w{w}"),
            report == plain.report,
        );

        jobs += t.len();
        occupancy.push(report.mean_occupancy());
        dispatches += report.dispatches.len();
        hits += snap.counter_total("quamax_cache_hits_total");
        misses += snap.counter_total("quamax_cache_misses_total");
        retries += snap.counter_total("quamax_serve_retries_total");
        shed += report.shed();
        retained += snap
            .series
            .iter()
            .map(|s| match &s.value {
                MetricValue::Histogram(h) => h.count,
                _ => 0,
            })
            .sum::<u64>();
    }

    // The QPU service model and the chip tiling at each class size.
    let model = qpu();
    for class in &gen.classes {
        let n = class.logical_vars();
        for program in [true, false] {
            spans.time("qpu.service_model", |_| {
                std::hint::black_box(model.amortized_service_time_us(1, n, program))
            });
        }
        spans.time("chimera.parallelization", |_| {
            std::hint::black_box(parallelization(n))
        });
    }

    out.attempted = (3 * TRACE_WINDOWS) as u64 + out.checks.len() as u64;
    let n = TRACE_WINDOWS as f64;
    layers.set("ran.loadgen.us", spans.mean_us("loadgen"));
    layers.set(
        "ran.sched.ns_per_job",
        spans.total("sched.run") * 1e9 / jobs.max(1) as f64,
    );
    layers.set(
        "ran.qpu.service_model.us",
        spans.mean_us("qpu.service_model"),
    );
    layers.set(
        "chimera.parallelization.us",
        spans.mean_us("chimera.parallelization"),
    );
    layers.set(
        "ran.sched.mean_occupancy",
        occupancy.iter().sum::<f64>() / n,
    );
    layers.set("ran.sched.dispatches", dispatches as f64 / n);
    layers.set(
        "ran.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    layers.set("ran.serve.retries", retries as f64 / n);
    layers.set("ran.serve.shed", shed as f64 / n);
    layers.set("telemetry.overhead_ratio", untraced / off);
    layers.set("telemetry.snapshot.us", spans.mean_us("telemetry.snapshot"));
    layers.set("telemetry.retained_samples", retained as f64 / n);
    layers.set("trace.overhead_ratio", traced / untraced);
    out
}
