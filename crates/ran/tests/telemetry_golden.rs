//! Golden telemetry snapshots of seeded metro serving runs.
//!
//! The on/off determinism tests prove that recording never perturbs a
//! run, but they cannot see *what* was recorded: a series that moved to
//! another name, a lost label, a reordered snapshot or a changed bucket
//! count all pass them. These tests pin the exporters' bytes instead:
//! an FNV-1a digest of the pretty-printed JSON snapshot and of the
//! Prometheus text, the series count, and the merged per-stage
//! histogram quantiles (as raw `f64` bit patterns).

use quamax_ran::{
    BatchScheduler, Broker, CpuPolicy, CpuPool, FaultPlan, FaultRates, Guardrails, LoadGen, Policy,
    QpuOverheads, QpuServer, ResilientServer, SchedConfig,
};
use quamax_telemetry::Telemetry;

/// FNV-1a over a byte stream.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn qpu() -> QpuServer {
    let overheads = QpuOverheads {
        preprocessing_us: 0.0,
        programming_us: 200.0,
        readout_per_anneal_us: 25.0,
    };
    QpuServer::new(overheads, 2.0, 5).with_session_cache(10_000.0)
}

/// Serves `gen`'s traffic over `horizon_us` on two cached QPU workers
/// and an 8-core ZF floor, publishes the snapshot-time views, and
/// renders the registry into one golden line per check.
fn golden(gen: LoadGen, plan: FaultPlan, config: SchedConfig, horizon_us: f64) -> Vec<String> {
    let telemetry = Telemetry::enabled();
    let mut server = ResilientServer::new(
        vec![qpu(), qpu()],
        CpuPool::new(
            8,
            CpuPolicy::ZeroForcing {
                vectors_per_channel: 1,
            },
        ),
        plan,
        Guardrails::on(),
    )
    .with_telemetry(telemetry.clone());
    let mut broker = Broker::new();
    let mut sched = BatchScheduler::new(config).with_telemetry(telemetry.clone());
    let report = sched.run(&mut server, &mut broker, gen.generate(horizon_us));
    server.publish_telemetry();
    broker.publish_telemetry(&telemetry);

    let snap = telemetry.snapshot();
    let json = serde_json::to_string_pretty(&snap.to_json()).expect("serializable");
    let prom = snap.to_prometheus();
    let mut lines = vec![
        format!(
            "jobs={} dispatches={} series={}",
            report.outcomes.len(),
            report.dispatches.len(),
            snap.series.len()
        ),
        format!(
            "json={:016x} prom={:016x}",
            fnv(json.as_bytes()),
            fnv(prom.as_bytes())
        ),
    ];
    for name in [
        "quamax_qpu_program_us",
        "quamax_qpu_anneal_us",
        "quamax_qpu_readout_us",
        "quamax_qpu_unembed_us",
        "quamax_qpu_queue_wait_us",
        "quamax_sched_batch_occupancy",
        "quamax_sched_slack_at_close_us",
        "quamax_serve_attempts",
    ] {
        let h = telemetry
            .merged_histogram(name)
            .unwrap_or_else(|| panic!("{name} was never recorded"));
        lines.push(format!(
            "{name} n={} p50={:016x} p99={:016x} p999={:016x}",
            h.count(),
            h.quantile(0.5).to_bits(),
            h.quantile(0.99).to_bits(),
            h.quantile(0.999).to_bits(),
        ));
    }
    lines
}

fn assert_golden(got: Vec<String>, want: &[&str]) {
    let got: Vec<&str> = got.iter().map(String::as_str).collect();
    assert_eq!(got, want, "telemetry golden output changed");
}

/// The `bench_observe` workload at a 12 ms horizon: the metro mix over
/// four cells, deadline-aware batching (max 24), no faults.
#[test]
fn deadline_batched_metro_snapshot_is_golden() {
    let seed = 2019;
    let got = golden(
        LoadGen::metro(seed, 4, 0.012 / 4.0),
        FaultPlan::quiet(seed),
        SchedConfig::new(Policy::DeadlineBatch, 24),
        12_000.0,
    );
    assert_golden(
        got,
        &[
            "jobs=177 dispatches=32 series=69",
            "json=4c1e4ddf4acc790e prom=bf13b7675274354c",
            "quamax_qpu_program_us n=32 p50=4069000000000000 p99=4069000000000000 p999=4069000000000000",
            "quamax_qpu_anneal_us n=32 p50=4024000000000000 p99=4024000000000000 p999=4024000000000000",
            "quamax_qpu_readout_us n=32 p50=405f400000000000 p99=405f400000000000 p999=405f400000000000",
            "quamax_qpu_unembed_us n=32 p50=3fd0000000000000 p99=3feccccccccccccd p999=3feccccccccccccd",
            "quamax_qpu_queue_wait_us n=32 p50=0000000000000000 p99=40810932b03faaa0 p999=40810932b03faaa0",
            "quamax_sched_batch_occupancy n=32 p50=4014000000000000 p99=4032000000000000 p999=4032000000000000",
            "quamax_sched_slack_at_close_us n=32 p50=0000000000000000 p99=0000000000000000 p999=0000000000000000",
            "quamax_serve_attempts n=32 p50=3ff0000000000000 p99=3ff0000000000000 p999=3ff0000000000000",
        ],
    );
}

/// The benchmark's `metro_duplex` shape: full-duplex traffic served
/// FIFO under a 1%-per-class fault plan, so the retry, restart, breaker
/// and fault-census series are recorded too.
#[test]
fn faulty_fifo_duplex_snapshot_is_golden() {
    let seed = 3;
    let got = golden(
        LoadGen::full_duplex(seed, 4, 0.012 / 4.0, 0.3),
        FaultPlan::new(seed, FaultRates::uniform(0.01)),
        SchedConfig::new(Policy::Fifo, 1),
        20_000.0,
    );
    assert_golden(
        got,
        &[
            "jobs=377 dispatches=354 series=77",
            "json=307187024fa14220 prom=b843aa9ccea16018",
            "quamax_qpu_program_us n=89 p50=4069000000000000 p99=4069000000000000 p999=4069000000000000",
            "quamax_qpu_anneal_us n=89 p50=4024000000000000 p99=4024000000000000 p999=4024000000000000",
            "quamax_qpu_readout_us n=89 p50=405f400000000000 p99=405f400000000000 p999=405f400000000000",
            "quamax_qpu_unembed_us n=89 p50=3fa999999999999a p99=3fa999999999999a p999=3fa999999999999a",
            "quamax_qpu_queue_wait_us n=89 p50=40b176425947a62a p99=40c525c071b631dd p999=40c557427aa40424",
            "quamax_sched_batch_occupancy n=354 p50=3ff0000000000000 p99=3ff0000000000000 p999=3ff0000000000000",
            "quamax_sched_slack_at_close_us n=354 p50=40a4d20000000000 p99=40c2e08000000001 p999=40c3448000000001",
            "quamax_serve_attempts n=354 p50=3ff0000000000000 p99=3ff0000000000000 p999=4000000000000000",
        ],
    );
}
