//! Metrics, the run record, and the result line.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Which clock a metric is read from. Host metrics time our compute;
/// sim metrics come from the paper's modelled QPU/serving time. The two
/// are never combined in one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    Host,
    Sim,
    /// A ratio or a count that reads no clock.
    None,
}

impl Clock {
    fn name(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
            Clock::None => "none",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub clock: Clock,
}

/// What one workload run produced: its metrics, the output checks, and
/// the parameters that define it.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Named output checks; each failed one counts as a failed
    /// operation.
    pub checks: Vec<(String, bool)>,
    /// Operations the run attempted (items plus checks).
    pub attempted: u64,
    /// Operations that returned `Err`.
    pub errors: u64,
    /// `(key, value)` workload parameters, values already JSON.
    pub params: Vec<(String, String)>,
    /// Extra facts for the run record (tail percentile, sample counts).
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, clock: Clock) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            clock,
        });
    }

    pub fn check(&mut self, name: &str, ok: bool) {
        if !ok {
            eprintln!("check failed: {name}");
        }
        self.checks.push((name.to_string(), ok));
    }

    pub fn param(&mut self, key: &str, value: impl std::fmt::Display) {
        self.params.push((key.to_string(), value.to_string()));
    }

    pub fn param_str(&mut self, key: &str, value: &str) {
        self.params.push((key.to_string(), json_str(value)));
    }

    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    pub fn failed(&self) -> u64 {
        self.errors + self.checks.iter().filter(|(_, ok)| !ok).count() as u64
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value must be finite, got {v}");
    format!("{v:?}")
}

/// The run record: machine, toolchain, revision, seed, parameters,
/// and every metric with its unit and clock.
pub fn run_record(workload: &str, seed: u64, seconds: u64, trace: bool, out: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut s = String::from("{\"record\":{");
    let _ = write!(
        s,
        "\"workload\":{},\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\
         \"git_commit\":{},\"source_digest\":{},\"rustc\":{},\"nproc\":{nproc}",
        json_str(workload),
        json_str(env!("PERFBENCH_COMMIT")),
        json_str(env!("PERFBENCH_SOURCE_DIGEST")),
        json_str(env!("PERFBENCH_RUSTC")),
    );
    s.push_str(",\"params\":{");
    push_pairs(&mut s, &out.params);
    s.push_str("},\"notes\":{");
    push_pairs(&mut s, &out.notes);
    s.push_str("},\"checks\":{");
    let checks: Vec<(String, String)> = out
        .checks
        .iter()
        .map(|(k, ok)| (k.clone(), ok.to_string()))
        .collect();
    push_pairs(&mut s, &checks);
    s.push_str("},\"metrics\":{");
    for (i, m) in out.metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{}:{{\"value\":{},\"unit\":{},\"clock\":{}}}",
            json_str(&m.name),
            json_num(m.value),
            json_str(m.unit),
            json_str(m.clock.name())
        );
    }
    s.push_str("}}}");
    s
}

fn push_pairs(s: &mut String, pairs: &[(String, String)]) {
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{}:{v}", json_str(k));
    }
}

/// The last line of a run: the machine-readable result object.
pub fn result_line(out: &Outcome) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        out.correct(),
        out.attempted.max(1),
        out.failed()
    );
    for (i, m) in out.metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(&m.name),
            json_num(m.value),
            json_str(m.unit)
        );
    }
    s.push_str("}}");
    s
}

/// The `q`-quantile (0 ≤ q ≤ 1) by nearest rank on a sorted copy.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((v.len() - 1) as f64 * q).round() as usize;
    v[idx]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The tail percentile a metric reports: the highest rung of a fixed
/// ladder that leaves at least 10 samples beyond it at `guaranteed`
/// samples. It is fixed per workload (from the sample count every run
/// is guaranteed to reach), so runs that complete different item
/// counts still report the same percentile.
pub fn tail_quantile(guaranteed: usize) -> f64 {
    [0.999, 0.99, 0.95, 0.9, 0.8, 0.75]
        .into_iter()
        .find(|&q| (guaranteed as f64 * (1.0 - q)).round() >= 10.0)
        .unwrap_or(0.5)
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 31;

/// The set-up clock. `build` is the workload's set-up (input
/// generation and construction); it runs three times untimed, so that
/// the process's first-touch costs (page faults, cold caches) stay out,
/// then once timed, and that output is the run's inputs. It is then
/// repeated, output dropped, at even intervals between the closed
/// loop's items until `SETUP_REPS` are timed: a shared host's speed
/// drifts over seconds, and sampling across the run makes the median
/// read the same host as the items do.
pub struct SetupClock<F> {
    build: F,
    times: Vec<f64>,
}

impl<T, F: FnMut() -> T> SetupClock<F> {
    pub fn new(mut build: F) -> (Self, T) {
        for _ in 0..3 {
            drop(build());
        }
        let t = Instant::now();
        let out = build();
        let times = vec![t.elapsed().as_secs_f64()];
        (SetupClock { build, times }, out)
    }

    fn repeat(&mut self) {
        if self.times.len() < SETUP_REPS {
            let t = Instant::now();
            drop((self.build)());
            self.times.push(t.elapsed().as_secs_f64());
        }
    }

    /// The median set-up time, seconds, after any repetitions the loop
    /// left.
    pub fn median_s(mut self) -> f64 {
        while self.times.len() < SETUP_REPS {
            self.repeat();
        }
        median(&self.times)
    }
}

/// The closed loop: runs `item(i)` for i = 0, 1, 2, … until both
/// `budget` has elapsed and at least `min_items` ran, repeating the
/// set-up between items. Each call returns the host seconds of its own
/// timed section (input preparation stays outside it); they come back
/// in order.
pub fn closed_loop<T, F: FnMut() -> T>(
    budget: Duration,
    min_items: usize,
    setup: &mut SetupClock<F>,
    mut item: impl FnMut(usize) -> f64,
) -> Vec<f64> {
    let stride = (min_items / SETUP_REPS).max(1);
    let start = Instant::now();
    let mut durations = Vec::new();
    while durations.len() < min_items || start.elapsed() < budget {
        let i = durations.len();
        if i % stride == stride - 1 {
            setup.repeat();
        }
        durations.push(item(i));
    }
    durations
}

/// The end-to-end metrics every workload reports, each counted in the
/// workload's own units of work.
pub struct EndToEnd<'a> {
    pub setup_s: f64,
    /// Host seconds of each timed item, in order.
    pub durations: &'a [f64],
    /// The item count every run reaches; it fixes the tail percentile.
    pub min_items: usize,
    /// Payload bits and jobs each timed item completed.
    pub item_bits: &'a [f64],
    pub item_jobs: &'a [f64],
    pub ber: f64,
    pub success_ratio: f64,
    /// The clock `ber` and `success_ratio` read: `Sim` for the serving
    /// sim, `None` for the pipelines.
    pub quality_clock: Clock,
    pub deadline_rate: f64,
    /// Simulated latencies, µs: per evaluation item for the pipelines,
    /// per completed job for the serving sim.
    pub sim_latency_us: &'a [f64],
}

impl Outcome {
    /// Records `e` as metrics, with the facts needed to read them.
    /// Throughputs are medians of per-item rates, so one item slowed
    /// by the shared host cannot swing them; `max_item_ms` keeps the
    /// slowest item visible.
    pub fn end_to_end(&mut self, e: EndToEnd) {
        let item_ms: Vec<f64> = e.durations.iter().map(|d| d * 1e3).collect();
        let item_tail = tail_quantile(e.min_items);
        let sim_tail = tail_quantile(e.sim_latency_us.len());
        let rate = |amounts: &[f64]| {
            let rates: Vec<f64> = amounts
                .iter()
                .zip(e.durations)
                .map(|(a, d)| a / d)
                .collect();
            median(&rates)
        };
        self.metric("setup_s", e.setup_s, "s", Clock::Host);
        self.metric(
            "payload_bits_per_s",
            rate(e.item_bits),
            "bit/s",
            Clock::Host,
        );
        self.metric("item_ms_p50", median(&item_ms), "ms", Clock::Host);
        self.metric(
            "item_ms_tail",
            quantile(&item_ms, item_tail),
            "ms",
            Clock::Host,
        );
        self.metric("ber", e.ber, "ratio", e.quality_clock);
        self.metric("success_ratio", e.success_ratio, "ratio", e.quality_clock);
        self.metric("sim_jobs_per_s", rate(e.item_jobs), "1/s", Clock::Host);
        self.metric("deadline_rate", e.deadline_rate, "ratio", Clock::Sim);
        self.metric(
            "sim_latency_us_p50",
            median(e.sim_latency_us),
            "us",
            Clock::Sim,
        );
        self.metric(
            "sim_latency_us_tail",
            quantile(e.sim_latency_us, sim_tail),
            "us",
            Clock::Sim,
        );
        self.note("items", item_ms.len());
        self.note("item_tail_quantile", item_tail);
        self.note("host_s", e.durations.iter().sum::<f64>());
        self.note("max_item_ms", item_ms.iter().fold(0.0f64, |m, &x| m.max(x)));
        self.note("sim_tail_quantile", sim_tail);
        self.note("sim_latency_samples", e.sim_latency_us.len());
    }

    /// 1 − failed operations over attempted ones.
    pub fn success_ratio(&self) -> f64 {
        1.0 - self.failed() as f64 / self.attempted.max(1) as f64
    }
}

/// Splits a seed into independent sub-seeds (SplitMix64).
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
