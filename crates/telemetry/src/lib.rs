//! Metrics registry, latency histograms, and a simulated-time span API
//! for the QuAMax pipeline.
//!
//! Every subsystem of the reproduction — decode sessions, the QPU
//! overhead stack, the resilient serving pool, the batch scheduler —
//! models time as explicit simulated microseconds (`*_us`). This crate
//! gives them one shared observability substrate that preserves the
//! property the whole repo is built on: **seeded runs replay bit for
//! bit**, with telemetry on or off.
//!
//! # DESIGN §Observability
//!
//! **Handle model.** [`Telemetry`] is a cheap `Clone` handle over
//! `Option<Arc<Mutex<Registry>>>`. [`Telemetry::disabled`] is the
//! `None` arm: every recording call is a single branch on the `Option`
//! and returns — no allocation, no locking, no formatting. Call sites
//! that must build label strings guard on [`Telemetry::is_enabled`]
//! first, so the disabled path never even formats a label. The handle
//! is `Send + Sync` (the registry sits behind a `Mutex`), which lets
//! `DecodeSession::decode_batch`'s scoped worker threads record into
//! the same registry as the host thread.
//!
//! *Series handles.* [`Telemetry::counter`] and [`Telemetry::histogram`]
//! resolve a series' name and labels once into a [`CounterHandle`] or
//! [`HistogramHandle`]; recording through it is one lock and an index —
//! no allocation, no string compare. Resolve where a component gets its
//! `Telemetry` (its `with_telemetry`/`set_telemetry`), or on first use
//! for labels known only at run time (a cell id), and keep the handle
//! for every per-job or per-attempt record. Resolving alone leaves no
//! trace: a series enters snapshots only once something is recorded
//! into it, so unused handles never change an export. The string-keyed
//! calls ([`Telemetry::counter_inc`], [`Telemetry::observe`],
//! [`Telemetry::counter_store`], …) stay for one-off and snapshot-time
//! recording such as `publish_telemetry`: they look the series up on
//! every call and allocate only when they create it. A name keeps the
//! kind it was first resolved with; resolving it as another kind
//! panics.
//!
//! **No wall-clock, no RNG — the invariant.** This crate imports
//! neither `std::time` nor any random-number source. Spans are keyed
//! on *simulated* time: the caller passes explicit `start_us`/`end_us`
//! taken from the event loop's own clock ([`Telemetry::span_us`]).
//! Recording is strictly read-only with respect to the instrumented
//! computation — no telemetry call feeds a value back into scheduling,
//! retry funding, or an RNG stream. Together these guarantee that a
//! telemetry-enabled run is bit-identical to a disabled one (the PR-6/7
//! `SimReport` equality and Fifo-replays-`submit` contracts survive),
//! and that two identical seeded runs produce byte-identical snapshots.
//!
//! **Metric naming scheme.** `quamax_<subsystem>_<metric>[_<unit>]`,
//! all lowercase snake case: subsystem ∈ {`core`, `qpu`, `serve`,
//! `sched`, `broker`, `cache`, `sim`}; counters end in `_total`;
//! time-valued histograms end in `_us`. Examples:
//! `quamax_qpu_anneal_us`, `quamax_serve_retries_total`,
//! `quamax_sched_batch_occupancy`.
//!
//! **Label cardinality rules.** Labels must come from *bounded* sets
//! known at topology-build time: `direction` ∈ {uplink, downlink},
//! `priority` ∈ {high, normal, low}, `stage`/`trigger`/`class`/`rung`
//! from fixed enums, `cell`/`worker` from the (small) configured
//! topology. Never label by job id, channel hash, timestamp, or any
//! per-event value — those belong in histogram observations, not in
//! series keys. Series are listed by name and then by sorted labels,
//! so snapshots enumerate in a deterministic (name, labels) order
//! regardless of insertion or resolution order.
//!
//! **Histograms.** [`Histogram`] keeps the exact sample set and derives
//! two views of it at snapshot time: base-2 log buckets (upper bounds
//! 1, 2, 4, … µs with a saturating `+Inf` overflow bucket) for
//! Prometheus-style exposition, and exact quantiles. [`Histogram::quantile`]
//! uses the same nearest-rank rule as
//! `quamax_ran::ScheduleReport::latency_quantile_us`
//! (`sort_by(total_cmp)`, index `round((len-1)·q)`, `0.0` when empty),
//! so benches that move their p50/p99/p999 onto the shared histogram
//! report *identical* numbers to the old ad-hoc paths. Snapshot-side
//! aggregates (`sum`) are computed over the *sorted* samples so that
//! multi-threaded recording order cannot perturb floating-point
//! summation.
//!
//! **Exporter formats.** [`TelemetrySnapshot::to_json`] renders the
//! registry to a `serde_json::Value` (written alongside the
//! `BENCH_*.json` artifacts); [`TelemetrySnapshot::to_prometheus`]
//! renders the standard text exposition format (`# TYPE` comments,
//! `_bucket{le="…"}` cumulative buckets, `_sum`/`_count`). Both are
//! deterministic functions of the snapshot.
//!
//! **Snapshot-time publication.** Subsystems that already keep their
//! own always-on counters (`SessionCache` stats, the serving `Ledger`,
//! the broker `Census`, breaker trip counts, fault-class counters)
//! are *published* into the registry at snapshot time via
//! `publish_telemetry(&self, &Telemetry)` methods rather than
//! instrumented event by event — the Prometheus collect-callback
//! pattern. Their original accessors are untouched; the registry view
//! is additive. [`Telemetry::counter_store`] (absolute, last write
//! wins) exists for exactly this use.

use std::sync::{Arc, Mutex};

/// Number of histogram buckets: upper bounds `2^0 … 2^38` µs plus the
/// saturating `+Inf` overflow bucket.
pub const NUM_BUCKETS: usize = 40;

/// Upper (inclusive) bound of bucket `i`: `2^i` for the finite
/// buckets, `+Inf` for the last.
pub fn bucket_upper_bound(i: usize) -> f64 {
    assert!(i < NUM_BUCKETS, "bucket index out of range");
    if i + 1 == NUM_BUCKETS {
        f64::INFINITY
    } else {
        (1u64 << i) as f64
    }
}

/// A latency histogram over its exact samples: log-bucket exposition
/// and exact nearest-rank quantiles both derive from the one sample set
/// a recording call appends to.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Histogram {
    samples: Vec<f64>,
}

/// Nearest-rank quantile of already-sorted samples (`0.0` when empty).
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    fn bucket_index(v: f64) -> usize {
        // Walk the power-of-two bounds exactly (no float log), so a
        // value *at* a bucket boundary provably lands in that bucket
        // and anything beyond the last finite bound saturates into
        // the overflow bucket. NaN and v <= 1 land in bucket 0.
        let mut i = 0;
        let mut ub = 1.0;
        while v > ub && i + 1 < NUM_BUCKETS {
            i += 1;
            ub *= 2.0;
        }
        i
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        self.samples.push(v);
    }

    /// Folds another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Per-bucket (non-cumulative) counts, index ↔ [`bucket_upper_bound`].
    pub fn bucket_counts(&self) -> Vec<u64> {
        let mut counts = vec![0; NUM_BUCKETS];
        for &v in &self.samples {
            counts[Self::bucket_index(v)] += 1;
        }
        counts
    }

    fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    /// Exact nearest-rank quantile over the retained samples — the
    /// same rule as `ScheduleReport::latency_quantile_us`: samples
    /// sorted by `total_cmp`, index `round((len-1)·q)`, `0.0` when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        nearest_rank(&self.sorted(), q)
    }

    /// Sum of all observations, accumulated in sorted order so the
    /// result is independent of (possibly multi-threaded) recording
    /// order.
    pub fn sum(&self) -> f64 {
        self.sorted().iter().sum()
    }

    /// Mean observation (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.sum() / self.samples.len() as f64
        }
    }

    /// Smallest observation (`0.0` when empty).
    pub fn min(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .min_by(f64::total_cmp)
            .unwrap_or(0.0)
    }

    /// Largest observation (`0.0` when empty).
    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .max_by(f64::total_cmp)
            .unwrap_or(0.0)
    }

    /// Freezes this histogram into its snapshot form (one sort serves
    /// every order statistic).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let sorted = self.sorted();
        let mut cum = 0;
        HistogramSnapshot {
            count: sorted.len() as u64,
            sum: sorted.iter().sum(),
            min: sorted.first().copied().unwrap_or(0.0),
            max: sorted.last().copied().unwrap_or(0.0),
            p50: nearest_rank(&sorted, 0.5),
            p99: nearest_rank(&sorted, 0.99),
            p999: nearest_rank(&sorted, 0.999),
            buckets: self
                .bucket_counts()
                .into_iter()
                .enumerate()
                .map(|(i, c)| {
                    cum += c;
                    (bucket_upper_bound(i), cum)
                })
                .collect(),
        }
    }
}

/// One series' value.
#[derive(Debug)]
enum Metric {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }

    /// A zeroed metric of the same kind.
    fn cleared(&self) -> Metric {
        match self {
            Metric::Counter(_) => Metric::Counter(0),
            Metric::Gauge(_) => Metric::Gauge(0.0),
            Metric::Histogram(_) => Metric::Histogram(Histogram::new()),
        }
    }
}

/// One series: its sorted labels, its value, and whether anything was
/// recorded into it since it was created or the registry was reset.
/// Resolving a handle creates a series without recording, and
/// snapshots skip it until it is live, so resolving ahead of use never
/// shows up in an export.
struct Series {
    labels: Vec<(String, String)>,
    metric: Metric,
    live: bool,
}

impl Series {
    fn labels(&self) -> impl Iterator<Item = (&str, &str)> {
        self.labels.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }
}

/// Label pairs a lookup sorts on the stack; longer keys spill to a
/// `Vec`.
const INLINE_LABELS: usize = 8;

/// The series store.
#[derive(Default)]
struct Registry {
    /// Every series, in creation order; handles hold an index.
    series: Vec<Series>,
    /// Series indices per name, sorted by name, each list sorted by
    /// labels: the `(name, labels)` snapshot order.
    names: Vec<(String, Vec<usize>)>,
}

impl Registry {
    /// Where `name` is, or would be inserted, in `names`.
    fn find_name(&self, name: &str) -> Result<usize, usize> {
        self.names.binary_search_by(|(n, _)| n.as_str().cmp(name))
    }

    /// The index of series `(name, labels)`, created (not yet live) on
    /// first sight with `default` as its value. Only creating a series
    /// allocates.
    ///
    /// # Panics
    /// Panics when the series exists with another kind.
    fn resolve(&mut self, name: &str, labels: &[(&str, &str)], default: fn() -> Metric) -> usize {
        let mut inline = [("", ""); INLINE_LABELS];
        let mut spilled = Vec::new();
        let sorted = if labels.len() <= INLINE_LABELS {
            &mut inline[..labels.len()]
        } else {
            spilled.resize(labels.len(), ("", ""));
            &mut spilled[..]
        };
        sorted.copy_from_slice(labels);
        sorted.sort_unstable();
        let at = self.find_name(name).unwrap_or_else(|at| {
            self.names.insert(at, (name.to_string(), Vec::new()));
            at
        });
        let Registry { series, names } = self;
        let ids = &mut names[at].1;
        let index = match ids.binary_search_by(|&i| series[i].labels().cmp(sorted.iter().copied()))
        {
            Ok(pos) => ids[pos],
            Err(pos) => {
                ids.insert(pos, series.len());
                series.push(Series {
                    labels: sorted
                        .iter()
                        .map(|&(k, v)| (k.to_string(), v.to_string()))
                        .collect(),
                    metric: default(),
                    live: false,
                });
                series.len() - 1
            }
        };
        let (have, want) = (series[index].metric.kind(), default().kind());
        assert!(have == want, "{name} is a {have}, not a {want}");
        index
    }

    /// Resolves `(name, labels)` for a direct write and marks it live.
    fn write(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        default: fn() -> Metric,
    ) -> &mut Metric {
        let index = self.resolve(name, labels, default);
        self.metric(index)
    }

    /// Series `index`'s value, marked live for a write.
    fn metric(&mut self, index: usize) -> &mut Metric {
        let series = &mut self.series[index];
        series.live = true;
        &mut series.metric
    }

    /// The series indices named `name`, in label order.
    fn family(&self, name: &str) -> &[usize] {
        match self.find_name(name) {
            Ok(at) => &self.names[at].1,
            Err(_) => &[],
        }
    }

    /// The live series among `ids`.
    fn live<'a>(&'a self, ids: &'a [usize]) -> impl Iterator<Item = &'a Series> {
        ids.iter().map(|&i| &self.series[i]).filter(|s| s.live)
    }
}

fn lock(registry: &Mutex<Registry>) -> std::sync::MutexGuard<'_, Registry> {
    registry.lock().expect("telemetry registry poisoned")
}

fn new_counter() -> Metric {
    Metric::Counter(0)
}

fn new_gauge() -> Metric {
    Metric::Gauge(0.0)
}

fn new_histogram() -> Metric {
    Metric::Histogram(Histogram::new())
}

/// A series resolved once: the registry it lives in and its index.
#[derive(Clone)]
struct Slot {
    registry: Arc<Mutex<Registry>>,
    index: usize,
}

impl Slot {
    fn with(&self, f: impl FnOnce(&mut Metric)) {
        f(lock(&self.registry).metric(self.index));
    }
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slot").field("index", &self.index).finish()
    }
}

/// A pre-resolved counter series (see [`Telemetry::counter`]): it
/// records by index — no allocation, no string compare. A handle
/// resolved from a disabled [`Telemetry`] (or defaulted) is inert.
#[derive(Clone, Debug, Default)]
pub struct CounterHandle {
    slot: Option<Slot>,
}

impl CounterHandle {
    /// Adds `delta` to the counter.
    pub fn add(&self, delta: u64) {
        if let Some(slot) = &self.slot {
            slot.with(|m| match m {
                Metric::Counter(c) => *c += delta,
                _ => unreachable!("kind checked at resolution"),
            });
        }
    }

    /// Increments the counter by one.
    pub fn inc(&self) {
        self.add(1);
    }
}

/// A pre-resolved histogram series (see [`Telemetry::histogram`]): it
/// records by index — no allocation beyond the sample itself, no
/// string compare. A handle resolved from a disabled [`Telemetry`] (or
/// defaulted) is inert.
#[derive(Clone, Debug, Default)]
pub struct HistogramHandle {
    slot: Option<Slot>,
}

impl HistogramHandle {
    /// Records one observation.
    pub fn observe(&self, value: f64) {
        if let Some(slot) = &self.slot {
            slot.with(|m| match m {
                Metric::Histogram(h) => h.observe(value),
                _ => unreachable!("kind checked at resolution"),
            });
        }
    }

    /// Records a completed simulated-time span (`end_us - start_us`,
    /// clamped at zero), as [`Telemetry::span_us`] does.
    pub fn span_us(&self, start_us: f64, end_us: f64) {
        self.observe((end_us - start_us).max(0.0));
    }
}

/// A cheap, cloneable recording handle. Disabled handles make every
/// call a no-op after one `Option` branch; see the crate docs for the
/// determinism contract.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<Registry>>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// A span's opening timestamp in simulated microseconds (sugar over
/// [`Telemetry::span_us`] for call sites that open and close a stage
/// in different scopes).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpanStart {
    /// Simulated-time open instant.
    pub at_us: f64,
}

impl Telemetry {
    /// A disabled handle: all recording calls are no-ops.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// A live handle over a fresh registry.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::new(Mutex::new(Registry::default()))),
        }
    }

    /// Whether recording calls reach a registry. Call sites that must
    /// format label values should guard on this first so the disabled
    /// path allocates nothing.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn with<R>(&self, f: impl FnOnce(&mut Registry) -> R) -> Option<R> {
        self.inner.as_ref().map(|m| f(&mut lock(m)))
    }

    /// Resolves a series once for repeated recording; `None` when
    /// disabled.
    fn slot(&self, name: &str, labels: &[(&str, &str)], default: fn() -> Metric) -> Option<Slot> {
        let registry = self.inner.as_ref()?;
        let index = lock(registry).resolve(name, labels, default);
        Some(Slot {
            registry: Arc::clone(registry),
            index,
        })
    }

    /// Resolves the counter series `(name, labels)` into a handle that
    /// records without allocating or comparing strings. The series
    /// appears in snapshots only once something is recorded into it.
    ///
    /// # Panics
    /// Panics when the series exists with another kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> CounterHandle {
        CounterHandle {
            slot: self.slot(name, labels, new_counter),
        }
    }

    /// Resolves the histogram series `(name, labels)` into a handle
    /// (see [`Telemetry::counter`]).
    ///
    /// # Panics
    /// Panics when the series exists with another kind.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> HistogramHandle {
        HistogramHandle {
            slot: self.slot(name, labels, new_histogram),
        }
    }

    /// Adds `delta` to a monotonic counter series.
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        self.with(|r| match r.write(name, labels, new_counter) {
            Metric::Counter(c) => *c += delta,
            _ => unreachable!("kind checked at resolution"),
        });
    }

    /// Increments a counter series by one.
    pub fn counter_inc(&self, name: &str, labels: &[(&str, &str)]) {
        self.counter_add(name, labels, 1);
    }

    /// Stores an *absolute* counter value (last write wins) — the
    /// snapshot-time publication entry for subsystems that keep their
    /// own always-on counters (cache stats, ledgers, fault censuses).
    pub fn counter_store(&self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.with(|r| match r.write(name, labels, new_counter) {
            Metric::Counter(c) => *c = value,
            _ => unreachable!("kind checked at resolution"),
        });
    }

    /// Sets a gauge series to `value`.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.with(|r| match r.write(name, labels, new_gauge) {
            Metric::Gauge(g) => *g = value,
            _ => unreachable!("kind checked at resolution"),
        });
    }

    /// Records one observation into a histogram series.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.with(|r| match r.write(name, labels, new_histogram) {
            Metric::Histogram(h) => h.observe(value),
            _ => unreachable!("kind checked at resolution"),
        });
    }

    /// Records a completed span as a duration observation
    /// (`end_us - start_us`, clamped at zero) into the histogram
    /// series `name`. Both instants are *simulated* time supplied by
    /// the caller — this crate never reads a clock.
    pub fn span_us(&self, name: &str, labels: &[(&str, &str)], start_us: f64, end_us: f64) {
        self.observe(name, labels, (end_us - start_us).max(0.0));
    }

    /// Opens a span at simulated instant `at_us`.
    pub fn span_begin(&self, at_us: f64) -> SpanStart {
        SpanStart { at_us }
    }

    /// Closes a span opened by [`Telemetry::span_begin`].
    pub fn span_end(&self, span: SpanStart, name: &str, labels: &[(&str, &str)], end_us: f64) {
        self.span_us(name, labels, span.at_us, end_us);
    }

    /// All live histogram series named `name`, merged across label
    /// sets — the per-stage aggregate view (`None` if no such series
    /// exists or the handle is disabled).
    pub fn merged_histogram(&self, name: &str) -> Option<Histogram> {
        self.with(|r| {
            let mut merged: Option<Histogram> = None;
            for s in r.live(r.family(name)) {
                if let Metric::Histogram(h) = &s.metric {
                    merged.get_or_insert_with(Histogram::new).merge(h);
                }
            }
            merged
        })
        .flatten()
    }

    /// Clears every series (the handle stays enabled). Resolved series
    /// handles stay valid: their series restart from zero and leave
    /// snapshots until recorded into again. A name keeps its kind.
    pub fn reset(&self) {
        self.with(|r| {
            for s in &mut r.series {
                s.metric = s.metric.cleared();
                s.live = false;
            }
        });
    }

    /// Freezes the registry into an immutable, deterministically
    /// ordered snapshot. A disabled handle snapshots empty.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.with(|r| {
            let mut series = Vec::new();
            for (name, ids) in &r.names {
                for s in r.live(ids) {
                    series.push(SeriesSnapshot {
                        name: name.clone(),
                        labels: s.labels.clone(),
                        value: match &s.metric {
                            Metric::Counter(c) => MetricValue::Counter(*c),
                            Metric::Gauge(g) => MetricValue::Gauge(*g),
                            Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                        },
                    });
                }
            }
            TelemetrySnapshot { series }
        })
        .unwrap_or_default()
    }
}

/// A frozen histogram: counts, deterministic sum, extrema, exact
/// p50/p99/p999, and cumulative log buckets.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Observation count.
    pub count: u64,
    /// Sum over sorted samples (recording-order independent).
    pub sum: f64,
    /// Smallest observation (`0.0` when empty).
    pub min: f64,
    /// Largest observation (`0.0` when empty).
    pub max: f64,
    /// Exact nearest-rank median.
    pub p50: f64,
    /// Exact nearest-rank 99th percentile.
    pub p99: f64,
    /// Exact nearest-rank 99.9th percentile.
    pub p999: f64,
    /// `(upper_bound, cumulative_count)` per bucket; the last bound is
    /// `+Inf`.
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observation (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// One frozen series: name, sorted labels, and its value.
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesSnapshot {
    /// Metric name (`quamax_<subsystem>_<metric>[_<unit>]`).
    pub name: String,
    /// Sorted `(key, value)` label pairs.
    pub labels: Vec<(String, String)>,
    /// The frozen value.
    pub value: MetricValue,
}

/// A frozen metric value.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotonic (or snapshot-published absolute) count.
    Counter(u64),
    /// Point-in-time value.
    Gauge(f64),
    /// Frozen histogram.
    Histogram(HistogramSnapshot),
}

/// A deterministic, immutable view of the whole registry, ordered by
/// `(name, labels)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Every live series.
    pub series: Vec<SeriesSnapshot>,
}

fn labels_match(have: &[(String, String)], want: &[(&str, &str)]) -> bool {
    let mut want: Vec<(&str, &str)> = want.to_vec();
    want.sort();
    have.len() == want.len()
        && have
            .iter()
            .zip(&want)
            .all(|((hk, hv), &(wk, wv))| hk == wk && hv == wv)
}

impl TelemetrySnapshot {
    /// The series with exactly these name + labels, if present.
    pub fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SeriesSnapshot> {
        self.series
            .iter()
            .find(|s| s.name == name && labels_match(&s.labels, labels))
    }

    /// True when at least one series carries this name (any labels).
    pub fn has_series(&self, name: &str) -> bool {
        self.series.iter().any(|s| s.name == name)
    }

    /// Counter value at exactly these labels.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.find(name, labels)?.value {
            MetricValue::Counter(c) => Some(c),
            _ => None,
        }
    }

    /// Sum of a counter across all label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.series
            .iter()
            .filter(|s| s.name == name)
            .map(|s| match s.value {
                MetricValue::Counter(c) => c,
                _ => 0,
            })
            .sum()
    }

    /// Gauge value at exactly these labels.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.find(name, labels)?.value {
            MetricValue::Gauge(g) => Some(g),
            _ => None,
        }
    }

    /// Histogram at exactly these labels.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        match &self.find(name, labels)?.value {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Renders the snapshot as a JSON document:
    /// `{"series": [{"name", "labels", "type", …value fields}]}`.
    pub fn to_json(&self) -> serde_json::Value {
        let series: Vec<serde_json::Value> = self
            .series
            .iter()
            .map(|s| {
                let labels = serde_json::Value::Object(
                    s.labels
                        .iter()
                        .map(|(k, v)| (k.clone(), serde_json::Value::String(v.clone())))
                        .collect(),
                );
                let mut fields = vec![
                    ("name".to_string(), serde_json::Value::from(s.name.as_str())),
                    ("labels".to_string(), labels),
                ];
                match &s.value {
                    MetricValue::Counter(c) => {
                        fields.push(("type".to_string(), serde_json::Value::from("counter")));
                        fields.push(("value".to_string(), serde_json::Value::from(*c)));
                    }
                    MetricValue::Gauge(g) => {
                        fields.push(("type".to_string(), serde_json::Value::from("gauge")));
                        fields.push(("value".to_string(), serde_json::Value::from(*g)));
                    }
                    MetricValue::Histogram(h) => {
                        fields.push(("type".to_string(), serde_json::Value::from("histogram")));
                        fields.push(("count".to_string(), serde_json::Value::from(h.count)));
                        fields.push(("sum".to_string(), serde_json::Value::from(h.sum)));
                        fields.push(("min".to_string(), serde_json::Value::from(h.min)));
                        fields.push(("max".to_string(), serde_json::Value::from(h.max)));
                        fields.push(("p50".to_string(), serde_json::Value::from(h.p50)));
                        fields.push(("p99".to_string(), serde_json::Value::from(h.p99)));
                        fields.push(("p999".to_string(), serde_json::Value::from(h.p999)));
                        fields.push((
                            "buckets".to_string(),
                            serde_json::Value::Array(
                                h.buckets
                                    .iter()
                                    .map(|&(ub, c)| {
                                        serde_json::Value::Array(vec![
                                            serde_json::Value::from(ub),
                                            serde_json::Value::from(c),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ));
                    }
                }
                serde_json::Value::Object(fields)
            })
            .collect();
        serde_json::Value::Object(vec![(
            "series".to_string(),
            serde_json::Value::Array(series),
        )])
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (`# TYPE` per metric name, `_bucket{le="…"}`/`_sum`/`_count`
    /// for histograms).
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for s in &self.series {
            if last_name != Some(s.name.as_str()) {
                let kind = match s.value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) => "histogram",
                };
                let _ = writeln!(out, "# TYPE {} {}", s.name, kind);
                last_name = Some(s.name.as_str());
            }
            match &s.value {
                MetricValue::Counter(c) => {
                    let _ = writeln!(out, "{}{} {}", s.name, prom_labels(&s.labels, &[]), c);
                }
                MetricValue::Gauge(g) => {
                    let _ = writeln!(out, "{}{} {}", s.name, prom_labels(&s.labels, &[]), g);
                }
                MetricValue::Histogram(h) => {
                    for &(ub, cum) in &h.buckets {
                        let le = if ub.is_finite() {
                            format!("{ub}")
                        } else {
                            "+Inf".to_string()
                        };
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            s.name,
                            prom_labels(&s.labels, &[("le", &le)]),
                            cum
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_sum{} {}",
                        s.name,
                        prom_labels(&s.labels, &[]),
                        h.sum
                    );
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        s.name,
                        prom_labels(&s.labels, &[]),
                        h.count
                    );
                }
            }
        }
        out
    }
}

fn prom_labels(labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let rendered: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .chain(
            extra
                .iter()
                .map(|&(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\""))),
        )
        .collect();
    format!("{{{}}}", rendered.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.counter_inc("quamax_test_total", &[]);
        t.observe("quamax_test_us", &[], 5.0);
        t.gauge_set("quamax_test_depth", &[], 1.0);
        assert!(t.snapshot().series.is_empty());
        assert!(t.merged_histogram("quamax_test_us").is_none());
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.quantile(1.0), 0.0);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert!(s.buckets.iter().all(|&(_, c)| c == 0));
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        let mut h = Histogram::new();
        h.observe(17.5);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), 17.5);
        }
        assert_eq!(h.min(), 17.5);
        assert_eq!(h.max(), 17.5);
        assert_eq!(h.mean(), 17.5);
    }

    #[test]
    fn bucket_boundaries_are_inclusive_upper_bounds() {
        // A value exactly at 2^i must land in bucket i (le = 2^i),
        // and the next representable value above must spill into i+1.
        for i in 0..8usize {
            let b = (1u64 << i) as f64;
            let mut h = Histogram::new();
            h.observe(b);
            assert_eq!(h.bucket_counts()[i], 1, "2^{i} belongs to bucket {i}");
            let mut h2 = Histogram::new();
            h2.observe(b * 1.0000001);
            assert_eq!(h2.bucket_counts()[i + 1], 1, "just above 2^{i} spills");
        }
        // Zero, negatives, and NaN all land in the first bucket
        // without panicking.
        let mut h = Histogram::new();
        h.observe(0.0);
        h.observe(-3.0);
        h.observe(f64::NAN);
        assert_eq!(h.bucket_counts()[0], 3);
    }

    #[test]
    fn overflow_bucket_saturates() {
        let mut h = Histogram::new();
        h.observe(1e300);
        h.observe(f64::INFINITY);
        h.observe(bucket_upper_bound(NUM_BUCKETS - 2) * 2.0);
        assert_eq!(h.bucket_counts()[NUM_BUCKETS - 1], 3);
        let s = h.snapshot();
        assert_eq!(s.buckets.last().unwrap().1, 3);
        assert!(s.buckets.last().unwrap().0.is_infinite());
    }

    #[test]
    fn quantile_matches_schedule_report_rule() {
        // The exact nearest-rank rule the serving benches used:
        // sorted[round((len-1) * q)].
        let mut h = Histogram::new();
        let xs = [5.0, 1.0, 9.0, 3.0, 7.0];
        for x in xs {
            h.observe(x);
        }
        let mut sorted = xs.to_vec();
        sorted.sort_by(f64::total_cmp);
        for q in [0.0, 0.25, 0.5, 0.75, 0.99, 0.999, 1.0] {
            let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
            assert_eq!(h.quantile(q), sorted[idx]);
        }
    }

    #[test]
    fn sum_is_recording_order_independent() {
        // Same multiset, opposite insertion orders — snapshots must be
        // byte-identical (the threaded decode_batch case).
        let xs = [0.1, 0.2, 0.3, 1e9, 7e-3, 0.2];
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for x in xs {
            a.observe(x);
        }
        for x in xs.iter().rev() {
            b.observe(*x);
        }
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn snapshot_is_deterministic_across_identical_runs() {
        let run = || {
            let t = Telemetry::enabled();
            for i in 0..50u64 {
                // A fixed, seedless recording schedule: same series,
                // same values, but *registered* in varying order.
                let cell = format!("{}", i % 3);
                t.counter_inc("quamax_serve_retries_total", &[("cell", &cell)]);
                t.observe(
                    "quamax_qpu_anneal_us",
                    &[("cell", &cell)],
                    (i * 7 % 13) as f64,
                );
                t.gauge_set("quamax_broker_queue_depth", &[("cell", &cell)], i as f64);
            }
            t.snapshot()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string_pretty(&a.to_json()).unwrap(),
            serde_json::to_string_pretty(&b.to_json()).unwrap()
        );
        assert_eq!(a.to_prometheus(), b.to_prometheus());
    }

    #[test]
    fn snapshot_orders_series_deterministically() {
        // Insertion order z-then-a; snapshot must come out sorted.
        let t = Telemetry::enabled();
        t.counter_inc("quamax_z_total", &[]);
        t.counter_inc("quamax_a_total", &[("cell", "1")]);
        t.counter_inc("quamax_a_total", &[("cell", "0")]);
        let s = t.snapshot();
        let names: Vec<(&str, String)> = s
            .series
            .iter()
            .map(|x| (x.name.as_str(), format!("{:?}", x.labels)))
            .collect();
        assert!(names.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(s.counter_total("quamax_a_total"), 2);
        assert_eq!(s.counter("quamax_a_total", &[("cell", "1")]), Some(1));
    }

    #[test]
    fn span_api_records_simulated_durations() {
        let t = Telemetry::enabled();
        t.span_us("quamax_qpu_program_us", &[], 100.0, 140.0);
        let sp = t.span_begin(200.0);
        t.span_end(sp, "quamax_qpu_program_us", &[], 260.0);
        // A span that closes "before" it opens clamps to zero rather
        // than recording a negative duration.
        t.span_us("quamax_qpu_program_us", &[], 10.0, 5.0);
        let h = t.merged_histogram("quamax_qpu_program_us").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(1.0), 60.0);
        assert_eq!(h.quantile(0.0), 0.0);
    }

    #[test]
    fn merged_histogram_spans_label_sets() {
        let t = Telemetry::enabled();
        t.observe("quamax_qpu_anneal_us", &[("cell", "0")], 1.0);
        t.observe("quamax_qpu_anneal_us", &[("cell", "1")], 3.0);
        let m = t.merged_histogram("quamax_qpu_anneal_us").unwrap();
        assert_eq!(m.count(), 2);
        assert_eq!(m.quantile(1.0), 3.0);
    }

    #[test]
    fn counter_store_publishes_absolute_values() {
        let t = Telemetry::enabled();
        t.counter_store("quamax_cache_hits_total", &[], 5);
        t.counter_store("quamax_cache_hits_total", &[], 9);
        assert_eq!(
            t.snapshot().counter("quamax_cache_hits_total", &[]),
            Some(9)
        );
    }

    #[test]
    fn prometheus_exposition_shape() {
        let t = Telemetry::enabled();
        t.counter_inc("quamax_serve_retries_total", &[("outcome", "funded")]);
        t.observe("quamax_qpu_anneal_us", &[], 3.0);
        let text = t.snapshot().to_prometheus();
        assert!(text.contains("# TYPE quamax_qpu_anneal_us histogram"));
        assert!(text.contains("quamax_qpu_anneal_us_bucket{le=\"4\"} 1"));
        assert!(text.contains("quamax_qpu_anneal_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("quamax_qpu_anneal_us_sum 3"));
        assert!(text.contains("quamax_qpu_anneal_us_count 1"));
        assert!(text.contains("# TYPE quamax_serve_retries_total counter"));
        assert!(text.contains("quamax_serve_retries_total{outcome=\"funded\"} 1"));
    }

    #[test]
    fn json_export_carries_required_fields() {
        let t = Telemetry::enabled();
        t.observe("quamax_qpu_anneal_us", &[("cell", "0")], 3.0);
        t.counter_inc("quamax_serve_retries_total", &[]);
        let js = serde_json::to_string_pretty(&t.snapshot().to_json()).unwrap();
        assert!(js.contains("\"name\": \"quamax_qpu_anneal_us\""));
        assert!(js.contains("\"type\": \"histogram\""));
        assert!(js.contains("\"p99\""));
        assert!(js.contains("\"cell\": \"0\""));
        assert!(js.contains("\"type\": \"counter\""));
    }

    #[test]
    fn cross_thread_recording_merges_deterministically() {
        // Two threads each record a fixed disjoint schedule; the final
        // snapshot must not depend on interleaving.
        let run = || {
            let t = Telemetry::enabled();
            std::thread::scope(|s| {
                for half in 0..2u64 {
                    let t = t.clone();
                    s.spawn(move || {
                        for i in 0..100u64 {
                            t.observe("quamax_qpu_anneal_us", &[], (half * 100 + i) as f64);
                            t.counter_inc("quamax_core_unembed_total", &[]);
                        }
                    });
                }
            });
            t.snapshot()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn handles_record_what_the_string_api_records() {
        let record = |by_handle: bool| {
            let t = Telemetry::enabled();
            let cells = ["0", "1", "2"];
            let jobs: Vec<CounterHandle> = cells
                .iter()
                .map(|&c| t.counter("quamax_qpu_jobs_total", &[("cell", c)]))
                .collect();
            let waits: Vec<HistogramHandle> = cells
                .iter()
                .map(|&c| t.histogram("quamax_qpu_queue_wait_us", &[("cell", c), ("k", "v")]))
                .collect();
            for i in 0..30usize {
                let c = i % 3;
                let (start, end) = (i as f64, (i * i % 17) as f64);
                if by_handle {
                    jobs[c].inc();
                    waits[c].span_us(start, end);
                } else {
                    t.counter_inc("quamax_qpu_jobs_total", &[("cell", cells[c])]);
                    t.span_us(
                        "quamax_qpu_queue_wait_us",
                        &[("k", "v"), ("cell", cells[c])],
                        start,
                        end,
                    );
                }
            }
            t.snapshot()
        };
        let (handles, strings) = (record(true), record(false));
        assert_eq!(handles, strings);
        assert_eq!(handles.to_prometheus(), strings.to_prometheus());
    }

    #[test]
    fn resolved_series_stay_out_of_snapshots_until_recorded() {
        let t = Telemetry::enabled();
        let hits = t.counter("quamax_cache_hits_total", &[]);
        let wait = t.histogram("quamax_qpu_queue_wait_us", &[("cell", "0")]);
        assert!(t.snapshot().series.is_empty());
        assert!(t.merged_histogram("quamax_qpu_queue_wait_us").is_none());
        wait.observe(4.0);
        let snap = t.snapshot();
        assert_eq!(snap.series.len(), 1);
        assert!(snap.find("quamax_cache_hits_total", &[]).is_none());
        hits.add(3);
        assert_eq!(
            t.snapshot().counter("quamax_cache_hits_total", &[]),
            Some(3)
        );
    }

    #[test]
    fn handles_share_a_series_with_the_string_api_and_survive_reset() {
        let t = Telemetry::enabled();
        let a = t.counter("quamax_sched_batches_total", &[("trigger", "full")]);
        let b = t
            .clone()
            .counter("quamax_sched_batches_total", &[("trigger", "full")]);
        a.inc();
        b.inc();
        t.counter_inc("quamax_sched_batches_total", &[("trigger", "full")]);
        let snap = t.snapshot();
        assert_eq!(snap.series.len(), 1);
        assert_eq!(
            snap.counter("quamax_sched_batches_total", &[("trigger", "full")]),
            Some(3)
        );
        t.reset();
        assert!(t.snapshot().series.is_empty());
        a.inc();
        assert_eq!(
            t.snapshot()
                .counter("quamax_sched_batches_total", &[("trigger", "full")]),
            Some(1)
        );
    }

    #[test]
    fn disabled_handles_are_inert() {
        let t = Telemetry::disabled();
        t.counter("quamax_test_total", &[]).add(5);
        t.histogram("quamax_test_us", &[]).observe(1.0);
        CounterHandle::default().inc();
        HistogramHandle::default().span_us(0.0, 1.0);
        assert!(t.snapshot().series.is_empty());
    }

    #[test]
    #[should_panic(expected = "is a counter, not a histogram")]
    fn resolving_a_handle_of_the_wrong_kind_panics() {
        let t = Telemetry::enabled();
        t.counter("quamax_x_total", &[]);
        t.histogram("quamax_x_total", &[]);
    }

    #[test]
    #[should_panic(expected = "not a histogram")]
    fn type_confusion_panics() {
        let t = Telemetry::enabled();
        t.counter_inc("quamax_x_total", &[]);
        t.observe("quamax_x_total", &[], 1.0);
    }
}
