//! The per-layer metrics of the traced run. Every traced run prints
//! every one of them; a layer its workload does not exercise reads 0.

pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
}

macro_rules! layers {
    ($($name:literal $unit:literal),* $(,)?) => {
        pub const LAYER_METRICS: &[LayerMetric] = &[$(LayerMetric { name: $name, unit: $unit }),*];
    };
}

layers! {
    "anneal.run.us_per_anneal" "us",
    "anneal.run.spin_updates_per_s" "1/s",
    "anneal.rank.us" "us",
    "anneal.ground_hit_ratio" "ratio",
    "anneal.distinct_ratio" "ratio",
    "anneal.chains.us" "us",
    "chimera.parallelization.us" "us",
    "chimera.embed.us" "us",
    "chimera.unembed.us_per_sample" "us",
    "chimera.chain_break_ratio" "ratio",
    "ising.freeze.us" "us",
    "core.reduce.us" "us",
    "core.compile.us" "us",
    "core.refresh.us" "us",
    "core.decode.self_us" "us",
    "core.detect_soft.us" "us",
    "core.detect_prior.us" "us",
    "core.idd.iters_mean" "count",
    "core.idd.early_exit_ratio" "ratio",
    "core.precode.us" "us",
    "wireless.siso.us" "us",
    "linalg.factorizations_per_item" "count",
    "ran.sched.ns_per_job" "ns",
    "ran.qpu.service_model.us" "us",
    "ran.loadgen.us" "us",
    "ran.sched.mean_occupancy" "count",
    "ran.sched.dispatches" "count",
    "ran.cache.hit_ratio" "ratio",
    "ran.serve.retries" "count",
    "ran.serve.shed" "count",
    "telemetry.overhead_ratio" "ratio",
    "telemetry.snapshot.us" "us",
    "telemetry.retained_samples" "count",
    "trace.overhead_ratio" "ratio",
}

/// Values set by a traced run, by metric name.
#[derive(Default)]
pub struct Layers {
    values: Vec<(&'static str, f64)>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYER_METRICS.iter().any(|m| m.name == name),
            "unknown layer metric {name}"
        );
        assert!(
            value.is_finite(),
            "layer metric {name} is not finite: {value}"
        );
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}
