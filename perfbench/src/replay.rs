//! The annealed-detection pipeline replayed from the layers' public
//! functions, one span per layer call: reduce → embed → freeze →
//! chains (compile, once per channel), then refresh → anneal →
//! unembed → rank (per problem). On the uplink it reproduces exactly
//! what `DecodeSession` does, so the traced run can check its bits
//! against the library's; the coded and VPP runs use it to time the
//! same layers on their own problems.

use crate::layers::Layers;
use crate::spans::Spans;
use quamax_anneal::{AnnealJob, Annealer, CompiledChains, Schedule, SolutionDistribution};
use quamax_chimera::{
    parallelization, unembed_majority_vote, ChimeraGraph, CliqueEmbedding, EmbedParams,
    EmbeddedProblem,
};
use quamax_ising::{CompiledProblem, IsingProblem, Spin};
use rand::Rng;

/// One compiled channel: the embedded problem frozen into the
/// annealer's CSR view, with the per-problem refresh tables.
pub struct Compiled {
    pub embedded: EmbeddedProblem,
    pub base: CompiledProblem,
    pub chains: CompiledChains,
    slots: Vec<(usize, usize, usize)>,
    chain_of: Vec<usize>,
    chain_len: f64,
}

/// The ranked result of one problem.
pub struct Ranked {
    pub distribution: SolutionDistribution,
    pub broken_chains: usize,
}

impl Compiled {
    /// Embeds and freezes `logical` (its coefficients shape the
    /// compile; per-problem values are written by `refresh`).
    pub fn new(
        graph: &ChimeraGraph,
        logical: &IsingProblem,
        params: EmbedParams,
        spans: &mut Spans,
    ) -> Compiled {
        let n = logical.num_spins();
        let embedded = spans.time("chimera.embed", |_| {
            let embedding = CliqueEmbedding::new(graph, n).expect("benchmark sizes embed");
            EmbeddedProblem::compile(graph, &embedding, logical, params)
        });
        spans.time("chimera.parallelization", |_| {
            std::hint::black_box(parallelization(n))
        });
        let base = spans.time("ising.freeze", |_| CompiledProblem::new(embedded.problem()));
        let chains = spans.time("anneal.chains", |_| {
            CompiledChains::compile(&base, embedded.chains())
        });
        let slots = embedded
            .programmed_couplers()
            .iter()
            .map(|&(i, j, da, db)| {
                let k = base
                    .coupler_entry(da as usize, db as usize)
                    .expect("programmed coupler exists in CSR");
                (k, i as usize, j as usize)
            })
            .collect();
        let mut chain_of = vec![0; embedded.num_physical()];
        for (i, chain) in embedded.chains().iter().enumerate() {
            for &d in chain {
                chain_of[d] = i;
            }
        }
        let chain_len = embedded.chains().first().map_or(1, Vec::len) as f64;
        Compiled {
            embedded,
            base,
            chains,
            slots,
            chain_of,
            chain_len,
        }
    }

    /// Writes `logical`'s coefficients into a copy of the frozen
    /// problem.
    pub fn refresh(&self, logical: &IsingProblem, spans: &mut Spans) -> CompiledProblem {
        let mut scratch = self.base.clone();
        spans.time("core.refresh", |_| {
            let scale = self.embedded.scale_for(logical);
            for (d, &c) in self.chain_of.iter().enumerate() {
                scratch.set_linear_term(d, logical.linear(c) * scale / self.chain_len);
            }
            for &(k, i, j) in &self.slots {
                scratch.set_entry_weight(k, logical.coupling(i, j) * scale);
            }
        });
        scratch
    }

    /// Anneals a batch of refreshed problems in one device call.
    pub fn anneal(
        &self,
        annealer: &Annealer,
        schedule: &Schedule,
        jobs: &[AnnealJob],
        spans: &mut Spans,
    ) -> Vec<Vec<Vec<Spin>>> {
        spans.time("anneal.run", |_| {
            annealer.run_jobs(&self.base, &self.chains, schedule, jobs)
        })
    }

    /// Majority-vote unembedding (tie-breaks from `rng`) and ranking.
    pub fn rank<R: Rng + ?Sized>(
        &self,
        logical: &IsingProblem,
        samples: &[Vec<Spin>],
        rng: &mut R,
        spans: &mut Spans,
    ) -> Ranked {
        let mut broken_chains = 0;
        let logical_samples: Vec<Vec<Spin>> = spans.time("chimera.unembed", |_| {
            samples
                .iter()
                .map(|s| {
                    let out = unembed_majority_vote(&self.embedded, s, rng);
                    broken_chains += out.broken_chains;
                    out.logical
                })
                .collect()
        });
        let distribution = spans.time("anneal.rank", |_| {
            SolutionDistribution::from_samples(logical, &logical_samples)
        });
        Ranked {
            distribution,
            broken_chains,
        }
    }
}

/// Anneal statistics summed over a traced run's problems.
#[derive(Default)]
pub struct Tally {
    problems: usize,
    ground_hits: f64,
    distinct: usize,
    broken_chains: usize,
    chains: usize,
    anneals: usize,
    /// Anneals × sweeps × physical qubits.
    spin_updates: f64,
}

impl Tally {
    pub fn add(&mut self, ranked: &Ranked, compiled: &Compiled, sweeps: usize) {
        let d = &ranked.distribution;
        let anneals = d.total_samples();
        self.problems += 1;
        self.ground_hits += ground_hit(d);
        self.distinct += d.num_distinct();
        self.broken_chains += ranked.broken_chains;
        self.chains += compiled.embedded.chains().len() * anneals;
        self.anneals += anneals;
        self.spin_updates += (anneals * sweeps * compiled.embedded.num_physical()) as f64;
    }

    /// Sets the anneal-pipeline layer metrics. `extra_anneals` and
    /// `extra_updates` account for `anneal.run` spans that produced no
    /// ranked problem (reverse-anneal probes).
    pub fn report(
        &self,
        spans: &Spans,
        extra_anneals: usize,
        extra_updates: f64,
        layers: &mut Layers,
    ) {
        let anneal_s = spans.total("anneal.run");
        let anneals = (self.anneals + extra_anneals) as f64;
        layers.set("anneal.run.us_per_anneal", anneal_s * 1e6 / anneals);
        layers.set(
            "anneal.run.spin_updates_per_s",
            (self.spin_updates + extra_updates) / anneal_s,
        );
        layers.set("anneal.rank.us", spans.mean_us("anneal.rank"));
        layers.set(
            "anneal.ground_hit_ratio",
            self.ground_hits / self.problems as f64,
        );
        layers.set(
            "anneal.distinct_ratio",
            self.distinct as f64 / self.anneals as f64,
        );
        layers.set("anneal.chains.us", spans.mean_us("anneal.chains"));
        layers.set(
            "chimera.parallelization.us",
            spans.mean_us("chimera.parallelization"),
        );
        layers.set("chimera.embed.us", spans.mean_us("chimera.embed"));
        layers.set(
            "chimera.unembed.us_per_sample",
            spans.total("chimera.unembed") * 1e6 / self.anneals as f64,
        );
        layers.set(
            "chimera.chain_break_ratio",
            self.broken_chains as f64 / self.chains as f64,
        );
        layers.set("ising.freeze.us", spans.mean_us("ising.freeze"));
        layers.set("core.reduce.us", spans.mean_us("core.reduce"));
        layers.set("core.refresh.us", spans.mean_us("core.refresh"));
    }
}

/// Relative tolerance within which an anneal's objective counts as
/// reaching the reference (the two are computed along different float
/// paths).
const REACH_TOL: f64 = 1e-6;

/// Anneals of one problem that reached a reference objective fixed
/// before the run, and the anneals taken.
#[derive(Clone, Copy, Default)]
pub struct Hits {
    pub hits: usize,
    pub anneals: usize,
}

impl Hits {
    /// Counts the anneals whose objective (logical energy + `offset`, a
    /// non-negative ML residual or transmit power) is at most
    /// `reference`, which each workload fixes from its inputs alone.
    pub fn count(d: &SolutionDistribution, offset: f64, reference: f64) -> Hits {
        let bar = reference + REACH_TOL * reference.abs().max(1.0);
        let hits = d
            .entries()
            .iter()
            .filter(|e| e.energy + offset <= bar)
            .map(|e| e.count)
            .sum();
        Hits {
            hits,
            anneals: d.total_samples(),
        }
    }

    /// Whether the problem's TTS99, at its observed success
    /// probability, fits `budget_us`. A problem no anneal solved fails.
    pub fn meets(&self, cycle_us: f64, budget_us: f64) -> bool {
        self.hits > 0 && tts99_us(self.hits as f64 / self.anneals as f64, cycle_us) <= budget_us
    }
}

/// Modelled QPU time to solution, µs: the paper's TTS99,
/// `T·ln(0.01)/ln(1−p)`, at per-anneal success probability `p > 0`.
pub fn tts99_us(p: f64, cycle_us: f64) -> f64 {
    quamax_core::metrics::time_to_solution(p, cycle_us, 0.99).expect("p is positive")
}

/// One item's modelled QPU time: each of its problems solved to TTS99
/// at its own success probability, estimated as Jeffreys'
/// `(hits + ½)/(anneals + 1)` so that a problem no anneal solved still
/// has a finite time.
pub fn item_sim_us(problems: &[Hits], cycle_us: f64) -> f64 {
    problems
        .iter()
        .map(|h| tts99_us((h.hits as f64 + 0.5) / (h.anneals as f64 + 1.0), cycle_us))
        .sum()
}

/// [`item_sim_us`] with the item's anneals pooled into one success
/// probability that all its problems share.
pub fn pooled_sim_us(problems: &[Hits], cycle_us: f64) -> f64 {
    let pooled = Hits {
        hits: problems.iter().map(|h| h.hits).sum(),
        anneals: problems.iter().map(|h| h.anneals).sum(),
    };
    problems.len() as f64 * item_sim_us(&[pooled], cycle_us)
}

/// Samples on the rank-0 solution over the samples taken.
pub fn ground_hit(d: &SolutionDistribution) -> f64 {
    d.entries().first().map_or(0.0, |e| e.count as f64) / d.total_samples().max(1) as f64
}

/// Sweeps one anneal of `schedule` runs at `annealer`'s density.
pub fn sweeps(annealer: &Annealer, schedule: &Schedule) -> usize {
    schedule
        .sweep_fractions(annealer.config().sweeps_per_us)
        .len()
}
