//! The compiled Ising session under both annealed front-ends.
//!
//! [`DecodeSession`](crate::decoder::DecodeSession) and
//! [`VppSession`](crate::precode::VppSession) differ only in how they
//! build the logical problem of one input vector and how they read the
//! ranked result. The rest lives here once: compile (embed, CSR freeze,
//! chain and coupler tables), in-place refresh of fields and scale,
//! reverse-anneal candidate expansion, and one run path — program each
//! item, draw its anneal seed, anneal all items in one
//! [`Annealer::run_jobs`] call, then majority-vote unembed with
//! tie-breaks from the same stream and rank. A single run refreshes the
//! session's own scratch view, a batch one clone of the template per
//! item; both go through [`Frozen::run`].

use crate::decoder::DecodeError;
use quamax_anneal::{AnnealJob, Annealer, CompiledChains, Schedule, SolutionDistribution};
use quamax_chimera::{
    parallelization, unembed_majority_vote, ChimeraGraph, CliqueEmbedding, EmbedParams,
    EmbeddedProblem, EmbeddingError,
};
use quamax_ising::{CompiledProblem, IsingProblem, Spin};
use quamax_linalg::{CMatrix, CVector};
use quamax_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rejects a channel matrix holding a NaN or infinite entry.
pub(crate) fn check_matrix(name: &str, m: &CMatrix) -> Result<(), DecodeError> {
    if m.is_finite() {
        return Ok(());
    }
    Err(DecodeError::InvalidInput(format!(
        "{name} has a non-finite entry"
    )))
}

/// Rejects an input vector of a length other than `len` or with a NaN
/// or infinite entry.
pub(crate) fn check_vector(name: &str, v: &CVector, len: usize) -> Result<(), DecodeError> {
    let problem = if v.len() != len {
        format!("has length {}, expected {len}", v.len())
    } else if v.is_finite() {
        return Ok(());
    } else {
        "has a non-finite entry".to_string()
    };
    Err(DecodeError::InvalidInput(format!("{name} {problem}")))
}

/// The value of a run whose inputs the caller vouched for: the
/// infallible session entry points panic on malformed input, naming it.
pub(crate) fn expect_valid<T>(result: Result<T, DecodeError>) -> T {
    result.unwrap_or_else(|e| panic!("{e}"))
}

/// One logical problem of a run.
struct Item<'a, R: ?Sized> {
    logical: &'a IsingProblem,
    /// Reverse-anneal start as logical spins; `None` anneals forward.
    candidate: Option<&'a [Spin]>,
    /// Draws the anneal seed first, then the unembedding tie-breaks.
    rng: &'a mut R,
}

/// The ranked outcome of one item.
pub(crate) struct Annealed {
    pub distribution: SolutionDistribution,
    /// Fraction of broken chains across the item's anneals.
    pub chain_break_fraction: f64,
}

/// A compiled session: the frozen tables plus the scratch view a
/// single-item run refreshes.
pub(crate) struct IsingSession {
    frozen: Frozen,
    scratch: CompiledProblem,
}

/// The read-only part of a session (what a batch shares).
struct Frozen {
    /// Stage counters; a cheap shared handle, disabled for front-ends
    /// without telemetry.
    telemetry: Telemetry,
    annealer: Annealer,
    /// The compiled operating point.
    schedule: Schedule,
    parallel_factor: usize,
    /// Chain layout + programming map (coefficients inside are stale
    /// after compile; only structure is read).
    embedded: EmbeddedProblem,
    /// The frozen CSR template: chain couplers valid for the whole
    /// session, fields and problem couplers refreshed per run.
    base: CompiledProblem,
    chains: CompiledChains,
    /// `(CSR entry, logical i, logical j)` per programmed coupler.
    slots: Vec<(u32, u32, u32)>,
    /// Dense physical qubit → owning logical chain.
    chain_of: Vec<u32>,
    chain_len: f64,
}

impl IsingSession {
    /// Embeds `logical` (any problem with the session's coupling
    /// pattern) on `graph` and freezes it.
    pub(crate) fn compile(
        graph: &ChimeraGraph,
        logical: &IsingProblem,
        params: EmbedParams,
        annealer: Annealer,
        schedule: Schedule,
        telemetry: Telemetry,
    ) -> Result<Self, EmbeddingError> {
        let embedding = CliqueEmbedding::new(graph, logical.num_spins())?;
        telemetry.counter_inc("quamax_core_embed_total", &[]);
        let embedded = EmbeddedProblem::compile(graph, &embedding, logical, params);
        let base = CompiledProblem::new(embedded.problem());
        let chains = CompiledChains::compile(&base, embedded.chains());
        // Resolve each programmed coupler's CSR entry once; per run the
        // new value is written straight into the frozen layout.
        let slots: Vec<(u32, u32, u32)> = embedded
            .programmed_couplers()
            .iter()
            .map(|&(i, j, da, db)| {
                let k = base
                    .coupler_entry(da as usize, db as usize)
                    .expect("programmed coupler exists in CSR");
                (k as u32, i, j)
            })
            .collect();
        let mut chain_of = vec![0u32; embedded.num_physical()];
        for (i, chain) in embedded.chains().iter().enumerate() {
            for &d in chain {
                chain_of[d] = i as u32;
            }
        }
        let chain_len = embedded.chains().first().map_or(1, Vec::len) as f64;
        let scratch = base.clone();
        telemetry.counter_inc("quamax_core_csr_freeze_total", &[]);
        Ok(IsingSession {
            frozen: Frozen {
                telemetry,
                annealer,
                schedule,
                parallel_factor: parallelization(embedding.num_logical()).max(1),
                embedded,
                base,
                chains,
                slots,
                chain_of,
                chain_len,
            },
            scratch,
        })
    }

    /// Logical Ising variables (= embedded chains).
    pub(crate) fn num_logical(&self) -> usize {
        self.frozen.embedded.chains().len()
    }

    /// Physical qubits occupied by the embedding.
    pub(crate) fn num_physical(&self) -> usize {
        self.frozen.embedded.num_physical()
    }

    /// Geometric chip parallelization factor of this problem size.
    pub(crate) fn parallel_factor(&self) -> usize {
        self.frozen.parallel_factor
    }

    /// The compiled operating point.
    pub(crate) fn schedule(&self) -> Schedule {
        self.frozen.schedule
    }

    /// On-chip anneal time, µs, of `batch` same-channel problems:
    /// `⌈batch / parallel_factor⌉` waves of `num_anneals` cycles.
    pub(crate) fn projected_batch_us(&self, batch: usize, num_anneals: usize) -> f64 {
        let waves = batch.div_ceil(self.parallel_factor()) as f64;
        waves * num_anneals as f64 * self.frozen.schedule.total_time_us()
    }

    /// Runs `logical` through the session's own scratch view, from
    /// `candidate` (logical spins) under a reverse `schedule`, or
    /// forward when `None`.
    pub(crate) fn run_one<R: Rng + ?Sized>(
        &mut self,
        logical: &IsingProblem,
        candidate: Option<&[Spin]>,
        schedule: Schedule,
        num_anneals: usize,
        rng: &mut R,
    ) -> Annealed {
        let item = Item {
            logical,
            candidate,
            rng,
        };
        let scratch = std::slice::from_mut(&mut self.scratch);
        let mut outcomes = self.frozen.run(scratch, &mut [item], schedule, num_anneals);
        outcomes.pop().expect("one item in, one outcome out")
    }

    /// Runs forward anneals of `logicals` under the compiled schedule in
    /// one batch, item `i` under `StdRng::seed_from_u64` of the `i`-th
    /// seed.
    pub(crate) fn run_batch(
        &self,
        logicals: &[IsingProblem],
        seeds: impl Iterator<Item = u64>,
        num_anneals: usize,
    ) -> Vec<Annealed> {
        let mut rngs: Vec<StdRng> = seeds.map(StdRng::seed_from_u64).collect();
        let mut items: Vec<Item<'_, StdRng>> = logicals
            .iter()
            .zip(&mut rngs)
            .map(|(logical, rng)| Item {
                logical,
                candidate: None,
                rng,
            })
            .collect();
        let mut scratches = vec![self.frozen.base.clone(); items.len()];
        self.frozen.run(
            &mut scratches,
            &mut items,
            self.frozen.schedule,
            num_anneals,
        )
    }
}

impl Frozen {
    /// Writes `logical`'s coefficients into `scratch`, reproducing
    /// exactly what a fresh embed → freeze of it would put there.
    fn program(&self, logical: &IsingProblem, scratch: &mut CompiledProblem) {
        let scale = self.embedded.scale_for(logical);
        for (d, &c) in self.chain_of.iter().enumerate() {
            scratch.set_linear_term(d, logical.linear(c as usize) * scale / self.chain_len);
        }
        for &(k, i, j) in &self.slots {
            scratch.set_entry_weight(k as usize, logical.coupling(i as usize, j as usize) * scale);
        }
        self.telemetry
            .counter_inc("quamax_core_field_refresh_total", &[]);
    }

    /// Copies each logical spin onto every qubit of its chain.
    fn expand(&self, logical_spins: &[Spin]) -> Vec<Spin> {
        assert_eq!(
            logical_spins.len(),
            self.embedded.chains().len(),
            "candidate length mismatch"
        );
        self.chain_of
            .iter()
            .map(|&c| logical_spins[c as usize])
            .collect()
    }

    /// The one run path: program each item into its scratch view and
    /// draw its anneal seed, anneal every item in one device call, then
    /// unembed and rank item by item.
    ///
    /// # Panics
    /// Panics when an item's start disagrees with `schedule`: a reverse
    /// schedule needs a candidate, a forward one must not get one.
    fn run<R: Rng + ?Sized>(
        &self,
        scratches: &mut [CompiledProblem],
        items: &mut [Item<'_, R>],
        schedule: Schedule,
        num_anneals: usize,
    ) -> Vec<Annealed> {
        let mut starts = Vec::with_capacity(items.len());
        for (scratch, item) in scratches.iter_mut().zip(items.iter_mut()) {
            assert_eq!(
                item.candidate.is_some(),
                schedule.is_reverse(),
                "a warm-started run needs a Schedule::reverse schedule, a cold one a forward schedule"
            );
            self.program(item.logical, scratch);
            let seed: u64 = item.rng.random();
            starts.push((item.candidate.map(|c| self.expand(c)), seed));
        }
        let jobs: Vec<AnnealJob> = scratches
            .iter()
            .zip(&starts)
            .map(|(problem, (init, seed))| AnnealJob {
                problem,
                init: init.as_deref(),
                num_anneals,
                seed: *seed,
            })
            .collect();
        let sample_sets = self
            .annealer
            .run_jobs(&self.base, &self.chains, &schedule, &jobs);
        items
            .iter_mut()
            .zip(sample_sets)
            .map(|(item, samples)| self.finish(item.logical, &samples, schedule, item.rng))
            .collect()
    }

    /// Accounting, per-sample majority-vote unembedding (tie-breaks
    /// drawn from `rng`, positioned right after the anneal-seed draw),
    /// and the ranked solution distribution.
    fn finish<R: Rng + ?Sized>(
        &self,
        logical: &IsingProblem,
        samples: &[Vec<Spin>],
        schedule: Schedule,
        rng: &mut R,
    ) -> Annealed {
        self.telemetry
            .counter_add("quamax_core_anneals_total", &[], samples.len() as u64);
        self.telemetry.observe(
            "quamax_core_anneal_modeled_us",
            &[],
            samples.len() as f64 * schedule.total_time_us(),
        );
        let mut logical_samples = Vec::with_capacity(samples.len());
        let mut broken = 0usize;
        for s in samples {
            let out = unembed_majority_vote(&self.embedded, s, rng);
            broken += out.broken_chains;
            logical_samples.push(out.logical);
        }
        self.telemetry
            .counter_add("quamax_core_unembed_total", &[], samples.len() as u64);
        let total_chains = logical.num_spins().max(1) * samples.len().max(1);
        Annealed {
            distribution: SolutionDistribution::from_samples(logical, &logical_samples),
            chain_break_fraction: broken as f64 / total_chains as f64,
        }
    }
}
