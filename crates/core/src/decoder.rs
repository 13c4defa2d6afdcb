//! The end-to-end QuAMax decode pipeline (§3.2.1's worked example,
//! §4's machine model).
//!
//! One decode = one QA run:
//!
//! 1. form the ML Ising problem from `(H, y)` (closed-form reduction);
//! 2. embed it on the Chimera chip (triangle clique embedding) and
//!    compile with the chain strength / dynamic-range parameters;
//! 3. submit a batch of `Na` anneals to the (simulated) annealer;
//! 4. majority-vote unembed each sample, rank distinct logical
//!    solutions by *logical* Ising energy;
//! 5. the minimum-energy solution is the decode; translate its
//!    QuAMax-transform bits to Gray bits (Fig. 2).
//!
//! The returned [`DecodeRun`] keeps the whole ranked distribution —
//! the paper's per-instance metrics (Eq. 9, TTB) are order statistics
//! over it, not just the best answer.

use crate::reduce::{ising_from_ml, ising_from_ml_amortized};
use crate::scenario::DetectionInput;
use crate::session::{check_matrix, check_vector, expect_valid, Annealed, IsingSession};
use quamax_anneal::{Annealer, Schedule, SolutionDistribution};
use quamax_chimera::{ChimeraGraph, EmbedParams, EmbeddingError};
use quamax_ising::{bits_to_spins, spins_to_bits, IsingProblem};
use quamax_linalg::{CMatrix, CVector};
use quamax_telemetry::Telemetry;
use quamax_wireless::gray::{gray_bits_to_quamax, quamax_bits_to_gray};
use quamax_wireless::Modulation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Decoder-level configuration: embedding parameters and schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DecoderConfig {
    /// Chain strength and dynamic range (§4).
    pub embed: EmbedParams,
    /// Anneal schedule (Ta, optional pause).
    pub schedule: Schedule,
}

impl Default for DecoderConfig {
    /// The paper's selected operating point (§5.3.2): improved dynamic
    /// range, `Ta = 1 µs` with a 1 µs pause.
    fn default() -> Self {
        DecoderConfig {
            embed: EmbedParams::default(),
            schedule: Schedule::with_pause(1.0, 0.35, 1.0),
        }
    }
}

/// Why a decode could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The problem does not fit the chip (Table 2's bold region).
    Embedding(EmbeddingError),
    /// An input is malformed: a NaN or infinite entry in the channel or
    /// the input vector, or a vector whose length does not match the
    /// compiled channel. The message names the input.
    InvalidInput(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Embedding(e) => write!(f, "embedding failed: {e}"),
            DecodeError::InvalidInput(what) => write!(f, "invalid input: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<EmbeddingError> for DecodeError {
    fn from(e: EmbeddingError) -> Self {
        DecodeError::Embedding(e)
    }
}

/// The ML reduction over one compiled channel — the decode front-end's
/// logical-problem builder.
struct MlReduction {
    modulation: Modulation,
    h: CMatrix,
    /// `H*H` — the channel Gram matrix every closed-form coupling and
    /// field reads (computed once per coherence interval).
    gram: CMatrix,
    /// `H*` — applied per decode for the matched filter `H*y`.
    h_herm: CMatrix,
}

impl MlReduction {
    /// The ML Ising problem of `y` and its offset
    /// `‖y − He‖² = E_ising + offset`, after checking `y`.
    fn ising(&self, y: &CVector) -> Result<(IsingProblem, f64), DecodeError> {
        check_vector("received vector y", y, self.h.rows())?;
        Ok(if self.modulation == Modulation::Qam64 {
            // No closed form: the generic reduction recomputes the
            // QUBO; the session still amortizes embedding + freeze.
            ising_from_ml(&self.h, y, self.modulation)
        } else {
            let h_y = self.h_herm.mul_vec(y);
            ising_from_ml_amortized(&self.h, &self.gram, &h_y, y, self.modulation)
        })
    }
}

/// The QuAMax decoder: an annealer plus chip model plus configuration.
pub struct QuamaxDecoder {
    annealer: Annealer,
    graph: ChimeraGraph,
    config: DecoderConfig,
    /// Pipeline-stage metrics sink, threaded into every compiled
    /// session. Recording counts stages and models anneal time from
    /// the schedule — it reads no wall clock and draws no randomness,
    /// so decodes are bit-identical with telemetry on or off.
    telemetry: Telemetry,
}

impl QuamaxDecoder {
    /// A decoder on an ideal DW2Q chip.
    pub fn new(annealer: Annealer, config: DecoderConfig) -> Self {
        QuamaxDecoder {
            annealer,
            graph: ChimeraGraph::dw2q_ideal(),
            config,
            telemetry: Telemetry::disabled(),
        }
    }

    /// A decoder on a specific chip (e.g. with a defect map).
    pub fn with_graph(annealer: Annealer, graph: ChimeraGraph, config: DecoderConfig) -> Self {
        QuamaxDecoder {
            annealer,
            graph,
            config,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle; sessions compiled afterwards
    /// inherit it.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The attached telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Current configuration.
    pub fn config(&self) -> &DecoderConfig {
        &self.config
    }

    /// Replaces the configuration (used by Fix/Opt parameter search).
    pub fn set_config(&mut self, config: DecoderConfig) {
        self.config = config;
    }

    /// Runs one QA decode of `input` with `num_anneals` anneal cycles.
    ///
    /// `rng` drives unembedding tie-breaks and the annealer seed, so a
    /// seeded caller gets reproducible runs.
    pub fn decode<R: Rng + ?Sized>(
        &self,
        input: &DetectionInput,
        num_anneals: usize,
        rng: &mut R,
    ) -> Result<DecodeRun, DecodeError> {
        // One-shot decode = a single-use session: same reductions, same
        // programmed coefficients, same RNG draws.
        self.compile(input)?.run(&input.y, num_anneals, None, rng)
    }

    /// Reverse-anneal decode (§8 future work): refine a classical
    /// `candidate` solution (Gray bits, e.g. a ZF or MMSE decode) by
    /// annealing backwards from it. The decoder's schedule must be a
    /// [`Schedule::reverse`].
    ///
    /// # Panics
    /// Panics when the candidate bit count differs from the payload, or
    /// the configured schedule is not reverse.
    pub fn decode_reverse<R: Rng + ?Sized>(
        &self,
        input: &DetectionInput,
        num_anneals: usize,
        candidate_gray_bits: &[u8],
        rng: &mut R,
    ) -> Result<DecodeRun, DecodeError> {
        let reverse = (candidate_gray_bits, self.config.schedule);
        self.compile(input)?
            .run(&input.y, num_anneals, Some(reverse), rng)
    }

    /// Compiles the channel-dependent (per-coherence-interval) part of
    /// the decode once, returning a [`DecodeSession`] that streams
    /// per-received-vector decodes through the frozen problem.
    ///
    /// In the ML reduction the couplings `g_ij` (and hence the
    /// embedding, the chain layout, and the annealer's CSR view of the
    /// problem) depend only on `H` and the modulation; only the linear
    /// fields `h_i` and the global renormalization scale depend on `y`.
    /// A C-RAN front-end therefore compiles one session per coherence
    /// interval and decodes every subcarrier / OFDM symbol of the
    /// interval against it, paying the reduce→embed→freeze cost once
    /// (`input.y` is used only to shape the compile; any `y` of the
    /// interval works).
    ///
    /// Fails with [`DecodeError::InvalidInput`] when `H` or `y` holds a
    /// non-finite entry or `y` does not match `H`'s receive antennas,
    /// and with [`DecodeError::Embedding`] when the problem does not
    /// fit the chip.
    pub fn compile(&self, input: &DetectionInput) -> Result<DecodeSession, DecodeError> {
        check_matrix("channel H", &input.h)?;
        let ml = MlReduction {
            modulation: input.modulation,
            h: input.h.clone(),
            gram: input.h.gram(),
            h_herm: input.h.hermitian(),
        };
        let (logical, _) = ml.ising(&input.y)?;
        self.telemetry.counter_inc(
            "quamax_core_reduce_total",
            &[("modulation", input.modulation.name())],
        );
        let core = IsingSession::compile(
            &self.graph,
            &logical,
            self.config.embed,
            self.annealer.clone().with_telemetry(self.telemetry.clone()),
            self.config.schedule,
            self.telemetry.clone(),
        )?;
        Ok(DecodeSession { core, ml })
    }
}

/// A compiled decode session: the ML front-end over the shared compiled
/// Ising session. The `H`-dependent work (Gram matrix, embedding, CSR
/// freeze, chain tables) is done once; a per-`y` decode rebuilds the
/// small logical problem, refreshes fields and scale in place, and runs
/// the anneal batch.
///
/// Produced by [`QuamaxDecoder::compile`]. Decodes through a session
/// are bit-identical to [`QuamaxDecoder::decode`] on the same
/// `(H, y, seed)` — the session is an amortization, not a different
/// algorithm.
pub struct DecodeSession {
    core: IsingSession,
    ml: MlReduction,
}

impl DecodeSession {
    /// Modulation the session was compiled for.
    pub fn modulation(&self) -> Modulation {
        self.ml.modulation
    }

    /// Logical Ising variables (= payload bits per channel use).
    pub fn num_logical(&self) -> usize {
        self.core.num_logical()
    }

    /// Payload bits per decode.
    pub fn num_bits(&self) -> usize {
        self.num_logical()
    }

    /// Physical qubits occupied by the compiled embedding.
    pub fn num_physical(&self) -> usize {
        self.core.num_physical()
    }

    /// Geometric chip parallelization factor of this problem size.
    pub fn parallel_factor(&self) -> usize {
        self.core.parallel_factor()
    }

    /// Problems one anneal wave decodes side by side: the batch size at
    /// which [`DecodeSession::decode_batch`] fills the chip exactly
    /// once. The couplings of every tile are identical (same `H`);
    /// only the per-tile linear fields differ (each tile's `y`), which
    /// is why a batch scheduler coalesces *same-channel* jobs — they
    /// share this session and tile without reprogramming.
    pub fn batch_capacity(&self) -> usize {
        self.core.parallel_factor()
    }

    /// Projected on-chip anneal time, µs, of decoding `batch`
    /// same-channel problems through this session:
    /// `⌈batch / capacity⌉` waves of `num_anneals` cycles at the
    /// compiled schedule's cycle time. This is the service-time model a
    /// deadline-aware batch scheduler subtracts from the earliest
    /// member's slack to decide when a filling batch must close
    /// (`quamax_ran::sched`); host preprocessing, programming, and
    /// readout ride on top (`quamax_ran::QpuServer`'s overhead stack).
    pub fn projected_batch_us(&self, batch: usize, num_anneals: usize) -> f64 {
        self.core.projected_batch_us(batch, num_anneals)
    }

    /// Wraps a core outcome as the public result.
    fn decode_run(
        &self,
        annealed: Annealed,
        logical: IsingProblem,
        ml_offset: f64,
        schedule: Schedule,
    ) -> DecodeRun {
        DecodeRun {
            distribution: annealed.distribution,
            logical,
            ml_offset,
            modulation: self.ml.modulation,
            schedule,
            parallel_factor: self.core.parallel_factor(),
            chain_break_fraction: annealed.chain_break_fraction,
        }
    }

    /// The single-vector decode behind every entry point: forward under
    /// the compiled schedule, or backwards from `reverse`'s candidate
    /// Gray bits under its schedule.
    ///
    /// # Panics
    /// Panics when the candidate bit count differs from the payload, or
    /// the schedule's direction disagrees with the candidate's presence.
    pub(crate) fn run<R: Rng + ?Sized>(
        &mut self,
        y: &CVector,
        num_anneals: usize,
        reverse: Option<(&[u8], Schedule)>,
        rng: &mut R,
    ) -> Result<DecodeRun, DecodeError> {
        let (logical, ml_offset) = self.ml.ising(y)?;
        // Gray bits → QuAMax-transform bits → logical spins.
        let q = self.ml.modulation.bits_per_symbol();
        let candidate = reverse.map(|(gray, _)| {
            assert_eq!(gray.len(), self.num_bits(), "candidate bit count mismatch");
            bits_to_spins(
                &gray
                    .chunks(q)
                    .flat_map(gray_bits_to_quamax)
                    .collect::<Vec<u8>>(),
            )
        });
        let schedule = reverse.map_or(self.core.schedule(), |(_, s)| s);
        let annealed =
            self.core
                .run_one(&logical, candidate.as_deref(), schedule, num_anneals, rng);
        Ok(self.decode_run(annealed, logical, ml_offset, schedule))
    }

    /// Decodes one received vector with a fixed seed — the streaming
    /// entry point (`seed` covers both the anneal batch and the
    /// unembedding tie-breaks). Equivalent to
    /// [`QuamaxDecoder::decode`] driven by `StdRng::seed_from_u64(seed)`
    /// on the same `(H, y)`.
    ///
    /// # Panics
    /// Panics when `y` has a non-finite entry or its length differs
    /// from the receive antennas (the detector traits return
    /// [`DecodeError::InvalidInput`] instead).
    pub fn decode(&mut self, y: &CVector, num_anneals: usize, seed: u64) -> DecodeRun {
        self.decode_with_rng(y, num_anneals, &mut StdRng::seed_from_u64(seed))
    }

    /// Decodes one received vector drawing the anneal seed and the
    /// unembedding tie-breaks from `rng` (the historical
    /// [`QuamaxDecoder::decode`] contract).
    ///
    /// # Panics
    /// Panics on a malformed `y`, like [`DecodeSession::decode`].
    pub fn decode_with_rng<R: Rng + ?Sized>(
        &mut self,
        y: &CVector,
        num_anneals: usize,
        rng: &mut R,
    ) -> DecodeRun {
        expect_valid(self.run(y, num_anneals, None, rng))
    }

    /// Reverse-anneal decode through the session (see
    /// [`QuamaxDecoder::decode_reverse`]).
    ///
    /// # Panics
    /// Panics when the candidate bit count differs from the payload,
    /// the configured schedule is not reverse, or `y` is malformed.
    pub fn decode_reverse<R: Rng + ?Sized>(
        &mut self,
        y: &CVector,
        num_anneals: usize,
        candidate_gray_bits: &[u8],
        rng: &mut R,
    ) -> DecodeRun {
        let reverse = (candidate_gray_bits, self.core.schedule());
        expect_valid(self.run(y, num_anneals, Some(reverse), rng))
    }

    /// Reverse-anneal decode from a *supplied* candidate state under a
    /// *supplied* reverse schedule — the warm-start entry an iterative
    /// detection–decoding loop uses: the session stays compiled for its
    /// forward operating point (iteration 1), and later iterations
    /// refine the channel decoder's current decision by annealing
    /// backwards from it without recompiling anything. Deterministic in
    /// `seed` exactly like [`DecodeSession::decode`].
    ///
    /// # Panics
    /// Panics when the candidate bit count differs from the payload,
    /// `schedule` is not reverse, or `y` is malformed.
    pub fn decode_reverse_from(
        &mut self,
        y: &CVector,
        num_anneals: usize,
        candidate_gray_bits: &[u8],
        schedule: &Schedule,
        seed: u64,
    ) -> DecodeRun {
        let reverse = (candidate_gray_bits, *schedule);
        let mut rng = StdRng::seed_from_u64(seed);
        expect_valid(self.run(y, num_anneals, Some(reverse), &mut rng))
    }

    /// Decodes a batch of `(y, seed)` pairs — one coherence interval's
    /// worth of subcarrier/symbol problems — through one device-level
    /// [`Annealer::run_jobs`] call: every item's anneals flatten into
    /// replica batches, so one CSR row walk drives up to
    /// `replica_width` anneals (often of *different* items — each
    /// replica carries its own programmed fields over the shared
    /// session structure) while threads shard the flattened batch.
    ///
    /// Each item is decoded under its own `StdRng::seed_from_u64(seed)`
    /// stream, so results are bit-identical to calling
    /// [`DecodeSession::decode`] item by item (and to one-shot
    /// [`QuamaxDecoder::decode`] under the same seeds), regardless of
    /// batch width or worker count.
    ///
    /// # Panics
    /// Panics, before any anneal, when any item's `y` is malformed.
    pub fn decode_batch(&self, items: &[(CVector, u64)], num_anneals: usize) -> Vec<DecodeRun> {
        let (logicals, offsets): (Vec<IsingProblem>, Vec<f64>) = items
            .iter()
            .map(|(y, _)| expect_valid(self.ml.ising(y)))
            .unzip();
        let seeds = items.iter().map(|&(_, seed)| seed);
        let schedule = self.core.schedule();
        self.core
            .run_batch(&logicals, seeds, num_anneals)
            .into_iter()
            .zip(logicals.into_iter().zip(offsets))
            .map(|(annealed, (logical, offset))| {
                self.decode_run(annealed, logical, offset, schedule)
            })
            .collect()
    }
}

/// The result of one QA decode run.
#[derive(Clone, Debug)]
pub struct DecodeRun {
    distribution: SolutionDistribution,
    logical: IsingProblem,
    ml_offset: f64,
    modulation: quamax_wireless::Modulation,
    schedule: Schedule,
    parallel_factor: usize,
    chain_break_fraction: f64,
}

impl DecodeRun {
    /// The ranked logical solution distribution (Fig. 4's x-axis).
    pub fn distribution(&self) -> &SolutionDistribution {
        &self.distribution
    }

    /// The logical Ising problem that was solved.
    pub fn logical_problem(&self) -> &IsingProblem {
        &self.logical
    }

    /// The additive constant linking Ising energies to ML metrics:
    /// `‖y − He‖² = E_ising + ml_offset`.
    pub fn ml_offset(&self) -> f64 {
        self.ml_offset
    }

    /// Gray-translated decoded bits of the rank-`r` solution, or
    /// `None` when the run observed fewer than `rank + 1` distinct
    /// solutions.
    pub fn bits_for_rank(&self, rank: usize) -> Option<Vec<u8>> {
        let entry = self.distribution.entries().get(rank)?;
        let qubo_bits = spins_to_bits(&entry.spins);
        let q = self.modulation.bits_per_symbol();
        Some(qubo_bits.chunks(q).flat_map(quamax_bits_to_gray).collect())
    }

    /// The decode: Gray bits of the minimum-energy solution found.
    ///
    /// # Panics
    /// Panics when the run had zero anneals.
    pub fn best_bits(&self) -> Vec<u8> {
        self.bits_for_rank(0).expect("empty run has no decode")
    }

    /// Wall-clock time of one anneal cycle, `Ta + Tp`, in µs.
    pub fn anneal_cycle_us(&self) -> f64 {
        self.schedule.total_time_us()
    }

    /// Geometric parallelization factor of this problem size on the
    /// chip (≥ 1).
    pub fn parallel_factor(&self) -> usize {
        self.parallel_factor
    }

    /// Fraction of broken chains across all anneals (embedding health).
    pub fn chain_break_fraction(&self) -> f64 {
        self.chain_break_fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use quamax_anneal::{AnnealerConfig, IceModel};
    use quamax_wireless::Modulation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quiet_annealer() -> Annealer {
        Annealer::new(AnnealerConfig {
            ice: IceModel::none(),
            sweeps_per_us: 50.0,
            ..Default::default()
        })
    }

    #[test]
    fn decodes_noiseless_bpsk_exactly() {
        let mut rng = StdRng::seed_from_u64(1);
        let sc = Scenario::new(4, 4, Modulation::Bpsk);
        let inst = sc.sample(&mut rng);
        let decoder = QuamaxDecoder::new(
            quiet_annealer(),
            DecoderConfig {
                schedule: Schedule::standard(10.0),
                ..Default::default()
            },
        );
        let run = decoder
            .decode(&inst.detection_input(), 100, &mut rng)
            .unwrap();
        assert_eq!(run.best_bits(), inst.tx_bits());
        // Ising best energy + offset = ‖y − Hv̂‖² = 0 for the noiseless
        // ground truth.
        let best_e = run.distribution().best_energy().unwrap();
        assert!((best_e + run.ml_offset()).abs() < 1e-6);
    }

    #[test]
    fn decodes_noiseless_qpsk_and_qam16() {
        let mut rng = StdRng::seed_from_u64(2);
        for (m, nt, na) in [
            (Modulation::Qpsk, 3usize, 200usize),
            (Modulation::Qam16, 2, 400),
        ] {
            let sc = Scenario::new(nt, nt, m);
            let inst = sc.sample(&mut rng);
            let decoder = QuamaxDecoder::new(
                quiet_annealer(),
                DecoderConfig {
                    schedule: Schedule::standard(20.0),
                    ..Default::default()
                },
            );
            let run = decoder
                .decode(&inst.detection_input(), na, &mut rng)
                .unwrap();
            assert_eq!(run.best_bits(), inst.tx_bits(), "{}", m.name());
        }
    }

    #[test]
    fn run_exposes_statistics() {
        let mut rng = StdRng::seed_from_u64(3);
        let sc = Scenario::new(4, 4, Modulation::Bpsk);
        let inst = sc.sample(&mut rng);
        let decoder = QuamaxDecoder::new(quiet_annealer(), DecoderConfig::default());
        let run = decoder
            .decode(&inst.detection_input(), 50, &mut rng)
            .unwrap();
        assert_eq!(run.distribution().total_samples(), 50);
        assert!(
            run.parallel_factor() >= 20,
            "4-user BPSK should tile heavily"
        );
        assert!(run.chain_break_fraction() >= 0.0 && run.chain_break_fraction() <= 1.0);
        // Default schedule: 1 µs anneal + 1 µs pause.
        assert!((run.anneal_cycle_us() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn oversized_problem_is_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        // 40 users × 16-QAM = 160 logical: beyond the C16 clique bound.
        let sc = Scenario::new(40, 40, Modulation::Qam16);
        let inst = sc.sample(&mut rng);
        let decoder = QuamaxDecoder::new(quiet_annealer(), DecoderConfig::default());
        match decoder.decode(&inst.detection_input(), 1, &mut rng) {
            Err(DecodeError::Embedding(EmbeddingError::DoesNotFit { n: 160, .. })) => {}
            other => panic!("expected DoesNotFit, got {other:?}"),
        }
    }

    #[test]
    fn seeded_decode_is_reproducible() {
        let sc = Scenario::new(3, 3, Modulation::Qpsk);
        let run_once = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let inst = sc.sample(&mut rng);
            let decoder = QuamaxDecoder::new(quiet_annealer(), DecoderConfig::default());
            let run = decoder
                .decode(&inst.detection_input(), 30, &mut rng)
                .unwrap();
            run.best_bits()
        };
        assert_eq!(run_once(7), run_once(7));
    }

    #[test]
    fn reverse_decode_refines_a_candidate() {
        let mut rng = StdRng::seed_from_u64(6);
        let sc = Scenario::new(6, 6, Modulation::Qpsk);
        let inst = sc.sample(&mut rng);
        // A candidate with two wrong bits.
        let mut candidate = inst.tx_bits().to_vec();
        candidate[0] ^= 1;
        candidate[5] ^= 1;
        let decoder = QuamaxDecoder::new(
            quiet_annealer(),
            DecoderConfig {
                schedule: Schedule::reverse(2.0, 0.6, 2.0),
                ..Default::default()
            },
        );
        let run = decoder
            .decode_reverse(&inst.detection_input(), 100, &candidate, &mut rng)
            .unwrap();
        assert_eq!(
            run.best_bits(),
            inst.tx_bits(),
            "refinement should fix 2 bits"
        );
    }

    #[test]
    #[should_panic(expected = "Schedule::reverse")]
    fn reverse_decode_requires_reverse_schedule() {
        let mut rng = StdRng::seed_from_u64(7);
        let inst = Scenario::new(4, 4, Modulation::Bpsk).sample(&mut rng);
        let decoder = QuamaxDecoder::new(quiet_annealer(), DecoderConfig::default());
        let candidate = vec![0u8; 4];
        let _ = decoder.decode_reverse(&inst.detection_input(), 10, &candidate, &mut rng);
    }

    #[test]
    fn qam64_decodes_through_the_generic_reduction() {
        // 64-QAM has no closed-form Ising in the paper; the generic
        // norm-expansion path must carry it end-to-end (2 users = 12
        // logical variables).
        let mut rng = StdRng::seed_from_u64(8);
        let sc = Scenario::new(2, 2, Modulation::Qam64);
        let inst = sc.sample(&mut rng);
        let decoder = QuamaxDecoder::new(
            quiet_annealer(),
            DecoderConfig {
                schedule: Schedule::standard(30.0),
                ..Default::default()
            },
        );
        let run = decoder
            .decode(&inst.detection_input(), 600, &mut rng)
            .unwrap();
        assert_eq!(run.best_bits(), inst.tx_bits());
    }

    #[test]
    fn ranked_bits_differ_across_ranks() {
        let mut rng = StdRng::seed_from_u64(5);
        let sc = Scenario::new(4, 4, Modulation::Bpsk);
        let inst = sc.sample(&mut rng);
        // Noisy short anneals: guarantee several distinct solutions.
        let annealer = Annealer::new(AnnealerConfig {
            sweeps_per_us: 2.0,
            ..Default::default()
        });
        let decoder = QuamaxDecoder::new(
            annealer,
            DecoderConfig {
                schedule: Schedule::standard(1.0),
                ..Default::default()
            },
        );
        let run = decoder
            .decode(&inst.detection_input(), 200, &mut rng)
            .unwrap();
        assert!(run.distribution().num_distinct() > 1);
        let a = run.bits_for_rank(0).unwrap();
        let b = run.bits_for_rank(1).unwrap();
        assert_ne!(a, b);
        // Past the observed distinct solutions there is no decode.
        assert_eq!(run.bits_for_rank(run.distribution().num_distinct()), None);
    }

    #[test]
    fn session_decode_matches_one_shot_decode() {
        // Same (H, y, seed): a compiled session and the one-shot path
        // must agree on every observable of the run.
        let mut rng = StdRng::seed_from_u64(11);
        let sc = Scenario::new(4, 4, Modulation::Qpsk);
        let inst = sc.sample(&mut rng);
        let input = inst.detection_input();
        let decoder = QuamaxDecoder::new(quiet_annealer(), DecoderConfig::default());

        let mut one_shot_rng = StdRng::seed_from_u64(99);
        let one_shot = decoder.decode(&input, 40, &mut one_shot_rng).unwrap();

        let mut session = decoder.compile(&input).unwrap();
        let via_session = session.decode(&input.y, 40, 99);

        assert_eq!(one_shot.best_bits(), via_session.best_bits());
        assert_eq!(one_shot.distribution(), via_session.distribution());
        assert_eq!(one_shot.ml_offset(), via_session.ml_offset());
        assert_eq!(
            one_shot.chain_break_fraction(),
            via_session.chain_break_fraction()
        );
        assert_eq!(one_shot.parallel_factor(), via_session.parallel_factor());
    }

    #[test]
    fn session_streams_fresh_received_vectors() {
        // The coherence-interval pattern: one channel H, many y. Each
        // session decode must equal a fresh one-shot decode of that y.
        let mut rng = StdRng::seed_from_u64(12);
        let sc = Scenario::new(4, 4, Modulation::Bpsk);
        let base = sc.sample(&mut rng);
        let decoder = QuamaxDecoder::new(
            quiet_annealer(),
            DecoderConfig {
                schedule: Schedule::standard(10.0),
                ..Default::default()
            },
        );
        let mut session = decoder.compile(&base.detection_input()).unwrap();
        for k in 0..4u64 {
            // New bits + noise over the same channel.
            let inst = base.renoise(quamax_wireless::Snr::from_db(18.0), &mut rng);
            let input = inst.detection_input();
            let run = session.decode(&input.y, 60, 1000 + k);
            let mut one_rng = StdRng::seed_from_u64(1000 + k);
            let one = decoder.decode(&input, 60, &mut one_rng).unwrap();
            assert_eq!(run.best_bits(), one.best_bits(), "y #{k}");
            assert_eq!(run.distribution(), one.distribution(), "y #{k}");
        }
    }

    #[test]
    fn batch_decode_is_bit_identical_to_sequential() {
        let mut rng = StdRng::seed_from_u64(13);
        let sc = Scenario::new(3, 3, Modulation::Qam16);
        let base = sc.sample(&mut rng);
        let decoder = QuamaxDecoder::new(
            quiet_annealer(),
            DecoderConfig {
                schedule: Schedule::standard(15.0),
                ..Default::default()
            },
        );
        let mut session = decoder.compile(&base.detection_input()).unwrap();
        let items: Vec<(quamax_linalg::CVector, u64)> = (0..6u64)
            .map(|k| {
                let inst = base.renoise(quamax_wireless::Snr::from_db(20.0), &mut rng);
                (inst.y().clone(), 7_000 + k)
            })
            .collect();
        let batch = session.decode_batch(&items, 30);
        assert_eq!(batch.len(), items.len());
        for (run, (y, seed)) in batch.iter().zip(&items) {
            let single = session.decode(y, 30, *seed);
            assert_eq!(run.best_bits(), single.best_bits());
            assert_eq!(run.distribution(), single.distribution());
        }
    }

    #[test]
    fn projected_batch_time_counts_chip_waves() {
        let mut rng = StdRng::seed_from_u64(15);
        let sc = Scenario::new(4, 4, Modulation::Bpsk);
        let inst = sc.sample(&mut rng);
        let decoder = QuamaxDecoder::new(
            quiet_annealer(),
            DecoderConfig {
                schedule: Schedule::standard(10.0),
                ..Default::default()
            },
        );
        let session = decoder.compile(&inst.detection_input()).unwrap();
        let cap = session.batch_capacity();
        assert_eq!(cap, session.parallel_factor());
        assert!(cap >= 1);
        let cycle = 10.0;
        // One wave up to capacity, two waves at capacity + 1; an empty
        // batch costs nothing.
        assert_eq!(session.projected_batch_us(0, 30), 0.0);
        let one = session.projected_batch_us(1, 30);
        assert!((one - 30.0 * cycle).abs() < 1e-9, "one wave: {one}");
        assert_eq!(
            session.projected_batch_us(cap, 30).to_bits(),
            one.to_bits(),
            "a full wave costs the same as one problem"
        );
        assert!((session.projected_batch_us(cap + 1, 30) - 2.0 * one).abs() < 1e-9);
    }

    #[test]
    fn session_reverse_decode_matches_one_shot() {
        let mut rng = StdRng::seed_from_u64(14);
        let sc = Scenario::new(5, 5, Modulation::Qpsk);
        let inst = sc.sample(&mut rng);
        let input = inst.detection_input();
        let mut candidate = inst.tx_bits().to_vec();
        candidate[1] ^= 1;
        let decoder = QuamaxDecoder::new(
            quiet_annealer(),
            DecoderConfig {
                schedule: Schedule::reverse(2.0, 0.6, 2.0),
                ..Default::default()
            },
        );
        let mut one_rng = StdRng::seed_from_u64(77);
        let one = decoder
            .decode_reverse(&input, 50, &candidate, &mut one_rng)
            .unwrap();
        let mut session = decoder.compile(&input).unwrap();
        let mut s_rng = StdRng::seed_from_u64(77);
        let via = session.decode_reverse(&input.y, 50, &candidate, &mut s_rng);
        assert_eq!(one.best_bits(), via.best_bits());
        assert_eq!(one.distribution(), via.distribution());
    }

    #[test]
    fn decode_reverse_from_matches_a_reverse_configured_session() {
        // The warm-start entry: a session compiled at a *forward*
        // operating point, handed a reverse schedule per call, must
        // reproduce bit for bit what a session compiled with that
        // reverse schedule produces under the same seed — the compile
        // depends only on (H, embed params), never on the schedule.
        let mut rng = StdRng::seed_from_u64(21);
        let sc = Scenario::new(5, 5, Modulation::Qpsk);
        let inst = sc.sample(&mut rng);
        let input = inst.detection_input();
        let mut candidate = inst.tx_bits().to_vec();
        candidate[3] ^= 1;
        let reverse = Schedule::reverse(2.0, 0.6, 2.0);

        let forward_decoder = QuamaxDecoder::new(
            quiet_annealer(),
            DecoderConfig {
                schedule: Schedule::standard(10.0),
                ..Default::default()
            },
        );
        let mut forward_session = forward_decoder.compile(&input).unwrap();
        let via = forward_session.decode_reverse_from(&input.y, 40, &candidate, &reverse, 55);

        let reverse_decoder = QuamaxDecoder::new(
            quiet_annealer(),
            DecoderConfig {
                schedule: reverse,
                ..Default::default()
            },
        );
        let mut reverse_session = reverse_decoder.compile(&input).unwrap();
        let mut r_rng = StdRng::seed_from_u64(55);
        let direct = reverse_session.decode_reverse(&input.y, 40, &candidate, &mut r_rng);

        assert_eq!(via.best_bits(), direct.best_bits());
        assert_eq!(via.distribution(), direct.distribution());
        // The run reports the schedule it actually annealed with.
        assert!((via.anneal_cycle_us() - reverse.total_time_us()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "Schedule::reverse")]
    fn decode_reverse_from_rejects_forward_schedules() {
        let mut rng = StdRng::seed_from_u64(22);
        let inst = Scenario::new(4, 4, Modulation::Bpsk).sample(&mut rng);
        let decoder = QuamaxDecoder::new(quiet_annealer(), DecoderConfig::default());
        let mut session = decoder.compile(&inst.detection_input()).unwrap();
        let candidate = vec![0u8; 4];
        let _ = session.decode_reverse_from(
            &inst.detection_input().y,
            5,
            &candidate,
            &Schedule::standard(1.0),
            1,
        );
    }

    #[test]
    fn oversized_session_compile_is_rejected() {
        let mut rng = StdRng::seed_from_u64(15);
        let sc = Scenario::new(40, 40, Modulation::Qam16);
        let inst = sc.sample(&mut rng);
        let decoder = QuamaxDecoder::new(quiet_annealer(), DecoderConfig::default());
        match decoder.compile(&inst.detection_input()) {
            Err(DecodeError::Embedding(EmbeddingError::DoesNotFit { n: 160, .. })) => {}
            other => panic!("expected DoesNotFit, got {:?}", other.err()),
        }
    }

    fn nan() -> quamax_linalg::Complex {
        quamax_linalg::Complex::new(f64::NAN, 0.0)
    }

    fn qpsk_input(seed: u64) -> DetectionInput {
        let mut rng = StdRng::seed_from_u64(seed);
        Scenario::new(3, 3, Modulation::Qpsk)
            .sample(&mut rng)
            .detection_input()
    }

    #[test]
    fn non_finite_channel_is_rejected_at_compile() {
        let decoder = QuamaxDecoder::new(quiet_annealer(), DecoderConfig::default());
        for bad in [nan(), quamax_linalg::Complex::new(0.0, f64::INFINITY)] {
            let mut input = qpsk_input(30);
            input.h[(1, 2)] = bad;
            match decoder.compile(&input) {
                Err(DecodeError::InvalidInput(what)) => assert!(what.contains("channel H")),
                other => panic!("expected InvalidInput, got {:?}", other.err()),
            }
            let mut rng = StdRng::seed_from_u64(1);
            assert!(matches!(
                decoder.decode(&input, 4, &mut rng),
                Err(DecodeError::InvalidInput(_))
            ));
        }
    }

    #[test]
    fn non_finite_or_mis_sized_y_is_rejected_at_compile() {
        let decoder = QuamaxDecoder::new(quiet_annealer(), DecoderConfig::default());
        let mut input = qpsk_input(31);
        input.y[0] = nan();
        match decoder.compile(&input) {
            Err(DecodeError::InvalidInput(what)) => {
                assert_eq!(what, "received vector y has a non-finite entry")
            }
            other => panic!("expected InvalidInput, got {:?}", other.err()),
        }
        input.y = CVector::zeros(2);
        match decoder.compile(&input) {
            Err(DecodeError::InvalidInput(what)) => {
                assert_eq!(what, "received vector y has length 2, expected 3")
            }
            other => panic!("expected InvalidInput, got {:?}", other.err()),
        }
    }

    #[test]
    #[should_panic(expected = "invalid input: received vector y has a non-finite entry")]
    fn session_decode_panics_on_non_finite_y() {
        let input = qpsk_input(32);
        let decoder = QuamaxDecoder::new(quiet_annealer(), DecoderConfig::default());
        let mut session = decoder.compile(&input).unwrap();
        let mut y = input.y.clone();
        y[2] = nan();
        let _ = session.decode(&y, 4, 1);
    }

    #[test]
    #[should_panic(expected = "invalid input: received vector y has length 4, expected 3")]
    fn session_decode_panics_on_mis_sized_y() {
        let input = qpsk_input(33);
        let decoder = QuamaxDecoder::new(quiet_annealer(), DecoderConfig::default());
        let mut session = decoder.compile(&input).unwrap();
        let _ = session.decode(&CVector::zeros(4), 4, 1);
    }

    #[test]
    #[should_panic(expected = "invalid input: received vector y has a non-finite entry")]
    fn batch_decode_panics_on_a_non_finite_item() {
        let input = qpsk_input(34);
        let decoder = QuamaxDecoder::new(quiet_annealer(), DecoderConfig::default());
        let session = decoder.compile(&input).unwrap();
        let mut bad = input.y.clone();
        bad[0] = nan();
        let _ = session.decode_batch(&[(input.y.clone(), 1), (bad, 2)], 4);
    }

    #[test]
    #[should_panic(expected = "invalid input: received vector y has a non-finite entry")]
    fn reverse_decode_panics_on_non_finite_y() {
        let input = qpsk_input(35);
        let decoder = QuamaxDecoder::new(quiet_annealer(), DecoderConfig::default());
        let mut session = decoder.compile(&input).unwrap();
        let mut y = input.y.clone();
        y[1] = nan();
        let candidate = vec![0u8; session.num_bits()];
        let reverse = Schedule::reverse(2.0, 0.6, 2.0);
        let _ = session.decode_reverse_from(&y, 4, &candidate, &reverse, 1);
    }
}
