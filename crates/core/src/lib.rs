//! QuAMax core: quantum-annealing maximum-likelihood MIMO detection.
//!
//! This crate is the paper's primary contribution, assembled from the
//! workspace substrates:
//!
//! * [`reduce`] — the ML-to-QUBO/Ising problem reduction (§3.2): a
//!   generic norm-expansion path valid for any linear symbol transform,
//!   plus the paper's closed-form generalized Ising parameters for BPSK
//!   (Eq. 6), QPSK (Eqs. 7–8) and 16-QAM (Eqs. 13–14), cross-validated
//!   against each other in tests;
//! * [`decoder`] — the end-to-end decode pipeline of §3.2.1: reduce →
//!   embed on Chimera → anneal → majority-vote unembed → rank solutions
//!   by logical Ising energy → bitwise post-translation to Gray bits;
//! * [`scenario`] — instance generation for the paper's evaluation
//!   setups (unit-gain random-phase channels, Rayleigh, AWGN at a given
//!   SNR, trace-driven);
//! * [`metrics`] — Time-to-Solution (§5.2.1), expected BER after `Na`
//!   anneals (Eq. 9), Time-to-BER and Time-to-FER (§5.2.2), with
//!   parallelization amortization;
//! * [`params`] — the Fix (per-class) and Opt (per-instance oracle)
//!   annealer parameter selection strategies of §5.3.
//!
//! # DESIGN — compile-once decode sessions
//!
//! The paper's C-RAN deployment story (§7) decodes *many subcarrier
//! problems per frame* against a channel `H` that is constant over a
//! coherence interval (~30 ms at walking speed, §2.1), yet a naive
//! decode re-derives everything per `(H, y)` call. The decode API is
//! therefore organized around the **`H`-only / `y`-dependent split** of
//! the Ising parameters:
//!
//! * **`H`-only (per coherence interval)** — the couplings `g_ij` of
//!   every closed-form reduction are functions of the Gram matrix
//!   `H*H` alone (Eqs. 6–8, 13–14), so the coupling *sparsity pattern*,
//!   the clique embedding, the chain layout, the annealer's CSR freeze
//!   (`CompiledProblem`), and the chain move tables (`CompiledChains`)
//!   are all fixed for the interval. So are the chain couplers
//!   (`−J_F·κ` depends only on the embedding parameters).
//! * **`y`-dependent (per decode)** — the linear fields `f_i` read the
//!   matched-filter output `H*y`, and the hardware pre-normalization
//!   scale `1/max|coefficient|` moves with them. Both are refreshed
//!   *in place* on the frozen CSR view (`set_linear_term` /
//!   `set_entry_weight`), never re-sorted or reallocated.
//!
//! The session lifecycle:
//!
//! ```text
//! QuamaxDecoder::compile(&input)      // once per coherence interval:
//!   -> DecodeSession                  //   reduce structure, embed,
//!                                     //   freeze CSR, map couplers
//! session.decode(&y, na, seed)        // per received vector: refresh
//!                                     //   fields + scale, anneal
//! session.decode_batch(&[(y, seed)])  // an interval's worth in one
//!                                     //   device call (per-item
//!                                     //   scratch, per-item RNG)
//! ```
//!
//! `DecodeSession` and the downlink `VppSession` are thin front-ends
//! over one crate-private compiled Ising session. A front-end keeps its
//! logical-problem builder (ML reduction, VPP QUBO) and its result
//! wrapper; the core owns the embedding, CSR freeze, chain and coupler
//! tables, in-place refresh, reverse-anneal candidate expansion, and
//! the one run path every forward, reverse, single and batch entry
//! takes: program → anneal-seed draw → `run_jobs` → majority-vote
//! unembed with tie-breaks from the same stream → rank. So a session
//! decode is bit-identical to one-shot [`QuamaxDecoder::decode`] (a
//! single-use session) and a batch item to the same item alone, under
//! the same seed; golden tests pin the draw order.
//!
//! # DESIGN — the unified detector traits
//!
//! The H/y split above is not QuAMax-specific: *every* detector the
//! paper compares against does `O(n³)` channel-only work before an
//! `O(n²)`-ish per-vector step. The [`detect`] module therefore lifts
//! the split into a pair of traits that all backends implement:
//!
//! ```text
//! Detector::compile(&DetectionInput) -> Session   // once per coherence interval
//! DetectorSession::detect(&y, seed) -> Detection  // per received vector
//! ```
//!
//! What each backend hoists into `compile`:
//!
//! | backend  | `H`-only (compiled once)                   | per-`y` |
//! |----------|--------------------------------------------|---------|
//! | QuAMax   | reduction structure, embedding, CSR freeze | field refresh + anneal batch |
//! | ZF       | pseudo-inverse `H⁺` (one LU of `H*H`)      | `H⁺y` + slice |
//! | MMSE     | LU of `H*H + (σ²/Es)·I`, matched filter    | `H*y` + triangular solves + slice |
//! | sphere   | QR of `H`                                  | rotate `ȳ = Q*y` + tree walk |
//! | exact ML | —                                          | exhaustive scan |
//!
//! All sessions return the same [`detect::Detection`] (bits, the ML
//! objective `‖y − Hv̂‖²`, backend statistics), so sweeps and sims
//! iterate over backends as values via the [`detect::DetectorKind`]
//! registry. A [`detect::HybridDetector`] composes two kinds into the
//! HotNets '20 routing structure: the cheap linear session answers
//! first and only residual-flagged problems reach the annealed or
//! sphere session. Every trait path is bit-identical to the backend's
//! direct API under the same `(H, y, seed)` — property-tested per
//! modulation, hybrid routing decisions included.
//!
//! # DESIGN — soft output: LLR derivation per backend
//!
//! Coded uplinks consume *reliabilities*, not bits, so every registry
//! kind also compiles a soft session
//! ([`detect::DetectorKind::compile_soft`] →
//! [`soft::SoftDetectorSession::detect_soft`] →
//! [`soft::SoftDetection`]). The per-bit LLR convention is uniform —
//! positive ⇒ bit 1, magnitude = max-log reliability `Δ‖y − Hv‖²/σ²`,
//! sign always agreeing with the backend's own hard decision — but the
//! derivation is backend-shaped:
//!
//! | backend  | LLR derivation |
//! |----------|----------------|
//! | QuAMax   | **list max-log over the anneal ensemble**: the ranked [`DecodeRun`](decoder::DecodeRun) solution distribution is already a hypothesis list, and each entry prices exactly (`E_ising + ml_offset = ‖y − Hv‖²`), so the multi-anneal pool doubles as a list demapper at zero extra anneals |
//! | ZF/MMSE  | **Gaussian approximation from the compiled filter's post-equalization SINR**: bias `μ_u = (WH)_uu`, noise `σ²(WW*)_uu`, residual interference `Es·Σ_{j≠u}‖(WH)_{uj}‖²`, priced once per coherence interval; per received vector the demapper bias-compensates and runs per-dimension max-log over the PAM levels |
//! | sphere   | **list sphere decoding** over the compiled QR: the same Schnorr–Euchner walk keeps the `list_size` best leaves (pruning against the worst *kept* leaf), which is exactly the max-log hypothesis pool |
//! | exact ML | exhaustive max-log over the whole constellation power — the ground truth the list demappers approximate |
//! | hybrid   | the accepted side's LLRs flow through the same residual-gated route as the hard path |
//!
//! **Clamping policy** ([`soft::SoftSpec::max_llr`]): every LLR is
//! clamped to `±max_llr`. A *list* backend whose pool never observed a
//! bit's counter-hypothesis prices the missing side at the pool's
//! **worst** entry — the lower bound a ranked list actually proves
//! (anything outside the top-`L` leaves scores at least the `L`-th) —
//! so a missing hypothesis cannot outvote a whole constraint span of
//! honestly-priced bits; only a single-candidate pool (every anneal
//! unanimous) saturates to `±max_llr` outright
//! (`quamax_wireless::ConvolutionalCode::decode_soft`, whose hard path
//! is the saturated ±1 special case). The [`coded`] module assembles
//! the full frame pipeline: encode → interleave → detect_soft per
//! channel use → deinterleave LLRs → soft Viterbi.
//!
//! # DESIGN — iterative detection–decoding (IDD)
//!
//! The anneal ensemble is paid for per vector; the IDD engine makes
//! each *extra* round buy coded BER instead of being thrown away, by
//! closing the detector↔decoder loop (the hybrid classical–quantum
//! iteration structure of the HotNets '20 follow-on, with the source
//! paper's Fig. 15 reverse anneals as the warm start).
//!
//! **Extrinsic-exchange schedule** ([`coded::CodedFrame::run_idd`],
//! governed by [`coded::IddSpec`]): per iteration, (1) every channel
//! use is re-detected through its *compiled* soft session with
//! [`soft::SoftDetectorSession::detect_soft_with_priors`]; (2) the
//! sessions' detector-extrinsic LLRs (`SoftDetection::extrinsic`) are
//! deinterleaved and fed to the SISO convolutional decoder
//! (`quamax_wireless::ConvolutionalCode::decode_siso`, max-log
//! forward/backward over the Viterbi trellis — `decode_soft` is its
//! marginal-only special case); (3) the decoder's per-coded-bit
//! extrinsic is damped (`IddSpec::damping`), clamped, interleaved
//! back into detection order (pad bits pinned to known zeros), and
//! becomes the next round's priors. The loop stops on a decoded-
//! payload fixed point (`IddSpec::early_exit`, the CRC-free
//! convergence test) or at `max_iters`; [`coded::IddOutcome`] carries
//! the full per-iteration BER/objective trajectories.
//!
//! **Prior pricing per backend** — all max-log, prior mismatch cost
//! `Σ_k 1[b_k ≠ sign(L_k)]·|L_k|` (σ²-scaled where metrics are in
//! `‖·‖²` units):
//!
//! | backend  | posterior | extrinsic fed back |
//! |----------|-----------|--------------------|
//! | QuAMax   | MAP demap over the reverse-annealed ensemble ∪ {warm-start candidate}, deduplicated, metrics augmented with the prior cost | ML-only demap of that pool — new measurements each round |
//! | ZF/MMSE  | per-dimension Gaussian MAP (prior cost added to each PAM level's metric) | `posterior − prior` computed before the clamp: a bit's own prior cancels exactly (its cost is constant per hypothesis side), leaving the channel LLR conditioned on the co-located bits' priors — the textbook per-bit extrinsic ( = the channel LLR outright for 1-bit dimensions) |
//! | sphere   | prior cost re-ranks the kept leaf list (exact MAP over the list) | ML-only demap of the list (the tree walk itself is unchanged) |
//! | exact ML | exact max-log MAP over the constellation power | the exact ML LLRs (channel evidence is prior-independent) |
//! | hybrid   | routes prior-aware sub-sessions under the same residual gate | the accepted side's |
//!
//! Two rules keep the exchange stable: the extrinsic is never the
//! clamped posterior minus the prior (saturation would erase channel
//! evidence), and a list backend's extrinsic never includes the prior
//! term (cross-bit prior penalties and the missing-hypothesis floor
//! would otherwise echo the prior back as fake new evidence).
//!
//! **Reverse-anneal warm-start contract**: a soft QuAMax session
//! derives, at compile time, the reverse counterpart of its forward
//! schedule (`Schedule::reverse_matched` at
//! [`soft::SoftSpec::reverse_s_target`]); under priors it re-encodes
//! the priors' hard decision as the initial state of a
//! [`decoder::DecodeSession::decode_reverse_from`] run — same
//! compiled embedding/CSR state, no recompile, deterministic in the
//! seed — and the candidate itself joins the hypothesis pool priced
//! exactly (`E_ising + ml_offset`). Uninformative (all-zero) priors
//! are bit-identical to `detect_soft` for *every* backend
//! (property-tested), so iteration 1 of the loop is exactly the
//! pre-IDD pipeline. `quamax_ran::CodedUplink::run_idd` charges each
//! bought iteration's reverse-anneal wall-clock against the radio
//! deadline and grants per-frame iteration budgets from the remaining
//! slack.
//!
//! # DESIGN — downlink precoding (VPP) as the mirror workload
//!
//! The uplink reduction asks the annealer "which symbols explain `y`?";
//! the [`precode`] module asks the mirror question — "which integer
//! perturbation makes the downlink transmit signal cheapest?" — and
//! reuses the *entire* session machinery to answer it. Vector
//! perturbation precoding (VPP) transmits `x = P(u + τv)` with
//! `P = H*(HH*)⁻¹` and `v ∈ ℤ[i]^{Nu}` chosen to minimize
//! `E(v) = ‖P(u + τv)‖²`; each receiver independently folds its sample
//! modulo τ (`τ = 2·levels_per_dimension`, the smallest modulus whose
//! fold is the identity on the constellation) and demaps as usual.
//!
//! **Realification without a real matrix.** With `W = P*P` (complex
//! Gram) and `Φ(A) = [[Re A, −Im A], [Im A, Re A]]`, the real form's
//! Gram is `G = FᵀF = Φ(W)` — every entry of `G` is read directly off
//! `W`, and the linear vector `Gφ(u)` is just `φ(Wu)`; no explicit
//! `2Nb × 2Nu` real channel is ever built.
//!
//! **The `C` encoding.** Each of the `2Nu` real perturbation
//! dimensions expands in two's complement: `t` magnitude bits of
//! weight `2^k` plus a sign bit of weight `−2^t`, covering
//! `[−2^t, 2^t − 1]` bijectively. The QUBO is
//! `Q = τ²CᵀGC + 2τCᵀGφ(u)` with scalar offset `‖Pu‖²`, so
//! `qubo.energy(bits) + offset = ‖P(u + τ·decode(bits))‖²` exactly
//! (property-tested across encoding widths and τ).
//!
//! **Role of τ in the coupling structure.** τ multiplies the entire
//! quadratic block (`τ²CᵀGC`) and only *scales* the per-`u` linear
//! terms (`2τ·…`): the coupling *pattern* is a function of `(H, t)`
//! alone — the uplink's H-only/y-dependent split again. A
//! [`precode::VppSession`] is therefore the decode session's compiled
//! Ising core under a different builder: compile once per coherence
//! interval, refresh fields and scale per symbol vector, and batch
//! bit-identically to streaming. Its result wrapper adds a `v = 0`
//! floor, so it never transmits more power than plain ZF.
//!
//! **Warm-start contract.** `precode_reverse_from` and
//! `DecodeSession::decode_reverse_from` share one core path: the
//! front-end maps its candidate (THP's greedy `v`, clamped into the
//! encoding's range; an IDD decision's bits) to logical spins, and the
//! core expands them onto the chains and anneals backwards on the
//! *same* compiled session — no recompile, deterministic in the seed.
//!
//! Classical zero-forcing (`τ → ∞`, `v = 0`) and Tomlinson–Harashima
//! (greedy successive-modulo) slot in behind the same
//! [`precode::Precoder`]/[`precode::PrecoderSession`] traits via the
//! [`precode::PrecoderKind`] registry, and
//! [`precode::HybridPrecoder`] routes on the primary's realized
//! transmit power per antenna — the downlink analogue of the
//! residual-gated detection router.

pub mod coded;
pub mod decoder;
pub mod detect;
pub mod metrics;
pub mod params;
pub mod precode;
pub mod reduce;
pub mod scenario;
mod session;
pub mod soft;

pub use coded::{CodedFrame, CodedFrameOutcome, IddIteration, IddOutcome, IddSpec};
pub use decoder::{DecodeError, DecodeRun, DecodeSession, DecoderConfig, QuamaxDecoder};
pub use detect::{
    measured_fallback_fraction, BackendStats, DetectError, Detection, Detector, DetectorKind,
    DetectorSession, ErrorClass, ExactMlDetector, HybridDetector, QuamaxDetector, Route,
    RoutePolicy,
};
pub use metrics::{percentile, BitErrorProfile, RunStatistics};
pub use params::CandidateParams;
pub use precode::{
    fold_mod_tau, mod_tau, tau_for, HybridPrecoder, PerturbEncoding, PrecodeError, PrecodeInput,
    PrecodePolicy, PrecodeStats, Precoder, PrecoderKind, PrecoderSession, Precoding, ThpPrecoder,
    VppModel, VppPrecoder, VppSession, ZfPrecoder,
};
pub use reduce::{ising_from_ml, qubo_from_ml};
pub use scenario::{DetectionInput, Instance, Scenario};
pub use soft::{SoftDetection, SoftDetectorSession, SoftSpec};
