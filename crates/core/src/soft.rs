//! Soft-output detection: per-bit log-likelihood ratios (LLRs) from
//! every backend of the [`crate::detect`] registry, for the coded
//! uplink above MIMO detection.
//!
//! The paper evaluates uncoded BER, but a deployable C-RAN uplink is
//! coded, and what a soft-input channel decoder consumes is not bits —
//! it is *reliabilities*. This module extends the detector traits with
//! that output:
//!
//! * [`SoftDetectorSession::detect_soft`] returns a [`SoftDetection`]:
//!   the hard bits, the ML objective, the backend statistics, and one
//!   LLR per payload bit;
//! * the annealed backend turns its multi-anneal candidate pool into a
//!   **list demapper** (the ranked [`DecodeRun`] ensemble *is* the
//!   hypothesis list);
//! * the linear backends (ZF/MMSE) use the **Gaussian approximation**
//!   from the compiled filter's post-equalization SINR;
//! * the sphere backend runs **list sphere decoding** over the
//!   compiled QR.
//!
//! Sign convention (shared with `quamax_wireless`'s soft Viterbi):
//! positive LLR ⇒ bit 1, negative ⇒ bit 0, magnitude = max-log
//! reliability `Δ‖y − Hv‖²/σ²`. Every LLR's sign agrees with the
//! backend's own hard decision (property-tested per backend and
//! modulation), and magnitudes are clamped to [`SoftSpec::max_llr`].
//! A list backend that never observed a bit's counter-hypothesis
//! prices it at the pool's worst entry (the lower bound a ranked list
//! actually proves), clamping outright only when the pool is a single
//! unanimous candidate.
//!
//! **Prior-aware detection** — the iterative detection–decoding (IDD)
//! entry [`SoftDetectorSession::detect_soft_with_priors`] accepts
//! per-bit *a-priori* LLRs (the channel decoder's extrinsic output,
//! interleaved back into detection order) and returns *posterior*
//! LLRs:
//!
//! * the **list backends** add the max-log prior mismatch cost
//!   `σ²·Σ_k 1[b_k ≠ sign(L_k)]·|L_k|` to every hypothesis's ML metric
//!   before demapping, turning the max-log ML demap into a max-log MAP
//!   demap;
//! * **QuAMax** additionally re-encodes the priors' hard decision as a
//!   *reverse-anneal* initial state
//!   ([`DecodeSession::decode_reverse_from`]): the refinement ensemble
//!   explores around the decoder's current decision instead of
//!   annealing from scratch, and the warm-start candidate itself joins
//!   the (deduplicated) hypothesis pool;
//! * **ZF/MMSE** fold the prior cost into the per-dimension Gaussian
//!   max-log demap;
//! * **hybrid** routes prior-aware sub-sessions under the same
//!   residual gate.
//!
//! Uninformative (all-zero) priors are *bit-identical* to
//! [`SoftDetectorSession::detect_soft`] — iteration 1 of an IDD loop
//! is exactly the existing soft pipeline (property-tested per backend
//! and modulation).
//!
//! [`DecodeRun`]: crate::decoder::DecodeRun
//! [`DecodeSession::decode_reverse_from`]: crate::decoder::DecodeSession::decode_reverse_from

use crate::detect::{
    check_channel, check_received, ml_objective, BackendStats, DetectError, Detection, Detector,
    DetectorKind, DetectorSession, LinearFilter, QuamaxDetector, QuamaxSession, Route, RoutePolicy,
};
use crate::scenario::DetectionInput;
use quamax_baselines::{
    CompiledSphere, MmseDetector, SphereDecoder, ZeroForcingDetector, ZfFilter,
};
use quamax_linalg::{CMatrix, CVector, Complex, LinalgError};
use quamax_wireless::{Modulation, Snr};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Default LLR magnitude clamp: generous enough that a soft Viterbi
/// pass still distinguishes reliabilities below it, small enough that
/// a single missing counter-hypothesis cannot outvote a constraint
/// span of honest observations.
pub const DEFAULT_MAX_LLR: f64 = 50.0;

/// Default reversal point `s_target` for the QuAMax prior-aware
/// refinement anneal (the Fig. 15-style reverse schedule derived from
/// the forward operating point): deep enough that wrong bits can flip,
/// shallow enough that the warm start is not erased.
pub const DEFAULT_REVERSE_S_TARGET: f64 = 0.6;

/// Parameters of a soft-output compile: what the LLR derivation needs
/// beyond the [`DetectionInput`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SoftSpec {
    /// Total complex noise variance σ² per receive antenna — the
    /// denominator of every max-log LLR. (For an MMSE kind this is
    /// usually the same σ² as the filter's ridge, but the two are
    /// deliberately independent: the ridge shapes the equalizer, this
    /// scales the reliabilities.)
    pub noise_variance: f64,
    /// Magnitude clamp applied to every emitted LLR, and the value a
    /// list demapper assigns when a bit's counter-hypothesis is absent
    /// from the candidate pool.
    pub max_llr: f64,
    /// Leaf-list size for the sphere backend's list decode (ignored by
    /// the other backends; the annealed pool size is set by the anneal
    /// budget instead).
    pub list_size: usize,
    /// Reversal point `s_target` of the reverse-anneal schedule the
    /// QuAMax backend derives for prior-aware (warm-started) decodes —
    /// see [`SoftDetectorSession::detect_soft_with_priors`]. Ignored by
    /// the classical backends.
    pub reverse_s_target: f64,
}

impl SoftSpec {
    /// A spec at the given noise variance with default clamp and list
    /// size.
    ///
    /// # Panics
    /// Panics on negative variance.
    pub fn new(noise_variance: f64) -> Self {
        assert!(noise_variance >= 0.0, "noise variance must be non-negative");
        SoftSpec {
            noise_variance,
            max_llr: DEFAULT_MAX_LLR,
            list_size: 16,
            reverse_s_target: DEFAULT_REVERSE_S_TARGET,
        }
    }

    /// The spec matched to an operating SNR (the usual constructor:
    /// `σ² = E[|v|²]/SNR`).
    pub fn noise_matched(snr: Snr, modulation: Modulation) -> Self {
        SoftSpec::new(snr.noise_variance(modulation))
    }

    /// Overrides the LLR clamp.
    ///
    /// # Panics
    /// Panics unless `max_llr` is positive.
    pub fn with_max_llr(mut self, max_llr: f64) -> Self {
        assert!(max_llr > 0.0, "clamp must be positive");
        self.max_llr = max_llr;
        self
    }

    /// Overrides the sphere leaf-list size.
    ///
    /// # Panics
    /// Panics when `list_size` is zero.
    pub fn with_list_size(mut self, list_size: usize) -> Self {
        assert!(list_size > 0, "need a non-empty leaf list");
        self.list_size = list_size;
        self
    }

    /// Overrides the QuAMax reverse-anneal reversal point.
    ///
    /// # Panics
    /// Panics for `s_target` outside `(0, 1)`.
    pub fn with_reverse_s_target(mut self, s_target: f64) -> Self {
        assert!(
            s_target > 0.0 && s_target < 1.0,
            "reversal point must lie in (0,1)"
        );
        self.reverse_s_target = s_target;
        self
    }

    /// σ² floored away from zero so noiseless setups produce (clamped)
    /// finite LLRs instead of NaNs.
    fn sigma2(&self) -> f64 {
        self.noise_variance.max(f64::MIN_POSITIVE)
    }
}

/// The result of one soft detection: [`Detection`]'s fields plus one
/// LLR per payload bit.
#[derive(Clone, Debug)]
pub struct SoftDetection {
    /// Per-bit LLRs, user 0 first (positive ⇒ bit 1), clamped to the
    /// spec's `max_llr`. Same indexing as `bits`. Under priors these
    /// are *posterior* LLRs.
    pub llrs: Vec<f64>,
    /// Per-bit detector-**extrinsic** LLRs: the detection's own
    /// evidence with the prior contribution removed (`posterior −
    /// prior`, computed *before* the posterior clamp so a saturated
    /// posterior cannot erase channel evidence), then clamped. Equal
    /// to `llrs` when the detection ran without priors — this is the
    /// stream an IDD loop deinterleaves into the SISO decoder.
    pub extrinsic: Vec<f64>,
    /// Hard-decision bits — the sign pattern of `llrs` (each LLR's
    /// sign agrees with its bit; zero-LLR ties resolve to the
    /// backend's own hard decision).
    pub bits: Vec<u8>,
    /// The ML objective `‖y − Hv̂‖²` of the hard decision, where the
    /// backend can price it (mirrors [`Detection::metric`]).
    pub objective: Option<f64>,
    /// Backend statistics (the annealed run, sphere node counts, the
    /// hybrid route), exactly as the hard path reports them.
    pub stats: BackendStats,
}

impl SoftDetection {
    /// This detection as a hard [`Detection`] (drops the LLRs). The
    /// bits are the *soft* session's decisions — for a biased linear
    /// filter (MMSE) these can differ from the raw-sliced hard
    /// session's near decision boundaries; see [`SoftLinearSession`].
    pub fn into_hard(self) -> Detection {
        Detection {
            bits: self.bits,
            metric: self.objective,
            stats: self.stats,
        }
    }

    /// The hybrid routing decision, if this detection was routed.
    pub fn route(&self) -> Option<Route> {
        self.stats.route()
    }
}

/// The soft-output extension of [`DetectorSession`]: the same
/// compile-once lifecycle and seeding contract, with LLR output and an
/// a-priori-aware entry for iterative detection–decoding.
pub trait SoftDetectorSession: DetectorSession {
    /// Detects one received vector and derives per-bit LLRs.
    fn detect_soft(&mut self, y: &CVector, seed: u64) -> Result<SoftDetection, DetectError>;

    /// Detects one received vector *given per-bit prior LLRs* (the
    /// channel decoder's extrinsic output, one per payload bit in
    /// detection order, positive ⇒ bit 1) and derives **posterior**
    /// LLRs — the IDD entry point. The contract:
    ///
    /// * uninformative (all-zero) priors are bit-identical to
    ///   [`SoftDetectorSession::detect_soft`];
    /// * every backend folds the max-log prior cost into its hypothesis
    ///   pricing (MAP instead of ML);
    /// * the annealed backend additionally warm-starts a *reverse*
    ///   anneal from the priors' hard decision, so the refinement
    ///   ensemble explores around the decoder's current decision.
    ///
    /// The detector-extrinsic LLRs an IDD loop feeds onward are
    /// `posterior − prior`, computed by the caller.
    ///
    /// # Panics
    /// Panics when `priors.len()` differs from
    /// [`DetectorSession::num_bits`].
    fn detect_soft_with_priors(
        &mut self,
        y: &CVector,
        priors: &[f64],
        seed: u64,
    ) -> Result<SoftDetection, DetectError>;
}

impl<S: SoftDetectorSession + ?Sized> SoftDetectorSession for Box<S> {
    fn detect_soft(&mut self, y: &CVector, seed: u64) -> Result<SoftDetection, DetectError> {
        (**self).detect_soft(y, seed)
    }
    fn detect_soft_with_priors(
        &mut self,
        y: &CVector,
        priors: &[f64],
        seed: u64,
    ) -> Result<SoftDetection, DetectError> {
        (**self).detect_soft_with_priors(y, priors, seed)
    }
}

/// `true` when a prior vector carries no information — the case that
/// must reduce every backend's prior-aware path to plain
/// `detect_soft`, bit for bit.
fn uninformative(priors: &[f64]) -> bool {
    priors.iter().all(|&l| l == 0.0)
}

/// Max-log prior mismatch cost of hypothesis `bits` under `priors`, in
/// LLR units: every bit whose value disagrees with its prior's sign
/// charges the prior's magnitude (`−log P` up to an additive constant
/// shared by all hypotheses, which max-log differences cancel).
fn prior_mismatch_cost(bits: &[u8], priors: &[f64]) -> f64 {
    bits.iter()
        .zip(priors)
        .map(|(&b, &l)| {
            let mismatch = if b == 1 { l < 0.0 } else { l > 0.0 };
            if mismatch {
                l.abs()
            } else {
                0.0
            }
        })
        .sum()
}

/// Deduplicates a hypothesis pool in place: one entry per distinct bit
/// pattern, priced at its *best* (minimum) observed metric, first-seen
/// order preserved. Repeated anneal solutions (or a warm-start
/// candidate re-discovered by the refinement ensemble) would otherwise
/// re-price the same counter-hypothesis and skew the pool-worst
/// missing-hypothesis pricing.
fn dedupe_pool(pool: &mut Vec<(Vec<u8>, f64)>) {
    use std::collections::HashMap;
    let mut seen: HashMap<Vec<u8>, usize> = HashMap::with_capacity(pool.len());
    let mut kept: Vec<(Vec<u8>, f64)> = Vec::with_capacity(pool.len());
    for (bits, metric) in pool.drain(..) {
        match seen.get(&bits) {
            Some(&k) => {
                if metric < kept[k].1 {
                    kept[k].1 = metric;
                }
            }
            None => {
                seen.insert(bits.clone(), kept.len());
                kept.push((bits, metric));
            }
        }
    }
    *pool = kept;
}

/// MAP list demap for a prior-aware list backend: returns `(clamped
/// posterior LLRs, clamped extrinsic LLRs, MAP entry index)`.
///
/// The **posterior** demaps the pool under *augmented* metrics (each
/// entry's ML metric plus its σ²-scaled prior mismatch cost), with the
/// same missing-hypothesis policy as [`list_llrs`]; the MAP entry
/// attains the global augmented minimum, so posterior signs always
/// agree with its bits. The **extrinsic** is the *ML-only* demap of
/// the same pool — the detection's own channel evidence: the prior's
/// influence flows through *which* candidates the (warm-started)
/// search found, never as an arithmetic echo. Subtracting the prior
/// from the pool posterior instead would let the cross-bit prior
/// penalties and the missing-hypothesis floor leak prior mass into
/// the "new" evidence, the classic IDD positive-feedback failure.
fn demap_with_priors(
    pool: &[(Vec<u8>, f64)],
    priors: &[f64],
    num_bits: usize,
    spec: &SoftSpec,
) -> (Vec<f64>, Vec<f64>, usize) {
    debug_assert!(!pool.is_empty(), "MAP demapping needs candidates");
    let sigma2 = spec.sigma2();
    let augmented: Vec<f64> = pool
        .iter()
        .map(|(bits, metric)| metric + sigma2 * prior_mismatch_cost(bits, priors))
        .collect();
    let llrs = list_llrs_raw_with(pool, &augmented, num_bits, spec)
        .into_iter()
        .map(|raw| raw.clamp(-spec.max_llr, spec.max_llr))
        .collect();
    let extrinsic = list_llrs(pool, num_bits, spec);
    let best = augmented
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite metrics"))
        .map(|(k, _)| k)
        .expect("non-empty pool");
    (llrs, extrinsic, best)
}

/// Max-log LLRs from a ranked candidate pool of `(bits, ml_metric)`
/// hypotheses — the list demapper shared by the annealed, sphere, and
/// exhaustive backends. For bit `k`, `λ_b` is the best metric among
/// pool entries with bit `k = b`; the LLR is `(λ_0 − λ_1)/σ²`.
///
/// **Missing-hypothesis policy**: when the pool never observed one
/// side of a bit, its metric is priced at the pool's *worst* entry —
/// a true lower bound for a ranked list (anything absent from the
/// top-`L` leaves scores at least the `L`-th), and the honest
/// surrogate for an anneal ensemble (the annealer kept landing
/// elsewhere). This keeps a missing counter-hypothesis from outvoting
/// honestly-priced bits in the soft Viterbi pass. A single-candidate
/// pool has no spread to price with and degrades to `±max_llr` (every
/// anneal of the batch agreed). All LLRs clamp to `±max_llr` last.
fn list_llrs(pool: &[(Vec<u8>, f64)], num_bits: usize, spec: &SoftSpec) -> Vec<f64> {
    list_llrs_raw(pool, num_bits, spec)
        .into_iter()
        .map(|raw| raw.clamp(-spec.max_llr, spec.max_llr))
        .collect()
}

/// [`list_llrs`] before the final clamp. The lone-pool convention
/// still saturates to `±max_llr` (there is no finite raw value to
/// report).
fn list_llrs_raw(pool: &[(Vec<u8>, f64)], num_bits: usize, spec: &SoftSpec) -> Vec<f64> {
    let metrics: Vec<f64> = pool.iter().map(|e| e.1).collect();
    list_llrs_raw_with(pool, &metrics, num_bits, spec)
}

/// The demap core, pricing `pool[i].0` at `metrics[i]` — so a
/// prior-aware caller can demap the same hypothesis pool under
/// augmented (MAP) metrics without duplicating the bit vectors.
fn list_llrs_raw_with(
    pool: &[(Vec<u8>, f64)],
    metrics: &[f64],
    num_bits: usize,
    spec: &SoftSpec,
) -> Vec<f64> {
    debug_assert!(!pool.is_empty(), "list demapping needs candidates");
    debug_assert_eq!(pool.len(), metrics.len());
    let sigma2 = spec.sigma2();
    let worst = metrics.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let lone = pool.len() == 1;
    let mut best0 = vec![f64::INFINITY; num_bits];
    let mut best1 = vec![f64::INFINITY; num_bits];
    for ((bits, _), &metric) in pool.iter().zip(metrics) {
        debug_assert_eq!(bits.len(), num_bits);
        for (k, &b) in bits.iter().enumerate() {
            let slot = if b == 0 { &mut best0[k] } else { &mut best1[k] };
            if metric < *slot {
                *slot = metric;
            }
        }
    }
    (0..num_bits)
        .map(|k| match (best0[k].is_finite(), best1[k].is_finite()) {
            (true, true) => (best0[k] - best1[k]) / sigma2,
            (false, true) if lone => spec.max_llr,
            (true, false) if lone => -spec.max_llr,
            (false, true) => (worst - best1[k]) / sigma2,
            (true, false) => -(worst - best0[k]) / sigma2,
            (false, false) => 0.0,
        })
        .collect()
}

// --- Linear filters: Gaussian-approximation LLRs --------------------

/// Soft session for a compiled linear filter: the hard filter plus the
/// per-stream post-equalization SINR model priced once at compile.
///
/// For equalizer `W` (cached pseudo-inverse or MMSE solve) and
/// `B = WH`, stream `u` sees `z_u = μ_u v_u + interference + noise`
/// with bias `μ_u = B_uu`, noise power `σ²·(WW*)_uu` and residual
/// interference `Es·Σ_{j≠u}|B_uj|²`. The demapper bias-compensates
/// (`z̃ = z/μ`), then emits per-dimension max-log LLRs over the PAM
/// levels against the effective per-dimension noise — for ZF this
/// degenerates to the classic `σ²·(H*H)⁻¹_uu` noise-amplification
/// form, for MMSE it is the standard unbiased-SINR demapper.
///
/// Note that `detect_soft`'s hard bits are the *bias-compensated*
/// slicer's decisions (so every LLR sign agrees with its bit), while
/// `detect` keeps the raw-sliced hard path bit-identical to the
/// filter's own `decode`. For ZF the two coincide (`μ = 1`); for MMSE
/// at low SNR they can differ near 16-QAM level boundaries, where the
/// biased slicer is the one that's wrong — the soft path's decision
/// is the unbiased (better) one, not a different algorithm's.
pub struct SoftLinearSession<F: LinearFilter> {
    filter: F,
    h: CMatrix,
    spec: SoftSpec,
    /// Per-user complex bias `μ_u = (WH)_uu`.
    bias: Vec<Complex>,
    /// Per-user *total complex* effective noise+interference variance
    /// after bias compensation (`ν̃_u`), floored positive. The
    /// per-dimension max-log metric `Δd²/ν̃` matches the list
    /// backends' `Δ‖y − Hv‖²/σ²` scale exactly: a complex Gaussian of
    /// total variance `ν̃` has per-real-dimension variance `ν̃/2`, so
    /// the Gaussian exponent `Δd²/(2·ν̃/2)` reduces to `Δd²/ν̃`.
    nu: Vec<f64>,
    /// Per-dimension `(gray bits, PAM level)` demap table.
    dim_table: Vec<(Vec<u8>, f64)>,
}

/// Soft session over the cached ZF pseudo-inverse.
pub type SoftZfSession = SoftLinearSession<ZfFilter>;
/// Soft session over the cached MMSE filter.
pub type SoftMmseSession = SoftLinearSession<quamax_baselines::MmseFilter>;

impl<F: LinearFilter> SoftLinearSession<F> {
    /// Prices the SINR model of `filter` over `h` once.
    pub fn compile(filter: F, h: CMatrix, spec: SoftSpec) -> Self {
        let m = filter.modulation();
        let w = filter.filter_matrix();
        let b = w.mul_mat(&h);
        let es = m.mean_symbol_energy();
        let nt = filter.num_users();
        let mut bias = Vec::with_capacity(nt);
        let mut nu = Vec::with_capacity(nt);
        for u in 0..nt {
            let mu = b[(u, u)];
            let noise: f64 =
                (0..w.cols()).map(|j| w[(u, j)].norm_sqr()).sum::<f64>() * spec.sigma2();
            let interference: f64 = (0..nt)
                .filter(|&j| j != u)
                .map(|j| b[(u, j)].norm_sqr())
                .sum::<f64>()
                * es;
            // A vanishing bias means the filter passes nothing of this
            // stream — keep the math finite, the huge variance marks
            // every bit of the stream unreliable.
            let gain = mu.norm_sqr().max(f64::MIN_POSITIVE);
            nu.push(((noise + interference) / gain).max(f64::MIN_POSITIVE));
            bias.push(if mu.norm_sqr() > 0.0 {
                mu
            } else {
                Complex::real(1.0)
            });
        }
        SoftLinearSession {
            h,
            spec,
            bias,
            nu,
            dim_table: m.dimension_table(),
            filter,
        }
    }

    /// LLRs and hard bits of one real dimension's coordinate `x`.
    /// `priors` (one LLR per dimension bit, or empty for none) folds
    /// the max-log prior cost into every PAM level's metric — the
    /// Gaussian demap becomes a per-dimension MAP demap; the channel
    /// metric is already in LLR units (`d²/ν`), so prior magnitudes
    /// add directly.
    fn demap_dimension(
        &self,
        x: f64,
        nu: f64,
        priors: &[f64],
        llrs: &mut Vec<f64>,
        extrinsic: &mut Vec<f64>,
        bits: &mut Vec<u8>,
    ) {
        let per_dim = self.filter.modulation().bits_per_dimension();
        debug_assert!(priors.is_empty() || priors.len() == per_dim);
        let mut best0 = vec![f64::INFINITY; per_dim];
        let mut best1 = vec![f64::INFINITY; per_dim];
        let mut best = f64::INFINITY;
        let mut best_bits: &[u8] = &self.dim_table[0].0;
        for (level_bits, level) in &self.dim_table {
            let d = x - level;
            let metric = d * d / nu + prior_mismatch_cost(level_bits, priors);
            if metric < best {
                best = metric;
                best_bits = level_bits;
            }
            for (j, &lb) in level_bits.iter().enumerate() {
                let slot = if lb == 0 {
                    &mut best0[j]
                } else {
                    &mut best1[j]
                };
                if metric < *slot {
                    *slot = metric;
                }
            }
        }
        for j in 0..per_dim {
            // Both hypotheses exist in a full PAM table.
            let raw = best0[j] - best1[j];
            let p = priors.get(j).copied().unwrap_or(0.0);
            llrs.push(raw.clamp(-self.spec.max_llr, self.spec.max_llr));
            extrinsic.push((raw - p).clamp(-self.spec.max_llr, self.spec.max_llr));
        }
        bits.extend_from_slice(best_bits);
    }
}

impl<F: LinearFilter> DetectorSession for SoftLinearSession<F> {
    fn detect(&mut self, y: &CVector, _seed: u64) -> Result<Detection, DetectError> {
        check_received(y, self.h.rows())?;
        let bits = self.filter.decode(y);
        let metric = ml_objective(&self.h, y, &bits, self.filter.modulation());
        Ok(Detection {
            bits,
            metric: Some(metric),
            stats: BackendStats::Linear,
        })
    }
    fn modulation(&self) -> Modulation {
        self.filter.modulation()
    }
    fn num_bits(&self) -> usize {
        self.filter.num_users() * self.filter.modulation().bits_per_symbol()
    }
    fn backend_name(&self) -> &'static str {
        F::NAME
    }
}

impl<F: LinearFilter> SoftLinearSession<F> {
    /// The shared demap loop: `priors` empty = the ML path, sliced
    /// per-user/per-dimension otherwise.
    fn demap(&mut self, y: &CVector, priors: &[f64]) -> Result<SoftDetection, DetectError> {
        check_received(y, self.h.rows())?;
        let m = self.filter.modulation();
        let q = m.bits_per_symbol();
        let per_dim = m.bits_per_dimension();
        let z = self.filter.equalize(y);
        let mut llrs = Vec::with_capacity(self.num_bits());
        let mut extrinsic = Vec::with_capacity(self.num_bits());
        let mut bits = Vec::with_capacity(self.num_bits());
        for u in 0..z.len() {
            let zt = z[u] / self.bias[u];
            let nu = self.nu[u];
            let (p_re, p_im): (&[f64], &[f64]) = if priors.is_empty() {
                (&[], &[])
            } else {
                let user = &priors[u * q..(u + 1) * q];
                (&user[..per_dim], &user[per_dim..])
            };
            self.demap_dimension(zt.re, nu, p_re, &mut llrs, &mut extrinsic, &mut bits);
            if m.dimensions() == 2 {
                self.demap_dimension(zt.im, nu, p_im, &mut llrs, &mut extrinsic, &mut bits);
            }
        }
        let objective = ml_objective(&self.h, y, &bits, m);
        Ok(SoftDetection {
            llrs,
            extrinsic,
            bits,
            objective: Some(objective),
            stats: BackendStats::Linear,
        })
    }
}

impl<F: LinearFilter> SoftDetectorSession for SoftLinearSession<F> {
    fn detect_soft(&mut self, y: &CVector, _seed: u64) -> Result<SoftDetection, DetectError> {
        self.demap(y, &[])
    }

    fn detect_soft_with_priors(
        &mut self,
        y: &CVector,
        priors: &[f64],
        seed: u64,
    ) -> Result<SoftDetection, DetectError> {
        assert_eq!(priors.len(), self.num_bits(), "one prior per payload bit");
        if uninformative(priors) {
            return self.detect_soft(y, seed);
        }
        self.demap(y, priors)
    }
}

// --- Sphere: list sphere decoding -----------------------------------

/// Soft session for the sphere backend: the compiled QR drives a list
/// sphere decode, and the leaf list is the max-log hypothesis pool.
pub struct SoftSphereSession {
    compiled: CompiledSphere,
    spec: SoftSpec,
}

impl DetectorSession for SoftSphereSession {
    fn detect(&mut self, y: &CVector, _seed: u64) -> Result<Detection, DetectError> {
        check_received(y, self.compiled.num_receive_antennas())?;
        let out = self.compiled.decode(y)?;
        Ok(Detection {
            bits: out.bits,
            metric: Some(out.metric),
            stats: BackendStats::Sphere {
                visited_nodes: out.visited_nodes,
            },
        })
    }
    fn modulation(&self) -> Modulation {
        self.compiled.modulation()
    }
    fn num_bits(&self) -> usize {
        self.compiled.num_users() * self.compiled.modulation().bits_per_symbol()
    }
    fn backend_name(&self) -> &'static str {
        "sphere"
    }
}

impl SoftDetectorSession for SoftSphereSession {
    fn detect_soft(&mut self, y: &CVector, _seed: u64) -> Result<SoftDetection, DetectError> {
        check_received(y, self.compiled.num_receive_antennas())?;
        let list = self.compiled.decode_list(y, self.spec.list_size)?;
        let pool: Vec<(Vec<u8>, f64)> = list
            .entries
            .iter()
            .map(|e| (e.bits.clone(), e.metric))
            .collect();
        let llrs = list_llrs(&pool, self.num_bits(), &self.spec);
        let best = &list.entries[0];
        Ok(SoftDetection {
            extrinsic: llrs.clone(),
            llrs,
            bits: best.bits.clone(),
            objective: Some(best.metric),
            stats: BackendStats::Sphere {
                visited_nodes: list.visited_nodes,
            },
        })
    }

    /// The sphere leaf list stays ML-ranked (the tree walk prunes on
    /// the channel metric alone); the prior cost re-ranks the kept
    /// leaves at demap time — exact MAP over the list, approximate MAP
    /// overall, converging to exact as `list_size` grows.
    fn detect_soft_with_priors(
        &mut self,
        y: &CVector,
        priors: &[f64],
        seed: u64,
    ) -> Result<SoftDetection, DetectError> {
        assert_eq!(priors.len(), self.num_bits(), "one prior per payload bit");
        if uninformative(priors) {
            return self.detect_soft(y, seed);
        }
        check_received(y, self.compiled.num_receive_antennas())?;
        let list = self.compiled.decode_list(y, self.spec.list_size)?;
        let mut pool: Vec<(Vec<u8>, f64)> = list
            .entries
            .iter()
            .map(|e| (e.bits.clone(), e.metric))
            .collect();
        let (llrs, extrinsic, best) = demap_with_priors(&pool, priors, self.num_bits(), &self.spec);
        let (bits, objective) = pool.swap_remove(best);
        Ok(SoftDetection {
            llrs,
            extrinsic,
            bits,
            objective: Some(objective),
            stats: BackendStats::Sphere {
                visited_nodes: list.visited_nodes,
            },
        })
    }
}

// --- QuAMax: the anneal ensemble as a list demapper -----------------

/// Soft session for the annealed backend: one decode produces the
/// ranked [`DecodeRun`] solution distribution, and that ensemble *is*
/// the hypothesis list — each distinct logical solution prices to
/// `E_ising + ml_offset = ‖y − Hv‖²` exactly, so the run doubles as a
/// max-log list demapper at zero extra anneals. The candidate pool is
/// deduplicated by bit pattern (best metric wins) before demapping.
///
/// With priors ([`SoftDetectorSession::detect_soft_with_priors`]) the
/// session switches to its *reverse-anneal* refinement mode: the
/// priors' hard decision becomes the warm-start state of a
/// [`DecodeSession::decode_reverse_from`] run under the `reverse`
/// schedule derived at compile time
/// ([`Schedule::reverse_matched`] of the forward operating point at
/// [`SoftSpec::reverse_s_target`]), the warm-start candidate itself
/// joins the hypothesis pool (priced exactly through the logical
/// problem), and every entry's metric is augmented with the σ²-scaled
/// prior mismatch cost before demapping.
///
/// [`DecodeRun`]: crate::decoder::DecodeRun
/// [`DecodeSession::decode_reverse_from`]: crate::decoder::DecodeSession::decode_reverse_from
/// [`Schedule::reverse_matched`]: quamax_anneal::Schedule::reverse_matched
pub struct SoftQuamaxSession {
    inner: QuamaxSession,
    spec: SoftSpec,
    /// The warm-start refinement schedule (derived once at compile).
    reverse: quamax_anneal::Schedule,
}

impl DetectorSession for SoftQuamaxSession {
    fn detect(&mut self, y: &CVector, seed: u64) -> Result<Detection, DetectError> {
        self.inner.detect(y, seed)
    }
    fn modulation(&self) -> Modulation {
        self.inner.modulation()
    }
    fn num_bits(&self) -> usize {
        self.inner.num_bits()
    }
    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }
}

/// The ranked ensemble of `run` as a `(bits, ML metric)` hypothesis
/// pool, deduplicated by bit pattern (distinct logical spins map to
/// distinct Gray bits, but a merged pool — e.g. ensemble + warm-start
/// candidate — can repeat, and repeats would skew the pool-worst
/// missing-hypothesis pricing).
fn quamax_pool(run: &crate::decoder::DecodeRun) -> Vec<(Vec<u8>, f64)> {
    let mut pool: Vec<(Vec<u8>, f64)> = (0..run.distribution().num_distinct())
        .map(|rank| {
            let bits = run
                .bits_for_rank(rank)
                .expect("rank within the distribution");
            let metric = run.distribution().entries()[rank].energy + run.ml_offset();
            (bits, metric)
        })
        .collect();
    dedupe_pool(&mut pool);
    pool
}

impl SoftDetectorSession for SoftQuamaxSession {
    fn detect_soft(&mut self, y: &CVector, seed: u64) -> Result<SoftDetection, DetectError> {
        let det = self.inner.detect(y, seed)?;
        let run = det
            .annealed_run()
            .expect("the annealed session always attaches its run");
        let pool = quamax_pool(run);
        let llrs = list_llrs(&pool, det.bits.len(), &self.spec);
        Ok(SoftDetection {
            extrinsic: llrs.clone(),
            llrs,
            bits: det.bits,
            objective: det.metric,
            stats: det.stats,
        })
    }

    fn detect_soft_with_priors(
        &mut self,
        y: &CVector,
        priors: &[f64],
        seed: u64,
    ) -> Result<SoftDetection, DetectError> {
        assert_eq!(priors.len(), self.num_bits(), "one prior per payload bit");
        if uninformative(priors) {
            return self.detect_soft(y, seed);
        }
        // The decoder's current decision (the priors' hard decision)
        // becomes the reverse-anneal warm start.
        let candidate: Vec<u8> = priors.iter().map(|&l| u8::from(l > 0.0)).collect();
        let anneals = self.inner.anneals;
        let reverse = (candidate.as_slice(), self.reverse);
        let mut rng = StdRng::seed_from_u64(seed);
        let run = self
            .inner
            .session
            .run(y, anneals, Some(reverse), &mut rng)?;
        let mut pool = quamax_pool(&run);
        // The warm-start candidate is itself a priced hypothesis: the
        // refinement ensemble explores *around* it and may never
        // re-land on it, but the IDD loop must still be able to keep
        // it when nothing better turns up. `E_ising + ml_offset`
        // prices it exactly like every ensemble entry.
        let q = self.modulation().bits_per_symbol();
        let candidate_quamax: Vec<u8> = candidate
            .chunks(q)
            .flat_map(quamax_wireless::gray::gray_bits_to_quamax)
            .collect();
        let candidate_metric = run
            .logical_problem()
            .energy(&quamax_ising::bits_to_spins(&candidate_quamax))
            + run.ml_offset();
        pool.push((candidate, candidate_metric));
        dedupe_pool(&mut pool);
        let (llrs, extrinsic, best) = demap_with_priors(&pool, priors, self.num_bits(), &self.spec);
        let (bits, objective) = pool.swap_remove(best);
        Ok(SoftDetection {
            llrs,
            extrinsic,
            bits,
            objective: Some(objective),
            stats: BackendStats::Annealed(Box::new(run)),
        })
    }
}

// --- Exhaustive ML: exact max-log reference -------------------------

/// Soft session for the exhaustive backend: enumerates the *entire*
/// constellation power and computes exact max-log LLRs — the ground
/// truth the list demappers approximate (test-suite sizes only).
pub struct SoftExactMlSession {
    h: CMatrix,
    modulation: Modulation,
    spec: SoftSpec,
}

impl DetectorSession for SoftExactMlSession {
    fn detect(&mut self, y: &CVector, _seed: u64) -> Result<Detection, DetectError> {
        check_received(y, self.h.rows())?;
        let out = quamax_baselines::exhaustive_ml(&self.h, y, self.modulation);
        Ok(Detection {
            bits: out.bits,
            metric: Some(out.metric),
            stats: BackendStats::Exact,
        })
    }
    fn modulation(&self) -> Modulation {
        self.modulation
    }
    fn num_bits(&self) -> usize {
        self.h.cols() * self.modulation.bits_per_symbol()
    }
    fn backend_name(&self) -> &'static str {
        "exact_ml"
    }
}

impl SoftExactMlSession {
    /// The full constellation power as a `(bits, ML metric)` pool.
    fn full_pool(&self, y: &CVector) -> Vec<(Vec<u8>, f64)> {
        let m = self.modulation;
        let nt = self.h.cols();
        let constellation = m.constellation();
        let order = constellation.len();
        let total = order.checked_pow(nt as u32).expect("test-suite sizes");
        let mut pool = Vec::with_capacity(total);
        let mut v = CVector::zeros(nt);
        for k in 0..total {
            let mut idx = k;
            let mut bits = Vec::with_capacity(self.num_bits());
            for u in 0..nt {
                let (b, s) = &constellation[idx % order];
                bits.extend_from_slice(b);
                v[u] = *s;
                idx /= order;
            }
            let metric = (y - &self.h.mul_vec(&v)).norm_sqr();
            pool.push((bits, metric));
        }
        pool
    }
}

impl SoftDetectorSession for SoftExactMlSession {
    fn detect_soft(&mut self, y: &CVector, _seed: u64) -> Result<SoftDetection, DetectError> {
        check_received(y, self.h.rows())?;
        let pool = self.full_pool(y);
        let llrs = list_llrs(&pool, self.num_bits(), &self.spec);
        let (best_bits, best_metric) = pool
            .into_iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite metrics"))
            .expect("non-empty constellation power");
        Ok(SoftDetection {
            extrinsic: llrs.clone(),
            llrs,
            bits: best_bits,
            objective: Some(best_metric),
            stats: BackendStats::Exact,
        })
    }

    /// Exact max-log MAP over the whole constellation power — the
    /// ground truth every prior-aware list demapper approximates.
    fn detect_soft_with_priors(
        &mut self,
        y: &CVector,
        priors: &[f64],
        seed: u64,
    ) -> Result<SoftDetection, DetectError> {
        assert_eq!(priors.len(), self.num_bits(), "one prior per payload bit");
        if uninformative(priors) {
            return self.detect_soft(y, seed);
        }
        check_received(y, self.h.rows())?;
        let mut pool = self.full_pool(y);
        let (llrs, extrinsic, best) = demap_with_priors(&pool, priors, self.num_bits(), &self.spec);
        let (bits, objective) = pool.swap_remove(best);
        Ok(SoftDetection {
            llrs,
            extrinsic,
            bits,
            objective: Some(objective),
            stats: BackendStats::Exact,
        })
    }
}

// --- Hybrid routing, soft ------------------------------------------

/// Soft session for the hybrid router: the same residual-gated routing
/// as the hard [`HybridSession`], carried out over soft sub-sessions so
/// the accepted side's LLRs flow through. Availability degrades the
/// same way: a side that cannot compile (or answer) routes to the
/// other.
///
/// [`HybridSession`]: crate::detect::HybridSession
pub struct SoftHybridSession {
    primary: Option<Box<dyn SoftDetectorSession>>,
    fallback: Option<Box<dyn SoftDetectorSession>>,
    policy: RoutePolicy,
    receive_antennas: usize,
}

impl SoftHybridSession {
    fn wrap(detection: SoftDetection, route: Route, primary_metric: f64) -> SoftDetection {
        SoftDetection {
            llrs: detection.llrs,
            extrinsic: detection.extrinsic,
            bits: detection.bits,
            objective: detection.objective,
            stats: BackendStats::Hybrid {
                route,
                primary_metric,
                inner: Box::new(detection.stats),
            },
        }
    }

    fn a_side(&self) -> &dyn SoftDetectorSession {
        self.fallback
            .as_deref()
            .or(self.primary.as_deref())
            .expect("compile keeps at least one side")
    }
}

impl DetectorSession for SoftHybridSession {
    fn detect(&mut self, y: &CVector, seed: u64) -> Result<Detection, DetectError> {
        self.detect_soft(y, seed).map(SoftDetection::into_hard)
    }
    fn modulation(&self) -> Modulation {
        self.a_side().modulation()
    }
    fn num_bits(&self) -> usize {
        self.a_side().num_bits()
    }
    fn backend_name(&self) -> &'static str {
        "hybrid"
    }
}

impl SoftHybridSession {
    /// The shared routing pass: `priors` empty = the plain soft path;
    /// otherwise both sub-sessions run prior-aware and the accepted
    /// side's posterior LLRs flow through.
    fn route_soft(
        &mut self,
        y: &CVector,
        priors: &[f64],
        seed: u64,
    ) -> Result<SoftDetection, DetectError> {
        let ask = |session: &mut Box<dyn SoftDetectorSession>, y: &CVector, seed: u64| {
            if priors.is_empty() {
                session.detect_soft(y, seed)
            } else {
                session.detect_soft_with_priors(y, priors, seed)
            }
        };
        let first = match self.primary.as_mut() {
            Some(session) => match ask(session, y, seed) {
                Ok(det) => Some(det),
                Err(e) if self.fallback.is_none() => return Err(e),
                Err(_) => None,
            },
            None => None,
        };
        let Some(first) = first else {
            let session = self
                .fallback
                .as_mut()
                .expect("compile keeps at least one side");
            let second = ask(session, y, seed)?;
            return Ok(Self::wrap(second, Route::Fallback, f64::INFINITY));
        };
        let metric = first.objective.unwrap_or(f64::INFINITY);
        let per_antenna = metric / self.receive_antennas.max(1) as f64;
        let Some(fallback) = self.fallback.as_mut() else {
            return Ok(Self::wrap(first, Route::Primary, metric));
        };
        if per_antenna <= self.policy.max_residual_per_antenna {
            return Ok(Self::wrap(first, Route::Primary, metric));
        }
        match ask(fallback, y, seed) {
            Ok(second) => Ok(Self::wrap(second, Route::Fallback, metric)),
            Err(_) => Ok(Self::wrap(first, Route::Primary, metric)),
        }
    }
}

impl SoftDetectorSession for SoftHybridSession {
    fn detect_soft(&mut self, y: &CVector, seed: u64) -> Result<SoftDetection, DetectError> {
        self.route_soft(y, &[], seed)
    }

    fn detect_soft_with_priors(
        &mut self,
        y: &CVector,
        priors: &[f64],
        seed: u64,
    ) -> Result<SoftDetection, DetectError> {
        assert_eq!(priors.len(), self.num_bits(), "one prior per payload bit");
        if uninformative(priors) {
            return self.detect_soft(y, seed);
        }
        self.route_soft(y, priors, seed)
    }
}

// --- Registry entry point -------------------------------------------

impl DetectorKind {
    /// Compiles a *soft-output* session for this kind — the LLR
    /// counterpart of [`Detector::compile`], supported by every
    /// registry backend (the annealed list demapper, the Gaussian
    /// linear demappers, list sphere decoding, exact max-log for
    /// `ExactMl`, and residual-gated routing over soft sub-sessions
    /// for `Hybrid`).
    pub fn compile_soft(
        &self,
        input: &DetectionInput,
        spec: SoftSpec,
    ) -> Result<Box<dyn SoftDetectorSession>, DetectError> {
        check_channel(&input.h)?;
        Ok(match self {
            DetectorKind::ZeroForcing => {
                let filter = ZeroForcingDetector::new(input.modulation).compile(&input.h)?;
                Box::new(SoftLinearSession::compile(filter, input.h.clone(), spec))
            }
            DetectorKind::Mmse { noise_variance } => {
                let filter =
                    MmseDetector::new(input.modulation, *noise_variance).compile(&input.h)?;
                Box::new(SoftLinearSession::compile(filter, input.h.clone(), spec))
            }
            DetectorKind::Sphere { node_budget } => {
                if input.h.rows() < input.h.cols() {
                    return Err(DetectError::Linalg(LinalgError::ShapeMismatch));
                }
                let mut sphere = SphereDecoder::new(input.modulation);
                if let Some(budget) = node_budget {
                    sphere = sphere.with_node_budget(*budget);
                }
                Box::new(SoftSphereSession {
                    compiled: sphere.compile(&input.h),
                    spec,
                })
            }
            DetectorKind::ExactMl => Box::new(SoftExactMlSession {
                h: input.h.clone(),
                modulation: input.modulation,
                spec,
            }),
            DetectorKind::Quamax {
                annealer,
                config,
                anneals,
            } => Box::new(SoftQuamaxSession {
                inner: QuamaxDetector::new(annealer.clone(), *config, *anneals).compile(input)?,
                spec,
                reverse: config.schedule.reverse_matched(spec.reverse_s_target),
            }),
            DetectorKind::Hybrid {
                primary,
                fallback,
                policy,
            } => {
                let first = primary.compile_soft(input, spec).ok();
                let second = match fallback.compile_soft(input, spec) {
                    Ok(session) => Some(session),
                    Err(e) if first.is_none() => return Err(e),
                    Err(_) => None,
                };
                Box::new(SoftHybridSession {
                    primary: first,
                    fallback: second,
                    policy: *policy,
                    receive_antennas: input.nr(),
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::DecoderConfig;
    use crate::scenario::Scenario;
    use quamax_anneal::{Annealer, AnnealerConfig, IceModel, Schedule};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quiet_annealer() -> Annealer {
        Annealer::new(AnnealerConfig {
            ice: IceModel::none(),
            sweeps_per_us: 50.0,
            ..Default::default()
        })
    }

    fn all_soft_kinds(sigma2: f64) -> Vec<DetectorKind> {
        vec![
            DetectorKind::zf(),
            DetectorKind::mmse(sigma2),
            DetectorKind::sphere(),
            DetectorKind::exact_ml(),
            DetectorKind::quamax(
                quiet_annealer(),
                DecoderConfig {
                    schedule: Schedule::standard(10.0),
                    ..Default::default()
                },
                150,
            ),
            DetectorKind::hybrid(
                DetectorKind::zf(),
                DetectorKind::sphere(),
                RoutePolicy::new(0.5),
            ),
        ]
    }

    #[test]
    fn every_kind_compiles_soft_and_emits_consistent_llrs() {
        let mut rng = StdRng::seed_from_u64(1);
        let snr = Snr::from_db(12.0);
        let sc = Scenario::new(3, 3, Modulation::Qpsk).with_snr(snr);
        let inst = sc.sample(&mut rng);
        let input = inst.detection_input();
        let spec = SoftSpec::noise_matched(snr, Modulation::Qpsk);
        for kind in all_soft_kinds(spec.noise_variance) {
            let name = kind.name();
            let mut session = kind.compile_soft(&input, spec).expect(name);
            let soft = session.detect_soft(&input.y, 5).expect(name);
            assert_eq!(soft.llrs.len(), 6, "{name}");
            assert_eq!(soft.bits.len(), 6, "{name}");
            for (k, (&llr, &bit)) in soft.llrs.iter().zip(&soft.bits).enumerate() {
                assert!(llr.abs() <= spec.max_llr + 1e-12, "{name} bit {k}: {llr}");
                if llr > 0.0 {
                    assert_eq!(bit, 1, "{name} bit {k}: llr {llr}");
                }
                if llr < 0.0 {
                    assert_eq!(bit, 0, "{name} bit {k}: llr {llr}");
                }
            }
            assert!(soft.objective.expect(name).is_finite(), "{name}");
        }
    }

    #[test]
    fn sphere_list_llrs_match_exact_max_log() {
        // A leaf list covering the whole constellation power makes the
        // sphere's list demapper *exactly* the max-log demapper.
        let mut rng = StdRng::seed_from_u64(2);
        let snr = Snr::from_db(8.0);
        let sc = Scenario::new(2, 2, Modulation::Qam16).with_snr(snr);
        let spec = SoftSpec::noise_matched(snr, Modulation::Qam16).with_list_size(256);
        for _ in 0..5 {
            let inst = sc.sample(&mut rng);
            let input = inst.detection_input();
            let mut sphere = DetectorKind::sphere().compile_soft(&input, spec).unwrap();
            let mut exact = DetectorKind::exact_ml().compile_soft(&input, spec).unwrap();
            let s = sphere.detect_soft(&input.y, 0).unwrap();
            let e = exact.detect_soft(&input.y, 0).unwrap();
            assert_eq!(s.bits, e.bits);
            for (a, b) in s.llrs.iter().zip(&e.llrs) {
                assert!((a - b).abs() < 1e-6 * b.abs().max(1.0), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn quamax_pool_of_one_clamps_every_counter_hypothesis() {
        // A single anneal observes exactly one candidate: every bit's
        // counter-hypothesis is missing, so every LLR sits at the
        // clamp, signed by the hard decision.
        let mut rng = StdRng::seed_from_u64(3);
        let sc = Scenario::new(4, 4, Modulation::Bpsk);
        let inst = sc.sample(&mut rng);
        let input = inst.detection_input();
        let spec = SoftSpec::new(0.1);
        let kind = DetectorKind::quamax(
            quiet_annealer(),
            DecoderConfig {
                schedule: Schedule::standard(10.0),
                ..Default::default()
            },
            1,
        );
        let mut session = kind.compile_soft(&input, spec).unwrap();
        let soft = session.detect_soft(&input.y, 9).unwrap();
        for (&llr, &bit) in soft.llrs.iter().zip(&soft.bits) {
            assert_eq!(llr.abs(), spec.max_llr);
            assert_eq!(u8::from(llr > 0.0), bit);
        }
    }

    #[test]
    fn quamax_soft_hard_bits_match_the_hard_session() {
        // detect_soft is the hard decode plus LLRs — same run, same
        // bits, same objective under the same seed.
        let mut rng = StdRng::seed_from_u64(4);
        let snr = Snr::from_db(14.0);
        let sc = Scenario::new(3, 3, Modulation::Qam16).with_snr(snr);
        let inst = sc.sample(&mut rng);
        let input = inst.detection_input();
        let kind = DetectorKind::quamax(
            quiet_annealer(),
            DecoderConfig {
                schedule: Schedule::standard(15.0),
                ..Default::default()
            },
            200,
        );
        let mut hard = kind.compile(&input).unwrap();
        let mut soft = kind
            .compile_soft(&input, SoftSpec::noise_matched(snr, Modulation::Qam16))
            .unwrap();
        let h = hard.detect(&input.y, 77).unwrap();
        let s = soft.detect_soft(&input.y, 77).unwrap();
        assert_eq!(h.bits, s.bits);
        assert_eq!(h.metric, s.objective);
    }

    #[test]
    fn linear_llr_magnitudes_grow_with_snr() {
        // The Gaussian demapper's reliabilities must scale with the
        // channel: the same channel at higher SNR yields larger mean
        // |LLR| (up to the clamp).
        let mut rng = StdRng::seed_from_u64(5);
        let sc = Scenario::new(4, 4, Modulation::Qpsk).with_snr(Snr::from_db(6.0));
        let inst = sc.sample(&mut rng);
        let mean_abs = |snr_db: f64| -> f64 {
            let snr = Snr::from_db(snr_db);
            let re = inst.renoise(snr, &mut StdRng::seed_from_u64(42));
            let input = re.detection_input();
            let spec = SoftSpec::noise_matched(snr, Modulation::Qpsk).with_max_llr(1e6);
            let mut s = DetectorKind::zf().compile_soft(&input, spec).unwrap();
            let soft = s.detect_soft(&input.y, 0).unwrap();
            soft.llrs.iter().map(|l| l.abs()).sum::<f64>() / soft.llrs.len() as f64
        };
        assert!(mean_abs(20.0) > 4.0 * mean_abs(2.0));
    }

    #[test]
    fn soft_hybrid_routes_like_the_hard_hybrid() {
        let mut rng = StdRng::seed_from_u64(6);
        let snr = Snr::from_db(10.0);
        let sc = Scenario::new(3, 3, Modulation::Qpsk).with_snr(snr);
        let kind = DetectorKind::hybrid(
            DetectorKind::zf(),
            DetectorKind::sphere(),
            RoutePolicy::noise_matched(snr, Modulation::Qpsk, 3.0),
        );
        let spec = SoftSpec::noise_matched(snr, Modulation::Qpsk);
        for _ in 0..6 {
            let inst = sc.sample(&mut rng);
            let input = inst.detection_input();
            let mut hard = kind.compile(&input).unwrap();
            let mut soft = kind.compile_soft(&input, spec).unwrap();
            let h = hard.detect(&input.y, 3).unwrap();
            let s = soft.detect_soft(&input.y, 3).unwrap();
            assert_eq!(h.route(), s.route());
            assert_eq!(h.bits, s.bits);
        }
    }

    #[test]
    fn linear_llrs_match_exact_max_log_on_single_stream_channels() {
        // On a 1×1 channel the ZF Gaussian approximation is not an
        // approximation: no interference, one stream, so its LLRs must
        // equal the exhaustive max-log reference *in scale*, not just
        // sign — the cross-backend consistency that lets a hybrid mix
        // linear and list LLRs in one soft Viterbi pass.
        let mut rng = StdRng::seed_from_u64(8);
        for m in [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16] {
            let snr = Snr::from_db(9.0);
            let sc = Scenario::new(1, 1, m).with_rayleigh().with_snr(snr);
            let spec = SoftSpec::noise_matched(snr, m).with_max_llr(1e9);
            for _ in 0..4 {
                let inst = sc.sample(&mut rng);
                let input = inst.detection_input();
                let mut zf = DetectorKind::zf().compile_soft(&input, spec).unwrap();
                let mut exact = DetectorKind::exact_ml().compile_soft(&input, spec).unwrap();
                let z = zf.detect_soft(&input.y, 0).unwrap();
                let e = exact.detect_soft(&input.y, 0).unwrap();
                assert_eq!(z.bits, e.bits, "{}", m.name());
                for (k, (a, b)) in z.llrs.iter().zip(&e.llrs).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-9 * b.abs().max(1.0),
                        "{} bit {k}: zf {a} vs exact {b}",
                        m.name()
                    );
                }
            }
        }
    }

    #[test]
    fn exact_soft_hard_bits_match_exhaustive_ml() {
        // The soft exhaustive session's own enumeration must stay in
        // lockstep with the baselines' exhaustive_ml — one ground
        // truth, two call paths.
        let mut rng = StdRng::seed_from_u64(9);
        let snr = Snr::from_db(7.0);
        let sc = Scenario::new(3, 3, Modulation::Qpsk)
            .with_rayleigh()
            .with_snr(snr);
        for _ in 0..5 {
            let inst = sc.sample(&mut rng);
            let input = inst.detection_input();
            let mut soft = DetectorKind::exact_ml()
                .compile_soft(&input, SoftSpec::noise_matched(snr, Modulation::Qpsk))
                .unwrap();
            let det = soft.detect_soft(&input.y, 0).unwrap();
            let ml = quamax_baselines::exhaustive_ml(&input.h, &input.y, input.modulation);
            assert_eq!(det.bits, ml.bits);
            assert!((det.objective.unwrap() - ml.metric).abs() < 1e-9 * ml.metric.max(1.0));
        }
    }

    #[test]
    fn dedupe_pool_keeps_best_metric_per_pattern() {
        let mut pool = vec![
            (vec![0, 1], 2.0),
            (vec![1, 1], 5.0),
            (vec![0, 1], 1.0), // duplicate, better metric
            (vec![1, 0], 9.0),
            (vec![1, 1], 7.0), // duplicate, worse metric
        ];
        dedupe_pool(&mut pool);
        assert_eq!(
            pool,
            vec![(vec![0, 1], 1.0), (vec![1, 1], 5.0), (vec![1, 0], 9.0)]
        );
        // Duplicates must not skew pricing: the deduped pool demaps
        // identically to one that never had them.
        let spec = SoftSpec::new(1.0);
        let clean = vec![(vec![0, 1], 1.0), (vec![1, 1], 5.0), (vec![1, 0], 9.0)];
        assert_eq!(list_llrs(&pool, 2, &spec), list_llrs(&clean, 2, &spec));
    }

    #[test]
    fn zero_priors_delegate_to_detect_soft_for_every_kind() {
        // The IDD iteration-1 contract at unit-test scale (the full
        // per-modulation sweep lives in tests/properties.rs).
        let mut rng = StdRng::seed_from_u64(31);
        let snr = Snr::from_db(9.0);
        let sc = Scenario::new(3, 3, Modulation::Qpsk).with_snr(snr);
        let inst = sc.sample(&mut rng);
        let input = inst.detection_input();
        let spec = SoftSpec::noise_matched(snr, Modulation::Qpsk);
        let zeros = vec![0.0; input.num_bits()];
        for kind in all_soft_kinds(spec.noise_variance) {
            let name = kind.name();
            let mut a = kind.compile_soft(&input, spec).expect(name);
            let mut b = kind.compile_soft(&input, spec).expect(name);
            let plain = a.detect_soft(&input.y, 7).expect(name);
            let prior = b.detect_soft_with_priors(&input.y, &zeros, 7).expect(name);
            assert_eq!(plain.bits, prior.bits, "{name}");
            assert_eq!(plain.llrs, prior.llrs, "{name}");
            assert_eq!(plain.objective, prior.objective, "{name}");
        }
    }

    #[test]
    fn single_stream_posterior_is_channel_llr_plus_prior() {
        // On a 1×1 BPSK channel the max-log MAP decomposes exactly:
        // L_post = L_channel + L_prior (two hypotheses, the prior
        // mismatch cost charges |L| on exactly one side). Holds for
        // both the exhaustive and the Gaussian (ZF) demappers.
        let mut rng = StdRng::seed_from_u64(32);
        let snr = Snr::from_db(5.0);
        let sc = Scenario::new(1, 1, Modulation::Bpsk)
            .with_rayleigh()
            .with_snr(snr);
        let spec = SoftSpec::noise_matched(snr, Modulation::Bpsk).with_max_llr(1e9);
        for prior in [-3.0f64, -0.4, 0.7, 6.0] {
            let inst = sc.sample(&mut rng);
            let input = inst.detection_input();
            for kind in [DetectorKind::exact_ml(), DetectorKind::zf()] {
                let name = kind.name();
                let mut s = kind.compile_soft(&input, spec).unwrap();
                let plain = s.detect_soft(&input.y, 0).unwrap();
                let post = s.detect_soft_with_priors(&input.y, &[prior], 0).unwrap();
                assert!(
                    (post.llrs[0] - (plain.llrs[0] + prior)).abs() < 1e-9,
                    "{name}: {} vs {} + {prior}",
                    post.llrs[0],
                    plain.llrs[0]
                );
                // The MAP decision is the posterior's sign.
                assert_eq!(post.bits[0], u8::from(post.llrs[0] > 0.0), "{name}");
            }
        }
    }

    #[test]
    fn confident_priors_override_a_noisy_exact_ml_decision() {
        // At low SNR the ML decision is sometimes wrong; saturated
        // priors at the transmitted bits must pull the MAP decision
        // back to the truth on every backend that prices them.
        let mut rng = StdRng::seed_from_u64(33);
        let snr = Snr::from_db(-2.0);
        let sc = Scenario::new(2, 2, Modulation::Qpsk)
            .with_rayleigh()
            .with_snr(snr);
        let spec = SoftSpec::noise_matched(snr, Modulation::Qpsk);
        let mut ml_errors = 0usize;
        let mut map_errors = 0usize;
        for _ in 0..12 {
            let inst = sc.sample(&mut rng);
            let input = inst.detection_input();
            let priors: Vec<f64> = inst
                .tx_bits()
                .iter()
                .map(|&b| if b == 1 { spec.max_llr } else { -spec.max_llr })
                .collect();
            for kind in [DetectorKind::exact_ml(), DetectorKind::sphere()] {
                let mut s = kind.compile_soft(&input, spec).unwrap();
                let ml = s.detect_soft(&input.y, 1).unwrap();
                let map = s.detect_soft_with_priors(&input.y, &priors, 1).unwrap();
                ml_errors += quamax_wireless::count_bit_errors(&ml.bits, inst.tx_bits());
                map_errors += quamax_wireless::count_bit_errors(&map.bits, inst.tx_bits());
            }
        }
        assert!(ml_errors > 0, "the test needs genuine ML errors");
        assert_eq!(map_errors, 0, "saturated truthful priors must win");
    }

    #[test]
    fn quamax_priors_reverse_anneal_from_the_decoder_decision() {
        // A starved forward anneal misses bits; a prior-aware decode
        // warm-started from (mostly correct) decoder feedback must
        // recover them — the Fig. 15 reverse-anneal structure inside
        // the IDD loop.
        let mut rng = StdRng::seed_from_u64(34);
        let sc = Scenario::new(6, 6, Modulation::Qpsk).with_snr(Snr::from_db(16.0));
        let spec = SoftSpec::noise_matched(Snr::from_db(16.0), Modulation::Qpsk);
        // Starved: 2 anneals at a sparse sweep density.
        let kind = DetectorKind::quamax(
            Annealer::new(AnnealerConfig {
                ice: IceModel::none(),
                sweeps_per_us: 2.0,
                ..Default::default()
            }),
            DecoderConfig {
                schedule: Schedule::standard(1.0),
                ..Default::default()
            },
            2,
        );
        let mut forward_errors = 0usize;
        let mut refined_errors = 0usize;
        for k in 0..10u64 {
            let inst = sc.sample(&mut rng);
            let input = inst.detection_input();
            let mut s = kind.compile_soft(&input, spec).unwrap();
            let fwd = s.detect_soft(&input.y, 100 + k).unwrap();
            forward_errors += quamax_wireless::count_bit_errors(&fwd.bits, inst.tx_bits());
            // Decoder feedback: confident and correct (the FEC fixed
            // the frame), magnitude 8 — informative, not saturated.
            let priors: Vec<f64> = inst
                .tx_bits()
                .iter()
                .map(|&b| if b == 1 { 8.0 } else { -8.0 })
                .collect();
            let refined = s
                .detect_soft_with_priors(&input.y, &priors, 200 + k)
                .unwrap();
            refined_errors += quamax_wireless::count_bit_errors(&refined.bits, inst.tx_bits());
            // The refinement run really is a reverse anneal: its cycle
            // time reports the derived reverse schedule.
            let run = refined.stats.annealed_run().expect("annealed run");
            assert!(run.anneal_cycle_us() > 0.0);
        }
        assert!(
            forward_errors > 0,
            "the starved forward anneal must leave errors"
        );
        assert!(
            refined_errors < forward_errors,
            "warm-started refinement should fix bits: {refined_errors} vs {forward_errors}"
        );
    }

    #[test]
    fn zero_noise_spec_stays_finite() {
        // σ² = 0 (noise-free calibration runs): LLRs must clamp, not
        // NaN.
        let mut rng = StdRng::seed_from_u64(7);
        let inst = Scenario::new(3, 3, Modulation::Qam16).sample(&mut rng);
        let input = inst.detection_input();
        let spec = SoftSpec::new(0.0);
        for kind in [DetectorKind::zf(), DetectorKind::sphere()] {
            let mut s = kind.compile_soft(&input, spec).unwrap();
            let soft = s.detect_soft(&input.y, 0).unwrap();
            assert!(soft.llrs.iter().all(|l| l.is_finite()));
            assert_eq!(soft.bits, inst.tx_bits());
        }
    }

    #[test]
    fn quamax_soft_detect_returns_invalid_input_for_a_malformed_y() {
        let mut rng = StdRng::seed_from_u64(50);
        let input = Scenario::new(3, 3, Modulation::Qpsk)
            .sample(&mut rng)
            .detection_input();
        let kind = DetectorKind::quamax(quiet_annealer(), DecoderConfig::default(), 4);
        let mut session = kind.compile_soft(&input, SoftSpec::new(0.1)).unwrap();
        let mut y = input.y.clone();
        y[2] = quamax_linalg::Complex::new(0.0, f64::NAN);
        let is_invalid = |r: Result<SoftDetection, DetectError>| {
            matches!(
                r,
                Err(DetectError::Decode(
                    crate::decoder::DecodeError::InvalidInput(_)
                ))
            )
        };
        assert!(is_invalid(session.detect_soft(&y, 1)));
        let zero = vec![0.0; session.num_bits()];
        assert!(is_invalid(session.detect_soft_with_priors(&y, &zero, 1)));
        // Informative priors take the reverse-anneal warm-start path.
        let priors = vec![2.0; session.num_bits()];
        assert!(is_invalid(session.detect_soft_with_priors(&y, &priors, 1)));
        assert!(is_invalid(session.detect_soft_with_priors(
            &CVector::zeros(4),
            &priors,
            1
        )));
        assert!(session
            .detect_soft_with_priors(&input.y, &priors, 1)
            .is_ok());
    }
}
