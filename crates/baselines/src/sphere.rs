//! The Sphere Decoder (§2.1): ML detection as a pruned tree search.
//!
//! QR-decomposing `H = QR` turns `argmin‖y − Hv‖²` into
//! `argmin‖ȳ − Rv‖²` with `ȳ = Q*y` and `R` upper-triangular, which
//! factorizes level by level from the last user up: a tree of height
//! `Nt` and branching factor `|O|`. The decoder walks it depth-first
//! with two classic optimizations:
//!
//! * **Schnorr–Euchner ordering** — at each level, candidate symbols
//!   are tried nearest-first around the zero-forcing center, so the
//!   first leaf reached is already good;
//! * **radius pruning** — subtrees whose partial metric exceeds the
//!   best leaf metric so far are skipped.
//!
//! The *visited node count* — partial assignments whose metric was
//! computed — is the complexity measure of Table 1 and grows
//! exponentially with users and constellation order, which is the
//! paper's entire motivation.

use quamax_linalg::{CMatrix, CVector, Complex, QrDecomposition};
use quamax_wireless::Modulation;

/// The decode produced by a sphere search.
#[derive(Clone, Debug, PartialEq)]
pub struct SphereResult {
    /// Gray-coded decoded bits, user 0 first.
    pub bits: Vec<u8>,
    /// The decoded symbol vector `v̂`.
    pub symbols: CVector,
    /// The achieved ML metric `‖y − Hv̂‖²`.
    pub metric: f64,
    /// Tree nodes visited (Table 1's complexity measure).
    pub visited_nodes: u64,
}

/// A Schnorr–Euchner sphere decoder for one modulation.
///
/// ```
/// use quamax_baselines::SphereDecoder;
/// use quamax_linalg::CMatrix;
/// use quamax_wireless::Modulation;
///
/// // A noiseless 2×2 BPSK channel use: y = H·[+1, −1].
/// let m = Modulation::Bpsk;
/// let h = CMatrix::from_rows(&[
///     vec![1.0.into(), 0.25.into()],
///     vec![(-0.5).into(), 2.0.into()],
/// ]);
/// let v = m.map_gray_vector(&[1, 0]);
/// let y = h.mul_vec(&v);
/// let out = SphereDecoder::new(m).decode(&h, &y).unwrap();
/// assert_eq!(out.bits, vec![1, 0]);
/// assert!(out.metric < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct SphereDecoder {
    modulation: Modulation,
    /// Initial squared radius `C` (∞ = unconstrained ML).
    initial_radius: f64,
    /// Hard cap on visited nodes; `None` = run to completion. The
    /// paper's Table 1 argues exactly that real-time budgets cap this;
    /// when the cap trips, the best leaf so far is returned (a
    /// best-effort decode), or an error if no leaf was reached.
    node_budget: Option<u64>,
}

/// Why a sphere search returned nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SphereError {
    /// No leaf lies within the initial radius.
    RadiusTooSmall,
    /// The node budget was exhausted before any leaf was reached.
    BudgetExhausted,
}

impl std::fmt::Display for SphereError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SphereError::RadiusTooSmall => write!(f, "no solution within the initial radius"),
            SphereError::BudgetExhausted => write!(f, "node budget exhausted before first leaf"),
        }
    }
}

impl std::error::Error for SphereError {}

impl SphereDecoder {
    /// An unconstrained (exact-ML) sphere decoder.
    pub fn new(modulation: Modulation) -> Self {
        SphereDecoder {
            modulation,
            initial_radius: f64::INFINITY,
            node_budget: None,
        }
    }

    /// Constrains the search to `‖y − Hv‖² ≤ radius_sqr`.
    pub fn with_initial_radius(mut self, radius_sqr: f64) -> Self {
        assert!(radius_sqr > 0.0, "radius must be positive");
        self.initial_radius = radius_sqr;
        self
    }

    /// Caps the visited-node count (real-time budget emulation).
    pub fn with_node_budget(mut self, nodes: u64) -> Self {
        assert!(nodes > 0, "budget must be positive");
        self.node_budget = Some(nodes);
        self
    }

    /// Compiles the channel-dependent work — the QR decomposition of
    /// `H` — into a reusable per-coherence-interval search context.
    ///
    /// # Panics
    /// Panics when `h` is wider than tall (`Nr < Nt`).
    pub fn compile(&self, h: &CMatrix) -> CompiledSphere {
        assert!(h.rows() >= h.cols(), "sphere decoding needs Nr >= Nt");
        CompiledSphere {
            decoder: self.clone(),
            qr: QrDecomposition::compute(h),
            nr: h.rows(),
            constellation: self.modulation.constellation(),
        }
    }

    /// Decodes one channel use.
    ///
    /// One-shot form of [`SphereDecoder::compile`] +
    /// [`CompiledSphere::decode`] (bit-identical; the split only
    /// amortizes the QR).
    ///
    /// # Panics
    /// Panics when `h` is wider than tall (`Nr < Nt`) or `y` mismatched.
    pub fn decode(&self, h: &CMatrix, y: &CVector) -> Result<SphereResult, SphereError> {
        self.compile(h).decode(y)
    }
}

/// A compiled sphere-search context: the cached QR of one channel;
/// each received vector pays only the rotation `ȳ = Q*y` and the tree
/// walk itself.
#[derive(Clone, Debug)]
pub struct CompiledSphere {
    decoder: SphereDecoder,
    qr: QrDecomposition,
    nr: usize,
    constellation: Vec<(Vec<u8>, Complex)>,
}

impl CompiledSphere {
    /// Users (= tree height) of the compiled channel.
    pub fn num_users(&self) -> usize {
        self.qr.r.cols()
    }

    /// Modulation the search runs over.
    pub fn modulation(&self) -> Modulation {
        self.decoder.modulation
    }

    /// Receive antennas of the compiled channel (the length `decode`
    /// expects of `y`).
    pub fn num_receive_antennas(&self) -> usize {
        self.nr
    }

    /// Decodes one received vector over the compiled channel.
    ///
    /// # Panics
    /// Panics when `y` disagrees with the compiled channel's antennas.
    pub fn decode(&self, y: &CVector) -> Result<SphereResult, SphereError> {
        assert_eq!(self.nr, y.len(), "H and y disagree on receive antennas");
        let nt = self.num_users();
        let qr = &self.qr;
        let y_bar = qr.rotate(y);
        // The thin QR drops ‖y‖² − ‖Q*y‖² ≥ 0, constant over v: account
        // for it so the returned metric equals the true ML norm.
        let residual = (y.norm_sqr() - y_bar.norm_sqr()).max(0.0);

        let constellation = &self.constellation;
        let mut search = Search {
            r: &qr.r,
            y_bar: &y_bar,
            constellation,
            best_metric: if self.decoder.initial_radius.is_finite() {
                self.decoder.initial_radius - residual
            } else {
                f64::INFINITY
            },
            best_path: Vec::new(),
            chosen: vec![usize::MAX; nt],
            visited: 0,
            budget: self.decoder.node_budget,
        };
        search.descend(nt, 0.0);

        if search.best_path.is_empty() {
            return Err(if search.budget_hit() {
                SphereError::BudgetExhausted
            } else {
                SphereError::RadiusTooSmall
            });
        }

        // best_path is indexed by user (levels assign chosen[level−1]).
        let mut bits = Vec::with_capacity(nt * self.decoder.modulation.bits_per_symbol());
        let mut symbols = CVector::zeros(nt);
        for (user, &ci) in search.best_path.iter().enumerate() {
            let (b, s) = &constellation[ci];
            bits.extend_from_slice(b);
            symbols[user] = *s;
        }
        Ok(SphereResult {
            bits,
            symbols,
            metric: search.best_metric + residual,
            visited_nodes: search.visited,
        })
    }
}

/// One leaf of a list sphere search.
#[derive(Clone, Debug, PartialEq)]
pub struct SphereCandidate {
    /// Gray-coded bits of this leaf, user 0 first.
    pub bits: Vec<u8>,
    /// Its ML metric `‖y − Hv‖²`.
    pub metric: f64,
}

/// The ranked leaf list of a list sphere decode.
#[derive(Clone, Debug, PartialEq)]
pub struct SphereListResult {
    /// Up to `list_size` best leaves, ascending metric. The first
    /// entry is the exact ML solution (ties broken by search order,
    /// identically to [`CompiledSphere::decode`]).
    pub entries: Vec<SphereCandidate>,
    /// Tree nodes visited (grows with the list size: the pruning
    /// radius is the *worst* kept leaf, not the best).
    pub visited_nodes: u64,
}

impl CompiledSphere {
    /// List sphere decoding (the soft-output front half of list
    /// demapping): the same Schnorr–Euchner walk over the cached QR,
    /// but keeping the `list_size` best leaves instead of one. Pruning
    /// against the worst kept leaf makes the returned list *exactly*
    /// the `list_size` smallest-metric constellation points — the
    /// counter-hypothesis pool a max-log LLR needs.
    ///
    /// Exactness assumes the walk completes: with a node budget
    /// configured, a search that trips the cap after reaching at least
    /// one leaf returns the best-effort list found so far (mirroring
    /// [`CompiledSphere::decode`]'s best-effort contract), and only a
    /// budget exhausted before *any* leaf is an error.
    ///
    /// # Panics
    /// Panics when `list_size` is zero or `y` disagrees with the
    /// compiled channel's antennas.
    pub fn decode_list(
        &self,
        y: &CVector,
        list_size: usize,
    ) -> Result<SphereListResult, SphereError> {
        assert!(list_size > 0, "need a non-empty leaf list");
        assert_eq!(self.nr, y.len(), "H and y disagree on receive antennas");
        let nt = self.num_users();
        let qr = &self.qr;
        let y_bar = qr.rotate(y);
        let residual = (y.norm_sqr() - y_bar.norm_sqr()).max(0.0);

        let mut search = ListSearch {
            r: &qr.r,
            y_bar: &y_bar,
            constellation: &self.constellation,
            radius: if self.decoder.initial_radius.is_finite() {
                self.decoder.initial_radius - residual
            } else {
                f64::INFINITY
            },
            leaves: Vec::with_capacity(list_size + 1),
            cap: list_size,
            chosen: vec![usize::MAX; nt],
            visited: 0,
            budget: self.decoder.node_budget,
        };
        search.descend(nt, 0.0);

        if search.leaves.is_empty() {
            return Err(if search.budget_hit() {
                SphereError::BudgetExhausted
            } else {
                SphereError::RadiusTooSmall
            });
        }
        let entries = search
            .leaves
            .into_iter()
            .map(|(metric, path)| {
                let mut bits = Vec::with_capacity(nt * self.decoder.modulation.bits_per_symbol());
                for &ci in &path {
                    bits.extend_from_slice(&self.constellation[ci].0);
                }
                SphereCandidate {
                    bits,
                    metric: metric + residual,
                }
            })
            .collect();
        Ok(SphereListResult {
            entries,
            visited_nodes: search.visited,
        })
    }
}

/// Depth-first list-search state: [`Search`] with a bounded leaf list
/// in place of the single incumbent.
struct ListSearch<'a> {
    r: &'a CMatrix,
    y_bar: &'a CVector,
    constellation: &'a [(Vec<u8>, Complex)],
    /// Initial squared-radius bound (∞ = unconstrained).
    radius: f64,
    /// `(metric, path)` leaves, ascending metric, at most `cap`; ties
    /// keep encounter order (matching the hard search's first-found
    /// incumbent).
    leaves: Vec<(f64, Vec<usize>)>,
    cap: usize,
    chosen: Vec<usize>,
    visited: u64,
    budget: Option<u64>,
}

impl ListSearch<'_> {
    fn budget_hit(&self) -> bool {
        self.budget.is_some_and(|b| self.visited >= b)
    }

    /// The current pruning threshold: once the list is full, a subtree
    /// only matters if it can displace the worst kept leaf.
    fn threshold(&self) -> f64 {
        if self.leaves.len() == self.cap {
            self.leaves.last().expect("non-empty when full").0
        } else {
            self.radius
        }
    }

    fn descend(&mut self, level: usize, partial: f64) {
        if level == 0 {
            return;
        }
        let i = level - 1;
        let mut c = self.y_bar[i];
        for j in level..self.r.cols() {
            let cj = self.chosen[j];
            c -= self.r[(i, j)] * self.constellation[cj].1;
        }
        let r_ii = self.r[(i, i)];

        let mut order: Vec<(f64, usize)> = self
            .constellation
            .iter()
            .enumerate()
            .map(|(ci, (_, s))| ((c - r_ii * *s).norm_sqr(), ci))
            .collect();
        order.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite metrics"));

        for (branch, ci) in order {
            let metric = partial + branch;
            if self.budget_hit() {
                return;
            }
            self.visited += 1;
            if metric >= self.threshold() {
                // SE ordering: every later candidate is worse.
                return;
            }
            self.chosen[i] = ci;
            if i == 0 {
                // Insert after equal metrics: encounter order on ties.
                let at = self.leaves.partition_point(|(m, _)| *m <= metric);
                self.leaves.insert(at, (metric, self.chosen.clone()));
                self.leaves.truncate(self.cap);
            } else {
                self.descend(level - 1, metric);
            }
        }
    }
}

/// Depth-first search state.
struct Search<'a> {
    r: &'a CMatrix,
    y_bar: &'a CVector,
    constellation: &'a [(Vec<u8>, Complex)],
    best_metric: f64,
    /// Constellation indices of the best leaf, levels nt−1 … 0.
    best_path: Vec<usize>,
    /// Current partial assignment (by level).
    chosen: Vec<usize>,
    visited: u64,
    budget: Option<u64>,
}

impl Search<'_> {
    fn budget_hit(&self) -> bool {
        self.budget.is_some_and(|b| self.visited >= b)
    }

    /// Expands the node at `level` (levels count down; `level == 0` is
    /// a leaf's parent edge). `partial` is the metric accumulated from
    /// levels above.
    fn descend(&mut self, level: usize, partial: f64) {
        if level == 0 {
            return;
        }
        let i = level - 1;
        // Interference-cancelled center for this level:
        // c = (ȳ_i − Σ_{j>i} R_ij v_j) — candidates are compared via
        // |c − R_ii·s|².
        let mut c = self.y_bar[i];
        for j in level..self.r.cols() {
            let cj = self.chosen[j];
            c -= self.r[(i, j)] * self.constellation[cj].1;
        }
        let r_ii = self.r[(i, i)];

        // Schnorr–Euchner: order candidates by their branch metric.
        let mut order: Vec<(f64, usize)> = self
            .constellation
            .iter()
            .enumerate()
            .map(|(ci, (_, s))| ((c - r_ii * *s).norm_sqr(), ci))
            .collect();
        order.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite metrics"));

        for (branch, ci) in order {
            let metric = partial + branch;
            if self.budget_hit() {
                return;
            }
            self.visited += 1;
            if metric >= self.best_metric {
                // SE ordering: every later candidate is worse — prune
                // the whole remainder of this level.
                return;
            }
            self.chosen[i] = ci;
            if i == 0 {
                self.best_metric = metric;
                self.best_path = self.chosen.clone();
            } else {
                self.descend(level - 1, metric);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ml::exhaustive_ml;
    use quamax_linalg::rng::ComplexGaussian;
    use quamax_wireless::{apply_awgn, rayleigh_channel, Snr};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_instance(
        rng: &mut StdRng,
        nt: usize,
        m: Modulation,
        snr_db: f64,
    ) -> (CMatrix, CVector, Vec<u8>) {
        let h = rayleigh_channel(nt, nt, rng);
        let q = m.bits_per_symbol();
        let bits: Vec<u8> = (0..nt * q).map(|_| rng.random_range(0..=1) as u8).collect();
        let v = m.map_gray_vector(&bits);
        let clean = h.mul_vec(&v);
        let y = apply_awgn(&clean, Snr::from_db(snr_db).noise_variance(m), rng);
        (h, y, bits)
    }

    #[test]
    fn matches_exhaustive_ml_everywhere() {
        let mut rng = StdRng::seed_from_u64(1);
        for m in [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16] {
            for _ in 0..20 {
                let nt = if m == Modulation::Qam16 { 3 } else { 4 };
                let (h, y, _) = random_instance(&mut rng, nt, m, 8.0);
                let sphere = SphereDecoder::new(m).decode(&h, &y).unwrap();
                let ml = exhaustive_ml(&h, &y, m);
                assert!(
                    (sphere.metric - ml.metric).abs() < 1e-6 * ml.metric.max(1.0),
                    "{}: {} vs {}",
                    m.name(),
                    sphere.metric,
                    ml.metric
                );
                assert_eq!(sphere.bits, ml.bits, "{}", m.name());
            }
        }
    }

    #[test]
    fn decodes_noiseless_exactly() {
        let mut rng = StdRng::seed_from_u64(2);
        for m in [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16] {
            let nt = 4;
            let h = rayleigh_channel(nt, nt, &mut rng);
            let q = m.bits_per_symbol();
            let bits: Vec<u8> = (0..nt * q).map(|_| rng.random_range(0..=1) as u8).collect();
            let v = m.map_gray_vector(&bits);
            let y = h.mul_vec(&v);
            let out = SphereDecoder::new(m).decode(&h, &y).unwrap();
            assert_eq!(out.bits, bits, "{}", m.name());
            assert!(out.metric < 1e-9);
        }
    }

    #[test]
    fn visited_nodes_grow_with_users() {
        // Table 1's qualitative content: complexity explodes with Nt.
        let mut rng = StdRng::seed_from_u64(3);
        let avg_nodes = |nt: usize, rng: &mut StdRng| -> f64 {
            let trials = 30;
            let mut acc = 0u64;
            for _ in 0..trials {
                let (h, y, _) = random_instance(rng, nt, Modulation::Bpsk, 13.0);
                acc += SphereDecoder::new(Modulation::Bpsk)
                    .decode(&h, &y)
                    .unwrap()
                    .visited_nodes;
            }
            acc as f64 / trials as f64
        };
        let small = avg_nodes(4, &mut rng);
        let large = avg_nodes(12, &mut rng);
        assert!(
            large > 2.0 * small,
            "node count should grow super-linearly: {small} → {large}"
        );
        assert!(small >= 4.0, "must at least visit one node per level");
    }

    #[test]
    fn tall_channel_works() {
        // More AP antennas than users (Nr > Nt): residual norm must be
        // accounted for, metric still equals exhaustive ML.
        let mut rng = StdRng::seed_from_u64(4);
        let g = ComplexGaussian::unit();
        let h = CMatrix::from_fn(8, 3, |_, _| g.sample(&mut rng));
        let y = CVector::from_fn(8, |_| g.sample(&mut rng));
        let sphere = SphereDecoder::new(Modulation::Qpsk).decode(&h, &y).unwrap();
        let ml = exhaustive_ml(&h, &y, Modulation::Qpsk);
        assert!((sphere.metric - ml.metric).abs() < 1e-6 * ml.metric.max(1.0));
        assert_eq!(sphere.bits, ml.bits);
    }

    #[test]
    fn radius_constraint_can_exclude_everything() {
        let mut rng = StdRng::seed_from_u64(5);
        let (h, y, _) = random_instance(&mut rng, 3, Modulation::Bpsk, 10.0);
        let out = SphereDecoder::new(Modulation::Bpsk)
            .with_initial_radius(1e-12)
            .decode(&h, &y);
        assert_eq!(out.unwrap_err(), SphereError::RadiusTooSmall);
    }

    #[test]
    fn generous_radius_matches_unconstrained() {
        let mut rng = StdRng::seed_from_u64(6);
        let (h, y, _) = random_instance(&mut rng, 4, Modulation::Qpsk, 12.0);
        let free = SphereDecoder::new(Modulation::Qpsk).decode(&h, &y).unwrap();
        let constrained = SphereDecoder::new(Modulation::Qpsk)
            .with_initial_radius(free.metric * 4.0 + 1.0)
            .decode(&h, &y)
            .unwrap();
        assert_eq!(free.bits, constrained.bits);
        // A finite radius can only prune more.
        assert!(constrained.visited_nodes <= free.visited_nodes);
    }

    #[test]
    fn node_budget_stops_search() {
        let mut rng = StdRng::seed_from_u64(7);
        let (h, y, _) = random_instance(&mut rng, 10, Modulation::Qpsk, 5.0);
        // A tiny budget trips before the first leaf (10 levels deep).
        let out = SphereDecoder::new(Modulation::Qpsk)
            .with_node_budget(3)
            .decode(&h, &y);
        assert_eq!(out.unwrap_err(), SphereError::BudgetExhausted);
        // A moderate budget returns a best-effort answer.
        let out = SphereDecoder::new(Modulation::Qpsk)
            .with_node_budget(500)
            .decode(&h, &y)
            .unwrap();
        assert!(out.visited_nodes <= 500);
    }

    #[test]
    fn higher_snr_visits_fewer_nodes() {
        let mut rng = StdRng::seed_from_u64(8);
        let avg = |snr: f64, rng: &mut StdRng| -> f64 {
            let mut acc = 0u64;
            for _ in 0..30 {
                let (h, y, _) = random_instance(rng, 8, Modulation::Qpsk, snr);
                acc += SphereDecoder::new(Modulation::Qpsk)
                    .decode(&h, &y)
                    .unwrap()
                    .visited_nodes;
            }
            acc as f64 / 30.0
        };
        let noisy = avg(0.0, &mut rng);
        let clean = avg(25.0, &mut rng);
        assert!(
            clean < noisy,
            "SNR should shrink the search: {clean} vs {noisy}"
        );
    }

    #[test]
    fn list_decode_head_is_the_ml_solution() {
        let mut rng = StdRng::seed_from_u64(9);
        for m in [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16] {
            let nt = if m == Modulation::Qam16 { 3 } else { 4 };
            for _ in 0..10 {
                let (h, y, _) = random_instance(&mut rng, nt, m, 8.0);
                let compiled = SphereDecoder::new(m).compile(&h);
                let hard = compiled.decode(&y).unwrap();
                let list = compiled.decode_list(&y, 8).unwrap();
                assert_eq!(list.entries[0].bits, hard.bits, "{}", m.name());
                assert!((list.entries[0].metric - hard.metric).abs() < 1e-9);
                // Ascending metrics, no duplicates of the head.
                for w in list.entries.windows(2) {
                    assert!(w[0].metric <= w[1].metric);
                    assert_ne!(w[0].bits, w[1].bits);
                }
            }
        }
    }

    #[test]
    fn full_list_enumerates_exact_order_statistics() {
        // With the list as large as the constellation power, the list
        // search must return *every* leaf, sorted — cross-checked
        // against brute force.
        let mut rng = StdRng::seed_from_u64(10);
        let m = Modulation::Qpsk;
        let (h, y, _) = random_instance(&mut rng, 2, m, 6.0);
        let list = SphereDecoder::new(m)
            .compile(&h)
            .decode_list(&y, 16)
            .unwrap();
        assert_eq!(list.entries.len(), 16);
        let mut brute: Vec<f64> = (0..16u32)
            .map(|k| {
                let bits: Vec<u8> = (0..4).map(|b| ((k >> b) & 1) as u8).collect();
                (&y - &h.mul_vec(&m.map_gray_vector(&bits))).norm_sqr()
            })
            .collect();
        brute.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (entry, want) in list.entries.iter().zip(&brute) {
            assert!((entry.metric - want).abs() < 1e-9 * want.max(1.0));
        }
    }

    #[test]
    fn list_decode_respects_budget_and_radius() {
        let mut rng = StdRng::seed_from_u64(11);
        let (h, y, _) = random_instance(&mut rng, 10, Modulation::Qpsk, 5.0);
        let out = SphereDecoder::new(Modulation::Qpsk)
            .with_node_budget(3)
            .compile(&h)
            .decode_list(&y, 4);
        assert_eq!(out.unwrap_err(), SphereError::BudgetExhausted);
        let out = SphereDecoder::new(Modulation::Qpsk)
            .with_initial_radius(1e-12)
            .compile(&h)
            .decode_list(&y, 4);
        assert_eq!(out.unwrap_err(), SphereError::RadiusTooSmall);
    }

    #[test]
    #[should_panic(expected = "Nr >= Nt")]
    fn wide_channel_panics() {
        let h = CMatrix::zeros(2, 4);
        let y = CVector::zeros(2);
        let _ = SphereDecoder::new(Modulation::Bpsk).decode(&h, &y);
    }
}
