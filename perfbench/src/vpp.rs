//! `downlink_vpp_4x4_qpsk`: the `bench_vpp` downlink. One item is one
//! channel: `Precoder::compile`, then 8 subcarriers through
//! `PrecoderSession::precode` at 14 dB with a quiet annealer, 20
//! anneals, `t = 1` and a 10 µs standard schedule. The receivers
//! rescale by the transmit gain, fold mod τ and Gray-demap.
//!
//! A 4×4 channel's receiver BER is set by its rare deep fades, so it
//! is kept in the record but is not the quality metric. `ber` here is
//! the precoding analogue of Eq. 9 at Na = 1: one anneal's expected
//! transmit power over the exact optimum's, minus one, median over
//! subcarriers.

use crate::layers::Layers;
use crate::replay::{item_sim_us, sweeps, Compiled, Hits, Tally};
use crate::report::{closed_loop, median, mix, Clock, EndToEnd, Outcome, SetupClock};
use crate::spans::Spans;
use quamax_anneal::{AnnealJob, Annealer, AnnealerConfig, IceModel, Schedule};
use quamax_chimera::ChimeraGraph;
use quamax_core::precode::VppSession;
use quamax_core::{
    fold_mod_tau, DecoderConfig, PrecodeInput, Precoder, PrecoderSession, Precoding, VppPrecoder,
};
use quamax_ising::{exact_ground_state, qubo_to_ising};
use quamax_linalg::CVector;
use quamax_ran::Deadline;
use quamax_wireless::{apply_awgn, count_bit_errors, rayleigh_channel, Modulation, Snr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

const USERS: usize = 4;
const MODULATION: Modulation = Modulation::Qpsk;
const SUBCARRIERS: usize = 8;
const SNR_DB: f64 = 14.0;
const ANNEALS: usize = 20;
const MAGNITUDE_BITS: usize = 1;
const TA_US: f64 = 10.0;
/// Items whose subcarriers' anneal statistics make the quality and sim
/// metrics. Channels differ widely in how hard their problems are, so
/// fewer make these metrics move between seeds by more than 10%.
const SIM_ITEMS: usize = 240;
/// Items every run completes; the realized receiver BER is read over
/// exactly these.
const MIN_ITEMS: usize = 60;
/// Items the traced run replays.
const TRACE_ITEMS: usize = 40;

fn annealer() -> Annealer {
    Annealer::new(AnnealerConfig {
        ice: IceModel::none(),
        sweeps_per_us: 50.0,
        ..Default::default()
    })
}

fn config() -> DecoderConfig {
    DecoderConfig {
        schedule: Schedule::standard(TA_US),
        ..Default::default()
    }
}

fn precoder() -> VppPrecoder {
    VppPrecoder::new(annealer(), config(), ANNEALS, MAGNITUDE_BITS)
}

/// One channel and its subcarriers' bits and noise seeds.
pub struct Item {
    input: PrecodeInput,
    subcarriers: Vec<(Vec<u8>, u64)>,
}

fn item(seed: u64, i: usize) -> Item {
    let mut rng = StdRng::seed_from_u64(mix(seed, i as u64));
    let input = PrecodeInput {
        h: rayleigh_channel(USERS, USERS, &mut rng),
        modulation: MODULATION,
    };
    let subcarriers = (0..SUBCARRIERS)
        .map(|_| {
            let bits = (0..input.num_bits())
                .map(|_| rng.random_range(0..2))
                .collect();
            (bits, rng.random())
        })
        .collect();
    Item { input, subcarriers }
}

/// What the receivers decode from one precoding: bit errors against
/// the sent bits.
fn receive(out: &Precoding, bits: &[u8], tau: f64, noise_seed: u64) -> usize {
    let e_tx = USERS as f64 * MODULATION.mean_symbol_energy();
    let sigma2 = Snr::from_db(SNR_DB).noise_variance(MODULATION);
    let g = (e_tx / out.power.max(1e-12)).sqrt();
    let u = MODULATION.map_gray_vector(bits);
    let clean = CVector::from_vec(
        u.as_slice()
            .iter()
            .zip(out.perturbation.as_slice())
            .map(|(&ui, &vi)| ui + vi * tau)
            .collect(),
    );
    let mut rng = StdRng::seed_from_u64(noise_seed);
    let received = apply_awgn(&clean, sigma2 / (g * g), &mut rng);
    count_bit_errors(
        bits,
        &MODULATION.demap_gray_vector(&fold_mod_tau(&received, tau)),
    )
}

/// `‖P(u + τv)‖²` computed directly from the session's precoding matrix.
fn direct_power(session: &VppSession, u: &CVector, v: &CVector) -> f64 {
    let tau = session.tau();
    let s = CVector::from_vec(
        u.as_slice()
            .iter()
            .zip(v.as_slice())
            .map(|(&ui, &vi)| ui + vi * tau)
            .collect(),
    );
    let x = session.model().precoding_matrix().mul_vec(&s);
    x.as_slice().iter().map(|c| c.norm_sqr()).sum()
}

fn params(out: &mut Outcome) {
    out.param("users", USERS);
    out.param_str("modulation", MODULATION.name());
    out.param("subcarriers_per_item", SUBCARRIERS);
    out.param("snr_db", SNR_DB);
    out.param("anneals", ANNEALS);
    out.param("magnitude_bits", MAGNITUDE_BITS);
    out.param("schedule_ta_us", TA_US);
    out.param_str("annealer", "quiet (no ICE), 50 sweeps/us");
    out.param("receiver_ber_items", MIN_ITEMS);
    out.param("sim_items", SIM_ITEMS);
}

/// What one item's anneals achieve, read from its subcarriers' VPP
/// problems through the layer replay. Quality is measured against each
/// problem's exact optimum (16 spins, searched exhaustively); for the
/// sim clock an anneal solves its subcarrier when it transmits no more
/// power than plain ZF (`v = 0`), the floor the session falls back to.
/// The optimum itself is reached too rarely (about 4% of anneals, none
/// on a quarter of the channels) for 20 anneals to price a TTS.
#[derive(Default)]
struct Quality {
    /// Modelled QPU time of each item: its subcarriers at TTS99.
    sim_us: Vec<f64>,
    /// Subcarriers whose TTS99 fits the LTE budget.
    met: usize,
    /// Per subcarrier, one anneal's expected transmit power over the
    /// optimum's, minus one (its median is the workload's `ber`).
    excess_power: Vec<f64>,
    /// Anneals that beat plain ZF, and that reached the optimum.
    solved: usize,
    optimal: usize,
    /// Per item, per subcarrier, the power the session transmits for
    /// the replayed anneals: the best sample's, floored by plain ZF.
    powers: Vec<Vec<f64>>,
}

impl Quality {
    fn add(
        &mut self,
        it: &Item,
        session: &VppSession,
        graph: &ChimeraGraph,
        spans: &mut Spans,
        tally: &mut Tally,
    ) {
        let annealer = annealer();
        let cfg = config();
        let sweeps = sweeps(&annealer, &cfg.schedule);
        // Each problem with the offset that turns its Ising energy into
        // transmit power.
        let problems: Vec<_> = it
            .subcarriers
            .iter()
            .map(|(bits, _)| {
                let u = MODULATION.map_gray_vector(bits);
                spans.time("core.reduce", |_| {
                    let (qubo, power_offset) = session.model().qubo_for(&u);
                    let (logical, offset) = qubo_to_ising(&qubo);
                    (logical, offset + power_offset)
                })
            })
            .collect();
        // Compiled from the `u = 0` program, as `Precoder::compile` does,
        // so the replay anneals exactly what the session anneals.
        let zero_program = qubo_to_ising(&session.model().qubo_for(&CVector::zeros(USERS)).0).0;
        let compiled = Compiled::new(graph, &zero_program, cfg.embed, spans);
        let cycle_us = cfg.schedule.total_time_us();
        // All subcarriers' anneals in one device call, each with the
        // seed its precode draws.
        let mut programmed: Vec<_> = problems
            .iter()
            .zip(&it.subcarriers)
            .map(|((logical, _), (_, noise_seed))| {
                let mut rng = StdRng::seed_from_u64(*noise_seed);
                let anneal_seed: u64 = rng.random();
                (compiled.refresh(logical, spans), anneal_seed, rng)
            })
            .collect();
        let jobs: Vec<AnnealJob> = programmed
            .iter()
            .map(|(scratch, seed, _)| AnnealJob {
                problem: scratch,
                init: None,
                num_anneals: ANNEALS,
                seed: *seed,
            })
            .collect();
        let samples = compiled.anneal(&annealer, &cfg.schedule, &jobs, spans);
        drop(jobs);
        let mut hits = Vec::with_capacity(SUBCARRIERS);
        let mut powers = Vec::with_capacity(SUBCARRIERS);
        for ((((logical, offset), (bits, _)), (_, _, rng)), samples) in problems
            .iter()
            .zip(&it.subcarriers)
            .zip(&mut programmed)
            .zip(&samples)
        {
            let ranked = compiled.rank(logical, samples, rng, spans);
            tally.add(&ranked, &compiled, sweeps);
            let d = &ranked.distribution;
            let optimum = exact_ground_state(logical).energy + offset;
            let mean_power = d
                .entries()
                .iter()
                .map(|e| (e.energy + offset) * e.count as f64)
                .sum::<f64>()
                / d.total_samples() as f64;
            self.excess_power.push(mean_power / optimum - 1.0);
            let u = MODULATION.map_gray_vector(bits);
            let zf = session.model().direct_energy(&u, &CVector::zeros(USERS));
            let best = d.best_energy().expect("a run has samples") + offset;
            powers.push(best.min(zf));
            let h = Hits::count(d, *offset, zf);
            self.optimal += Hits::count(d, *offset, optimum).hits;
            self.met += usize::from(h.meets(cycle_us, Deadline::Lte.budget_us()));
            self.solved += h.hits;
            hits.push(h);
        }
        self.sim_us.push(item_sim_us(&hits, cycle_us));
        self.powers.push(powers);
    }
}

pub fn run(seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    params(&mut out);
    let (mut setup, (pre, eval)) = SetupClock::new(|| {
        let eval: Vec<Item> = (0..SIM_ITEMS).map(|i| item(seed, i)).collect();
        (precoder(), eval)
    });

    let (mut errors, mut bits, mut power_ok) = (0usize, 0usize, true);
    let mut loop_powers: Vec<Vec<f64>> = Vec::new();
    let durations = closed_loop(Duration::from_secs(seconds), MIN_ITEMS, &mut setup, |i| {
        let fresh;
        let it = match eval.get(i) {
            Some(it) => it,
            None => {
                fresh = item(seed, i);
                &fresh
            }
        };
        let u: Vec<CVector> = it
            .subcarriers
            .iter()
            .map(|(b, _)| MODULATION.map_gray_vector(b))
            .collect();
        let t = Instant::now();
        let r = pre.compile(&it.input).and_then(|mut session| {
            let outs = u
                .iter()
                .zip(&it.subcarriers)
                .map(|(u, (_, s))| PrecoderSession::precode(&mut session, u, *s))
                .collect::<Result<Vec<Precoding>, _>>()?;
            Ok((session, outs))
        });
        let dt = t.elapsed().as_secs_f64();
        match r {
            Ok((session, outs)) => {
                if i < SIM_ITEMS {
                    loop_powers.push(outs.iter().map(|o| o.power).collect());
                }
                for ((u, (b, s)), o) in u.iter().zip(&it.subcarriers).zip(outs) {
                    let direct = direct_power(&session, u, &o.perturbation);
                    power_ok &= (o.power - direct).abs() <= 1e-9 * direct.max(1.0);
                    if i < MIN_ITEMS {
                        errors += receive(&o, b, session.tau(), *s);
                        bits += b.len();
                    }
                }
            }
            Err(e) => {
                eprintln!("item {i}: {e}");
                out.errors += 1;
            }
        }
        dt
    });
    out.attempted = durations.len() as u64;
    out.check("power_equals_direct_norm", power_ok);

    let graph = ChimeraGraph::dw2q_ideal();
    let mut spans = Spans::default();
    let mut q = Quality::default();
    for it in &eval {
        let session = pre.compile(&it.input).expect("compiles");
        q.add(it, &session, &graph, &mut spans, &mut Tally::default());
    }
    let problems = (SIM_ITEMS * SUBCARRIERS) as f64;
    // Check: the replay that makes the quality and sim metrics anneals
    // what the timed precodes annealed.
    let same = loop_powers.iter().zip(&q.powers).all(|(a, b)| {
        a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= 1e-6 * x.max(1.0))
    });
    out.check("replay_power_equals_precode", same);
    out.attempted += out.checks.len() as u64;

    let n = durations.len();
    let success_ratio = out.success_ratio();
    out.end_to_end(EndToEnd {
        setup_s: setup.median_s(),
        durations: &durations,
        min_items: MIN_ITEMS,
        item_bits: &vec![(SUBCARRIERS * USERS * MODULATION.bits_per_symbol()) as f64; n],
        item_jobs: &vec![SUBCARRIERS as f64; n],
        ber: median(&q.excess_power),
        success_ratio,
        quality_clock: Clock::None,
        deadline_rate: q.met as f64 / problems,
        sim_latency_us: &q.sim_us,
    });
    out.note(
        "excess_power_mean",
        q.excess_power.iter().sum::<f64>() / problems,
    );
    out.note("realized_bit_errors", errors);
    out.note("realized_receiver_ber", errors as f64 / bits.max(1) as f64);
    out.note(
        "solved_anneal_ratio",
        q.solved as f64 / (problems * ANNEALS as f64),
    );
    out.note(
        "optimal_anneal_ratio",
        q.optimal as f64 / (problems * ANNEALS as f64),
    );
    out
}

/// The traced run: the public compile and precode calls, plus each
/// subcarrier's VPP problem through the anneal pipeline's layers.
pub fn trace(seed: u64, layers: &mut Layers) -> Outcome {
    let mut out = Outcome::default();
    params(&mut out);
    let pre = precoder();
    let graph = ChimeraGraph::dw2q_ideal();
    let mut spans = Spans::default();
    let (mut untraced, mut traced, mut factorizations) = (0.0, 0.0, 0u64);
    let mut tally = Tally::default();
    let mut q = Quality::default();
    for i in 0..TRACE_ITEMS {
        let it = item(seed, i);
        let us: Vec<CVector> = it
            .subcarriers
            .iter()
            .map(|(b, _)| MODULATION.map_gray_vector(b))
            .collect();
        let t = Instant::now();
        let mut plain = pre.compile(&it.input).expect("compiles");
        let reference: Vec<Precoding> = us
            .iter()
            .zip(&it.subcarriers)
            .map(|(u, (_, s))| PrecoderSession::precode(&mut plain, u, *s).expect("precodes"))
            .collect();
        untraced += t.elapsed().as_secs_f64();

        let f0 = quamax_linalg::factorization_count();
        let t = Instant::now();
        let mut session = spans.time("core.compile", |_| {
            pre.compile(&it.input).expect("compiles")
        });
        let outs: Vec<Precoding> = us
            .iter()
            .zip(&it.subcarriers)
            .map(|(u, (_, s))| {
                spans.time("core.precode", |_| {
                    PrecoderSession::precode(&mut session, u, *s).expect("precodes")
                })
            })
            .collect();
        traced += t.elapsed().as_secs_f64();
        factorizations += quamax_linalg::factorization_count() - f0;
        let same = outs
            .iter()
            .zip(&reference)
            .all(|(a, b)| a.perturbation == b.perturbation && a.power == b.power);
        out.check(&format!("traced_precode_equals_untraced_{i}"), same);
        q.add(&it, &session, &graph, &mut spans, &mut tally);
    }
    out.attempted = (TRACE_ITEMS * 2) as u64 + out.checks.len() as u64;

    tally.report(&spans, 0, 0.0, layers);
    layers.set("core.compile.us", spans.mean_us("core.compile"));
    layers.set("core.precode.us", spans.mean_us("core.precode"));
    layers.set(
        "linalg.factorizations_per_item",
        factorizations as f64 / TRACE_ITEMS as f64,
    );
    layers.set("trace.overhead_ratio", traced / untraced);
    out
}
