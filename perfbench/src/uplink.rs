//! `uplink_48x48_bpsk`: the paper's headline point. One item is one
//! coherence interval: a Rayleigh `H`, `QuamaxDecoder::compile`, then
//! `DecodeSession::decode_batch` over 16 received vectors at 20 dB with
//! `DecoderConfig::default()` (Ta = 1 µs plus a 1 µs pause) and 20
//! anneals per vector.

use crate::layers::Layers;
use crate::replay::{pooled_sim_us, sweeps, Compiled, Hits, Tally};
use crate::report::{closed_loop, mix, Clock, EndToEnd, Outcome, SetupClock};
use crate::spans::Spans;
use quamax_anneal::{AnnealJob, Annealer, AnnealerConfig};
use quamax_chimera::ChimeraGraph;
use quamax_core::reduce::ising_from_ml_amortized;
use quamax_core::{
    BitErrorProfile, DecodeRun, DecoderConfig, DetectionInput, Instance, QuamaxDecoder,
};
use quamax_ran::Deadline;
use quamax_wireless::gray::quamax_bits_to_gray;
use quamax_wireless::{count_bit_errors, rayleigh_channel, Modulation, Snr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

const USERS: usize = 48;
const MODULATION: Modulation = Modulation::Bpsk;
const SNR_DB: f64 = 20.0;
const VECTORS: usize = 16;
const ANNEALS: usize = 20;
/// Items whose bits and anneal statistics make the quality and sim
/// metrics (fixed, so one seed always reads the same values).
const EVAL_ITEMS: usize = 96;
/// Items the traced run replays.
const TRACE_ITEMS: usize = 24;
const MIN_ITEMS: usize = 100;

/// One coherence interval's inputs.
pub struct Item {
    input: DetectionInput,
    ys: Vec<(quamax_linalg::CVector, u64)>,
    tx: Vec<Vec<u8>>,
    /// Per vector, the ML objective `‖y − Hx‖²` of the transmitted
    /// symbols: the reference an anneal must reach to count as solved
    /// (at 20 dB the transmitted vector is the ML solution).
    tx_objective: Vec<f64>,
}

fn item(seed: u64, i: usize) -> Item {
    let mut rng = StdRng::seed_from_u64(mix(seed, i as u64));
    let h = rayleigh_channel(USERS, USERS, &mut rng);
    let snr = Snr::from_db(SNR_DB);
    let mut ys = Vec::with_capacity(VECTORS);
    let mut tx = Vec::with_capacity(VECTORS);
    let mut tx_objective = Vec::with_capacity(VECTORS);
    for _ in 0..VECTORS {
        let bits: Vec<u8> = (0..USERS * MODULATION.bits_per_symbol())
            .map(|_| rng.random_range(0..2))
            .collect();
        let inst = Instance::transmit(h.clone(), bits.clone(), MODULATION, Some(snr), &mut rng);
        let clean = h.mul_vec(&MODULATION.map_gray_vector(&bits));
        tx_objective.push((inst.y() - &clean).norm_sqr());
        ys.push((inst.y().clone(), rng.random()));
        tx.push(bits);
    }
    let input = DetectionInput {
        h,
        y: ys[0].0.clone(),
        modulation: MODULATION,
    };
    Item {
        input,
        ys,
        tx,
        tx_objective,
    }
}

fn decoder() -> QuamaxDecoder {
    QuamaxDecoder::new(
        Annealer::new(AnnealerConfig::default()),
        DecoderConfig::default(),
    )
}

fn decode(dec: &QuamaxDecoder, it: &Item) -> Vec<DecodeRun> {
    dec.compile(&it.input)
        .expect("48 users embed on the chip")
        .decode_batch(&it.ys, ANNEALS)
}

fn params(out: &mut Outcome) {
    out.param("users", USERS);
    out.param_str("modulation", MODULATION.name());
    out.param("snr_db", SNR_DB);
    out.param("vectors_per_item", VECTORS);
    out.param("anneals", ANNEALS);
    out.param_str("schedule", "DecoderConfig::default(): Ta 1 us + 1 us pause");
    out.param("eval_items", EVAL_ITEMS);
}

pub fn run(seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    params(&mut out);
    let (mut setup, (dec, eval)) = SetupClock::new(|| {
        let eval: Vec<Item> = (0..EVAL_ITEMS).map(|i| item(seed, i)).collect();
        (decoder(), eval)
    });

    // Quality and sim metrics over the fixed evaluation items, read off
    // each item's runs outside its timed section: the expected BER of
    // one anneal (Eq. 9 at Na = 1) per vector, and per item the modelled
    // QPU time of its vectors.
    let (mut errors, mut bits, mut one_anneal_ber) = (0usize, 0usize, 0.0);
    let (mut sim, mut met, mut solved) = (Vec::new(), 0usize, 0usize);
    let cycle_us = DecoderConfig::default().schedule.total_time_us();
    let mut first_bits = Vec::new();
    let durations = closed_loop(Duration::from_secs(seconds), MIN_ITEMS, &mut setup, |i| {
        let fresh;
        let it = match eval.get(i) {
            Some(it) => it,
            None => {
                fresh = item(seed, i);
                &fresh
            }
        };
        let t = Instant::now();
        let runs = decode(&dec, it);
        let dt = t.elapsed().as_secs_f64();
        if i < EVAL_ITEMS {
            let mut hits = Vec::with_capacity(VECTORS);
            for ((r, tx), &reference) in runs.iter().zip(&it.tx).zip(&it.tx_objective) {
                errors += count_bit_errors(&r.best_bits(), tx);
                bits += tx.len();
                one_anneal_ber += BitErrorProfile::from_run(r, tx).expected_ber(1);
                let h = Hits::count(r.distribution(), r.ml_offset(), reference);
                met += usize::from(h.meets(cycle_us, Deadline::Lte.budget_us()));
                solved += h.hits;
                hits.push(h);
            }
            // An item's vectors share one channel and differ only by
            // noise and bits, so the item's pooled rate prices each of
            // them. Priced one by one, the rare vector whose 20 anneals
            // all missed (0.4% of them) costs 150 times a typical one,
            // and the p90 item turns on how many of them a run draws.
            sim.push(pooled_sim_us(&hits, cycle_us));
        }
        if i == 0 {
            first_bits = runs.iter().map(DecodeRun::best_bits).collect();
        }
        dt
    });
    out.attempted = durations.len() as u64;
    let problems = EVAL_ITEMS * VECTORS;

    // Check: the session's one-at-a-time decode agrees with the batch.
    let probe = &eval[0];
    let mut one_shot = dec.compile(&probe.input).expect("embeds");
    let same = probe
        .ys
        .iter()
        .zip(&first_bits)
        .all(|((y, s), b)| one_shot.decode(y, ANNEALS, *s).best_bits() == *b);
    out.check("session_decode_equals_batch", same);
    out.attempted += out.checks.len() as u64;

    let n = durations.len();
    let success_ratio = out.success_ratio();
    out.end_to_end(EndToEnd {
        setup_s: setup.median_s(),
        durations: &durations,
        min_items: MIN_ITEMS,
        item_bits: &vec![(VECTORS * USERS * MODULATION.bits_per_symbol()) as f64; n],
        item_jobs: &vec![VECTORS as f64; n],
        ber: one_anneal_ber / problems as f64,
        success_ratio,
        quality_clock: Clock::None,
        deadline_rate: met as f64 / problems as f64,
        sim_latency_us: &sim,
    });
    out.note("best_of_na_bit_errors", errors);
    out.note("best_of_na_ber", errors as f64 / bits as f64);
    out.note(
        "solved_anneal_ratio",
        solved as f64 / (problems * ANNEALS) as f64,
    );
    out
}

/// The traced run: replays each evaluation item through the layers'
/// public functions and checks its bits against `decode_batch`.
pub fn trace(seed: u64, layers: &mut Layers) -> Outcome {
    let mut out = Outcome::default();
    params(&mut out);
    let dec = decoder();
    let annealer = Annealer::new(AnnealerConfig::default());
    let config = DecoderConfig::default();
    let graph = ChimeraGraph::dw2q_ideal();
    let mut spans = Spans::default();
    let (mut untraced, mut traced) = (0.0, 0.0);
    let mut tally = Tally::default();
    let sweeps = sweeps(&annealer, &config.schedule);
    let mut factorizations = 0;
    let items: Vec<Item> = (0..TRACE_ITEMS).map(|i| item(seed, i)).collect();
    for it in &items {
        let t = Instant::now();
        let reference = decode(&dec, it);
        untraced += t.elapsed().as_secs_f64();

        let f0 = quamax_linalg::factorization_count();
        let t = Instant::now();
        let h = &it.input.h;
        let bits: Vec<Vec<u8>> = spans.time("core.item", |spans| {
            let (gram, h_herm, compiled) = spans.time("core.compile", |spans| {
                let gram = h.gram();
                let h_herm = h.hermitian();
                let logical = spans.time("core.reduce", |_| {
                    let h_y = h_herm.mul_vec(&it.input.y);
                    ising_from_ml_amortized(h, &gram, &h_y, &it.input.y, MODULATION).0
                });
                let compiled = Compiled::new(&graph, &logical, config.embed, spans);
                (gram, h_herm, compiled)
            });
            spans.time("core.decode", |spans| {
                let mut programmed = Vec::with_capacity(VECTORS);
                for (y, s) in &it.ys {
                    let logical = spans.time("core.reduce", |_| {
                        let h_y = h_herm.mul_vec(y);
                        ising_from_ml_amortized(h, &gram, &h_y, y, MODULATION).0
                    });
                    let scratch = compiled.refresh(&logical, spans);
                    let mut rng = StdRng::seed_from_u64(*s);
                    let anneal_seed: u64 = rng.random();
                    programmed.push((scratch, logical, anneal_seed, rng));
                }
                let jobs: Vec<AnnealJob> = programmed
                    .iter()
                    .map(|(p, _, s, _)| AnnealJob {
                        problem: p,
                        init: None,
                        num_anneals: ANNEALS,
                        seed: *s,
                    })
                    .collect();
                let samples = compiled.anneal(&annealer, &config.schedule, &jobs, spans);
                drop(jobs);
                programmed
                    .into_iter()
                    .zip(samples)
                    .map(|((_, logical, _, mut rng), samples)| {
                        let ranked = compiled.rank(&logical, &samples, &mut rng, spans);
                        tally.add(&ranked, &compiled, sweeps);
                        let best = &ranked.distribution.entries()[0];
                        quamax_ising::spins_to_bits(&best.spins)
                            .chunks(MODULATION.bits_per_symbol())
                            .flat_map(quamax_bits_to_gray)
                            .collect()
                    })
                    .collect()
            })
        });
        traced += t.elapsed().as_secs_f64();
        factorizations += quamax_linalg::factorization_count() - f0;
        let same = bits
            .iter()
            .zip(&reference)
            .all(|(b, r)| *b == r.best_bits());
        out.check(
            &format!("replay_bits_equal_decode_batch_{}", out.checks.len()),
            same,
        );
    }
    out.attempted = (TRACE_ITEMS * 2) as u64 + out.checks.len() as u64;

    tally.report(&spans, 0, 0.0, layers);
    layers.set("core.compile.us", spans.mean_us("core.compile"));
    layers.set(
        "core.decode.self_us",
        spans.self_total("core.decode") * 1e6 / spans.count("core.decode") as f64,
    );
    layers.set(
        "linalg.factorizations_per_item",
        factorizations as f64 / TRACE_ITEMS as f64,
    );
    layers.set("trace.overhead_ratio", traced / untraced);
    out
}
