//! `coded_idd_8x8_qpsk`: the `bench_idd` frame. A rate-1/2 K=7 code
//! plus block interleaver carries a 114-bit payload over 15 uses of
//! 8×8 QPSK at 5 dB, each use on a fresh channel compiled through
//! `DetectorKind::compile_soft`. QuAMax runs 6 anneals at 3 sweeps/µs
//! and `CodedFrame::run_idd` up to 3 iterations. One item is one frame.

use crate::layers::Layers;
use crate::replay::{item_sim_us, sweeps, Compiled, Hits, Tally};
use crate::report::{closed_loop, mix, Clock, EndToEnd, Outcome, SetupClock};
use crate::spans::Spans;
use quamax_anneal::{AnnealJob, Annealer, AnnealerConfig, Schedule};
use quamax_chimera::ChimeraGraph;
use quamax_core::coded::{IddOutcome, IddSpec};
use quamax_core::detect::BackendStats;
use quamax_core::{
    ising_from_ml, BitErrorProfile, CodedFrame, DecoderConfig, DetectionInput, DetectorKind,
    Instance, SoftSpec,
};
use quamax_ising::exact_ground_state;
use quamax_ran::Deadline;
use quamax_wireless::coding::BlockInterleaver;
use quamax_wireless::{rayleigh_channel, ConvolutionalCode, Modulation, Snr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

const USERS: usize = 8;
const MODULATION: Modulation = Modulation::Qpsk;
const PAYLOAD: usize = 114; // 240 coded bits = exactly 15 uses of 16
const SNR_DB: f64 = 5.0;
const ANNEALS: usize = 6;
const SWEEPS_PER_US: f64 = 3.0;
const MAX_ITERS: usize = 3;
const EVAL_ITEMS: usize = 150;
/// Detections per use, each of `ANNEALS` anneals with its own seed,
/// whose pooled samples estimate the use's success probability for the
/// sim clock (6 anneals alone give too few solved samples per frame).
const SIM_DETECTIONS: u64 = 10;
const MIN_ITEMS: usize = 150;

struct Setup {
    frame: CodedFrame,
    kind: DetectorKind,
    spec: SoftSpec,
    idd: IddSpec,
    snr: Snr,
}

/// One device thread per call, as `bench_idd` runs it when it shards
/// frames across cores: a 6-anneal batch of a 16-variable problem is
/// too small to pay for a thread spawn.
fn annealer() -> Annealer {
    Annealer::new(AnnealerConfig {
        sweeps_per_us: SWEEPS_PER_US,
        threads: 1,
        ..Default::default()
    })
}

fn config() -> DecoderConfig {
    DecoderConfig {
        schedule: Schedule::standard(1.0),
        ..Default::default()
    }
}

fn setup() -> Setup {
    let snr = Snr::from_db(SNR_DB);
    Setup {
        frame: CodedFrame::new(USERS, MODULATION, PAYLOAD),
        kind: DetectorKind::quamax(annealer(), config(), ANNEALS),
        spec: SoftSpec::noise_matched(snr, MODULATION),
        idd: IddSpec::new(MAX_ITERS),
        snr,
    }
}

/// A frame's payload and its `run_idd` seed.
fn item(seed: u64, i: usize, frame: &CodedFrame) -> (Vec<u8>, u64) {
    let mut rng = StdRng::seed_from_u64(mix(seed, i as u64));
    (frame.random_payload(&mut rng), rng.random())
}

/// One channel use: what the detector sees, the bits sent, and the
/// detection seed.
type Use = (DetectionInput, Vec<u8>, u64);

/// The frame's channel uses with `run_idd`'s RNG discipline: channel,
/// transmit noise, then the detection seed, per use.
fn uses(s: &Setup, payload: &[u8], seed: u64) -> Vec<Use> {
    let mut rng = StdRng::seed_from_u64(seed);
    let tx = s.frame.tx_stream(payload);
    tx.chunks(s.frame.bits_per_use())
        .map(|chunk| {
            let h = rayleigh_channel(USERS, USERS, &mut rng);
            let inst = Instance::transmit(h, chunk.to_vec(), MODULATION, Some(s.snr), &mut rng);
            (inst.detection_input(), chunk.to_vec(), rng.random())
        })
        .collect()
}

fn params(out: &mut Outcome) {
    out.param("users", USERS);
    out.param_str("modulation", MODULATION.name());
    out.param("payload_bits", PAYLOAD);
    out.param("uses_per_frame", 15);
    out.param_str("code", "rate-1/2 K=7 (133/171) + block interleaver");
    out.param("snr_db", SNR_DB);
    out.param("anneals", ANNEALS);
    out.param("sweeps_per_us", SWEEPS_PER_US);
    out.param("max_iters", MAX_ITERS);
    out.param("eval_items", EVAL_ITEMS);
}

/// The exact ML objective `‖y − Hx‖²` of one use, by exhaustive search
/// over its 16 spins: the reference an anneal must reach to count as
/// solved.
fn ml_objective(input: &DetectionInput) -> f64 {
    let (logical, offset) = ising_from_ml(&input.h, &input.y, MODULATION);
    exact_ground_state(&logical).energy + offset
}

/// A frame's modelled QPU time (µs, from the anneal statistics of each
/// use's first-iteration detection, repeated `SIM_DETECTIONS` times,
/// against its exact ML objective), the summed one-anneal expected BER
/// (Eq. 9 at Na = 1) of its uses' first detections, how many uses'
/// TTS99 fit the LTE budget, and the anneals that reached ML.
fn frame_sim(s: &Setup, frame_uses: &[Use]) -> (f64, f64, usize, usize) {
    let cycle_us = config().schedule.total_time_us();
    let (mut hits, mut ber, mut met, mut solved) = (Vec::new(), 0.0, 0, 0);
    for (input, tx, det_seed) in frame_uses {
        let mut session = s.kind.compile_soft(input, s.spec).expect("8x8 compiles");
        let ml = ml_objective(input);
        let mut h = Hits::default();
        for k in 0..SIM_DETECTIONS {
            let soft = session
                .detect_soft(&input.y, mix(*det_seed, k))
                .expect("detects");
            let BackendStats::Annealed(run) = &soft.stats else {
                panic!("the quamax backend reports its anneal run");
            };
            let one = Hits::count(run.distribution(), run.ml_offset(), ml);
            h.hits += one.hits;
            h.anneals += one.anneals;
            if k == 0 {
                ber += BitErrorProfile::from_run(run, tx).expected_ber(1);
            }
        }
        met += usize::from(h.meets(cycle_us, Deadline::Lte.budget_us()));
        solved += h.hits;
        hits.push(h);
    }
    (item_sim_us(&hits, cycle_us), ber, met, solved)
}

pub fn run(seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    params(&mut out);
    let (mut clock, (s, eval, eval_uses)) = SetupClock::new(|| {
        let st = setup();
        let eval: Vec<(Vec<u8>, u64)> = (0..EVAL_ITEMS).map(|i| item(seed, i, &st.frame)).collect();
        let eval_uses: Vec<Vec<Use>> = eval.iter().map(|(p, fs)| uses(&st, p, *fs)).collect();
        (st, eval, eval_uses)
    });

    let mut outcomes: Vec<IddOutcome> = Vec::with_capacity(EVAL_ITEMS);
    let durations = closed_loop(Duration::from_secs(seconds), MIN_ITEMS, &mut clock, |i| {
        let (payload, frame_seed) = eval
            .get(i)
            .cloned()
            .unwrap_or_else(|| item(seed, i, &s.frame));
        let t = Instant::now();
        let r = s
            .frame
            .run_idd(&s.kind, s.spec, s.idd, s.snr, &payload, frame_seed);
        let dt = t.elapsed().as_secs_f64();
        match r {
            Ok(o) if i < EVAL_ITEMS => outcomes.push(o),
            Ok(_) => {}
            Err(e) => {
                eprintln!("frame {i}: {e}");
                out.errors += 1;
            }
        }
        dt
    });
    out.attempted = durations.len() as u64;

    // Check: IDD iteration 1 is the plain soft pipeline.
    let (payload, frame_seed) = &eval[0];
    let plain = s.frame.run(&s.kind, s.spec, s.snr, payload, *frame_seed);
    out.check(
        "idd_iteration1_equals_run",
        matches!((&plain, outcomes.first()), (Ok(p), Some(o)) if p.soft_payload == o.iterations[0].payload),
    );
    out.attempted += out.checks.len() as u64;

    let payload_errors: usize = outcomes.iter().map(|o| o.last().payload_errors).sum();
    let raw_errors: usize = outcomes.iter().map(|o| o.last().raw_errors).sum();
    let raw_bits: usize = outcomes.iter().map(|o| o.raw_bits).sum();
    let (mut tts, mut ber_sum, mut met, mut solved) = (Vec::new(), 0.0, 0, 0);
    for frame_uses in &eval_uses {
        let (t, b, m, h) = frame_sim(&s, frame_uses);
        tts.push(t);
        ber_sum += b;
        met += m;
        solved += h;
    }
    let problems = (EVAL_ITEMS * s.frame.uses()) as f64;

    let n = durations.len();
    let success_ratio = out.success_ratio();
    out.end_to_end(EndToEnd {
        setup_s: clock.median_s(),
        durations: &durations,
        min_items: MIN_ITEMS,
        item_bits: &vec![PAYLOAD as f64; n],
        item_jobs: &vec![s.frame.uses() as f64; n],
        ber: ber_sum / problems,
        success_ratio,
        quality_clock: Clock::None,
        deadline_rate: met as f64 / problems,
        sim_latency_us: &tts,
    });
    out.note("payload_bit_errors", payload_errors);
    out.note(
        "payload_ber_last_iteration",
        payload_errors as f64 / (outcomes.len() * PAYLOAD) as f64,
    );
    out.note(
        "solved_anneal_ratio",
        solved as f64 / (problems * (SIM_DETECTIONS as usize * ANNEALS) as f64),
    );
    out.note(
        "raw_ber_last_iteration",
        raw_errors as f64 / raw_bits.max(1) as f64,
    );
    out
}

/// The traced run: replays each evaluation frame's IDD loop through
/// the public session, SISO and interleaver calls (checked against
/// `run_idd`), and each forward problem through the anneal pipeline's
/// layers.
pub fn trace(seed: u64, layers: &mut Layers) -> Outcome {
    let mut out = Outcome::default();
    params(&mut out);
    let s = setup();
    let code = ConvolutionalCode;
    let bpu = s.frame.bits_per_use();
    let interleaver = BlockInterleaver::new(bpu, s.frame.uses());
    let code_len = code.coded_len(PAYLOAD);
    let graph = ChimeraGraph::dw2q_ideal();
    let annealer = annealer();
    let cfg = config();
    let reverse = cfg.schedule.reverse_matched(s.spec.reverse_s_target);
    let mut spans = Spans::default();
    let (mut untraced, mut traced) = (0.0, 0.0);
    let (mut iters, mut early) = (0usize, 0usize);
    let mut tally = Tally::default();
    let sweeps = sweeps(&annealer, &cfg.schedule);
    let reverse_sweeps = reverse.sweep_fractions(SWEEPS_PER_US).len();
    let (mut factorizations, mut reverse_anneals, mut reverse_updates) = (0u64, 0usize, 0.0);
    for i in 0..EVAL_ITEMS {
        let (payload, frame_seed) = item(seed, i, &s.frame);
        let t = Instant::now();
        let reference = s
            .frame
            .run_idd(&s.kind, s.spec, s.idd, s.snr, &payload, frame_seed)
            .expect("frame runs");
        untraced += t.elapsed().as_secs_f64();

        let f0 = quamax_linalg::factorization_count();
        let t = Instant::now();
        let frame_uses = uses(&s, &payload, frame_seed);
        let mut sessions: Vec<_> = frame_uses
            .iter()
            .map(|(input, _, _)| {
                spans.time("core.compile", |_| {
                    s.kind.compile_soft(input, s.spec).expect("8x8 compiles")
                })
            })
            .collect();
        let mut priors = vec![0.0f64; s.frame.coded_len()];
        let mut payloads: Vec<Vec<u8>> = Vec::new();
        for iter in 0..MAX_ITERS {
            let mut extrinsic = Vec::with_capacity(s.frame.coded_len());
            for (u, ((input, _, base), session)) in frame_uses.iter().zip(&mut sessions).enumerate()
            {
                let det_seed = *base ^ (iter as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let name = if iter == 0 {
                    "core.detect_soft"
                } else {
                    "core.detect_prior"
                };
                let soft = spans.time(name, |_| {
                    session.detect_soft_with_priors(
                        &input.y,
                        &priors[u * bpu..(u + 1) * bpu],
                        det_seed,
                    )
                });
                extrinsic.extend_from_slice(&soft.expect("detects").extrinsic);
            }
            let siso = spans.time("wireless.siso", |_| {
                let de = interleaver.deinterleave(&extrinsic);
                code.decode_siso(&de[..code_len])
            });
            let fixed_point = payloads.last() == Some(&siso.data);
            payloads.push(siso.data);
            if iter + 1 == MAX_ITERS {
                break;
            }
            if s.idd.early_exit && fixed_point {
                early += 1;
                break;
            }
            let mut code_priors = vec![-s.spec.max_llr; s.frame.coded_len()];
            for (slot, &e) in code_priors.iter_mut().zip(&siso.extrinsic) {
                *slot = (s.idd.damping * e).clamp(-s.spec.max_llr, s.spec.max_llr);
            }
            priors = interleaver.interleave(&code_priors);
        }
        traced += t.elapsed().as_secs_f64();
        factorizations += quamax_linalg::factorization_count() - f0;
        iters += payloads.len();
        let same = payloads.len() == reference.iters_run()
            && payloads
                .iter()
                .zip(&reference.iterations)
                .all(|(p, r)| *p == r.payload);
        out.check(&format!("replay_equals_run_idd_{i}"), same);

        // The anneal pipeline's layers on each forward problem, plus a
        // reverse anneal from its best forward state (the IDD warm
        // start's shape).
        for (input, _, det_seed) in &frame_uses {
            let logical = spans.time("core.reduce", |_| {
                ising_from_ml(&input.h, &input.y, MODULATION).0
            });
            let compiled = Compiled::new(&graph, &logical, cfg.embed, &mut spans);
            let scratch = compiled.refresh(&logical, &mut spans);
            let mut rng = StdRng::seed_from_u64(*det_seed);
            let job = AnnealJob {
                problem: &scratch,
                init: None,
                num_anneals: ANNEALS,
                seed: rng.random(),
            };
            let samples = compiled.anneal(&annealer, &cfg.schedule, &[job], &mut spans);
            let ranked = compiled.rank(&logical, &samples[0], &mut rng, &mut spans);
            let candidate = &ranked.distribution.entries()[0].spins;
            let mut physical_state = vec![0i8; compiled.embedded.num_physical()];
            for (c, chain) in compiled.embedded.chains().iter().enumerate() {
                for &d in chain {
                    physical_state[d] = candidate[c];
                }
            }
            spans.time("anneal.run", |_| {
                annealer.run_reverse_compiled(
                    &scratch,
                    &compiled.chains,
                    &physical_state,
                    &reverse,
                    ANNEALS,
                    rng.random(),
                )
            });
            reverse_anneals += ANNEALS;
            reverse_updates += (ANNEALS * reverse_sweeps * compiled.embedded.num_physical()) as f64;
            tally.add(&ranked, &compiled, sweeps);
        }
    }
    out.attempted = (EVAL_ITEMS * 2) as u64 + out.checks.len() as u64;

    tally.report(&spans, reverse_anneals, reverse_updates, layers);
    layers.set("core.compile.us", spans.mean_us("core.compile"));
    layers.set("core.detect_soft.us", spans.mean_us("core.detect_soft"));
    layers.set("core.detect_prior.us", spans.mean_us("core.detect_prior"));
    layers.set("wireless.siso.us", spans.mean_us("wireless.siso"));
    layers.set("core.idd.iters_mean", iters as f64 / EVAL_ITEMS as f64);
    layers.set(
        "core.idd.early_exit_ratio",
        early as f64 / EVAL_ITEMS as f64,
    );
    layers.set(
        "linalg.factorizations_per_item",
        factorizations as f64 / EVAL_ITEMS as f64,
    );
    layers.set("trace.overhead_ratio", traced / untraced);
    out
}
