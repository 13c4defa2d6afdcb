//! Golden outputs of the compiled decode and VPP sessions.
//!
//! The session-equivalence tests compare two callers of one code path,
//! so they cannot see a changed RNG draw order, a reordered
//! reprogramming step or a different unembedding tie-break. These
//! tests pin fixed-seed outputs instead: the best bits, every
//! distribution entry's energy and count, and the chain-break fraction
//! of decode forward / reverse / batch runs for BPSK, QPSK and 16-QAM,
//! and the transmit power and perturbation of VPP forward, reverse
//! (warm-started from THP) and batch precodes. Energies and powers are
//! compared as raw `f64` bit patterns.

use quamax_anneal::{Annealer, AnnealerConfig, Schedule};
use quamax_core::{
    DecodeRun, DecodeSession, DecoderConfig, PrecodeInput, Precoder, Precoding, QuamaxDecoder,
    Scenario, ThpPrecoder, VppPrecoder, VppSession,
};
use quamax_linalg::CVector;
use quamax_wireless::{rayleigh_channel, Modulation, Snr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A handful of sweeps and the calibrated ICE model: fast in debug
/// builds, every anneal goes through the per-replica refreeze path, and
/// short anneals break chains, so unembedding tie-breaks are exercised.
fn annealer() -> Annealer {
    Annealer::new(AnnealerConfig {
        sweeps_per_us: 3.0,
        ..Default::default()
    })
}

fn config() -> DecoderConfig {
    DecoderConfig {
        schedule: Schedule::standard(1.0),
        ..Default::default()
    }
}

fn reverse() -> Schedule {
    Schedule::reverse(2.0, 0.6, 2.0)
}

/// FNV-1a over a byte stream.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One line per run: best bits, best energy, chain-break fraction, and
/// a digest of every ranked entry's spins, energy and count.
fn decode_line(run: &DecodeRun) -> String {
    let bits: String = run
        .best_bits()
        .iter()
        .map(|&b| char::from(b'0' + b))
        .collect();
    let entries = run.distribution().entries();
    let digest = fnv(entries.iter().flat_map(|e| {
        e.spins
            .iter()
            .map(|&s| s as u8)
            .chain(e.energy.to_bits().to_le_bytes())
            .chain((e.count as u64).to_le_bytes())
            .collect::<Vec<u8>>()
    }));
    format!(
        "bits={bits} e0={:016x} cbf={:016x} n={} dist={digest:016x}",
        entries[0].energy.to_bits(),
        run.chain_break_fraction().to_bits(),
        entries.len(),
    )
}

fn precode_line(p: &Precoding) -> String {
    let v: Vec<String> = (0..p.perturbation.len())
        .map(|i| format!("{}{:+}i", p.perturbation[i].re, p.perturbation[i].im))
        .collect();
    format!("power={:016x} v=[{}]", p.power.to_bits(), v.join(","))
}

/// Forward, reverse-from and batch decodes of one channel: a session,
/// three received vectors over it, and a candidate with one flipped bit.
fn decode_lines(modulation: Modulation, users: usize, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sc = Scenario::new(users, users, modulation).with_snr(Snr::from_db(12.0));
    let base = sc.sample(&mut rng);
    let decoder = QuamaxDecoder::new(annealer(), config());
    let mut session: DecodeSession = decoder.compile(&base.detection_input()).unwrap();
    let items: Vec<(CVector, u64)> = (0..3u64)
        .map(|k| {
            let inst = base.renoise(Snr::from_db(12.0), &mut rng);
            (inst.y().clone(), seed * 100 + k)
        })
        .collect();
    let mut candidate = base.tx_bits().to_vec();
    candidate[0] ^= 1;

    let mut lines = Vec::new();
    for (y, s) in &items {
        lines.push(format!("fwd {}", decode_line(&session.decode(y, 16, *s))));
    }
    for (y, s) in &items {
        let run = session.decode_reverse_from(y, 16, &candidate, &reverse(), *s);
        lines.push(format!("rev {}", decode_line(&run)));
    }
    for run in session.decode_batch(&items, 16) {
        lines.push(format!("bat {}", decode_line(&run)));
    }
    lines
}

fn precode_lines() -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(40);
    let input = PrecodeInput {
        h: rayleigh_channel(4, 4, &mut rng),
        modulation: Modulation::Qpsk,
    };
    // Longer anneals than the decode cases, so the annealed
    // perturbation beats the `v = 0` floor on some vectors.
    let vpp_config = DecoderConfig {
        schedule: Schedule::standard(5.0),
        ..Default::default()
    };
    let mut vpp: VppSession = VppPrecoder::new(annealer(), vpp_config, 16, 1)
        .compile(&input)
        .unwrap();
    let thp = ThpPrecoder.compile(&input).unwrap();
    let items: Vec<(CVector, u64)> = (0..4u64)
        .map(|k| {
            let bits: Vec<u8> = (0..input.num_bits())
                .map(|_| rng.random_range(0..2))
                .collect();
            (input.modulation.map_gray_vector(&bits), 4_000 + k)
        })
        .collect();

    let mut lines = Vec::new();
    for (u, s) in &items {
        lines.push(format!("fwd {}", precode_line(&vpp.precode(u, *s))));
    }
    for (u, s) in &items {
        let p = vpp.precode_reverse_from(u, &thp.perturbation(u), &reverse(), *s);
        lines.push(format!("rev {}", precode_line(&p)));
    }
    for p in vpp.precode_batch(&items) {
        lines.push(format!("bat {}", precode_line(&p)));
    }
    lines
}

fn check(name: &str, actual: &[String], expected: &[&str]) {
    let printed: Vec<String> = actual.iter().map(|l| format!("    \"{l}\",")).collect();
    assert_eq!(
        actual,
        expected,
        "{name} outputs moved; actual:\n{}",
        printed.join("\n")
    );
}

#[test]
fn bpsk_decode_outputs_are_pinned() {
    check(
        "bpsk",
        &decode_lines(Modulation::Bpsk, 12, 1),
        &[
        "fwd bits=100111010101 e0=c06cad74656f114d cbf=3f9aaaaaaaaaaaab n=11 dist=44c642d99e71c267",
        "fwd bits=100111010101 e0=c06c8308dc47ce25 cbf=3f95555555555555 n=9 dist=429768f1021d0b85",
        "fwd bits=100111010101 e0=c06cb5553555f231 cbf=3fa5555555555555 n=10 dist=845d44904e82870a",
        "rev bits=100111010101 e0=c06cad74656f114d cbf=0000000000000000 n=2 dist=23a526a62a480f96",
        "rev bits=100111010101 e0=c06c8308dc47ce25 cbf=0000000000000000 n=2 dist=2835ac2f4586cad6",
        "rev bits=100111010101 e0=c06cb5553555f231 cbf=0000000000000000 n=2 dist=90a1fc04afb7c927",
        "bat bits=100111010101 e0=c06cad74656f114d cbf=3f9aaaaaaaaaaaab n=11 dist=44c642d99e71c267",
        "bat bits=100111010101 e0=c06c8308dc47ce25 cbf=3f95555555555555 n=9 dist=429768f1021d0b85",
        "bat bits=100111010101 e0=c06cb5553555f231 cbf=3fa5555555555555 n=10 dist=845d44904e82870a",
    ],
    );
}

#[test]
fn qpsk_decode_outputs_are_pinned() {
    check(
        "qpsk",
        &decode_lines(Modulation::Qpsk, 6, 2),
        &[
        "fwd bits=110001010000 e0=c05d1a99f8f2bfbf cbf=3faaaaaaaaaaaaab n=7 dist=71a22a749882077f",
        "fwd bits=110001010000 e0=c05ca82c7c37761a cbf=3fa2aaaaaaaaaaab n=8 dist=4f17772d55f3af6b",
        "fwd bits=110001010000 e0=c05e8d1df877f626 cbf=3f95555555555555 n=4 dist=c910ffdccf8e4833",
        "rev bits=110001010000 e0=c05d1a99f8f2bfbf cbf=0000000000000000 n=1 dist=f0f59d5289b663b7",
        "rev bits=110001010000 e0=c05ca82c7c37761a cbf=0000000000000000 n=1 dist=197f54b48bdbf3e6",
        "rev bits=110001010000 e0=c05e8d1df877f626 cbf=0000000000000000 n=1 dist=208d374e02cbcb8a",
        "bat bits=110001010000 e0=c05d1a99f8f2bfbf cbf=3faaaaaaaaaaaaab n=7 dist=71a22a749882077f",
        "bat bits=110001010000 e0=c05ca82c7c37761a cbf=3fa2aaaaaaaaaaab n=8 dist=4f17772d55f3af6b",
        "bat bits=110001010000 e0=c05e8d1df877f626 cbf=3f95555555555555 n=4 dist=c910ffdccf8e4833",
    ],
    );
}

#[test]
fn qam16_decode_outputs_are_pinned() {
    check(
        "qam16",
        &decode_lines(Modulation::Qam16, 3, 3),
        &[
        "fwd bits=100111010001 e0=c065cf88dee27893 cbf=3fa2aaaaaaaaaaab n=15 dist=f1404816c8b3ff7a",
        "fwd bits=100111010001 e0=c062978467273285 cbf=3f9aaaaaaaaaaaab n=14 dist=c9bef561d3ad911d",
        "fwd bits=100011000001 e0=c062ceb57f5e9279 cbf=3fa2aaaaaaaaaaab n=15 dist=f6c3ff8b146b3bc6",
        "rev bits=100111000001 e0=c064e2457286cae1 cbf=0000000000000000 n=12 dist=8864ce3741721f84",
        "rev bits=100111010001 e0=c062978467273285 cbf=0000000000000000 n=11 dist=ba59a073dd4139aa",
        "rev bits=100111010001 e0=c0634da27d3502d0 cbf=0000000000000000 n=11 dist=d3cd257f6575f211",
        "bat bits=100111010001 e0=c065cf88dee27893 cbf=3fa2aaaaaaaaaaab n=15 dist=f1404816c8b3ff7a",
        "bat bits=100111010001 e0=c062978467273285 cbf=3f9aaaaaaaaaaaab n=14 dist=c9bef561d3ad911d",
        "bat bits=100011000001 e0=c062ceb57f5e9279 cbf=3fa2aaaaaaaaaaab n=15 dist=f6c3ff8b146b3bc6",
    ],
    );
}

#[test]
fn vpp_precode_outputs_are_pinned() {
    check(
        "vpp",
        &precode_lines(),
        &[
            "fwd power=4014ed9addd93e92 v=[0+0i,-1-1i,0+0i,1+0i]",
            "fwd power=4001b3d718db2a26 v=[0+0i,0+0i,0+0i,0+0i]",
            "fwd power=400e039f5558f5c0 v=[-1+0i,0-1i,0+0i,0+0i]",
            "fwd power=400abec4d28b6c6c v=[0-1i,1+0i,0+0i,0+0i]",
            "rev power=4014ac66bcf23347 v=[1+0i,-1+0i,0+0i,1+0i]",
            "rev power=4001b3d718db2a26 v=[0+0i,0+0i,0+0i,0+0i]",
            "rev power=400e039f5558f5c0 v=[-1+0i,0-1i,0+0i,0+0i]",
            "rev power=400abec4d28b6c6c v=[0-1i,1+0i,0+0i,0+0i]",
            "bat power=4014ed9addd93e92 v=[0+0i,-1-1i,0+0i,1+0i]",
            "bat power=4001b3d718db2a26 v=[0+0i,0+0i,0+0i,0+0i]",
            "bat power=400e039f5558f5c0 v=[-1+0i,0-1i,0+0i,0+0i]",
            "bat power=400abec4d28b6c6c v=[0-1i,1+0i,0+0i,0+0i]",
        ],
    );
}
