//! The QuAMax benchmark. Runs one workload for a fixed time, checks its
//! outputs, and prints a run record line followed by the result line:
//!
//! ```text
//! quamax-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of an untraced run;
//! `--trace 1` replays the workload through the layers' public
//! functions and reports the per-layer metrics. Workloads, metrics and
//! the layer-to-end-to-end predictions are described in `METRICS.md`.

mod coded;
mod layers;
mod metro;
mod replay;
mod report;
mod spans;
mod uplink;
mod vpp;

use layers::{Layers, LAYER_METRICS};
use report::{peak_rss_mib, result_line, run_record, Clock, Outcome};

const WORKLOADS: [&str; 4] = [
    "uplink_48x48_bpsk",
    "coded_idd_8x8_qpsk",
    "downlink_vpp_4x4_qpsk",
    "metro_duplex",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("quamax-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = if args.trace {
        let mut layers = Layers::default();
        let mut out = match args.workload.as_str() {
            "uplink_48x48_bpsk" => uplink::trace(args.seed, &mut layers),
            "coded_idd_8x8_qpsk" => coded::trace(args.seed, &mut layers),
            "downlink_vpp_4x4_qpsk" => vpp::trace(args.seed, &mut layers),
            _ => metro::trace(args.seed, &mut layers),
        };
        for m in LAYER_METRICS {
            let clock = if m.unit == "us" || m.unit == "ns" || m.unit == "1/s" {
                Clock::Host
            } else {
                Clock::None
            };
            out.metric(m.name, layers.get(m.name).unwrap_or(0.0), m.unit, clock);
        }
        out
    } else {
        let mut out: Outcome = match args.workload.as_str() {
            "uplink_48x48_bpsk" => uplink::run(args.seed, args.seconds),
            "coded_idd_8x8_qpsk" => coded::run(args.seed, args.seconds),
            "downlink_vpp_4x4_qpsk" => vpp::run(args.seed, args.seconds),
            _ => metro::run(args.seed, args.seconds),
        };
        out.metric("peak_rss_mib", peak_rss_mib(), "MiB", Clock::Host);
        out
    };
    println!(
        "{}",
        run_record(&args.workload, args.seed, args.seconds, args.trace, &out)
    );
    println!("{}", result_line(&out));
}
