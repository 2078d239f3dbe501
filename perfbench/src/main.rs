//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <xmark-local|xmark-wire|plan-skew> --seed N --seconds S --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics; with `--trace 1`
//! it measures the per-layer metrics, with spans around every call into
//! a layer (see `METRICS.md`). Human-readable lines come first; the last
//! line of standard output is the JSON result. Every query result is
//! checked against a reference computed by a different engine; a wrong
//! result makes the exit code 1.

mod layers;
mod run;
mod trace;
mod util;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use run::{
    check_wire_ids, closed_loop, closed_wire_loop, open_loop, prepare_all, setup, Drive, LADDER_QPS,
};
use util::{median, nproc, peak_rss_mb, percentile, reset_peak_rss, sorted};
use workloads::{Inputs, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} takes a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// A run's outcome: named metrics plus the operation tally.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN or infinity; -1 marks a metric with no samples.
            let value = if value.is_finite() { *value } else { -1.0 };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.wrong == 0,
            self.attempted,
            self.failed
        )
    }
}

/// Set-ups per run. The first is cold (fresh pages, first-touch
/// allocator growth) and is left out; the median of the rest is
/// reported.
const SETUP_REPEATS: usize = 9;

/// Local latency per distinct query, busiest first (at most 12).
fn print_per_query(inputs: &Inputs, per_query: &[Vec<f64>]) {
    let mut order: Vec<usize> = (0..per_query.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(per_query[i].len()));
    for &i in order.iter().take(12) {
        println!(
            "  local {:>6} x p50 {:>9.4} ms  {}",
            per_query[i].len(),
            median(&per_query[i]),
            inputs.queries[i].text
        );
    }
}

fn print_step(d: &Drive) {
    println!(
        "ladder {:>6.0} qps: {} sent, p95 {:.3} ms, tail lag {:.3} ms, failed {}, pass {}",
        d.rate,
        d.attempted,
        d.p(95.0),
        d.tail_lag_ms(),
        d.failed(),
        d.meets_limit()
    );
}

/// The end-to-end run, tracing off.
fn measure(inputs: &Inputs, args: &Args) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut peaks = Vec::new();
    let mut ready: Option<run::Ready> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = ready.take() {
            previous.shutdown();
        }
        // Each set-up's peak starts from what is live now: the inputs
        // and nothing of the generator or of earlier set-ups. The peak
        // is read at ready, before the measurement loops, whose sample
        // buffers grow with the program's speed.
        reset_peak_rss();
        let t0 = Instant::now();
        ready = Some(setup(inputs, None));
        setups.push(t0.elapsed().as_secs_f64());
        peaks.push(peak_rss_mb());
    }
    let ready = ready.expect("at least one set-up");
    println!("setup_s samples {setups:.4?}");
    println!("rss_mb samples {peaks:.1?}");
    let (setups, peaks) = (&setups[1..], &peaks[1..]);

    let s = args.seconds;
    let prepared = prepare_all(inputs, &ready.sessions);
    let addrs = ready.addrs();
    let closed = if inputs.served {
        closed_wire_loop(inputs, &addrs, 0.5 * s)
    } else {
        closed_loop(inputs, &ready.sessions, &prepared, 0.5 * s, None)
    };
    let lat = sorted(closed.lat_ms.clone());
    print_per_query(inputs, &closed.per_query);

    let base = open_loop(inputs, &addrs, LADDER_QPS[0], 0.4 * s, None);
    let mut best = &base;
    let mut steps = Vec::new();
    print_step(&base);
    if base.meets_limit() {
        for &rate in &LADDER_QPS[1..] {
            let step = open_loop(inputs, &addrs, rate, 0.1 * s / 3.0, None);
            print_step(&step);
            let pass = step.meets_limit();
            steps.push(step);
            if !pass {
                break;
            }
        }
        if let Some(last_pass) = steps.iter().rev().find(|d| d.meets_limit()) {
            best = last_pass;
        }
    }
    let (id_checks, id_wrong) = if inputs.served {
        (0, 0)
    } else {
        check_wire_ids(inputs, &addrs)
    };
    drop(prepared);
    ready.shutdown();

    report.add("setup_s", median(setups), "s");
    report.add("rss_mb", median(peaks), "MB");
    report.add("queries_per_s", closed.queries_per_s(), "1/s");
    report.add("query_p50_ms", percentile(&lat, 50.0), "ms");
    report.add("query_p99_ms", percentile(&lat, 99.0), "ms");
    report.add("wire_p50_ms", base.p(50.0), "ms");
    report.add("wire_p95_ms", base.p(95.0), "ms");
    report.add("wire_max_qps", best.achieved_qps(), "1/s");
    println!(
        "samples: setup {} (after the cold one), local queries {}, wire requests at base rate {}; wire_max_qps from the {:.0} qps step",
        setups.len(),
        lat.len(),
        base.answered.len(),
        best.rate
    );

    report.attempted = closed.attempted
        + base.attempted
        + steps.iter().map(|d| d.attempted).sum::<u64>()
        + id_checks;
    // A transport or server error (other than a BUSY refusal) is not a
    // correct answer either.
    report.wrong = closed.wrong
        + base.wrong
        + base.errors
        + steps.iter().map(|d| d.wrong + d.errors).sum::<u64>()
        + id_wrong;
    report.failed =
        closed.wrong + base.failed() + steps.iter().map(|d| d.failed()).sum::<u64>() + id_wrong;
    report
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let t0 = Instant::now();
    let inputs = Inputs::generate(&args.workload, args.seed).expect("workload name checked");
    println!(
        "workload {} seed {} seconds {} trace {} nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc()
    );
    println!(
        "inputs: {} (generated in {:.2} s)",
        inputs.describe(),
        t0.elapsed().as_secs_f64()
    );
    let report = if args.trace {
        layers::traced(&inputs, &args.workload, args.seed, args.seconds)
    } else {
        measure(&inputs, &args)
    };
    for (name, value, unit) in &report.metrics {
        println!("{name:<28} {value:>14.4} {unit}");
    }
    println!(
        "failed_frac {:.6} ratio ({} failed of {} attempted, {} wrong results)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted,
        report.wrong
    );
    println!("{}", report.json());
    if report.wrong > 0 {
        eprintln!("perfbench: {} wrong results", report.wrong);
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
