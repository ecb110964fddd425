//! Design-space exploration: how do the overclock factor and the error
//! correction scheme trade error rate against performance for one
//! application? This is the decision a TS-processor designer actually makes
//! with the paper's framework (its motivation for "application-specific
//! analysis").
//!
//! ```text
//! cargo run --release -p terse --example design_space [benchmark]
//! ```

use terse::{CorrectionScheme, Framework, OperatingConfig, TsPerformanceModel};
use terse_workloads::DatasetSize;

fn main() -> Result<(), terse::TerseError> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "gsm.encode".into());
    let spec = terse_workloads::by_name(&name)
        .unwrap_or_else(|| panic!("unknown benchmark `{name}` — see terse_workloads::all()"));
    let samples = 3;
    println!("# design-space exploration for `{name}`");
    println!(
        "{:>9} {:>10} {:>10} | {:>26} {:>26}",
        "overclock", "rate%", "sd%", "speedup (replay, 24 cyc)", "speedup (bubbles, 6 cyc)"
    );
    let mut best: Option<(f64, f64)> = None;
    for oc in [1.20, 1.25, 1.29, 1.33, 1.37, 1.41] {
        let framework = Framework::builder()
            .samples(samples)
            .operating(OperatingConfig {
                overclock: oc,
                ..OperatingConfig::default()
            })
            .build()?;
        let workload = spec.workload(DatasetSize::Large, samples, 0xDAC19)?;
        let report = framework.run(&workload)?;
        let rate = report.estimate.mean_error_rate();
        let replay = TsPerformanceModel {
            overclock: oc,
            penalty_cycles: CorrectionScheme::paper_default().penalty_cycles() as f64,
        };
        // A Razor-II-style bubble scheme: only its per-error penalty enters
        // the performance model.
        let bubbles = TsPerformanceModel {
            overclock: oc,
            penalty_cycles: 6.0,
        };
        println!(
            "{:>9.2} {:>10.4} {:>10.4} | {:>26.4} {:>26.4}",
            oc,
            rate * 100.0,
            report.estimate.sd_error_rate_percent(),
            replay.speedup(rate),
            bubbles.speedup(rate)
        );
        let s = replay.speedup(rate);
        if best.is_none_or(|(_, b)| s > b) {
            best = Some((oc, s));
        }
    }
    if let Some((oc, s)) = best {
        println!(
            "\nbest replay-scheme operating point for `{name}`: {oc:.2}x (speedup {s:.4}) — \
             the application-specific optimum the paper argues for"
        );
    }
    Ok(())
}
