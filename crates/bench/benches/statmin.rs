//! **Ablation A** (timing) — pairwise statistical-min ordering strategies
//! (Sinha et al. [21] in the paper). Accuracy is compared in the unit tests
//! of `terse-sta::statmin`; this bench measures cost, including the
//! rescan-every-round greedy of `oracle::statmin` that the incremental
//! `MaxCorrelationFirst` replaces.

use criterion::{criterion_group, criterion_main, Criterion};
use oracle::statmin::max_correlation_first;
use terse_sta::statmin::{statistical_min, MinOrdering};
use terse_sta::CanonicalRv;
use terse_stats::rng::Xoshiro256;

fn slack_set(n: usize, vars: usize, seed: u64) -> Vec<CanonicalRv> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let coeffs: Vec<f64> = (0..vars).map(|_| rng.next_range(-0.5, 0.5)).collect();
            CanonicalRv::with_sensitivities(
                rng.next_range(90.0, 110.0),
                coeffs,
                rng.next_range(0.1, 1.0),
            )
        })
        .collect()
}

fn bench_statmin(c: &mut Criterion) {
    for n in [8usize, 32, 64] {
        let slacks = slack_set(n, 22, 7);
        let mut group = c.benchmark_group(format!("statmin/{n}_operands"));
        for (name, ordering) in [
            ("input_order", MinOrdering::InputOrder),
            ("ascending_mean", MinOrdering::AscendingMean),
            ("max_correlation", MinOrdering::MaxCorrelationFirst),
        ] {
            group.bench_function(name, |b| {
                b.iter(|| statistical_min(&slacks, ordering).unwrap())
            });
        }
        group.bench_function("max_correlation_rescan", |b| {
            b.iter(|| max_correlation_first(&slacks).unwrap())
        });
        group.finish();
    }
}

criterion_group!(benches, bench_statmin);
criterion_main!(benches);
