//! Property-based tests for the timing-analysis invariants.

use proptest::prelude::*;
use terse_netlist::builder::NetlistBuilder;
use terse_netlist::netlist::EndpointClass;
use terse_netlist::{GateKind, Netlist};
use terse_sta::analysis::Sta;
use terse_sta::delay::DelayLibrary;
use terse_sta::paths::PathEnumerator;
use terse_sta::statmin::statistical_min;
use terse_sta::variation::{VariationConfig, VariationModel};
use terse_sta::CanonicalRv;

/// A random layered DAG between one source FF and one sink FF.
fn random_dag(seed: u64, gates: usize) -> Netlist {
    let mut b = NetlistBuilder::new(1);
    let src = b.flip_flop("src", EndpointClass::Data, 0).unwrap();
    let mut pool = vec![src];
    let mut state = seed | 1;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    const KINDS: [GateKind; 5] = [
        GateKind::And,
        GateKind::Or,
        GateKind::Xor,
        GateKind::Nand,
        GateKind::Nor,
    ];
    for _ in 0..gates {
        let a = pool[(rnd() % pool.len() as u64) as usize];
        let c = pool[(rnd() % pool.len() as u64) as usize];
        let g = b.gate(KINDS[(rnd() % 5) as usize], &[a, c], 0).unwrap();
        pool.push(g);
    }
    let last = *pool.last().unwrap();
    let dst = b.flip_flop("dst", EndpointClass::Data, 0).unwrap();
    b.connect_ff_input(dst, last).unwrap();
    b.connect_ff_input(src, last).unwrap();
    b.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn block_arrival_equals_most_critical_path(seed in 1u64..5000, gates in 3usize..25) {
        // Block-based STA's endpoint arrival must equal the delay of the
        // most critical enumerated path — two independent computations.
        let n = random_dag(seed, gates);
        let lib = DelayLibrary::normalized_45nm();
        let sta = Sta::new(&n, &lib);
        let dst = n.bus("dst").unwrap()[0];
        let first = PathEnumerator::new(&sta, dst).unwrap().next().unwrap();
        let block = sta.endpoint_arrival(dst).unwrap();
        prop_assert!((first.delay_nominal(&sta) - block).abs() < 1e-9);
    }

    #[test]
    fn enumeration_is_sorted(seed in 1u64..5000, gates in 3usize..18) {
        let n = random_dag(seed, gates);
        let lib = DelayLibrary::normalized_45nm();
        let sta = Sta::new(&n, &lib);
        let dst = n.bus("dst").unwrap()[0];
        let delays: Vec<f64> = PathEnumerator::new(&sta, dst)
            .unwrap()
            .take(200)
            .map(|p| p.delay_nominal(&sta))
            .collect();
        for w in delays.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-9, "{} then {}", w[0], w[1]);
        }
    }

    #[test]
    fn slack_is_anti_monotone_in_frequency(seed in 1u64..1000, t1 in 200.0f64..1000.0, dt in 1.0f64..500.0) {
        let n = random_dag(seed, 10);
        let lib = DelayLibrary::normalized_45nm();
        let sta = Sta::new(&n, &lib);
        let dst = n.bus("dst").unwrap()[0];
        let s1 = sta.endpoint_slack(dst, t1).unwrap();
        let s2 = sta.endpoint_slack(dst, t1 + dt).unwrap();
        prop_assert!((s2 - s1 - dt).abs() < 1e-9);
    }

    #[test]
    fn path_delay_rv_mean_matches_nominal(seed in 1u64..2000, gates in 3usize..15) {
        let n = random_dag(seed, gates);
        let lib = DelayLibrary::normalized_45nm();
        let sta = Sta::new(&n, &lib);
        let model = VariationModel::new(&n, &lib, VariationConfig::default()).unwrap();
        let dst = n.bus("dst").unwrap()[0];
        for p in PathEnumerator::new(&sta, dst).unwrap().take(10) {
            let rv = p.delay_rv(&model, lib.clk_to_q, lib.setup);
            prop_assert!((rv.mean() - p.delay_nominal(&sta)).abs() < 1e-9);
            prop_assert!(rv.sd() >= 0.0);
        }
    }

    #[test]
    fn statistical_min_bounded_by_operands(
        means in prop::collection::vec(50.0f64..150.0, 2..12),
        seed in 0u64..1000,
    ) {
        let mut rng = terse_stats::rng::Xoshiro256::seed_from_u64(seed);
        let slacks: Vec<CanonicalRv> = means
            .iter()
            .map(|&m| {
                let coeffs = vec![rng.next_range(-1.0, 1.0), rng.next_range(-1.0, 1.0)];
                CanonicalRv::with_sensitivities(m, coeffs, rng.next_range(0.01, 2.0))
            })
            .collect();
        let min_mean = means.iter().copied().fold(f64::INFINITY, f64::min);
        let m = statistical_min(&slacks).unwrap();
        // E[min] ≤ min of means, and the result keeps a valid variance.
        prop_assert!(m.mean() <= min_mean + 1e-9);
        prop_assert!(m.variance() >= 0.0);
    }

    #[test]
    fn clark_max_bounds(m1 in -50.0f64..50.0, m2 in -50.0f64..50.0, s1 in 0.1f64..5.0, s2 in 0.1f64..5.0) {
        let a = CanonicalRv::with_sensitivities(m1, vec![s1], 0.0);
        let b = CanonicalRv::with_sensitivities(m2, vec![0.0], s2);
        let (mx, t) = a.stat_max(&b);
        // E[max] ≥ max of means; tightness is a probability.
        prop_assert!(mx.mean() >= m1.max(m2) - 1e-9);
        prop_assert!((0.0..=1.0).contains(&t));
        // min/max duality: E[min] + E[max] = E[A] + E[B].
        let (mn, _) = a.stat_min(&b);
        prop_assert!((mn.mean() + mx.mean() - (m1 + m2)).abs() < 1e-9);
    }
}
