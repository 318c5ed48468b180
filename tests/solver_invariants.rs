//! Cross-seed/cross-price invariants of the game solver: quantities that
//! must hold no matter what the stochastic optimizers do.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use netmeter_sentinel::pricing::{NetMeteringTariff, PriceSignal};
use netmeter_sentinel::sim::PaperScenario;
use netmeter_sentinel::solver::{nash_gap, GameConfig, GameEngine, ResponseConfig};
use netmeter_sentinel::types::TimeSeries;

fn community(seed: u64) -> netmeter_sentinel::smarthome::Community {
    let scenario = PaperScenario::small(10, seed);
    let generator = scenario.generator();
    let weather = scenario.weather_factors(1);
    generator.community_for_day(0, weather[0])
}

fn price_variants(
    horizon: netmeter_sentinel::types::Horizon,
) -> Vec<(&'static str, PriceSignal)> {
    vec![
        ("flat", PriceSignal::flat(horizon, 0.1).unwrap()),
        (
            "time-of-use",
            PriceSignal::time_of_use(horizon, 0.05, 0.25).unwrap(),
        ),
        (
            "sawtooth",
            PriceSignal::new(TimeSeries::from_fn(horizon, |h| {
                0.05 + 0.02 * (h % 5) as f64
            }))
            .unwrap(),
        ),
    ]
}

/// Total consumption is constraint-pinned: base load plus task energies,
/// regardless of the price shape, the seed, or the solver's randomness.
#[test]
fn consumption_is_conserved_across_prices_and_seeds() {
    for seed in [3u64, 17] {
        let community = community(seed);
        let expected: f64 = community
            .iter()
            .map(|c| c.base_load().total() + c.total_task_energy().value())
            .sum();
        for (label, prices) in price_variants(community.horizon()) {
            for solver_seed in [1u64, 2] {
                let engine = GameEngine::new(
                    &community,
                    &prices,
                    NetMeteringTariff::default(),
                    GameConfig::fast(),
                )
                .unwrap();
                let mut rng = ChaCha8Rng::seed_from_u64(solver_seed);
                let outcome = engine.solve(&mut rng).unwrap();
                let total = outcome.schedule.load().total().value();
                assert!(
                    (total - expected).abs() < 1e-6,
                    "seed {seed}/{solver_seed} {label}: consumed {total} vs tasks {expected}"
                );
            }
        }
    }
}

/// Energy balance per customer: trading = load − generation + battery delta,
/// summed over the horizon.
#[test]
fn per_customer_energy_balance_holds() {
    let community = community(5);
    let prices = PriceSignal::time_of_use(community.horizon(), 0.05, 0.25).unwrap();
    let engine = GameEngine::new(
        &community,
        &prices,
        NetMeteringTariff::default(),
        GameConfig::fast(),
    )
    .unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let outcome = engine.solve(&mut rng).unwrap();
    for (customer, plan) in community
        .iter()
        .zip(outcome.schedule.customer_schedules())
    {
        let traded: f64 = plan.trading().iter().sum();
        let load = plan.load().total().value();
        let generated: f64 = (0..24).map(|h| customer.generation(h).value()).sum();
        let battery_delta =
            plan.battery().last().unwrap().value() - plan.battery().first().unwrap().value();
        assert!(
            (traded - (load - generated + battery_delta)).abs() < 1e-6,
            "{}: traded {traded}, load {load}, generated {generated}, Δb {battery_delta}",
            customer.id()
        );
    }
}

/// The engine lands at a near-equilibrium: no customer can cut its bill by
/// more than a small share of the community's total by deviating alone.
#[test]
fn equilibrium_has_small_relative_nash_gap() {
    let community = community(9);
    let prices = PriceSignal::time_of_use(community.horizon(), 0.05, 0.25).unwrap();
    let engine =
        GameEngine::new(&community, &prices, NetMeteringTariff::default(), GameConfig::fast())
            .unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let outcome = engine.solve(&mut rng).unwrap();
    // Judged *relative to the money at stake*: with quadratic community
    // pricing a customer's bill runs to tens of dollars, so the gap is
    // compared with the total billed amount.
    let total_cost = {
        let engine = netmeter_sentinel::pricing::BillingEngine::new(
            prices.clone(),
            NetMeteringTariff::default(),
        );
        engine
            .total_revenue(&outcome.schedule)
            .unwrap()
            .value()
            .abs()
            .max(1.0)
    };
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let gap = nash_gap(
        &community,
        &outcome.schedule,
        &prices,
        NetMeteringTariff::default(),
        &ResponseConfig::fast(),
        &mut rng,
    )
    .unwrap();
    let relative = gap.max_improvement.value() / total_cost;
    assert!(
        relative < 0.05,
        "max improvement {} is {:.1}% of the {total_cost:.0} community bill",
        gap.max_improvement,
        relative * 100.0
    );
}
