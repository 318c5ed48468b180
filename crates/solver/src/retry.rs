//! Retry-and-fallback chain for the battery optimizer.
//!
//! The cross-entropy method is stochastic: an unlucky stream or a hostile
//! objective can leave it unconverged (or, with corrupted inputs, facing
//! NaN costs). Instead of surfacing that as a panic deep inside the game
//! engine, [`solve_battery_robust`] drives a deterministic chain:
//!
//! 1. **Cross-entropy**, retried under a [`RetryPolicy`] — each retry
//!    reseeds the sampler and escalates the iteration budget;
//! 2. **Projected coordinate descent** (the deterministic ablation solver)
//!    when every CE attempt failed to converge or errored;
//! 3. **Pass-through** (the idle trajectory — schedule exactly the
//!    committed plan, no storage arbitrage) when even the deterministic
//!    solver cannot produce a finite cost.
//!
//! Whatever stage answers, the returned trajectory is never costlier than
//! the best iterate any earlier stage produced, and every fallback is
//! reported as a [`FallbackRecord`] for the caller's
//! [`RunHealth`](nms_types::RunHealth) ledger.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use nms_types::{FallbackRecord, Kwh, RetryPolicy, SolveBudget};

use crate::{
    coordinate_descent_battery, optimize_battery, BatteryProblem, CeConfig, CeSolution,
    CeWorkspace, CrossEntropyOptimizer, SolverError,
};

/// Coordinate-descent sweeps used by the fallback stage (matches the
/// ablation bench's setting).
const FALLBACK_SWEEPS: usize = 3;

/// Which stage of the chain produced the returned trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatterySolveStage {
    /// Cross-entropy converged (possibly after retries).
    CrossEntropy,
    /// Cross-entropy never converged, but its best iterate still beat the
    /// coordinate-descent fallback, so that iterate was kept.
    CrossEntropyBestIterate,
    /// Cross-entropy was abandoned; coordinate descent answered.
    CoordinateDescent,
    /// No solver produced a finite cost; the idle plan passed through.
    PassThrough,
}

impl BatterySolveStage {
    /// Stable label used in fallback records and reports.
    pub fn label(self) -> &'static str {
        match self {
            Self::CrossEntropy => "cross-entropy",
            Self::CrossEntropyBestIterate => "cross-entropy-best-iterate",
            Self::CoordinateDescent => "coordinate-descent",
            Self::PassThrough => "pass-through",
        }
    }
}

/// Result of [`solve_battery_robust`].
#[derive(Debug, Clone)]
pub struct RobustBatteryOutcome {
    /// The full `b⁰..b^H` trajectory (always hard-feasible).
    pub trajectory: Vec<Kwh>,
    /// Objective value of the returned trajectory.
    pub objective: f64,
    /// The stage that answered.
    pub stage: BatterySolveStage,
    /// Extra cross-entropy attempts consumed beyond the first.
    pub retries: usize,
    /// `true` when the watchdog [`SolveBudget`] stopped the cross-entropy
    /// stage early (recorded as `BudgetExceeded` in the fallback reason and
    /// counted by the caller's `RunHealth::budget_breaches`).
    pub budget_breached: bool,
    /// The fallback taken, when the chain descended past cross-entropy.
    pub fallback: Option<FallbackRecord>,
}

/// Runs the cross-entropy → coordinate-descent → pass-through chain on a
/// battery subproblem. Deterministic given `seed` and the policy (and a
/// budget without a wall-clock deadline).
///
/// The watchdog `budget` spans the whole cross-entropy stage: the
/// wall-clock deadline covers all retry attempts together, while the
/// iteration cap bounds each attempt. A breach abandons the stage
/// immediately — no further retries, since the budget is already spent —
/// and the chain descends to coordinate descent, keeping the best iterate
/// found so far as a candidate.
///
/// # Errors
///
/// Returns [`SolverError::Config`] when the policy, budget, or CE
/// configuration is invalid. Solver-stage failures do *not* error — they
/// descend the chain.
pub fn solve_battery_robust(
    problem: &BatteryProblem<'_>,
    base: &CeConfig,
    policy: &RetryPolicy,
    budget: &SolveBudget,
    warm_start: Option<&[f64]>,
    seed: u64,
) -> Result<RobustBatteryOutcome, SolverError> {
    policy.validate()?;
    base.validate()?;
    budget.validate()?;

    let clock = budget.start();
    let mut best_ce: Option<CeSolution> = None;
    let mut retries = 0;
    let mut budget_breached = false;
    let mut abandon_reason = String::new();
    let mut ws = CeWorkspace::default();
    for attempt in 0..policy.max_attempts {
        if attempt > 0 {
            retries += 1;
        }
        let config = CeConfig {
            max_iters: policy.budget(base.max_iters, attempt),
            ..*base
        };
        let optimizer = CrossEntropyOptimizer::new(config);
        let mut rng = ChaCha8Rng::seed_from_u64(policy.reseed(seed, attempt));
        match optimize_battery(
            problem,
            &optimizer,
            warm_start,
            &mut rng,
            Some(&clock),
            &mut ws,
        ) {
            Ok((trajectory, solution)) if solution.converged => {
                let objective = solution.objective;
                return Ok(RobustBatteryOutcome {
                    trajectory,
                    objective,
                    stage: BatterySolveStage::CrossEntropy,
                    retries,
                    budget_breached,
                    fallback: None,
                });
            }
            Ok((_, solution)) => {
                let breached = solution.budget_breached;
                abandon_reason = if breached {
                    format!(
                        "BudgetExceeded: {}",
                        clock
                            .breach(solution.iterations)
                            .unwrap_or_else(|| "watchdog budget exhausted".into())
                    )
                } else {
                    format!(
                        "did not converge within {} iterations over {} attempt(s)",
                        config.max_iters,
                        attempt + 1
                    )
                };
                let better = best_ce
                    .as_ref()
                    .is_none_or(|best| solution.objective < best.objective);
                if better {
                    best_ce = Some(solution);
                }
                if breached {
                    // The budget is spent; retrying would breach again.
                    budget_breached = true;
                    break;
                }
            }
            Err(err) => abandon_reason = err.to_string(),
        }
    }

    // Stage 2: deterministic coordinate descent. Keep whichever of the
    // fallback and the best (non-converged) CE iterate costs less, so
    // descending the chain can never make the schedule worse — and report
    // the stage that actually produced the kept schedule.
    let cd_trajectory = coordinate_descent_battery(problem, FALLBACK_SWEEPS);
    let cd_interior: Vec<f64> = cd_trajectory[1..].iter().map(|b| b.value()).collect();
    let cd_cost = problem.objective(&cd_interior);
    if cd_cost.is_finite() {
        let (trajectory, objective, stage) = match best_ce {
            Some(ce) if ce.objective < cd_cost => (
                problem.full_trajectory(&ce.point),
                ce.objective,
                BatterySolveStage::CrossEntropyBestIterate,
            ),
            _ => (cd_trajectory, cd_cost, BatterySolveStage::CoordinateDescent),
        };
        let reason = if stage == BatterySolveStage::CrossEntropyBestIterate {
            format!(
                "{abandon_reason}; kept the best non-converged iterate \
                 (cost {objective} beats coordinate descent's {cd_cost})"
            )
        } else {
            abandon_reason
        };
        return Ok(RobustBatteryOutcome {
            trajectory,
            objective,
            stage,
            retries,
            budget_breached,
            fallback: Some(FallbackRecord::new(
                "battery-optimizer",
                BatterySolveStage::CrossEntropy.label(),
                stage.label(),
                reason,
            )),
        });
    }

    // Stage 3: pass-through — keep the committed plan with the battery
    // idle. The objective may be non-finite (the inputs are that broken),
    // but the trajectory is feasible and the pipeline keeps moving.
    let idle = problem.idle_interior();
    let objective = problem.objective(&idle);
    Ok(RobustBatteryOutcome {
        trajectory: problem.full_trajectory(&idle),
        objective,
        stage: BatterySolveStage::PassThrough,
        retries,
        budget_breached,
        fallback: Some(FallbackRecord::new(
            "battery-optimizer",
            BatterySolveStage::CoordinateDescent.label(),
            BatterySolveStage::PassThrough.label(),
            format!("coordinate descent cost is non-finite ({cd_cost})"),
        )),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nms_pricing::{CostModel, NetMeteringTariff, PriceSignal};
    use nms_smarthome::Battery;
    use nms_types::{Horizon, TimeSeries};

    struct Fixture {
        prices: PriceSignal,
        load: TimeSeries<f64>,
        generation: TimeSeries<f64>,
        others: TimeSeries<f64>,
        battery: Battery,
    }

    impl Fixture {
        fn arbitrage() -> Self {
            let day = Horizon::hourly_day();
            let prices = PriceSignal::new(TimeSeries::from_fn(day, |h| {
                if (18..22).contains(&h) {
                    0.5
                } else if h < 6 {
                    0.02
                } else {
                    0.1
                }
            }))
            .unwrap();
            Self {
                prices,
                load: TimeSeries::filled(day, 1.0),
                generation: TimeSeries::filled(day, 0.0),
                others: TimeSeries::filled(day, 20.0),
                battery: Battery::new(Kwh::new(5.0), Kwh::ZERO).unwrap(),
            }
        }

        fn problem(&self) -> BatteryProblem<'_> {
            BatteryProblem::new(
                &self.battery,
                &self.load,
                &self.generation,
                &self.others,
                CostModel::new(&self.prices, NetMeteringTariff::default()),
            )
        }
    }

    #[test]
    fn converging_ce_answers_without_fallback() {
        let fixture = Fixture::arbitrage();
        let problem = fixture.problem();
        let outcome = solve_battery_robust(
            &problem,
            &CeConfig::default(),
            &RetryPolicy::default(),
            &SolveBudget::unlimited(),
            None,
            7,
        )
        .unwrap();
        assert_eq!(outcome.stage, BatterySolveStage::CrossEntropy);
        assert!(outcome.fallback.is_none());
        assert_eq!(outcome.retries, 0);
        fixture.battery.validate_trajectory(&outcome.trajectory).unwrap();
    }

    #[test]
    fn strangled_ce_falls_back_to_coordinate_descent() {
        let fixture = Fixture::arbitrage();
        let problem = fixture.problem();
        // One iteration with an unreachable collapse tolerance: CE can
        // never converge, so the chain must descend.
        let strangled = CeConfig {
            max_iters: 1,
            std_tol_fraction: 0.0,
            ..CeConfig::default()
        };
        let policy = RetryPolicy {
            max_attempts: 2,
            iteration_growth: 1.0,
            reseed_stride: 1,
        };
        let outcome =
            solve_battery_robust(&problem, &strangled, &policy, &SolveBudget::unlimited(), None, 7)
                .unwrap();
        assert_eq!(outcome.stage, BatterySolveStage::CoordinateDescent);
        assert_eq!(outcome.retries, 1);
        let record = outcome.fallback.as_ref().expect("fallback recorded");
        assert_eq!(record.component, "battery-optimizer");
        assert_eq!(record.from, "cross-entropy");
        assert_eq!(record.to, "coordinate-descent");

        // The fallback schedule is no worse than the non-converged CE
        // iterate it replaced (re-run stage 1 manually to compare).
        let optimizer = CrossEntropyOptimizer::new(CeConfig {
            max_iters: 1,
            ..strangled
        });
        let mut rng = ChaCha8Rng::seed_from_u64(policy.reseed(7, 0));
        let (_, ce_iterate) = optimize_battery(
            &problem,
            &optimizer,
            None,
            &mut rng,
            None,
            &mut CeWorkspace::default(),
        )
        .unwrap();
        assert!(
            outcome.objective <= ce_iterate.objective + 1e-12,
            "fallback {} vs CE iterate {}",
            outcome.objective,
            ce_iterate.objective
        );
        fixture.battery.validate_trajectory(&outcome.trajectory).unwrap();
    }

    #[test]
    fn nan_prices_pass_through_with_two_fallbacks_recorded() {
        let day = Horizon::hourly_day();
        // A price signal cannot carry NaN, but a corrupted load series can
        // poison every trading amount — and with it the whole objective.
        let fixture = Fixture::arbitrage();
        let poisoned_load = TimeSeries::filled(day, f64::NAN);
        let problem = BatteryProblem::new(
            &fixture.battery,
            &poisoned_load,
            &fixture.generation,
            &fixture.others,
            CostModel::new(&fixture.prices, NetMeteringTariff::default()),
        );
        let outcome = solve_battery_robust(
            &problem,
            &CeConfig::fast(),
            &RetryPolicy::default(),
            &SolveBudget::unlimited(),
            None,
            3,
        )
        .unwrap();
        assert_eq!(outcome.stage, BatterySolveStage::PassThrough);
        let record = outcome.fallback.expect("fallback recorded");
        assert_eq!(record.to, "pass-through");
        // The pass-through plan keeps the battery idle.
        assert!(outcome
            .trajectory
            .iter()
            .all(|&b| b == fixture.battery.initial_charge()));
    }

    #[test]
    fn budget_breach_abandons_retries_and_descends_the_chain() {
        let fixture = Fixture::arbitrage();
        let problem = fixture.problem();
        // CE cannot converge (unreachable tolerance) and the watchdog
        // allows a single iteration, so the first attempt breaches and the
        // remaining retries are skipped.
        let strangled = CeConfig {
            max_iters: 10,
            std_tol_fraction: 0.0,
            ..CeConfig::default()
        };
        let policy = RetryPolicy {
            max_attempts: 3,
            iteration_growth: 2.0,
            reseed_stride: 1,
        };
        let budget = SolveBudget {
            max_iterations: Some(1),
            max_wall_secs: None,
        };
        let outcome =
            solve_battery_robust(&problem, &strangled, &policy, &budget, None, 7).unwrap();
        assert!(outcome.budget_breached);
        assert_eq!(outcome.retries, 0, "breach must stop further attempts");
        let record = outcome.fallback.as_ref().expect("fallback recorded");
        assert!(
            record.reason.starts_with("BudgetExceeded"),
            "reason: {}",
            record.reason
        );
        fixture
            .battery
            .validate_trajectory(&outcome.trajectory)
            .unwrap();

        // An invalid budget is a config error, like an invalid policy.
        let bad = SolveBudget {
            max_iterations: Some(0),
            max_wall_secs: None,
        };
        assert!(matches!(
            solve_battery_robust(&problem, &strangled, &policy, &bad, None, 7),
            Err(SolverError::Config(_))
        ));
    }

    #[test]
    fn invalid_policy_is_a_config_error() {
        let fixture = Fixture::arbitrage();
        let problem = fixture.problem();
        let bad = RetryPolicy {
            max_attempts: 0,
            iteration_growth: 2.0,
            reseed_stride: 1,
        };
        assert!(matches!(
            solve_battery_robust(&problem, &CeConfig::fast(), &bad, &SolveBudget::unlimited(), None, 1),
            Err(SolverError::Config(_))
        ));
    }

    #[test]
    fn deterministic_under_seed() {
        let fixture = Fixture::arbitrage();
        let problem = fixture.problem();
        let run = || {
            solve_battery_robust(
                &problem,
                &CeConfig::fast(),
                &RetryPolicy::default(),
                &SolveBudget::unlimited(),
                None,
                11,
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.objective, b.objective);
        assert_eq!(a.trajectory, b.trajectory);
    }
}
