//! The community-level best-response iteration (Algorithm 1's outer loop).
//!
//! Customers share their trading amounts `y_n^h`; each in turn re-solves
//! Problem P1 against the aggregate of the others, until the largest
//! per-slot trading change across a full round falls under a tolerance
//! (Gauss–Seidel), or for a fixed number of Jacobi rounds when running the
//! parallel variant.

use nms_obs::{names, span, NoopRecorder, Recorder, TraceEvent};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use nms_par::Parallelism;
use nms_pricing::{CostModel, NetMeteringTariff, PriceSignal};
use nms_smarthome::{Community, CommunitySchedule, Customer, CustomerSchedule};
use nms_types::{Fnv1a, ValidateError};

use crate::batch::BatchResponseWorkspace;
use crate::cache::{schedule_fingerprint, PersistentCache, PersistentKey, COLD_WARM_FP};
use crate::{best_response_in, ResponseConfig, ResponseWorkspace, SolverError};

/// Configuration for [`GameEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GameConfig {
    /// Maximum outer rounds over all customers.
    pub max_rounds: usize,
    /// Convergence tolerance on the largest per-slot trading change (kWh).
    pub tolerance: f64,
    /// Per-customer best-response settings.
    pub response: ResponseConfig,
    /// Worker threads for parallel Jacobi rounds; `threads == 1` selects
    /// the sequential Gauss–Seidel iteration (better convergence, the
    /// paper's formulation). Configurations serialized before this knob
    /// existed load as sequential.
    #[serde(default)]
    pub parallelism: Parallelism,
    /// Accepted and validated, but ignored. It once keyed an unverified
    /// per-solve memo cache on quantized inputs; that cache is gone, and
    /// exact-verified memoization is opt-in through
    /// [`GameEngine::solve_with`] (DESIGN.md §15). Kept so serialized
    /// configurations keep loading.
    #[serde(default)]
    pub cache_quantum: f64,
}

impl GameConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] on zero rounds/threads, a non-positive
    /// tolerance, a negative or non-finite cache quantum, or an invalid
    /// response configuration.
    pub fn validate(&self) -> Result<(), ValidateError> {
        if self.max_rounds == 0 {
            return Err(ValidateError::new("need at least one round"));
        }
        if !(self.tolerance > 0.0 && self.tolerance.is_finite()) {
            return Err(ValidateError::new("tolerance must be positive"));
        }
        self.parallelism.validate().map_err(ValidateError::new)?;
        if !(self.cache_quantum >= 0.0 && self.cache_quantum.is_finite()) {
            return Err(ValidateError::new(
                "cache quantum must be finite and non-negative",
            ));
        }
        self.response.validate()
    }

    /// A faster preset for large-community simulations.
    pub fn fast() -> Self {
        Self {
            max_rounds: 6,
            tolerance: 0.05,
            response: ResponseConfig::fast(),
            parallelism: Parallelism::SEQUENTIAL,
            cache_quantum: 0.0,
        }
    }
}

impl Default for GameConfig {
    fn default() -> Self {
        Self {
            max_rounds: 12,
            tolerance: 0.01,
            response: ResponseConfig::default(),
            parallelism: Parallelism::SEQUENTIAL,
            cache_quantum: 0.0,
        }
    }
}

/// Hit/miss counters for the best-response memo cache.
///
/// All-zero for solves without a [`PersistentCache`]. With one, every
/// best-response invocation is tallied exactly once, so `hits + misses`
/// equals customers × rounds.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Invocations answered from the cache.
    pub hits: usize,
    /// Invocations that ran the full DP + CE best response.
    pub misses: usize,
    /// Misses that never consulted the cache because the response is not
    /// cacheable (battery-active customers); a subset of `misses`.
    #[serde(default)]
    pub ineligible: usize,
    /// Hits per round (index = zero-based round); divide by the customer
    /// count for a per-round hit rate.
    pub hits_by_round: Vec<usize>,
}

impl CacheStats {
    /// Overall hit fraction; `0.0` when nothing was tallied.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Result of solving the scheduling game.
#[derive(Debug, Clone)]
pub struct GameOutcome {
    /// The converged (or last-round) community schedule.
    pub schedule: CommunitySchedule,
    /// Rounds executed.
    pub rounds: usize,
    /// Whether the tolerance was met before `max_rounds`.
    pub converged: bool,
    /// Largest per-slot trading change after each round (kWh).
    pub history: Vec<f64>,
    /// Best-response memo cache tallies (all-zero without a persistent
    /// cache).
    pub cache: CacheStats,
}

/// Solves the Net Metering Aware Energy Consumption Scheduling Game for a
/// community under a guideline price (paper §3.1).
///
/// # Examples
///
/// See `tests/game_prediction.rs` for an end-to-end run; unit tests below
/// exercise two-customer communities.
#[derive(Debug)]
pub struct GameEngine<'a> {
    community: &'a Community,
    prices: &'a PriceSignal,
    tariff: NetMeteringTariff,
    config: GameConfig,
}

impl<'a> GameEngine<'a> {
    /// Binds a community, the broadcast guideline price, and the tariff.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] when the price signal's horizon disagrees
    /// with the community's, or the configuration is invalid.
    pub fn new(
        community: &'a Community,
        prices: &'a PriceSignal,
        tariff: NetMeteringTariff,
        config: GameConfig,
    ) -> Result<Self, ValidateError> {
        config.validate()?;
        let slots = community.horizon().slots();
        if prices.len() != slots {
            return Err(ValidateError::new(format!(
                "price signal covers {} slots, community horizon {slots}",
                prices.len()
            )));
        }
        Ok(Self {
            community,
            prices,
            tariff,
            config,
        })
    }

    /// The bound configuration.
    #[inline]
    pub fn config(&self) -> &GameConfig {
        &self.config
    }

    /// Runs the iterative best-response loop, deterministically seeded from
    /// `rng`, without telemetry or cache: [`GameEngine::solve_with`] with
    /// the no-op recorder and no [`PersistentCache`].
    ///
    /// # Errors
    ///
    /// Propagates [`SolverError`] from any customer's subproblem.
    pub fn solve(&self, rng: &mut impl Rng) -> Result<GameOutcome, SolverError> {
        self.solve_with(rng, &NoopRecorder, None)
    }

    /// Runs the iterative best-response loop, deterministically seeded from
    /// `rng`.
    ///
    /// Per-customer seeds for every round are drawn from `rng` up front and
    /// regardless of cache hits, so the draw order (and therefore any
    /// downstream consumer of `rng`) is identical across thread counts and
    /// cache settings.
    ///
    /// `rec` receives solver telemetry: per-round `game_round` events
    /// (Jacobi/Gauss–Seidel residuals), a closing `game_solved` event,
    /// `solver_round_delta` observations, and `solver_games` /
    /// `solver_rounds` / `solver_cache_*` counters — plus everything
    /// [`best_response_recorded`](crate::best_response_recorded) tallies per
    /// customer. Recording only reads values the solve already produced
    /// (see the crate-level RNG-neutrality contract in `nms-obs`), so the
    /// outcome does not depend on the recorder.
    ///
    /// With a cross-solve [`PersistentCache`] (DESIGN.md §15), pure-DP
    /// customers whose inputs the cache has seen — in an earlier round of
    /// this solve or in an earlier solve of the same community — skip the
    /// re-solve. Hits are exact-verified, so the outcome is bit-identical to
    /// the uncached solve under the same seed. Entries of customers absent
    /// from this community are evicted first (see [`PersistentCache`]'s
    /// entry lifetime).
    ///
    /// # Errors
    ///
    /// Propagates [`SolverError`] from any customer's subproblem.
    pub fn solve_with(
        &self,
        rng: &mut impl Rng,
        rec: &dyn Recorder,
        mut persistent: Option<&mut PersistentCache>,
    ) -> Result<GameOutcome, SolverError> {
        let _game_span = span(rec, "game_solve");
        let horizon = self.community.horizon();
        let n = self.community.len();
        let cost_model = CostModel::new(self.prices, self.tariff);

        let mut schedules: Vec<Option<CustomerSchedule>> = vec![None; n];
        // SoA slabs for the round kernels: per-customer trading lanes plus
        // the running total, all flat `f64` (DESIGN.md §15).
        let mut batch = BatchResponseWorkspace::new();
        batch.begin(n, horizon.slots());
        let mut history = Vec::new();
        let mut converged = false;
        let mut rounds = 0;
        let mut stats = CacheStats::default();
        // One scratch arena reused across every sequential best response;
        // parallel rounds hold one per worker instead (DESIGN.md §11).
        let mut ws = ResponseWorkspace::default();

        // Per-solve fingerprints for the persistent key: each customer's
        // full definition and the guideline price, hashed once. `None`
        // marks battery-active customers, whose response consumes the CE
        // RNG stream and must never be cached.
        let persist_meta: Vec<Option<(u64, u64)>> = match persistent.as_deref_mut() {
            None => Vec::new(),
            Some(p) => {
                p.ensure_config(self.persistent_context_hash());
                let mut price = Fnv1a::new();
                for slot in 0..horizon.slots() {
                    price.word(self.prices.at(slot).value().to_bits());
                }
                let price_fp = price.finish();
                let meta: Vec<Option<(u64, u64)>> = self
                    .community
                    .iter()
                    .map(|customer| {
                        if self.config.response.use_battery && customer.battery().is_usable() {
                            None
                        } else {
                            Some((customer_fingerprint(customer), price_fp))
                        }
                    })
                    .collect();
                // Entries of customers outside this community can never
                // hit again: evict them before the first probe.
                let live: Vec<u64> = meta.iter().flatten().map(|&(fp, _)| fp).collect();
                let evicted = p.retain_customers(&live);
                if evicted > 0 {
                    rec.add(names::solver::CACHE_EVICTIONS, evicted);
                }
                meta
            }
        };
        let tally_rounds = persistent.is_some();
        // Memoized warm-start fingerprints for the persistent key. The
        // engine only ever warm-starts customer `i` from the response it
        // last committed for `i`, so the fingerprint rides along instead of
        // being re-hashed from the schedule on every probe: hits hand it
        // back from the entry, misses compute it once at insertion.
        let mut warm_fps: Vec<u64> = vec![COLD_WARM_FP; n];

        for _round in 0..self.config.max_rounds {
            rounds += 1;
            // Seeds drawn up front so sequential and parallel rounds use the
            // same per-customer randomness.
            let seeds: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
            let mut round_delta = 0.0_f64;
            if tally_rounds {
                stats.hits_by_round.push(0);
            }

            if self.config.parallelism.threads <= 1 {
                // Gauss–Seidel over the flat lanes: others = total − lane,
                // solve, then total = others + response — the exact per-slot
                // operations the series path performed, each a tight loop
                // over contiguous f64 slices.
                for (index, customer) in self.community.iter().enumerate() {
                    batch.fill_others(index);
                    let probe = probe(
                        &batch,
                        index,
                        persistent.as_deref_mut(),
                        &persist_meta,
                        &warm_fps,
                        &mut stats,
                    );
                    let response = match probe {
                        Probe::Hit(hit, response_fp) => {
                            warm_fps[index] = response_fp;
                            hit
                        }
                        Probe::Miss(key) => {
                            let mut child = ChaCha8Rng::seed_from_u64(seeds[index]);
                            let response = best_response_in(
                                customer,
                                batch.others(),
                                cost_model,
                                &self.config.response,
                                schedules[index].as_ref(),
                                &mut child,
                                rec,
                                &mut ws,
                            )?;
                            if let Some(fp) = store(key, &response, persistent.as_deref_mut()) {
                                warm_fps[index] = fp;
                            }
                            response
                        }
                    };
                    let delta = batch.max_abs_delta(index, response.trading().as_slice());
                    round_delta = round_delta.max(delta);
                    batch.commit_gauss_seidel(index, response.trading().as_slice());
                    schedules[index] = Some(response);
                }
                // Round boundary: rebuild `total` from the lanes, exactly as
                // the Jacobi branch does. The incremental per-commit update
                // (`total = others + response`) accumulates a different
                // floating-point rounding history every round, so a game
                // whose discrete schedules settle into a limit cycle would
                // still never present bitwise-repeating inputs and the
                // persistent cache's exact verification could never hit.
                // Re-accumulating from the lanes makes the round-boundary
                // state a pure function of the lanes themselves: periodic
                // schedules now give bitwise-periodic rounds.
                batch.rebuild_total();
            } else {
                // Jacobi: all respond to the same snapshot of the lanes, in
                // parallel. Cache lookups run sequentially against the
                // snapshot; only the misses fan out to the worker pool. The
                // lanes stay untouched until the commit loop below, so the
                // whole round reads one consistent snapshot.
                let mut responses: Vec<Option<CustomerSchedule>> = vec![None; n];
                let mut misses: Vec<(usize, Option<PersistentKey>)> = Vec::new();
                for index in 0..n {
                    batch.fill_others(index);
                    let probe = probe(
                        &batch,
                        index,
                        persistent.as_deref_mut(),
                        &persist_meta,
                        &warm_fps,
                        &mut stats,
                    );
                    match probe {
                        Probe::Hit(hit, response_fp) => {
                            warm_fps[index] = response_fp;
                            responses[index] = Some(hit);
                        }
                        Probe::Miss(key) => misses.push((index, key)),
                    }
                }
                let miss_indices: Vec<usize> = misses.iter().map(|(index, _)| *index).collect();
                let computed =
                    self.parallel_round(&batch, &schedules, &seeds, &miss_indices, rec)?;
                for ((index, key), response) in misses.into_iter().zip(computed) {
                    if let Some(fp) = store(key, &response, persistent.as_deref_mut()) {
                        warm_fps[index] = fp;
                    }
                    responses[index] = Some(response);
                }
                for (index, response) in responses.into_iter().enumerate() {
                    let response = response.expect("every customer answered this round");
                    let delta = batch.max_abs_delta(index, response.trading().as_slice());
                    round_delta = round_delta.max(delta);
                    batch.set_lane(index, response.trading().as_slice());
                    schedules[index] = Some(response);
                }
                batch.rebuild_total();
            }

            history.push(round_delta);
            rec.observe("solver_round_delta", round_delta);
            if rec.enabled() {
                rec.event(
                    &TraceEvent::new("game_round")
                        .field("round", rounds as f64)
                        .field("delta", round_delta),
                );
            }
            if round_delta <= self.config.tolerance {
                converged = true;
                break;
            }
        }

        rec.add("solver_games", 1);
        rec.add("solver_rounds", rounds as u64);
        if converged {
            rec.add("solver_games_converged", 1);
        }
        rec.add(names::solver::CACHE_HITS, stats.hits as u64);
        rec.add(names::solver::CACHE_MISSES, stats.misses as u64);
        if stats.ineligible > 0 {
            rec.add(names::solver::CACHE_INELIGIBLE, stats.ineligible as u64);
        }
        if rec.enabled() {
            rec.event(
                &TraceEvent::new("game_solved")
                    .field("rounds", rounds as f64)
                    .field("converged", f64::from(u8::from(converged)))
                    .field("final_delta", history.last().copied().unwrap_or(0.0))
                    .field("cache_hits", stats.hits as f64)
                    .field("cache_misses", stats.misses as f64),
            );
        }

        let schedules: Vec<CustomerSchedule> = schedules
            .into_iter()
            .map(|s| s.expect("every customer scheduled at least once"))
            .collect();
        let schedule = CommunitySchedule::new(horizon, schedules)?;
        Ok(GameOutcome {
            schedule,
            rounds,
            converged,
            history,
            cache: stats,
        })
    }

    /// One parallel Jacobi round over the given customer indices (the cache
    /// misses; every index when the cache is disabled), via the ordered
    /// deterministic [`nms_par::par_map`]. Workers read the immutable lane
    /// snapshot and fill others into a per-worker scratch buffer.
    fn parallel_round(
        &self,
        batch: &BatchResponseWorkspace,
        schedules: &[Option<CustomerSchedule>],
        seeds: &[u64],
        indices: &[usize],
        rec: &dyn Recorder,
    ) -> Result<Vec<CustomerSchedule>, SolverError> {
        // Workers record only the commutative metric methods (via
        // best_response_in), so totals stay reproducible at any
        // thread count. Each worker owns one scratch arena plus an others
        // buffer for its whole run, so steady-state rounds allocate nothing
        // per response.
        nms_par::par_map_scratch(
            self.config.parallelism.threads,
            indices,
            rec,
            || (ResponseWorkspace::default(), Vec::new()),
            |(ws, others), _, &index| {
                let customer = &self.community.customers()[index];
                batch.fill_others_into(index, others);
                let mut child = ChaCha8Rng::seed_from_u64(seeds[index]);
                best_response_in(
                    customer,
                    others.as_slice(),
                    CostModel::new(self.prices, self.tariff),
                    &self.config.response,
                    schedules[index].as_ref(),
                    &mut child,
                    rec,
                    ws,
                )
            },
        )
    }

    /// Fingerprint of everything a persistently cached response depends on
    /// besides its per-invocation key: the response configuration and the
    /// tariff. A [`PersistentCache`] drops its entries when this changes.
    fn persistent_context_hash(&self) -> u64 {
        let mut hash = Fnv1a::new();
        hash.bytes(format!("{:?}|{:?}", self.config.response, self.tariff).as_bytes());
        hash.finish()
    }
}

/// Outcome of a cache probe for one best-response invocation. Hits carry
/// the response's stored [`schedule_fingerprint`] so the caller can use it
/// as the next probe's warm-start word; misses carry the key to store the
/// computed response under (`None` when nothing may be stored).
enum Probe {
    Hit(CustomerSchedule, u64),
    Miss(Option<PersistentKey>),
}

/// Consults the persistent cache (if any) for customer `index` against the
/// others lane just filled in `batch`, tallying the solve's [`CacheStats`].
fn probe(
    batch: &BatchResponseWorkspace,
    index: usize,
    persistent: Option<&mut PersistentCache>,
    persist_meta: &[Option<(u64, u64)>],
    warm_fps: &[u64],
    stats: &mut CacheStats,
) -> Probe {
    let Some(persistent) = persistent else {
        return Probe::Miss(None);
    };
    let Some((customer_fp, price_fp)) = persist_meta[index] else {
        // Battery-active: the CE step consumes the per-customer RNG
        // stream, so the response is never cached and always tallies as a
        // miss.
        persistent.tally_uncacheable();
        stats.misses += 1;
        stats.ineligible += 1;
        return Probe::Miss(None);
    };
    let key = persistent.keys(customer_fp, price_fp, batch.others(), warm_fps[index]);
    match persistent.lookup(&key) {
        Some((hit, response_fp)) => {
            stats.hits += 1;
            if let Some(last) = stats.hits_by_round.last_mut() {
                *last += 1;
            }
            Probe::Hit(hit, response_fp)
        }
        None => {
            stats.misses += 1;
            Probe::Miss(Some(key))
        }
    }
}

/// Stores a freshly computed response under its pending key. Inserts
/// fingerprint the response once and return that word — the caller's
/// memoized warm-start fingerprint for the next probe.
fn store(
    key: Option<PersistentKey>,
    response: &CustomerSchedule,
    persistent: Option<&mut PersistentCache>,
) -> Option<u64> {
    let key = key?;
    let response_fp = schedule_fingerprint(response);
    if let Some(persistent) = persistent {
        persistent.insert(&key, response, response_fp);
    }
    Some(response_fp)
}

/// Exhaustive content fingerprint of one customer for the persistent-cache
/// key: every field a pure-DP best response reads — identity, horizon,
/// appliances (levels + task windows), battery, PV profile, base load —
/// hashed over raw `f64` bit patterns. Length words guard the boundaries
/// of the variable-length sections so adjacent sequences cannot alias.
fn customer_fingerprint(customer: &Customer) -> u64 {
    let mut fp = Fnv1a::new();
    fp.word(customer.id().index() as u64);
    let horizon = customer.horizon();
    fp.word(horizon.slots() as u64);
    fp.word(horizon.slot_hours().to_bits());
    fp.word(customer.appliances().len() as u64);
    for appliance in customer.appliances() {
        fp.word(appliance.id().index() as u64);
        let kind = appliance.kind().name();
        fp.word(kind.len() as u64);
        fp.bytes(kind.as_bytes());
        let levels = appliance.levels().as_slice();
        fp.word(levels.len() as u64);
        for level in levels {
            fp.word(level.value().to_bits());
        }
        let task = appliance.task();
        fp.word(task.energy().value().to_bits());
        fp.word(task.start() as u64);
        fp.word(task.deadline() as u64);
    }
    let battery = customer.battery();
    fp.word(battery.capacity().value().to_bits());
    fp.word(battery.initial_charge().value().to_bits());
    match battery.slot_throughput_limit() {
        None => fp.word(0),
        Some(limit) => {
            fp.word(1);
            fp.word(limit.value().to_bits());
        }
    }
    fp.word(customer.pv().rating().value().to_bits());
    for &value in customer.pv().profile().iter() {
        fp.word(value.to_bits());
    }
    for &value in customer.base_load().iter() {
        fp.word(value.to_bits());
    }
    fp.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nms_smarthome::{
        clear_sky_profile, Appliance, ApplianceKind, Battery, Customer, PowerLevels, PvPanel,
        TaskSpec,
    };
    use nms_types::{ApplianceId, CustomerId, Horizon, Kw, Kwh};

    fn day() -> Horizon {
        Horizon::hourly_day()
    }

    fn small_community(n: usize, with_der: bool) -> Community {
        let customers: Vec<Customer> = (0..n)
            .map(|i| {
                let mut builder = Customer::builder(CustomerId::new(i), day())
                    .appliance(Appliance::new(
                        ApplianceId::new(0),
                        ApplianceKind::WaterHeater,
                        PowerLevels::stepped(Kw::new(2.0), 2).unwrap(),
                        TaskSpec::new(Kwh::new(3.0), 0, 23).unwrap(),
                    ))
                    .appliance(Appliance::new(
                        ApplianceId::new(1),
                        ApplianceKind::Dishwasher,
                        PowerLevels::on_off(Kw::new(1.0)).unwrap(),
                        TaskSpec::new(Kwh::new(1.0), 17, 22).unwrap(),
                    ));
                if with_der {
                    builder = builder
                        .battery(Battery::new(Kwh::new(3.0), Kwh::ZERO).unwrap())
                        .pv(
                            PvPanel::new(Kw::new(2.0), clear_sky_profile(day(), Kw::new(2.0)))
                                .unwrap(),
                        );
                }
                builder.build().unwrap()
            })
            .collect();
        Community::new(day(), customers).unwrap()
    }

    fn tou_prices() -> PriceSignal {
        PriceSignal::time_of_use(day(), 0.05, 0.3).unwrap()
    }

    #[test]
    fn customer_fingerprint_discriminates_every_field_class() {
        let base = |id: usize| {
            Customer::builder(CustomerId::new(id), day())
                .appliance(Appliance::new(
                    ApplianceId::new(0),
                    ApplianceKind::WaterHeater,
                    PowerLevels::stepped(Kw::new(2.0), 2).unwrap(),
                    TaskSpec::new(Kwh::new(3.0), 0, 23).unwrap(),
                ))
                .pv(PvPanel::new(Kw::new(2.0), clear_sky_profile(day(), Kw::new(2.0))).unwrap())
        };
        let reference = customer_fingerprint(&base(0).build().unwrap());
        assert_eq!(
            reference,
            customer_fingerprint(&base(0).build().unwrap()),
            "identical content must fingerprint identically"
        );
        let variants = [
            base(1).build().unwrap(),
            base(0)
                .appliance(Appliance::new(
                    ApplianceId::new(1),
                    ApplianceKind::Dishwasher,
                    PowerLevels::on_off(Kw::new(1.0)).unwrap(),
                    TaskSpec::new(Kwh::new(1.0), 17, 22).unwrap(),
                ))
                .build()
                .unwrap(),
            Customer::builder(CustomerId::new(0), day())
                .appliance(Appliance::new(
                    ApplianceId::new(0),
                    ApplianceKind::WaterHeater,
                    PowerLevels::stepped(Kw::new(2.0), 2).unwrap(),
                    TaskSpec::new(Kwh::new(3.0), 1, 23).unwrap(), // window shifted
                ))
                .pv(PvPanel::new(Kw::new(2.0), clear_sky_profile(day(), Kw::new(2.0))).unwrap())
                .build()
                .unwrap(),
            base(0)
                .battery(Battery::new(Kwh::new(3.0), Kwh::ZERO).unwrap())
                .build()
                .unwrap(),
            base(0)
                .base_load(nms_types::TimeSeries::filled(day(), 0.25))
                .build()
                .unwrap(),
        ];
        for (i, variant) in variants.iter().enumerate() {
            assert_ne!(
                reference,
                customer_fingerprint(variant),
                "variant {i} must change the fingerprint"
            );
        }
    }

    #[test]
    fn config_validation() {
        assert!(GameConfig::default().validate().is_ok());
        assert!(GameConfig {
            max_rounds: 0,
            ..GameConfig::default()
        }
        .validate()
        .is_err());
        assert!(GameConfig {
            tolerance: 0.0,
            ..GameConfig::default()
        }
        .validate()
        .is_err());
        assert!(GameConfig {
            parallelism: Parallelism::new(0),
            ..GameConfig::default()
        }
        .validate()
        .is_err());
        assert!(GameConfig {
            cache_quantum: -1.0,
            ..GameConfig::default()
        }
        .validate()
        .is_err());
        assert!(GameConfig {
            cache_quantum: f64::NAN,
            ..GameConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn engine_rejects_mismatched_price_horizon() {
        let community = small_community(2, false);
        let prices = PriceSignal::flat(Horizon::hourly(48), 0.1).unwrap();
        assert!(GameEngine::new(
            &community,
            &prices,
            NetMeteringTariff::default(),
            GameConfig::default()
        )
        .is_err());
    }

    #[test]
    fn game_converges_on_small_community() {
        let community = small_community(4, false);
        let prices = tou_prices();
        let engine = GameEngine::new(
            &community,
            &prices,
            NetMeteringTariff::default(),
            GameConfig::default(),
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let outcome = engine.solve(&mut rng).unwrap();
        assert!(outcome.converged, "history: {:?}", outcome.history);
        // Flexible load avoids the on-peak windows.
        let schedule = &outcome.schedule;
        let peak_demand: f64 = (17..21).map(|h| schedule.grid_demand()[h]).sum();
        let offpeak_demand: f64 = (0..7).map(|h| schedule.grid_demand()[h]).sum();
        assert!(offpeak_demand > peak_demand);
    }

    #[test]
    fn der_community_draws_less_from_grid() {
        let prices = tou_prices();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let plain = small_community(3, false);
        let engine = GameEngine::new(
            &plain,
            &prices,
            NetMeteringTariff::default(),
            GameConfig::fast(),
        )
        .unwrap();
        let base = engine.solve(&mut rng).unwrap();

        let der = small_community(3, true);
        let engine = GameEngine::new(
            &der,
            &prices,
            NetMeteringTariff::default(),
            GameConfig::fast(),
        )
        .unwrap();
        let mut rng2 = ChaCha8Rng::seed_from_u64(11);
        let with_der = engine.solve(&mut rng2).unwrap();

        let total = |o: &GameOutcome| -> f64 { o.schedule.grid_demand_clamped().total() };
        assert!(
            total(&with_der) < total(&base) - 1.0,
            "der {} vs base {}",
            total(&with_der),
            total(&base)
        );
    }

    #[test]
    fn history_is_weakly_informative() {
        let community = small_community(3, false);
        let prices = tou_prices();
        let engine = GameEngine::new(
            &community,
            &prices,
            NetMeteringTariff::default(),
            GameConfig::default(),
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let outcome = engine.solve(&mut rng).unwrap();
        assert_eq!(outcome.history.len(), outcome.rounds);
        // The last round's delta is within tolerance iff converged.
        let last = *outcome.history.last().unwrap();
        assert_eq!(outcome.converged, last <= engine.config().tolerance);
    }

    #[test]
    fn parallel_matches_shape_of_sequential() {
        let community = small_community(4, true);
        let prices = tou_prices();
        let mut sequential_config = GameConfig::fast();
        sequential_config.max_rounds = 4;
        let engine = GameEngine::new(
            &community,
            &prices,
            NetMeteringTariff::default(),
            sequential_config,
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let sequential = engine.solve(&mut rng).unwrap();

        let mut parallel_config = sequential_config;
        parallel_config.parallelism = Parallelism::new(4);
        let engine = GameEngine::new(
            &community,
            &prices,
            NetMeteringTariff::default(),
            parallel_config,
        )
        .unwrap();
        let mut rng2 = ChaCha8Rng::seed_from_u64(13);
        let parallel = engine.solve(&mut rng2).unwrap();

        // Jacobi and Gauss–Seidel won't agree exactly, but total consumed
        // energy must (it is constraint-pinned), and demand shapes should
        // correlate.
        let seq_total = sequential.schedule.load().total().value();
        let par_total = parallel.schedule.load().total().value();
        assert!((seq_total - par_total).abs() < 1e-6);
    }

    #[test]
    fn jacobi_rounds_are_thread_count_invariant() {
        // Jacobi customers respond to a per-round snapshot with pre-drawn
        // per-customer seeds, so the worker count cannot affect the result.
        let community = small_community(5, true);
        let prices = tou_prices();
        let run = |threads: usize| {
            let mut config = GameConfig::fast();
            config.max_rounds = 3;
            config.parallelism = Parallelism::new(threads);
            let engine =
                GameEngine::new(&community, &prices, NetMeteringTariff::default(), config).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(21);
            engine.solve(&mut rng).unwrap()
        };
        let two = run(2);
        let four = run(4);
        assert_eq!(two.history, four.history);
        assert_eq!(two.rounds, four.rounds);
        for (a, b) in two
            .schedule
            .customer_schedules()
            .iter()
            .zip(four.schedule.customer_schedules())
        {
            assert_eq!(a.trading(), b.trading());
            assert_eq!(a.battery(), b.battery());
        }
    }

    #[test]
    fn cache_disabled_by_default() {
        let community = small_community(3, false);
        let prices = tou_prices();
        let engine = GameEngine::new(
            &community,
            &prices,
            NetMeteringTariff::default(),
            GameConfig::fast(),
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let outcome = engine.solve(&mut rng).unwrap();
        assert_eq!(outcome.cache, CacheStats::default());
        assert_eq!(outcome.cache.hit_rate(), 0.0);
    }

    #[test]
    fn persistent_cache_is_bit_identical_and_reuses_across_solves() {
        // Battery-less customers are pure DP, so every response is
        // cacheable. A persistent cache must (a) leave the solve
        // bit-identical to the uncached engine and (b) answer a repeat of
        // the identical solve from its entries — the replay of a day's
        // clearing iterations the supervised runner relies on.
        let community = small_community(4, false);
        let prices = tou_prices();
        let mut config = GameConfig::fast();
        config.max_rounds = 12;
        config.tolerance = 1e-6;
        let engine =
            GameEngine::new(&community, &prices, NetMeteringTariff::default(), config).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let plain = engine.solve(&mut rng).unwrap();

        let mut cache = PersistentCache::new(1e-6).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let first = engine
            .solve_with(&mut rng, &NoopRecorder, Some(&mut cache))
            .unwrap();
        for (a, b) in plain
            .schedule
            .customer_schedules()
            .iter()
            .zip(first.schedule.customer_schedules())
        {
            assert_eq!(a.trading(), b.trading());
            assert_eq!(a.battery(), b.battery());
        }
        assert_eq!(
            first.cache.hits + first.cache.misses,
            community.len() * first.rounds
        );

        // The identical solve again: round one re-probes the cold-start
        // inputs the first solve already answered, so it hits immediately.
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let second = engine
            .solve_with(&mut rng, &NoopRecorder, Some(&mut cache))
            .unwrap();
        for (a, b) in plain
            .schedule
            .customer_schedules()
            .iter()
            .zip(second.schedule.customer_schedules())
        {
            assert_eq!(a.trading(), b.trading());
        }
        assert_eq!(
            second.cache.misses, 0,
            "a repeated solve must be answered entirely from the cache: {:?}",
            second.cache
        );
        assert_eq!(
            second.cache.hits_by_round.first().copied().unwrap_or(0),
            community.len()
        );
    }

    #[test]
    fn persistent_cache_never_caches_battery_customers() {
        // Battery-active responses consume the CE RNG stream; caching one
        // would desynchronize a later solve. They tally as misses and leave
        // no entries, while the solve stays bit-identical to the uncached
        // engine.
        let community = small_community(3, true);
        let prices = tou_prices();
        let engine = GameEngine::new(
            &community,
            &prices,
            NetMeteringTariff::default(),
            GameConfig::fast(),
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(24);
        let plain = engine.solve(&mut rng).unwrap();

        let mut cache = PersistentCache::new(1e-6).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(24);
        let cached = engine
            .solve_with(&mut rng, &NoopRecorder, Some(&mut cache))
            .unwrap();
        for (a, b) in plain
            .schedule
            .customer_schedules()
            .iter()
            .zip(cached.schedule.customer_schedules())
        {
            assert_eq!(a.trading(), b.trading());
            assert_eq!(a.battery(), b.battery());
        }
        assert_eq!(cached.cache.hits, 0);
        assert_eq!(
            cached.cache.misses,
            community.len() * cached.rounds,
            "every battery-active invocation tallies as a miss"
        );
        assert!(cache.is_empty(), "no battery response may be stored");
    }

    #[test]
    fn persistent_cache_invalidates_on_config_change() {
        let community = small_community(3, false);
        let prices = tou_prices();
        let mut cache = PersistentCache::new(1e-6).unwrap();

        let engine = GameEngine::new(
            &community,
            &prices,
            NetMeteringTariff::default(),
            GameConfig::fast(),
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(25);
        engine
            .solve_with(&mut rng, &NoopRecorder, Some(&mut cache))
            .unwrap();
        assert!(!cache.is_empty());

        // A different response configuration must drop every entry before
        // the solve consults the cache.
        let mut config = GameConfig::fast();
        config.response.dp_resolution *= 2;
        let engine =
            GameEngine::new(&community, &prices, NetMeteringTariff::default(), config).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(25);
        let outcome = engine
            .solve_with(&mut rng, &NoopRecorder, Some(&mut cache))
            .unwrap();
        assert_eq!(cache.invalidations(), 1);
        assert_eq!(
            outcome.cache.hits_by_round.first().copied().unwrap_or(0),
            0,
            "round one after invalidation cannot hit"
        );
    }

    #[test]
    fn memo_cache_preserves_loads_and_hits_late_rounds() {
        // Battery-less customers make the best response pure deterministic
        // DP, and the Jacobi iteration settles into an exact period-2 limit
        // cycle after a few rounds: every late round re-solves a problem the
        // cache has already seen, while the round delta stays above tolerance
        // so the run keeps going. A hit returns exactly what recomputation
        // would, so loads are bit-identical with the cache on or off.
        let community = small_community(4, false);
        let prices = tou_prices();
        let mut config = GameConfig::fast();
        config.max_rounds = 12;
        config.tolerance = 1e-6;
        config.parallelism = Parallelism::new(2);
        let engine =
            GameEngine::new(&community, &prices, NetMeteringTariff::default(), config).unwrap();
        let plain = engine.solve(&mut ChaCha8Rng::seed_from_u64(23)).unwrap();
        let mut cache = PersistentCache::new(1e-6).unwrap();
        let cached = engine
            .solve_with(
                &mut ChaCha8Rng::seed_from_u64(23),
                &NoopRecorder,
                Some(&mut cache),
            )
            .unwrap();

        // The cache skips re-solves but must not change what anyone
        // consumes: per-customer load profiles are bit-identical.
        for (a, b) in plain
            .schedule
            .customer_schedules()
            .iter()
            .zip(cached.schedule.customer_schedules())
        {
            assert_eq!(a.load().series(), b.load().series());
        }

        // Late rounds re-solve an (almost) identical problem and should hit.
        assert!(cached.cache.hits > 0, "stats: {:?}", cached.cache);
        let last_round_hits = *cached.cache.hits_by_round.last().unwrap();
        assert!(
            last_round_hits * 2 > community.len(),
            "late-round hit rate too low: {:?}",
            cached.cache
        );
        assert_eq!(
            cached.cache.hits + cached.cache.misses,
            community.len() * cached.rounds
        );
    }

    #[test]
    fn persistent_cache_keeps_only_the_live_community() {
        // Community B has A's customer ids but resampled tasks — what the
        // scenario does to every customer each day. Solving B must evict
        // every entry A left behind, and B's own entries must still answer
        // a repeat of B's solve from round one.
        let community_a = small_community(4, false);
        let customers_b: Vec<Customer> = (0..4)
            .map(|i| {
                Customer::builder(CustomerId::new(i), day())
                    .appliance(Appliance::new(
                        ApplianceId::new(0),
                        ApplianceKind::WaterHeater,
                        PowerLevels::stepped(Kw::new(2.0), 2).unwrap(),
                        TaskSpec::new(Kwh::new(2.0 + 0.5 * i as f64), 1, 22).unwrap(),
                    ))
                    .build()
                    .unwrap()
            })
            .collect();
        let community_b = Community::new(day(), customers_b).unwrap();
        let prices = tou_prices();
        let solve = |community: &Community, cache: &mut PersistentCache| {
            let engine = GameEngine::new(
                community,
                &prices,
                NetMeteringTariff::default(),
                GameConfig::fast(),
            )
            .unwrap();
            engine
                .solve_with(
                    &mut ChaCha8Rng::seed_from_u64(26),
                    &NoopRecorder,
                    Some(cache),
                )
                .unwrap()
        };

        let mut cache = PersistentCache::new(1e-6).unwrap();
        let a = solve(&community_a, &mut cache);
        let a_entries = cache.len();
        assert!(a_entries > 0);
        assert!(a_entries <= a.cache.misses, "only misses store entries");
        assert_eq!(cache.evictions(), 0);

        let b = solve(&community_b, &mut cache);
        assert_eq!(
            cache.evictions() as usize,
            a_entries,
            "every entry of community A must be evicted"
        );
        assert!(
            cache.len() > 0 && cache.len() <= b.cache.misses,
            "only B's entries remain"
        );

        let again = solve(&community_b, &mut cache);
        assert_eq!(
            cache.evictions() as usize,
            a_entries,
            "same live set: no pass"
        );
        assert_eq!(
            again.cache.hits_by_round.first().copied().unwrap_or(0),
            community_b.len(),
            "a repeat of B's solve must hit all of round one: {:?}",
            again.cache
        );
        assert_eq!(again.cache.misses, 0);
    }
}
