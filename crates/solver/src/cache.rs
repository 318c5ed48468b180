//! Cross-solve best-response memo cache (DESIGN.md §15).
//!
//! One [`PersistentCache`] serves every solve it is handed — several game
//! solves in a row, and, when owned by the supervised runner, every day of
//! a run. Hits are exact-verified, so a cached solve is bit-identical to a
//! cold one.
//!
//! ## Where the hits come from
//!
//! Measured at paper scale (N = 500, battery-free, quantized prices), every
//! hit lands 1–8 solves after its entry was inserted: all of them come from
//! within one day's market clearing. The clearing iteration
//! `price ← design(demand(price))` runs on a finite price grid, reaches a
//! bitwise fixed point or a short cycle within a few iterations, and every
//! later iteration re-poses an earlier solve input-for-input. Inside one
//! solve, Jacobi limit cycles repeat rounds the same way. No hit ever
//! crosses a day: the customer fingerprint in every key covers task energy
//! and window, which the scenario resamples each day, so an entry can no
//! longer be reached once the community that produced it is gone. A cache
//! under the detector's prediction (one game solve per day) recorded 0
//! hits in 72,000 lookups on the same workload, so the supervised runner
//! keeps only the clearing's cache.
//!
//! ## Key scheme: quantized bucket, exact verification
//!
//! A cache that *keys* on quantized inputs would return a cached response
//! for inputs that merely land in the same quantization cell — correct for
//! an approximate solver, but fatal for this repo's bit-identity contract
//! (a cached day must equal a cold day bit for bit). The persistent cache
//! therefore splits the key in two:
//!
//! - **bucket** — FNV-1a over the customer fingerprint, the believed price
//!   lane, the *quantized* others-trading series, and the warm-start
//!   fingerprint. This is the `HashMap` key; quantization makes
//!   near-identical inputs collide into the same bucket cheaply.
//! - **exact** — FNV-1a over the same inputs with the raw `f64` bit
//!   patterns, stored inside the entry. A lookup only hits when the stored
//!   exact hash matches the probe's, so a hit certifies the cached response
//!   was computed from bit-identical inputs and is therefore bit-identical
//!   to what recomputation would return (modulo a 2⁻⁶⁴ FNV collision,
//!   which we accept and document here).
//!
//! The warm-start schedule enters both halves as a single precomputed
//! [`schedule_fingerprint`] word rather than a per-probe walk over its
//! energies: the engine only ever warm-starts from a response *it just
//! committed*, so every entry stores its own response's fingerprint and a
//! hit hands the next probe its warm word for free. Misses compute the
//! fingerprint once, at insertion. This keeps the per-probe hash cost at
//! `O(slots)` for the others lane plus three mixed words, instead of
//! re-walking every appliance schedule on every probe.
//!
//! ## What is cacheable
//!
//! Only customers whose best response is a pure function of its inputs:
//! the response must not consume the per-customer RNG stream. The solver
//! draws randomness solely in the cross-entropy battery step, and only
//! when `response.use_battery && customer.battery().is_usable()` — so
//! battery-active customers are never cached (they tally as misses and as
//! *ineligible*, preserving the `hits + misses == customers × rounds`
//! invariant), while the pure-DP majority is. Per-round seeds are still
//! drawn for every customer regardless of hits, so the caller-visible RNG
//! stream is unchanged by caching.
//!
//! ## Entry lifetime
//!
//! Every entry records the fingerprint of the customer definition that
//! produced it. At the start of each solve the engine declares its live
//! cacheable customers through [`PersistentCache::retain_customers`], which
//! evicts every entry whose customer is not among them; the pass is skipped
//! when the live list hashes the same as the previous solve's, so repeated
//! solves of one community (a day's clearing iterations) pay one hash.
//! Evicted entries could never hit again — their key's first word names a
//! customer that no longer exists — so eviction changes no hit and no
//! result. It bounds the cache to the entries of one community: at most
//! cacheable customers × rounds per solve × solves of that community —
//! one day of clearing for the runner's cache — instead of every day of
//! the run.
//!
//! ## Invalidation
//!
//! Entries are valid only under the solver configuration + tariff that
//! produced them. [`PersistentCache::ensure_config`] compares a
//! fingerprint of that context and drops every entry when it changes;
//! callers holding one cache across heterogeneous solves therefore
//! self-heal instead of serving stale responses.

use std::collections::{HashMap, HashSet};

use nms_smarthome::CustomerSchedule;
use nms_types::{Fnv1a, ValidateError};

/// Quantized-bucket / exact-verified memo key pair for one best-response
/// invocation. Built by the game engine from the SoA lanes; see the
/// [module docs](self) for the scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PersistentKey {
    /// Fingerprint of the customer definition the key was built for; it
    /// decides the entry's lifetime (see [`PersistentCache::retain_customers`]).
    pub(crate) customer_fp: u64,
    /// Map key: FNV-1a over quantized inputs.
    pub(crate) bucket: u64,
    /// Stored-in-entry verifier: FNV-1a over the raw input bits.
    pub(crate) exact: u64,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    customer_fp: u64,
    exact: u64,
    /// [`schedule_fingerprint`] of `response`, precomputed at insertion so
    /// a hit can hand the caller its next warm-start word without
    /// re-walking the schedule.
    response_fp: u64,
    response: CustomerSchedule,
}

/// Warm-start fingerprint of a cold (no prior schedule) invocation.
/// Distinct from every [`schedule_fingerprint`] except by a 2⁻⁶⁴ FNV
/// collision, which the cache's exact verification already accepts.
pub(crate) const COLD_WARM_FP: u64 = 0;

/// Content fingerprint of one customer schedule as a warm start: raw `f64`
/// bit patterns of every appliance energy and battery level, behind a tag
/// word separating it from [`COLD_WARM_FP`]. Computed once per cache
/// insertion (and handed back on hits), never per probe.
pub(crate) fn schedule_fingerprint(schedule: &CustomerSchedule) -> u64 {
    let mut fp = Fnv1a::new();
    fp.word(1);
    for appliance in schedule.appliance_schedules() {
        for &value in appliance.energy().iter() {
            fp.word(value.to_bits());
        }
    }
    for level in schedule.battery() {
        fp.word(level.value().to_bits());
    }
    fp.finish()
}

/// Best-response memo cache that survives across game solves — when owned
/// by the supervised runner, for the whole run — while holding only the
/// entries of the community it last solved. Hits are bit-identical to
/// cold recomputation by construction (exact-hash verification); see the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct PersistentCache {
    quantum: f64,
    config_hash: Option<u64>,
    /// Hash of the live customer list the last eviction pass ran against.
    live_hash: Option<u64>,
    entries: HashMap<u64, CacheEntry>,
    hits: u64,
    misses: u64,
    ineligible: u64,
    invalidations: u64,
    evictions: u64,
}

impl PersistentCache {
    /// A cache bucketing on the given quantum (kWh on the quantization
    /// grid; smaller groups less, larger groups more — hits stay exact
    /// either way).
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] unless `quantum` is positive and finite.
    pub fn new(quantum: f64) -> Result<Self, ValidateError> {
        if !(quantum > 0.0 && quantum.is_finite()) {
            return Err(ValidateError::new(
                "persistent cache quantum must be positive and finite",
            ));
        }
        Ok(Self {
            quantum,
            config_hash: None,
            live_hash: None,
            entries: HashMap::new(),
            hits: 0,
            misses: 0,
            ineligible: 0,
            invalidations: 0,
            evictions: 0,
        })
    }

    /// The bucketing quantum.
    #[inline]
    pub fn quantum(&self) -> f64 {
        self.quantum
    }

    /// Entries currently held.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime hits across every solve this cache served.
    #[inline]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime misses across every solve this cache served.
    #[inline]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lifetime invocations that bypassed the cache because the customer's
    /// response is not cacheable (battery-active); also counted in
    /// [`PersistentCache::misses`].
    #[inline]
    pub fn ineligible(&self) -> u64 {
        self.ineligible
    }

    /// Lifetime entries dropped by [`PersistentCache::retain_customers`]
    /// because their customer was no longer live.
    #[inline]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Times [`PersistentCache::ensure_config`] dropped the entries because
    /// the solver context changed.
    #[inline]
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Declares the solver context (response config + tariff fingerprint)
    /// for the solve about to run. A change from the previously declared
    /// context drops every entry — cached responses are only valid under
    /// the configuration that produced them.
    pub fn ensure_config(&mut self, config_hash: u64) {
        match self.config_hash {
            Some(current) if current == config_hash => {}
            Some(_) => {
                self.entries.clear();
                self.invalidations += 1;
                self.config_hash = Some(config_hash);
            }
            None => self.config_hash = Some(config_hash),
        }
    }

    /// Declares the cacheable customers (by fingerprint) of the solve about
    /// to run and evicts every entry whose customer is not among them;
    /// returns how many entries were dropped. Skipped when `live` hashes
    /// the same as the previous declaration, so repeated solves of one
    /// community pay only that hash. See the [module docs](self) for why
    /// eviction cannot lose a hit.
    pub(crate) fn retain_customers(&mut self, live: &[u64]) -> u64 {
        let mut hash = Fnv1a::new();
        hash.word(live.len() as u64);
        for &customer_fp in live {
            hash.word(customer_fp);
        }
        let hash = hash.finish();
        if self.live_hash == Some(hash) {
            return 0;
        }
        self.live_hash = Some(hash);
        let live: HashSet<u64> = live.iter().copied().collect();
        let before = self.entries.len();
        self.entries
            .retain(|_, entry| live.contains(&entry.customer_fp));
        let dropped = (before - self.entries.len()) as u64;
        self.evictions += dropped;
        dropped
    }

    /// Looks up a response; a hit requires the stored exact hash to match
    /// the probe's, so the returned schedule is bit-identical to what
    /// recomputation from these inputs would produce. The second element of
    /// a hit is the response's [`schedule_fingerprint`] — the caller's
    /// warm-start word for the next probe of this customer.
    pub(crate) fn lookup(&mut self, key: &PersistentKey) -> Option<(CustomerSchedule, u64)> {
        match self.entries.get(&key.bucket) {
            Some(entry) if entry.exact == key.exact => {
                self.hits += 1;
                Some((entry.response.clone(), entry.response_fp))
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Tallies a miss for an invocation that bypassed the cache entirely
    /// (battery-active customers), keeping `hits + misses` equal to the
    /// total invocation count; it also counts as [ineligible](Self::ineligible).
    pub(crate) fn tally_uncacheable(&mut self) {
        self.misses += 1;
        self.ineligible += 1;
    }

    /// Stores a freshly computed response under its key pair, replacing any
    /// stale occupant of the bucket. `response_fp` is the response's
    /// [`schedule_fingerprint`], computed once here by the caller and
    /// handed back verbatim on every future hit.
    pub(crate) fn insert(
        &mut self,
        key: &PersistentKey,
        response: &CustomerSchedule,
        response_fp: u64,
    ) {
        self.entries.insert(
            key.bucket,
            CacheEntry {
                customer_fp: key.customer_fp,
                exact: key.exact,
                response_fp,
                response: response.clone(),
            },
        );
    }

    /// Builds the bucket/exact key pair for one invocation in a single pass
    /// over the inputs. `customer_fp` and `price_fp` are per-solve
    /// fingerprints the engine precomputes once per customer; `warm_fp` is
    /// the warm-start schedule's [`schedule_fingerprint`] (or
    /// [`COLD_WARM_FP`]), memoized by the engine between invocations.
    pub(crate) fn keys(
        &self,
        customer_fp: u64,
        price_fp: u64,
        others_trading: &[f64],
        warm_fp: u64,
    ) -> PersistentKey {
        let mut bucket = Fnv1a::new();
        let mut exact = Fnv1a::new();
        bucket.word(customer_fp);
        exact.word(customer_fp);
        bucket.word(price_fp);
        exact.word(price_fp);
        for &value in others_trading {
            bucket.word(self.quantize(value));
            exact.word(value.to_bits());
        }
        bucket.word(warm_fp);
        exact.word(warm_fp);
        PersistentKey {
            customer_fp,
            bucket: bucket.finish(),
            exact: exact.finish(),
        }
    }

    fn quantize(&self, value: f64) -> u64 {
        ((value / self.quantum).round() as i64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nms_smarthome::{Appliance, ApplianceKind, ApplianceSchedule, Customer, PowerLevels, TaskSpec};
    use nms_types::{ApplianceId, CustomerId, Horizon, Kw, Kwh, TimeSeries};

    /// A feasible schedule: 2 kWh total, `first` kWh in slot 0 and the
    /// remainder in slot 1 — distinct `first` values give distinct but
    /// valid warm starts.
    fn schedule(first: f64) -> CustomerSchedule {
        let day = Horizon::hourly_day();
        let customer = Customer::builder(CustomerId::new(0), day)
            .appliance(Appliance::new(
                ApplianceId::new(0),
                ApplianceKind::WaterHeater,
                PowerLevels::stepped(Kw::new(2.0), 2).unwrap(),
                TaskSpec::new(Kwh::new(2.0), 0, 23).unwrap(),
            ))
            .build()
            .unwrap();
        let energy = TimeSeries::from_fn(day, |h| match h {
            0 => first,
            1 => 2.0 - first,
            _ => 0.0,
        });
        let appliance = ApplianceSchedule::new(&customer.appliances()[0], day, energy).unwrap();
        CustomerSchedule::new(&customer, vec![appliance], vec![Kwh::ZERO; 25]).unwrap()
    }

    #[test]
    fn rejects_bad_quantum() {
        assert!(PersistentCache::new(0.0).is_err());
        assert!(PersistentCache::new(-1.0).is_err());
        assert!(PersistentCache::new(f64::NAN).is_err());
        assert!(PersistentCache::new(1e-9).is_ok());
    }

    #[test]
    fn hit_requires_exact_match() {
        let mut cache = PersistentCache::new(0.5).unwrap();
        let response = schedule(0.0);
        let base = [1.0, 2.0, 3.0];
        // Perturbed within half a quantum: same bucket, different exact.
        let near = [1.0 + 0.1, 2.0, 3.0];
        let key = cache.keys(7, 9, &base, COLD_WARM_FP);
        let near_key = cache.keys(7, 9, &near, COLD_WARM_FP);
        assert_eq!(key.bucket, near_key.bucket, "quantization should collide");
        assert_ne!(key.exact, near_key.exact);

        let fp = schedule_fingerprint(&response);
        cache.insert(&key, &response, fp);
        let hit = cache.lookup(&key);
        assert!(hit.is_some(), "exact probe must hit");
        assert_eq!(
            hit.unwrap().1,
            fp,
            "hit must return the stored response fingerprint"
        );
        assert!(
            cache.lookup(&near_key).is_none(),
            "same-bucket inexact probe must miss, never return a stale response"
        );
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn warm_start_distinguishes_keys() {
        let cache = PersistentCache::new(1e-6).unwrap();
        let others = [0.5, -0.25];
        let cold = cache.keys(1, 2, &others, COLD_WARM_FP);
        let warm_a = cache.keys(1, 2, &others, schedule_fingerprint(&schedule(0.0)));
        let warm_b = cache.keys(1, 2, &others, schedule_fingerprint(&schedule(0.5)));
        assert_ne!(cold.exact, warm_a.exact);
        assert_ne!(warm_a.exact, warm_b.exact);
        assert_ne!(
            schedule_fingerprint(&schedule(0.0)),
            COLD_WARM_FP,
            "a real schedule must not fingerprint as cold"
        );
    }

    #[test]
    fn config_change_drops_entries() {
        let mut cache = PersistentCache::new(1e-6).unwrap();
        let key = cache.keys(1, 2, &[1.0], COLD_WARM_FP);
        let response = schedule(0.0);
        cache.insert(&key, &response, schedule_fingerprint(&response));
        cache.ensure_config(42);
        assert_eq!(cache.len(), 1, "first declaration adopts, never drops");
        cache.ensure_config(42);
        assert_eq!(cache.len(), 1, "unchanged context keeps entries");
        cache.ensure_config(43);
        assert!(cache.is_empty(), "changed context must drop entries");
        assert_eq!(cache.invalidations(), 1);
    }

    #[test]
    fn uncacheable_tally_counts_as_miss() {
        let mut cache = PersistentCache::new(1e-6).unwrap();
        cache.tally_uncacheable();
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.ineligible(), 1);
        assert_eq!(cache.hits(), 0);
    }

    /// Inserts one entry per `(customer_fp, others)` pair.
    fn fill(cache: &mut PersistentCache, entries: &[(u64, f64)]) {
        let response = schedule(0.0);
        let fp = schedule_fingerprint(&response);
        for &(customer_fp, others) in entries {
            let key = cache.keys(customer_fp, 2, &[others], COLD_WARM_FP);
            cache.insert(&key, &response, fp);
        }
    }

    #[test]
    fn retain_drops_dead_customers_and_keeps_live_ones() {
        let mut cache = PersistentCache::new(1e-6).unwrap();
        fill(
            &mut cache,
            &[(1, 0.0), (1, 1.0), (2, 0.0), (3, 0.0), (3, 1.0)],
        );
        assert_eq!(cache.len(), 5);

        assert_eq!(cache.retain_customers(&[1, 3]), 1, "customer 2 is dead");
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.evictions(), 1);
        let live_key = cache.keys(3, 2, &[1.0], COLD_WARM_FP);
        assert!(
            cache.lookup(&live_key).is_some(),
            "live entries must survive"
        );
        let dead_key = cache.keys(2, 2, &[0.0], COLD_WARM_FP);
        assert!(
            cache.lookup(&dead_key).is_none(),
            "dead entries must be gone"
        );

        assert_eq!(cache.retain_customers(&[4]), 4, "a new community drops all");
        assert!(cache.is_empty());
        assert_eq!(cache.evictions(), 5, "evictions accumulate");
    }

    #[test]
    fn retain_is_a_no_op_for_an_unchanged_live_set() {
        let mut cache = PersistentCache::new(1e-6).unwrap();
        fill(&mut cache, &[(1, 0.0), (2, 0.0)]);
        assert_eq!(cache.retain_customers(&[1, 2]), 0);
        // An entry for a customer outside the declared set, inserted after
        // the pass: a repeated declaration of the same set skips the pass
        // (and so leaves it), proving the hash short-circuit.
        fill(&mut cache, &[(9, 0.0)]);
        assert_eq!(cache.retain_customers(&[1, 2]), 0);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.evictions(), 0);
        // A changed declaration runs the pass again.
        assert_eq!(cache.retain_customers(&[1, 2, 5]), 1);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
    }
}
