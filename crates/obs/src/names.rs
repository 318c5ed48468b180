//! Well-known metric names shared between emitters and dashboards.
//!
//! Metric names are stringly-typed at the [`crate::Recorder`] seam by
//! design (the trait stays object-safe and zero-dependency), which makes
//! typos silent: an emitter and an exposition consumer that disagree on a
//! name simply never meet. The constants here are the contract for the
//! names that cross crate boundaries — emitters record through them and
//! tests assert on them, so a rename is a compile error instead of a
//! dashboard that quietly flatlines.

/// Best-response memo cache metrics emitted by the `nms-solver` game
/// engine and the `nms-sim` supervised runner (DESIGN.md §15).
pub mod solver {
    /// Counter: best-response invocations answered from a persistent cache.
    pub const CACHE_HITS: &str = "solver_cache_hits";
    /// Counter: best-response invocations recomputed under a persistent
    /// cache (including the ineligible ones).
    pub const CACHE_MISSES: &str = "solver_cache_misses";
    /// Counter: misses that could not be cached at all (battery-active
    /// customers, whose response consumes the CE RNG stream).
    pub const CACHE_INELIGIBLE: &str = "solver_cache_ineligible";
    /// Counter: entries evicted because their customer left the community
    /// being solved.
    pub const CACHE_EVICTIONS: &str = "solver_cache_evictions";
    /// Gauge: entries held by a supervised run's caches after its latest
    /// day.
    pub const CACHE_ENTRIES: &str = "solver_cache_entries";
}

/// Speculative day-pipeline metrics emitted by the `nms-sim` supervised
/// runner (DESIGN.md §15).
pub mod pipeline {
    /// Counter: days opened for precomputation (every day after a run's
    /// first).
    pub const SPECULATION_LAUNCHED: &str = "pipeline_speculation_launched";
    /// Counter: precomputed days whose compromise-set assumption held and
    /// whose inputs were committed.
    pub const SPECULATION_COMMITTED: &str = "pipeline_speculation_committed";
    /// Counter: precomputed days discarded: the assumption diverged (the
    /// clearing is kept and the realization recomputed) or the
    /// precomputation failed (the day is recomputed inline).
    pub const SPECULATION_DISCARDED: &str = "pipeline_speculation_discarded";
}

/// Fleet-supervision metrics emitted by the `nms-fleet` shard runner.
pub mod fleet {
    /// Counter: shard-days closed successfully (any rung).
    pub const DAYS_CLOSED: &str = "fleet_days_closed";
    /// Counter: day-level retry attempts consumed (ladder rung 1).
    pub const DAY_RETRIES: &str = "fleet_day_retries";
    /// Counter: full journal resumes, i.e. shard restarts (ladder rung 2).
    pub const SHARD_RESTARTS: &str = "fleet_shard_restarts";
    /// Counter: shard quarantines, i.e. breaker trips (ladder rung 3).
    pub const QUARANTINES: &str = "fleet_quarantines";
    /// Counter: day closes that breached the fleet's day-close deadline.
    pub const DEADLINE_BREACHES: &str = "fleet_deadline_breaches";
    /// Counter: days covered by degraded suspect-floor verdicts instead of
    /// real detection.
    pub const SUSPECT_FLOOR_DAYS: &str = "fleet_suspect_floor_days";
    /// Counter: shard panics contained by the supervisor.
    pub const PANICS_CONTAINED: &str = "fleet_panics_contained";
    /// Histogram: wall-clock seconds to close one shard-day.
    pub const DAY_CLOSE_SECONDS: &str = "fleet_day_close_seconds";
    /// Gauge: shards currently quarantined.
    pub const SHARDS_QUARANTINED: &str = "fleet_shards_quarantined";
    /// Gauge: shards currently active (not quarantined, not finished).
    pub const SHARDS_ACTIVE: &str = "fleet_shards_active";
}
