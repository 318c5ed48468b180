//! The scratch arena for best-response solves (DESIGN.md §11).
//!
//! One best response alternates DP appliance scheduling with a CE battery
//! step, `inner_iters` times, inside game rounds × customers × days ×
//! sweep points. Every buffer those kernels touch per iteration lives here,
//! so a warm [`ResponseWorkspace`] makes the steady-state hot path
//! allocation-free: the DP value/back-pointer tables ([`DpWorkspace`]), the
//! CE population ([`CeWorkspace`]), the hoisted per-slot billing table
//! ([`HoistedCostTable`]), and the response-level series buffers.
//!
//! # Lifecycle
//!
//! Hold one workspace per thread of execution and pass it to
//! [`best_response_in`](crate::best_response_in) for every solve: the
//! Gauss–Seidel game loop keeps a single workspace across all customers
//! and rounds. Buffers carry no state between
//! solves — every solve fully reinitializes the prefix it reads — so reuse
//! is bit-identical to fresh allocation (`tests/solver_workspace.rs` pins
//! this byte-for-byte).

use nms_pricing::HoistedCostTable;
use nms_types::{Horizon, Kwh, TimeSeries};

use crate::ce::CeWorkspace;
use crate::dp::DpWorkspace;

/// Reusable scratch arena for [`best_response_in`](crate::best_response_in).
///
/// See the [module docs](self) for the lifecycle contract. A default-built
/// workspace is empty; buffers grow to the largest customer seen and stay
/// warm from then on.
#[derive(Debug, Clone, Default)]
pub struct ResponseWorkspace {
    /// DP value/back-pointer tables.
    pub(crate) dp: DpWorkspace,
    /// CE population/elite buffers for the battery step.
    pub(crate) ce: CeWorkspace,
    /// Per-slot billing terms hoisted once per response.
    pub(crate) table: HoistedCostTable,
    /// Fixed per-slot trading base seen by the appliance under reschedule.
    pub(crate) base: Vec<f64>,
    /// Battery contribution to own trading (`b^{h+1} − b^h`).
    pub(crate) battery_delta: Vec<f64>,
    /// The customer's PV generation per slot.
    pub(crate) generation: Option<TimeSeries<f64>>,
    /// Total appliance + base load per slot (battery-step input).
    pub(crate) load: Option<TimeSeries<f64>>,
    /// Per-appliance energy series under coordinate descent.
    pub(crate) energies: Vec<TimeSeries<f64>>,
    /// The battery state-of-charge trajectory `b⁰..b^H`.
    pub(crate) battery: Vec<Kwh>,
    /// Previous-trajectory warm start (interior `b¹..b^H`).
    pub(crate) warm_prev: Vec<f64>,
    /// Coordinate-descent sweep candidate (interior `b¹..b^H`).
    pub(crate) swept: Vec<f64>,
}

impl ResponseWorkspace {
    /// An empty workspace; buffers are grown on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Reuses `slot`'s series when it already spans `horizon`, otherwise
/// replaces it with a zero-filled one of the right length.
pub(crate) fn series_for<'a>(
    slot: &'a mut Option<TimeSeries<f64>>,
    horizon: Horizon,
) -> &'a mut TimeSeries<f64> {
    match slot {
        Some(series) if series.horizon() == horizon => {}
        _ => *slot = Some(TimeSeries::filled(horizon, 0.0)),
    }
    slot.as_mut().expect("series populated above")
}
