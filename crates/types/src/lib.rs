//! Typed physical quantities, identifiers, and scheduling-horizon types shared
//! by every crate in the netmeter-sentinel workspace.
//!
//! The smart-grid literature mixes energies, powers, prices, and money freely;
//! this crate gives each its own newtype so that a kWh can never be added to a
//! dollar by accident. All quantities wrap `f64` and implement the arithmetic
//! that is physically meaningful (energy + energy, price × energy = money, …).
//!
//! # Examples
//!
//! ```
//! use nms_types::{Kwh, PricePerKwh};
//!
//! let consumed = Kwh::new(3.5);
//! let price = PricePerKwh::new(0.12);
//! let bill = price * consumed;
//! assert!((bill.value() - 0.42).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod fleet;
mod hash;
mod health;
mod horizon;
mod id;
mod quantity;
mod series;

pub use error::{HorizonMismatchError, ValidateError};
pub use fleet::{FleetHealth, ShardHealth, ShardStage};
pub use hash::{fnv1a64, Fnv1a};
pub use health::{
    BudgetClock, DayHealth, FallbackRecord, FaultCounts, FaultKind, RetryPolicy, RunHealth,
    SolveBudget, StorageFaultCounts, StorageFaultLedger,
};
pub use horizon::{Horizon, SlotClock};
pub use id::{ApplianceId, CustomerId, MeterId};
pub use quantity::{Dollars, Kw, Kwh, PricePerKwh};
pub use series::TimeSeries;
