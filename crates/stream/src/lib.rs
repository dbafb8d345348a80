//! # rental-stream
//!
//! A discrete-event streaming simulator that *executes* a MinCost solution:
//! items arrive at the prescribed rate, are dispatched to the alternative
//! recipes proportionally to the chosen throughput split, flow through the
//! recipe DAGs on the rented machine pools, and exit through an in-order
//! reorder buffer (the buffer whose existence §I of the paper assumes).
//!
//! The simulator closes the loop on the analytical model: an allocation that
//! the cost functions of `rental-core` deem sufficient must actually sustain
//! the target throughput when executed. The integration tests and the
//! `validate_with_stream_sim` example use it exactly that way.
//!
//! ```
//! use rental_core::examples::illustrating_example;
//! use rental_core::ThroughputSplit;
//! use rental_stream::{SimulationConfig, StreamSimulator};
//!
//! let instance = illustrating_example();
//! let solution = instance
//!     .solution(70, ThroughputSplit::new(vec![10, 30, 30]))
//!     .unwrap();
//! let report = StreamSimulator::new(SimulationConfig::new(60.0, 20.0))
//!     .simulate(&instance, &solution);
//! assert!(report.sustains(70, 0.95));
//! ```

//! Beyond the validation role, the crate also ships the elasticity substrate
//! used by the extension experiments: time-varying [`workload`] traces,
//! reproducible machine [`failure`] injection and an epoch-based
//! [`autoscale`] controller that follows a trace while keeping the recipe mix
//! of a MinCost solution.

pub mod autoscale;
pub mod event;
pub mod failure;
pub mod machine;
pub mod reorder;
pub mod simulator;
pub mod workload;

pub use autoscale::{
    AutoscalePolicy, AutoscaleReport, Autoscaler, EpochRecord, FixedMixScaler, FixedMixState,
};
pub use event::{Event, EventKind, EventQueue, SimTime};
pub use failure::{FailureModel, FailureTrace, Outage, OutageCursor};
pub use machine::{MachinePool, WorkItem};
pub use reorder::ReorderBuffer;
pub use simulator::{SimulationConfig, SimulationReport, StreamSimulator};
pub use workload::{TraceSegment, WorkloadTrace};
