//! # rental-core
//!
//! Application / platform model and exact cost functions for the **MinCost**
//! problem of *"Minimizing Rental Cost for Multiple Recipe Applications in the
//! Cloud"* (Hanna et al., IPDPSW 2016).
//!
//! The model follows §III of the paper:
//!
//! * a **global application** `φ` can be computed by any of `J` alternative
//!   **recipes** (workflow DAGs) `ϕ¹ … ϕᴶ`;
//! * each recipe is a DAG of **typed tasks**; a task of type `q` can only run
//!   on a machine of type `q`;
//! * the **platform** offers `Q` machine types, type `q` costing `c_q` per
//!   hour and delivering throughput `r_q`;
//! * the goal is to choose per-recipe throughputs `ρ_j` with `Σ_j ρ_j ≥ ρ`
//!   and rent `x_q = ⌈Σ_j n_jq ρ_j / r_q⌉` machines of each type so that the
//!   total cost `Σ_q x_q c_q` is minimal.
//!
//! This crate provides the data model ([`Recipe`], [`Platform`],
//! [`GlobalApplication`], [`Instance`]), the exact cost algebra of §IV and
//! the sparse delta-evaluation search kernel ([`cost`]), the parallel
//! steepest-descent candidate scan ([`search`]), the solution representation
//! ([`ThroughputSplit`], [`Allocation`], [`Solution`]) and the instances used
//! in the paper's illustrating examples ([`examples`]). The optimization
//! algorithms live in the `rental-solvers` crate.
//!
//! ## Quick example
//!
//! ```
//! use rental_core::examples::illustrating_example;
//! use rental_core::prelude::*;
//!
//! let instance = illustrating_example();
//! // Cost of splitting a target throughput of 70 as (10, 30, 30),
//! // the optimal split reported in Table III of the paper.
//! assert_eq!(instance.split_cost(&[10, 30, 30]).unwrap(), 124);
//! ```

pub mod allocation;
pub mod application;
pub mod cost;
pub mod dot;
pub mod error;
pub mod examples;
pub mod instance;
pub mod plan;
pub mod platform;
pub mod recipe;
pub mod search;
pub mod types;

pub use allocation::{Allocation, Solution, ThroughputSplit};
pub use application::{GlobalApplication, TypeDemandMatrix};
pub use error::{ModelError, ModelResult};
pub use instance::{Instance, InstanceClasses};
pub use plan::{PlannedMachine, ProvisioningPlan, TypeSummary};
pub use platform::{MachineType, Platform};
pub use recipe::{Edge, Recipe, Task};
pub use types::{Cost, RecipeId, TaskId, Throughput, TypeId};

/// Commonly used items, for glob import in downstream crates and examples.
pub mod prelude {
    pub use crate::allocation::{Allocation, Solution, ThroughputSplit};
    pub use crate::application::{GlobalApplication, TypeDemandMatrix};
    pub use crate::error::{ModelError, ModelResult};
    pub use crate::instance::Instance;
    pub use crate::platform::{MachineType, Platform};
    pub use crate::recipe::{Edge, Recipe, Task};
    pub use crate::types::{Cost, RecipeId, TaskId, Throughput, TypeId};
}
