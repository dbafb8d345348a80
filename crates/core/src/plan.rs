//! Provisioning plans: turn an abstract [`Solution`] (machine counts per
//! type) into the concrete list of instances to boot, with their expected
//! utilisation and the hourly bill breakdown.
//!
//! The paper's conclusion proposes using the MinCost solution as a pre-step
//! before deployment in systems such as Pegasus or CometCloud; this module is
//! that bridge: it enumerates the machines to rent and states, for each one,
//! the task type it will serve and the load it is expected to carry.

use std::fmt;

use crate::allocation::Solution;
use crate::error::{ModelError, ModelResult};
use crate::instance::Instance;
use crate::types::{Cost, TypeId};

/// One machine to rent.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedMachine {
    /// Machine (and task) type served by this instance.
    pub type_id: TypeId,
    /// Hourly rental cost of the instance.
    pub hourly_cost: Cost,
    /// Throughput capacity of the instance (tasks of its type per time unit).
    pub capacity: u64,
    /// Work assigned to this instance by the plan (tasks per time unit).
    /// Work of a type is spread evenly over the rented machines of that type.
    pub assigned_load: f64,
}

impl PlannedMachine {
    /// Expected utilisation of the machine (assigned load over capacity).
    pub fn utilisation(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.assigned_load / self.capacity as f64
        }
    }
}

/// Per-type aggregate of the plan.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeSummary {
    /// Machine / task type.
    pub type_id: TypeId,
    /// Number of machines of this type to rent.
    pub machines: u64,
    /// Total demand of this type induced by the throughput split.
    pub demand: u64,
    /// Total capacity rented for this type.
    pub capacity: u64,
    /// Hourly cost of the machines of this type.
    pub hourly_cost: Cost,
}

impl TypeSummary {
    /// Fraction of the rented capacity of this type that is actually used.
    fn utilisation(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.demand as f64 / self.capacity as f64
        }
    }
}

/// A concrete provisioning plan derived from a solution.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvisioningPlan {
    /// Target throughput the plan supports.
    pub target: u64,
    /// Per-recipe throughput shares of the underlying solution.
    pub split: Vec<u64>,
    /// Every machine to rent, grouped by type (machines of a type are listed
    /// consecutively).
    pub machines: Vec<PlannedMachine>,
    /// Per-type aggregates.
    pub per_type: Vec<TypeSummary>,
    /// Total hourly bill.
    pub hourly_cost: Cost,
}

impl ProvisioningPlan {
    /// Builds the plan realising `solution` on `instance`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::SplitArityMismatch`] / [`ModelError::CostOverflow`]
    /// if the solution does not belong to the instance.
    pub fn build(instance: &Instance, solution: &Solution) -> ModelResult<Self> {
        let platform = instance.platform();
        solution.split.check_arity(instance.num_recipes())?;
        let demand = instance
            .application()
            .demand()
            .demand_per_type(solution.split.shares())
            .ok_or(ModelError::CostOverflow)?;

        let mut machines = Vec::new();
        let mut per_type = Vec::with_capacity(platform.num_types());
        for (q, &demand_q) in demand.iter().enumerate() {
            let type_id = TypeId(q);
            let count = solution.allocation.machines(type_id);
            let capacity_each = platform.throughput(type_id);
            let cost_each = platform.cost(type_id);
            let load_each = if count == 0 {
                0.0
            } else {
                demand_q as f64 / count as f64
            };
            for _ in 0..count {
                machines.push(PlannedMachine {
                    type_id,
                    hourly_cost: cost_each,
                    capacity: capacity_each,
                    assigned_load: load_each,
                });
            }
            per_type.push(TypeSummary {
                type_id,
                machines: count,
                demand: demand[q],
                capacity: count * capacity_each,
                hourly_cost: count * cost_each,
            });
        }

        Ok(ProvisioningPlan {
            target: solution.target,
            split: solution.split.shares().to_vec(),
            machines,
            per_type,
            hourly_cost: solution.cost(),
        })
    }

    /// Total number of machines to rent.
    pub fn total_machines(&self) -> usize {
        self.machines.len()
    }

    /// Average utilisation over all rented machines (0.0 when nothing is rented).
    pub fn mean_utilisation(&self) -> f64 {
        if self.machines.is_empty() {
            return 0.0;
        }
        self.machines
            .iter()
            .map(PlannedMachine::utilisation)
            .sum::<f64>()
            / self.machines.len() as f64
    }

    /// Hourly cost paid for capacity that the plan does not use ("waste"):
    /// the cost-weighted idle fraction of every machine.
    pub fn idle_cost(&self) -> f64 {
        self.machines
            .iter()
            .map(|m| m.hourly_cost as f64 * (1.0 - m.utilisation()).max(0.0))
            .sum()
    }
}

impl fmt::Display for ProvisioningPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "provisioning plan for throughput {}: {} machines, {} / hour",
            self.target,
            self.total_machines(),
            self.hourly_cost
        )?;
        for summary in &self.per_type {
            if summary.machines == 0 {
                continue;
            }
            writeln!(
                f,
                "  {} x {} (demand {} / capacity {}, {:.0}% used, {} / hour)",
                summary.machines,
                summary.type_id,
                summary.demand,
                summary.capacity,
                100.0 * summary.utilisation(),
                summary.hourly_cost
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::ThroughputSplit;
    use crate::examples::illustrating_example;

    fn table3_rho70_plan() -> ProvisioningPlan {
        let instance = illustrating_example();
        let solution = instance
            .solution(70, ThroughputSplit::new(vec![10, 30, 30]))
            .unwrap();
        ProvisioningPlan::build(&instance, &solution).unwrap()
    }

    #[test]
    fn plan_matches_the_allocation() {
        let plan = table3_rho70_plan();
        assert_eq!(plan.hourly_cost, 124);
        assert_eq!(plan.total_machines(), 7); // 3 + 2 + 1 + 1
        assert_eq!(plan.per_type[0].machines, 3);
        assert_eq!(plan.per_type[1].machines, 2);
        assert_eq!(plan.per_type[2].machines, 1);
        assert_eq!(plan.per_type[3].machines, 1);
    }

    #[test]
    fn per_type_demand_matches_the_split() {
        let plan = table3_rho70_plan();
        // demand per type for split (10,30,30): [30, 40, 30, 40]
        let demand: Vec<u64> = plan.per_type.iter().map(|t| t.demand).collect();
        assert_eq!(demand, vec![30, 40, 30, 40]);
        // Capacity always covers demand.
        for summary in &plan.per_type {
            assert!(summary.capacity >= summary.demand);
            assert!(summary.utilisation() <= 1.0);
        }
    }

    #[test]
    fn machine_loads_are_spread_evenly() {
        let plan = table3_rho70_plan();
        // The three type-1 machines share a demand of 30 -> 10 each, fully used.
        let type1: Vec<&PlannedMachine> = plan
            .machines
            .iter()
            .filter(|m| m.type_id == TypeId(0))
            .collect();
        assert_eq!(type1.len(), 3);
        for machine in type1 {
            assert!((machine.assigned_load - 10.0).abs() < 1e-9);
            assert!((machine.utilisation() - 1.0).abs() < 1e-9);
        }
        // The two type-2 machines share 40 -> utilisation 1.0; type-4 shares 40/40.
        assert!(plan.mean_utilisation() > 0.9);
    }

    #[test]
    fn idle_cost_is_zero_when_everything_is_fully_used() {
        let plan = table3_rho70_plan();
        // At rho = 70 with the optimal split every machine is fully used.
        assert!(plan.idle_cost() < 1e-9);
        // At rho = 10 on recipe 3 alone, the type-2 machine is half idle.
        let instance = illustrating_example();
        let solution = instance
            .solution(10, ThroughputSplit::new(vec![0, 0, 10]))
            .unwrap();
        let small_plan = ProvisioningPlan::build(&instance, &solution).unwrap();
        assert!(small_plan.idle_cost() > 0.0);
        assert!(small_plan.mean_utilisation() < 1.0);
    }

    #[test]
    fn display_lists_only_rented_types() {
        let instance = illustrating_example();
        let solution = instance
            .solution(10, ThroughputSplit::new(vec![0, 0, 10]))
            .unwrap();
        let plan = ProvisioningPlan::build(&instance, &solution).unwrap();
        let text = plan.to_string();
        assert!(text.contains("t1"));
        assert!(text.contains("t2"));
        assert!(!text.contains("t3"));
        assert!(!text.contains("t4"));
    }

    #[test]
    fn empty_solution_yields_an_empty_plan() {
        let instance = illustrating_example();
        let solution = instance.solution(0, ThroughputSplit::zeros(3)).unwrap();
        let plan = ProvisioningPlan::build(&instance, &solution).unwrap();
        assert_eq!(plan.total_machines(), 0);
        assert_eq!(plan.hourly_cost, 0);
        assert_eq!(plan.mean_utilisation(), 0.0);
        assert_eq!(plan.idle_cost(), 0.0);
    }

    #[test]
    fn mismatched_solutions_are_rejected() {
        let instance = illustrating_example();
        let foreign = Solution {
            target: 10,
            split: ThroughputSplit::new(vec![10, 0]),
            allocation: crate::allocation::Allocation::from_counts(
                vec![1, 0, 0, 0],
                instance.platform(),
            )
            .unwrap(),
        };
        assert!(ProvisioningPlan::build(&instance, &foreign).is_err());
    }
}
