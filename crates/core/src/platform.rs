//! Cloud platform description: machine types, their throughput and rental cost.
//!
//! In the paper (§III) the cloud offers `Q` processor types. Renting one
//! machine of type `q` costs `c_q` per hour and that machine processes tasks
//! of type `q` at throughput `r_q` (data sets per time unit). All machines of
//! the same type are identical.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::application::same_or_equal;
use crate::error::{ModelError, ModelResult};
use crate::types::{Cost, Throughput, TypeId};

/// A single machine (processor/instance) type offered by the cloud.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MachineType {
    /// Throughput `r_q`: number of tasks of type `q` processed per time unit.
    pub throughput: Throughput,
    /// Hourly rental cost `c_q`.
    pub cost: Cost,
}

impl MachineType {
    /// Creates a new machine type with the given throughput and cost.
    pub fn new(throughput: Throughput, cost: Cost) -> Self {
        MachineType { throughput, cost }
    }

    /// Cost efficiency of the machine expressed as cost per unit of
    /// throughput (`c_q / r_q`), useful for ordering machine types.
    ///
    /// Returns `f64::INFINITY` when the throughput is zero.
    pub fn cost_per_throughput(&self) -> f64 {
        if self.throughput == 0 {
            f64::INFINITY
        } else {
            self.cost as f64 / self.throughput as f64
        }
    }
}

/// The set of machine types available for rent (`P_1 .. P_Q`).
///
/// The platform is indexed by [`TypeId`]; type `q` is both the task type and
/// the machine type able to process it. The machine list is immutable and
/// shared: a clone points at the same storage. Equality and hashing are by
/// value.
#[derive(Debug, Clone)]
pub struct Platform {
    machines: Arc<[MachineType]>,
}

impl PartialEq for Platform {
    fn eq(&self, other: &Self) -> bool {
        same_or_equal(&self.machines, &other.machines)
    }
}

impl Eq for Platform {}

impl Hash for Platform {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // A shared slice hashes exactly like the `Vec` it replaced.
        self.machines.hash(state);
    }
}

impl Platform {
    /// Builds a platform from a list of machine types.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyPlatform`] if the list is empty and
    /// [`ModelError::ZeroThroughput`] if any machine has throughput 0.
    pub fn new(machines: Vec<MachineType>) -> ModelResult<Self> {
        if machines.is_empty() {
            return Err(ModelError::EmptyPlatform);
        }
        for (q, machine) in machines.iter().enumerate() {
            if machine.throughput == 0 {
                return Err(ModelError::ZeroThroughput { type_id: TypeId(q) });
            }
        }
        Ok(Platform {
            machines: machines.into(),
        })
    }

    /// Builds a platform from `(throughput, cost)` pairs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Platform::new`].
    pub fn from_pairs(pairs: &[(Throughput, Cost)]) -> ModelResult<Self> {
        Platform::new(
            pairs
                .iter()
                .map(|&(throughput, cost)| MachineType::new(throughput, cost))
                .collect(),
        )
    }

    /// Number of machine types `Q`.
    #[inline]
    pub fn num_types(&self) -> usize {
        self.machines.len()
    }

    /// Returns the machine type `q`, if it exists.
    #[inline]
    pub fn machine(&self, type_id: TypeId) -> Option<&MachineType> {
        self.machines.get(type_id.index())
    }

    /// Throughput `r_q` of machine type `q`.
    ///
    /// # Panics
    ///
    /// Panics if `type_id` is out of range; platforms are validated at
    /// construction so this indicates a programming error.
    #[inline]
    pub fn throughput(&self, type_id: TypeId) -> Throughput {
        self.machines[type_id.index()].throughput
    }

    /// Hourly cost `c_q` of machine type `q`.
    ///
    /// # Panics
    ///
    /// Panics if `type_id` is out of range.
    #[inline]
    pub fn cost(&self, type_id: TypeId) -> Cost {
        self.machines[type_id.index()].cost
    }

    /// Iterates over `(TypeId, &MachineType)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TypeId, &MachineType)> {
        self.machines
            .iter()
            .enumerate()
            .map(|(q, machine)| (TypeId(q), machine))
    }

    /// All machine types as a slice, indexed by type.
    #[inline]
    pub fn machines(&self) -> &[MachineType] {
        &self.machines
    }

    /// Greatest common divisor of all machine throughputs.
    ///
    /// The heuristics of §VI move throughput between recipes in steps of `δ`;
    /// the natural granularity is the GCD of the machine throughputs (10 in
    /// the paper's illustrating example, which matches the steps visible in
    /// Table III).
    pub fn throughput_gcd(&self) -> Throughput {
        self.machines
            .iter()
            .map(|machine| machine.throughput)
            .fold(0, gcd)
    }

    /// The largest machine throughput, i.e. an upper bound on how much
    /// throughput one single rented machine can deliver.
    pub fn max_throughput(&self) -> Throughput {
        self.machines
            .iter()
            .map(|machine| machine.throughput)
            .max()
            .unwrap_or(0)
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table2_platform() -> Platform {
        // Table II of the paper.
        Platform::from_pairs(&[(10, 10), (20, 18), (30, 25), (40, 33)]).unwrap()
    }

    #[test]
    fn rejects_empty_platform() {
        assert_eq!(
            Platform::new(vec![]).unwrap_err(),
            ModelError::EmptyPlatform
        );
    }

    #[test]
    fn rejects_zero_throughput() {
        let err = Platform::from_pairs(&[(10, 5), (0, 3)]).unwrap_err();
        assert_eq!(err, ModelError::ZeroThroughput { type_id: TypeId(1) });
    }

    #[test]
    fn accessors_match_table2() {
        let platform = table2_platform();
        assert_eq!(platform.num_types(), 4);
        assert_eq!(platform.throughput(TypeId(0)), 10);
        assert_eq!(platform.cost(TypeId(0)), 10);
        assert_eq!(platform.throughput(TypeId(3)), 40);
        assert_eq!(platform.cost(TypeId(3)), 33);
        assert_eq!(platform.machine(TypeId(4)), None);
    }

    #[test]
    fn gcd_of_table2_is_ten() {
        assert_eq!(table2_platform().throughput_gcd(), 10);
    }

    #[test]
    fn max_throughput_of_table2_is_forty() {
        assert_eq!(table2_platform().max_throughput(), 40);
    }

    #[test]
    fn cost_per_throughput_orders_machines() {
        let platform = table2_platform();
        // P4 (33/40) is the most cost-efficient of Table II, P1 (10/10) the least.
        let efficiencies: Vec<f64> = platform
            .iter()
            .map(|(_, machine)| machine.cost_per_throughput())
            .collect();
        assert!(efficiencies[3] < efficiencies[2]);
        assert!(efficiencies[2] < efficiencies[1]);
        assert!(efficiencies[1] < efficiencies[0]);
    }

    #[test]
    fn zero_throughput_machine_has_infinite_efficiency() {
        assert!(MachineType::new(0, 5).cost_per_throughput().is_infinite());
    }

    #[test]
    fn iter_yields_all_types_in_order() {
        let platform = table2_platform();
        let ids: Vec<usize> = platform.iter().map(|(id, _)| id.index()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }
}
