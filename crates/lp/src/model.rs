//! Linear / mixed-integer program builder.
//!
//! The builder produces a [`Model`]: minimize (or maximize) a linear objective
//! over non-negative (by default) bounded variables subject to linear
//! constraints. Variables may be flagged as integer, in which case the model
//! is a MILP and should be solved with [`crate::mip::MipSolver`]; the LP
//! relaxation is solved with [`crate::simplex`].

use crate::error::{LpError, LpResult};

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective (the default for rental-cost problems).
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Relation of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `Σ a_i x_i ≤ b`
    LessEq,
    /// `Σ a_i x_i ≥ b`
    GreaterEq,
    /// `Σ a_i x_i = b`
    Equal,
}

/// Index of a decision variable in a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub usize);

impl VarId {
    /// Zero-based index of the variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// A decision variable: bounds, integrality and a name for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct Variable {
    /// Lower bound (defaults to 0).
    pub lower: f64,
    /// Upper bound (defaults to +∞).
    pub upper: f64,
    /// Whether the variable must take an integer value in MILP solves.
    pub integer: bool,
    /// Human-readable name used in debugging output.
    pub name: String,
}

/// A linear constraint `Σ a_i x_i (≤ | ≥ | =) b`.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Sparse list of `(variable, coefficient)` terms.
    pub terms: Vec<(VarId, f64)>,
    /// Relation between the linear form and the right-hand side.
    pub relation: Relation,
    /// Right-hand side constant.
    pub rhs: f64,
}

/// A linear or mixed-integer program.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    sense: Sense,
    variables: Vec<Variable>,
    objective: Vec<f64>,
    constraints: Vec<Constraint>,
}

impl Model {
    /// Creates an empty model with the given optimization sense.
    fn new(sense: Sense) -> Self {
        Model {
            sense,
            variables: Vec::new(),
            objective: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Creates an empty minimization model.
    pub fn minimize() -> Self {
        Model::new(Sense::Minimize)
    }

    /// Creates an empty maximization model.
    pub fn maximize() -> Self {
        Model::new(Sense::Maximize)
    }

    /// Adds a continuous variable with bounds `[lower, upper]` and objective
    /// coefficient `cost`. Returns its identifier.
    pub fn add_var(&mut self, name: impl Into<String>, cost: f64, lower: f64, upper: f64) -> VarId {
        self.variables.push(Variable {
            lower,
            upper,
            integer: false,
            name: name.into(),
        });
        self.objective.push(cost);
        VarId(self.variables.len() - 1)
    }

    /// Adds an integer variable with bounds `[lower, upper]` and objective
    /// coefficient `cost`. Returns its identifier.
    pub fn add_int_var(
        &mut self,
        name: impl Into<String>,
        cost: f64,
        lower: f64,
        upper: f64,
    ) -> VarId {
        let id = self.add_var(name, cost, lower, upper);
        self.variables[id.index()].integer = true;
        id
    }

    /// Adds a non-negative continuous variable (`x ≥ 0`).
    pub fn add_nonneg_var(&mut self, name: impl Into<String>, cost: f64) -> VarId {
        self.add_var(name, cost, 0.0, f64::INFINITY)
    }

    /// Adds a non-negative integer variable (`x ∈ ℕ`).
    pub fn add_nonneg_int_var(&mut self, name: impl Into<String>, cost: f64) -> VarId {
        self.add_int_var(name, cost, 0.0, f64::INFINITY)
    }

    /// Adds a linear constraint.
    pub fn add_constraint(&mut self, terms: Vec<(VarId, f64)>, relation: Relation, rhs: f64) {
        self.constraints.push(Constraint {
            terms,
            relation,
            rhs,
        });
    }

    /// Optimization sense of the model.
    #[inline]
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Number of declared variables.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.variables.len()
    }

    /// Number of constraints.
    #[inline]
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The declared variables.
    #[inline]
    pub fn variables(&self) -> &[Variable] {
        &self.variables
    }

    /// The objective coefficients, indexed by variable.
    #[inline]
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// The constraints.
    #[inline]
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// True if at least one variable is integer (the model is a MILP).
    pub fn has_integer_vars(&self) -> bool {
        self.variables.iter().any(|v| v.integer)
    }

    /// Indices of the integer variables.
    pub fn integer_vars(&self) -> Vec<VarId> {
        self.variables
            .iter()
            .enumerate()
            .filter(|(_, v)| v.integer)
            .map(|(i, _)| VarId(i))
            .collect()
    }

    /// Evaluates the objective at a point.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Checks whether a point satisfies all constraints and bounds within
    /// tolerance `tol`. Useful for tests and for verifying incumbents.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.variables.len() {
            return false;
        }
        for (i, var) in self.variables.iter().enumerate() {
            if x[i] < var.lower - tol || x[i] > var.upper + tol {
                return false;
            }
        }
        for constraint in &self.constraints {
            let lhs: f64 = constraint
                .terms
                .iter()
                .map(|&(var, coeff)| coeff * x[var.index()])
                .sum();
            let ok = match constraint.relation {
                Relation::LessEq => lhs <= constraint.rhs + tol,
                Relation::GreaterEq => lhs >= constraint.rhs - tol,
                Relation::Equal => (lhs - constraint.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Validates the structural consistency of the model: every constraint
    /// references declared variables, bounds are ordered, and every
    /// coefficient is finite (bounds may be infinite).
    pub fn validate(&self) -> LpResult<()> {
        if self.variables.is_empty() {
            return Err(LpError::EmptyModel);
        }
        for (i, var) in self.variables.iter().enumerate() {
            if var.lower > var.upper {
                return Err(LpError::InvalidBounds { var: i });
            }
            if var.lower.is_nan() || var.upper.is_nan() {
                return Err(LpError::NonFiniteCoefficient);
            }
        }
        for &c in &self.objective {
            if !c.is_finite() {
                return Err(LpError::NonFiniteCoefficient);
            }
        }
        for constraint in &self.constraints {
            if !constraint.rhs.is_finite() {
                return Err(LpError::NonFiniteCoefficient);
            }
            for &(var, coeff) in &constraint.terms {
                if var.index() >= self.variables.len() {
                    return Err(LpError::UnknownVariable {
                        var: var.index(),
                        declared: self.variables.len(),
                    });
                }
                if !coeff.is_finite() {
                    return Err(LpError::NonFiniteCoefficient);
                }
            }
        }
        Ok(())
    }

    /// Tightens variable `var`'s upper bound to `min(current, upper)` in
    /// place. This is how capacity-constrained formulations thread external
    /// per-variable quotas (e.g. a cloud's per-type machine quota) into a
    /// model that was built without them.
    ///
    /// # Panics
    ///
    /// Panics if the variable does not exist.
    pub fn tighten_upper(&mut self, var: VarId, upper: f64) {
        let v = &mut self.variables[var.index()];
        v.upper = v.upper.min(upper);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_model() -> (Model, VarId, VarId) {
        // minimize 3x + 2y  s.t. x + y >= 4, x <= 3, x,y >= 0
        let mut model = Model::minimize();
        let x = model.add_nonneg_var("x", 3.0);
        let y = model.add_nonneg_var("y", 2.0);
        model.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::GreaterEq, 4.0);
        model.add_constraint(vec![(x, 1.0)], Relation::LessEq, 3.0);
        (model, x, y)
    }

    #[test]
    fn builder_tracks_dimensions() {
        let (model, x, y) = small_model();
        assert_eq!(model.num_vars(), 2);
        assert_eq!(model.num_constraints(), 2);
        assert_eq!(x, VarId(0));
        assert_eq!(y, VarId(1));
        assert!(!model.has_integer_vars());
        assert!(model.validate().is_ok());
    }

    #[test]
    fn integer_vars_are_tracked() {
        let mut model = Model::minimize();
        let x = model.add_nonneg_int_var("x", 1.0);
        let y = model.add_nonneg_var("y", 1.0);
        let z = model.add_int_var("z", 1.0, 0.0, 5.0);
        assert!(model.has_integer_vars());
        assert_eq!(model.integer_vars(), vec![x, z]);
        assert!(!model.variables()[y.index()].integer);
    }

    #[test]
    fn objective_value_is_dot_product() {
        let (model, _, _) = small_model();
        assert_eq!(model.objective_value(&[1.0, 3.0]), 9.0);
        assert_eq!(model.objective_value(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn feasibility_check_respects_all_constraints() {
        let (model, _, _) = small_model();
        assert!(model.is_feasible(&[1.0, 3.0], 1e-9));
        assert!(model.is_feasible(&[3.0, 1.0], 1e-9));
        assert!(!model.is_feasible(&[4.0, 1.0], 1e-9)); // x <= 3 violated
        assert!(!model.is_feasible(&[1.0, 1.0], 1e-9)); // x + y >= 4 violated
        assert!(!model.is_feasible(&[-1.0, 6.0], 1e-9)); // bound violated
        assert!(!model.is_feasible(&[1.0], 1e-9)); // wrong arity
    }

    #[test]
    fn validation_catches_unknown_variable() {
        let mut model = Model::minimize();
        let _ = model.add_nonneg_var("x", 1.0);
        model.add_constraint(vec![(VarId(5), 1.0)], Relation::LessEq, 1.0);
        assert_eq!(
            model.validate().unwrap_err(),
            LpError::UnknownVariable {
                var: 5,
                declared: 1
            }
        );
    }

    #[test]
    fn validation_catches_bad_bounds_and_nan() {
        let mut model = Model::minimize();
        let _ = model.add_var("x", 1.0, 5.0, 2.0);
        assert_eq!(
            model.validate().unwrap_err(),
            LpError::InvalidBounds { var: 0 }
        );

        let mut model = Model::minimize();
        let _ = model.add_var("x", f64::NAN, 0.0, 1.0);
        assert_eq!(model.validate().unwrap_err(), LpError::NonFiniteCoefficient);

        assert_eq!(
            Model::minimize().validate().unwrap_err(),
            LpError::EmptyModel
        );
    }

    #[test]
    fn tighten_upper_intersects_in_place() {
        let mut model = Model::minimize();
        let x = model.add_int_var("x", 1.0, 0.0, 10.0);
        model.tighten_upper(x, 6.0);
        assert_eq!(model.variables()[0].upper, 6.0);
        // Only ever tightens, never loosens.
        model.tighten_upper(x, 8.0);
        assert_eq!(model.variables()[0].upper, 6.0);
        model.tighten_upper(x, f64::INFINITY);
        assert_eq!(model.variables()[0].upper, 6.0);
    }
}
