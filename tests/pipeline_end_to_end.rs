//! Cross-crate integration tests: generate random instances, solve them with
//! the whole algorithm suite, cross-check exact methods against each other
//! and validate allocations with the streaming simulator.

use multi_recipe_cloud::prelude::*;

#[test]
fn generated_instances_flow_through_the_whole_pipeline() {
    let mut generator = InstanceGenerator::new(GeneratorConfig::tiny(), 7);
    for round in 0..5u64 {
        let instance = generator.generate_instance();
        let target = 40 + round * 20;
        let ilp = IlpSolver::new()
            .solve(&instance, target)
            .expect("generated instances are solvable");
        // Every heuristic is feasible and never better than the optimum.
        let heuristics: Vec<Box<dyn MinCostSolver>> = vec![
            Box::new(RandomSplitSolver::with_seed(round)),
            Box::new(BestGraphSolver),
            Box::new(RandomWalkSolver::with_seed(round)),
            Box::new(StochasticDescentSolver::with_seed(round)),
            Box::new(SteepestGradientSolver::default()),
            Box::new(SteepestGradientJumpSolver::with_seed(round)),
        ];
        for heuristic in &heuristics {
            let outcome = heuristic.solve(&instance, target).unwrap();
            assert!(
                outcome.solution.split.covers(target),
                "{}",
                heuristic.name()
            );
            assert!(
                outcome.cost() >= ilp.cost(),
                "{} beat the ILP on round {round}",
                heuristic.name()
            );
        }
        // The optimal allocation sustains the target in the simulator.
        let report = StreamSimulator::new(SimulationConfig::new(20.0, 5.0))
            .simulate(&instance, &ilp.solution);
        assert!(
            report.sustains(target, 0.9),
            "round {round}: sustained {:.1} of {target}",
            report.sustained_throughput
        );
    }
}

#[test]
fn exact_methods_agree_where_their_domains_overlap() {
    // Black-box instances: the knapsack DP, the no-shared DP, the ILP and the
    // brute force must all return the same optimal cost.
    let platform = Platform::from_pairs(&[(10, 9), (25, 20), (40, 37)]).unwrap();
    let recipes = vec![
        Recipe::independent_tasks(RecipeId(0), &[TypeId(0)]).unwrap(),
        Recipe::independent_tasks(RecipeId(1), &[TypeId(1)]).unwrap(),
        Recipe::independent_tasks(RecipeId(2), &[TypeId(2)]).unwrap(),
    ];
    let instance = Instance::new(recipes, platform).unwrap();
    for target in [15u64, 42, 77, 100] {
        let knapsack = BlackBoxKnapsackSolver.solve(&instance, target).unwrap();
        let dp = DpNoSharedSolver::new().solve(&instance, target).unwrap();
        let ilp = IlpSolver::new().solve(&instance, target).unwrap();
        let brute = BruteForceSolver::with_step(1)
            .solve(&instance, target)
            .unwrap();
        assert_eq!(knapsack.cost(), ilp.cost(), "target {target}");
        assert_eq!(dp.cost(), ilp.cost(), "target {target}");
        assert_eq!(brute.cost(), ilp.cost(), "target {target}");
    }
}

#[test]
fn no_shared_dp_agrees_with_ilp_on_disjoint_instances() {
    let platform =
        Platform::from_pairs(&[(10, 10), (20, 18), (30, 25), (40, 33), (15, 11), (35, 29)])
            .unwrap();
    let recipes = vec![
        Recipe::chain(RecipeId(0), &[TypeId(0), TypeId(1), TypeId(0)]).unwrap(),
        Recipe::chain(RecipeId(1), &[TypeId(2), TypeId(3)]).unwrap(),
        Recipe::chain(RecipeId(2), &[TypeId(4), TypeId(5), TypeId(5)]).unwrap(),
    ];
    let instance = Instance::new(recipes, platform).unwrap();
    for target in [25u64, 60, 110] {
        let dp = DpNoSharedSolver::new().solve(&instance, target).unwrap();
        let ilp = IlpSolver::new().solve(&instance, target).unwrap();
        assert_eq!(dp.cost(), ilp.cost(), "target {target}");
    }
}

#[test]
fn suite_and_experiment_harness_work_on_generated_medium_instances() {
    use multi_recipe_cloud::experiments::{
        figure_rows, rows_csv, run_experiment, ExperimentSpec, Metric,
    };

    let mut suite = SuiteConfig::with_seed(11);
    // Keep the test bounded even on an unlucky instance: a time-limited ILP
    // still provides the best-known reference for normalisation.
    suite.ilp_time_limit = Some(10.0);
    let spec = ExperimentSpec {
        name: "integration-medium".to_string(),
        generator: GeneratorConfig::medium_graphs(),
        num_configs: 2,
        targets: vec![60, 140],
        seed: 11,
        suite,
        threads: Some(2),
    };
    let results = run_experiment(&spec);
    assert_eq!(results.num_configs, 2);
    // The ILP is (near-)optimal and the heuristics stay close (paper: within 6%).
    // With the safety time limit the ILP may occasionally return a merely
    // feasible incumbent, so allow a sliver of slack on its normalisation.
    for (s, name) in results.solvers.iter().enumerate() {
        for cell in &results.cells[s] {
            if name == "ILP" {
                assert!(
                    cell.normalised.mean > 0.98,
                    "ILP unexpectedly far from best"
                );
            } else {
                assert!(cell.normalised.mean > 0.80, "{name} too far from optimal");
            }
        }
    }
    let csv = rows_csv(&figure_rows(&results, Metric::NormalisedCost));
    assert!(csv.lines().count() > 1);
}

#[test]
fn single_recipe_and_independent_cases_match_the_general_machinery() {
    use multi_recipe_cloud::solvers::exact::independent_applications_solution;

    let platform = Platform::from_pairs(&[(12, 7), (30, 21)]).unwrap();
    let recipe = Recipe::chain(RecipeId(0), &[TypeId(0), TypeId(1), TypeId(1)]).unwrap();
    let instance = Instance::new(vec![recipe], platform).unwrap();
    for target in [1u64, 13, 59, 120] {
        let closed_form = SingleRecipeSolver.solve(&instance, target).unwrap();
        let ilp = IlpSolver::new().solve(&instance, target).unwrap();
        assert_eq!(closed_form.cost(), ilp.cost(), "target {target}");
    }

    // Independent applications with prescribed throughputs evaluate the same
    // cost as the instance-level split evaluation.
    let instance = rental_core::examples::illustrating_example();
    let prescribed = [20u64, 40, 10];
    let solution = independent_applications_solution(&instance, &prescribed).unwrap();
    assert_eq!(solution.cost(), instance.split_cost(&prescribed).unwrap());
}
