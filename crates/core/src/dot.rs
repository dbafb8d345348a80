//! Graphviz DOT export of applications, for documentation and
//! debugging of generated instances (the paper's Figures 1 and 2 are exactly
//! such drawings).

use std::fmt::Write as _;

use crate::application::GlobalApplication;
use crate::types::{RecipeId, TaskId};

/// Renders every recipe of an application as one DOT document with a cluster
/// per recipe, mirroring the side-by-side layout of Figure 1 / Figure 2.
pub fn application_to_dot(app: &GlobalApplication) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph application {{");
    let _ = writeln!(out, "  rankdir=TB;");
    let _ = writeln!(out, "  node [shape=circle];");
    for (j, recipe) in app.recipes().iter().enumerate() {
        let id = RecipeId(j);
        let _ = writeln!(out, "  subgraph cluster_{j} {{");
        let _ = writeln!(out, "    label=\"{id}\";");
        for (i, task) in recipe.tasks().iter().enumerate() {
            let _ = writeln!(
                out,
                "    {id}_t{i} [label=\"{}{}\\n{}\"];",
                id,
                TaskId(i),
                task.type_id
            );
        }
        for edge in recipe.edges() {
            let _ = writeln!(out, "    {id}_t{} -> {id}_t{};", edge.from, edge.to);
        }
        let _ = writeln!(out, "  }}");
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::{figure1_example, illustrating_example};

    #[test]
    fn application_dot_lists_every_task_and_edge() {
        let instance = illustrating_example();
        let dot = application_to_dot(instance.application());
        assert!(dot.starts_with("digraph application {"));
        assert!(dot.contains("phi1_t0"));
        assert!(dot.contains("phi1_t1"));
        assert!(dot.contains("phi1_t0 -> phi1_t1;"));
        assert!(dot.trim_end().ends_with('}'));
        // Type labels are 1-based as in the paper (task types 2 and 4).
        assert!(dot.contains("t2"));
        assert!(dot.contains("t4"));
    }

    #[test]
    fn application_dot_has_one_cluster_per_recipe() {
        let instance = figure1_example();
        let dot = application_to_dot(instance.application());
        assert_eq!(dot.matches("subgraph cluster_").count(), 3);
        // Every dependency edge of every recipe appears exactly once.
        let total_edges: usize = instance
            .application()
            .recipes()
            .iter()
            .map(|r| r.edges().len())
            .sum();
        assert_eq!(dot.matches(" -> ").count(), total_edges);
    }

    #[test]
    fn dot_output_is_balanced() {
        let instance = illustrating_example();
        let dot = application_to_dot(instance.application());
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
    }
}
