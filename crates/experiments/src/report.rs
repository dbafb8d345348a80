//! The lanes' outputs. Every lane's only hand-written output is its JSON
//! Lines rows ([`rental_obs::json::JsonRow`], the encoder the telemetry
//! substrate dumps with); one renderer turns those rows into CSV
//! ([`rows_csv`]) and Markdown ([`rows_markdown`]), so a new column is one
//! builder call and the renderings cannot disagree about what a lane
//! measured. Three pages are not row dumps and stay hand-written: Table III
//! ([`table3_markdown`]), the figure pivots ([`figure_markdown`]) — the
//! paper's own table shapes — and the fleet-obs report
//! ([`crate::fleet_obs::fleet_obs_markdown`]).

use std::borrow::Cow;
use std::fmt::Write as _;

pub use rental_obs::json::lines as rows_jsonl;
use rental_obs::json::JsonRow;

use crate::runner::ExperimentResults;
use crate::table3::Table3Row;

/// Rows a Markdown table shows; one line counts the rest.
pub const MARKDOWN_ROWS: usize = 32;

/// The keys of `rows`, in first-appearance order.
fn key_union<'a>(rows: impl IntoIterator<Item = &'a JsonRow>) -> Vec<&'a str> {
    let mut keys = Vec::new();
    for row in rows {
        for (key, _) in row.fields() {
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
    }
    keys
}

/// A CSV cell: the text itself, or quoted per RFC 4180 when it holds a
/// comma, a double quote, CR or LF.
fn csv_cell(text: &str) -> Cow<'_, str> {
    if text.contains([',', '"', '\r', '\n']) {
        format!("\"{}\"", text.replace('"', "\"\"")).into()
    } else {
        text.into()
    }
}

/// Renders `rows` as one CSV table. The header is the union of the rows'
/// keys in first-appearance order; a row leaves empty every key it lacks.
/// A cell carries its JSON value's text (a string's own characters, any
/// other value's literal, so a non-finite float reads `null`).
pub fn rows_csv(rows: &[JsonRow]) -> String {
    let keys = key_union(rows);
    let line = |cells: Vec<Cow<'_, str>>| cells.join(",") + "\n";
    let mut out = line(keys.iter().map(|key| csv_cell(key)).collect());
    for row in rows {
        out += &line(
            keys.iter()
                .map(|key| csv_cell(row.get(key).unwrap_or("")))
                .collect(),
        );
    }
    out
}

/// Renders `rows` as Markdown: one table per record kind (the `record`
/// key, in first-appearance order) with that kind's keys as columns. A
/// table shows at most [`MARKDOWN_ROWS`] rows, then one line counting the
/// rows only the CSV and JSON carry. `|` is escaped and line breaks become
/// spaces, so every row stays one table line.
pub fn rows_markdown(rows: &[JsonRow]) -> String {
    let mut kinds: Vec<&str> = Vec::new();
    for kind in rows.iter().map(record) {
        if !kinds.contains(&kind) {
            kinds.push(kind);
        }
    }
    let line = |cells: Vec<String>| format!("| {} |\n", cells.join(" | "));
    let mut out = String::new();
    for kind in kinds {
        let group: Vec<&JsonRow> = rows.iter().filter(|row| record(row) == kind).collect();
        let keys = key_union(group.iter().copied());
        if !out.is_empty() {
            out.push('\n');
        }
        out += &line(keys.iter().map(|key| markdown_cell(key)).collect());
        out += &line(vec!["---".to_string(); keys.len()]);
        for row in group.iter().take(MARKDOWN_ROWS) {
            out += &line(
                keys.iter()
                    .map(|key| markdown_cell(row.get(key).unwrap_or("")))
                    .collect(),
            );
        }
        if group.len() > MARKDOWN_ROWS {
            let _ = writeln!(
                out,
                "\n… {} more `{}` rows in the CSV and JSON output",
                group.len() - MARKDOWN_ROWS,
                markdown_cell(kind),
            );
        }
    }
    out
}

/// A row's record kind (empty when it has no `record` key).
fn record(row: &JsonRow) -> &str {
    row.get("record").unwrap_or("")
}

/// A Markdown table cell: `|` escaped, CR and LF turned into spaces.
fn markdown_cell(text: &str) -> String {
    text.replace('|', "\\|").replace(['\r', '\n'], " ")
}

/// Renders Table III as a Markdown table (one row per target, one pair of
/// columns — split and cost — per solver).
pub fn table3_markdown(rows: &[Table3Row]) -> String {
    let mut out = String::new();
    if rows.is_empty() {
        return out;
    }
    let solvers: Vec<&str> = rows[0].cells.iter().map(|c| c.solver.as_str()).collect();
    let _ = write!(out, "| rho |");
    for solver in &solvers {
        let _ = write!(out, " {solver} split | {solver} cost |");
    }
    let _ = writeln!(out);
    let _ = write!(out, "|---|");
    for _ in &solvers {
        let _ = write!(out, "---|---|");
    }
    let _ = writeln!(out);
    for row in rows {
        let _ = write!(out, "| {} |", row.target);
        for cell in &row.cells {
            let _ = write!(out, " {} | {} |", cell.split, cell.cost);
        }
        let _ = writeln!(out);
    }
    out
}

/// Table III's rows: one `table3` row per `(target, solver)` cell.
pub fn table3_rows(rows: &[Table3Row]) -> Vec<JsonRow> {
    let mut out = Vec::new();
    for row in rows {
        for cell in &row.cells {
            let split: Vec<String> = cell.split.shares().iter().map(u64::to_string).collect();
            out.push(
                JsonRow::new()
                    .str("record", "table3")
                    .u64("rho", row.target)
                    .str("solver", &cell.solver)
                    .str("split", &split.join(" "))
                    .u64("cost", cell.cost),
            );
        }
    }
    out
}

/// Which metric of an experiment to emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Mean normalised cost (Figures 3, 6, 7).
    NormalisedCost,
    /// Win counts: number of configurations solved best (Figure 4).
    WinCount,
    /// Mean computation time in seconds (Figures 5, 8).
    TimeSeconds,
    /// Mean raw cost (not plotted in the paper, useful for debugging).
    RawCost,
}

impl Metric {
    /// Column header used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Metric::NormalisedCost => "normalised_cost",
            Metric::WinCount => "wins",
            Metric::TimeSeconds => "time_seconds",
            Metric::RawCost => "mean_cost",
        }
    }
}

fn metric_value(
    results: &ExperimentResults,
    solver_idx: usize,
    target_idx: usize,
    metric: Metric,
) -> f64 {
    let cell = &results.cells[solver_idx][target_idx];
    match metric {
        Metric::NormalisedCost => cell.normalised.mean,
        Metric::WinCount => cell.wins as f64,
        Metric::TimeSeconds => cell.seconds.mean,
        Metric::RawCost => cell.cost.mean,
    }
}

/// One metric of an experiment as rows: one `figure` row per
/// `(target, solver)` pair, the series the paper's figures are plotted
/// from (one per solver).
pub fn figure_rows(results: &ExperimentResults, metric: Metric) -> Vec<JsonRow> {
    let mut out = Vec::new();
    for (t, &target) in results.targets.iter().enumerate() {
        for (s, solver) in results.solvers.iter().enumerate() {
            out.push(
                JsonRow::new()
                    .str("record", "figure")
                    .str("experiment", &results.name)
                    .str("metric", metric.label())
                    .u64("target", target)
                    .str("solver", solver)
                    .f64("value", metric_value(results, s, t, metric)),
            );
        }
    }
    out
}

/// The §VIII-F summary as rows: one `summary` row per solver.
pub fn summary_rows(results: &ExperimentResults) -> Vec<JsonRow> {
    results
        .solvers
        .iter()
        .map(|solver| {
            JsonRow::new()
                .str("record", "summary")
                .str("experiment", &results.name)
                .usize("configs", results.num_configs)
                .str("solver", solver)
                .f64(
                    "mean_normalised",
                    results.mean_normalised(solver).unwrap_or(0.0),
                )
        })
        .collect()
}

/// Renders one metric of an experiment as a Markdown table with targets as
/// rows and solvers as columns.
pub fn figure_markdown(results: &ExperimentResults, metric: Metric) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "### {} — {} ({} configurations)",
        results.name,
        metric.label(),
        results.num_configs
    );
    let _ = write!(out, "| rho |");
    for solver in &results.solvers {
        let _ = write!(out, " {solver} |");
    }
    let _ = writeln!(out);
    let _ = write!(out, "|---|");
    for _ in &results.solvers {
        let _ = write!(out, "---|");
    }
    let _ = writeln!(out);
    for (t, &target) in results.targets.iter().enumerate() {
        let _ = write!(out, "| {target} |");
        for s in 0..results.solvers.len() {
            let value = metric_value(results, s, t, metric);
            match metric {
                Metric::WinCount => {
                    let _ = write!(out, " {} |", value as usize);
                }
                Metric::TimeSeconds => {
                    let _ = write!(out, " {value:.5} |");
                }
                _ => {
                    let _ = write!(out, " {value:.4} |");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// Writes an artifact (CSV, Markdown or JSON Lines) into `dir`, creating the directory if
/// needed. Returns the full path of the written file.
///
/// # Errors
///
/// Propagates filesystem errors (unwritable directory, full disk, ...).
pub fn write_artifact(
    dir: &std::path::Path,
    file_name: &str,
    content: &str,
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(file_name);
    std::fs::write(&path, content)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_experiment, ExperimentSpec};
    use crate::table3::{run_table3, table3_targets};
    use rental_simgen::GeneratorConfig;
    use rental_solvers::SuiteConfig;

    fn small_results() -> ExperimentResults {
        let spec = ExperimentSpec {
            name: "report-test".to_string(),
            generator: GeneratorConfig::tiny(),
            num_configs: 2,
            targets: vec![20, 40],
            seed: 5,
            suite: SuiteConfig::default(),
            threads: Some(1),
        };
        run_experiment(&spec)
    }

    #[test]
    fn table3_markdown_contains_all_rows_and_solvers() {
        let rows = run_table3(&table3_targets()[..3], &SuiteConfig::default());
        let markdown = table3_markdown(&rows);
        assert!(markdown.contains("| 10 |"));
        assert!(markdown.contains("| 30 |"));
        assert!(markdown.contains("ILP"));
        assert!(markdown.contains("H32Jump"));
    }

    #[test]
    fn table3_markdown_of_no_rows_is_empty() {
        assert!(table3_markdown(&[]).is_empty());
    }

    #[test]
    fn table3_csv_has_one_line_per_cell() {
        let rows = run_table3(&[10, 20], &SuiteConfig::default());
        let csv = rows_csv(&table3_rows(&rows));
        // Header + 2 targets x 6 solvers.
        assert_eq!(csv.lines().count(), 1 + 2 * 6);
        assert!(csv.starts_with("record,rho,solver,split,cost\n"));
    }

    #[test]
    fn figure_csv_lists_every_target_solver_pair() {
        let results = small_results();
        let csv = rows_csv(&figure_rows(&results, Metric::NormalisedCost));
        assert_eq!(csv.lines().count(), 1 + 2 * results.solvers.len());
        assert!(csv.contains("H31"));
    }

    #[test]
    fn csv_takes_the_key_union_and_quotes_what_needs_it() {
        let rows = [
            JsonRow::new().str("record", "a").str("name", "x,\"y\""),
            JsonRow::new().str("record", "b").f64("value", f64::NAN),
        ];
        assert_eq!(
            rows_csv(&rows),
            "record,name,value\na,\"x,\"\"y\"\"\",\nb,,null\n"
        );
    }

    #[test]
    fn markdown_has_one_table_per_kind_and_counts_what_it_elides() {
        let mut rows = vec![JsonRow::new().str("record", "fleet").str("note", "a|b")];
        rows.extend(
            (0..MARKDOWN_ROWS + 3).map(|i| JsonRow::new().str("record", "epoch").usize("epoch", i)),
        );
        let markdown = rows_markdown(&rows);
        assert!(markdown.starts_with("| record | note |\n| --- | --- |\n| fleet | a\\|b |\n\n"));
        assert!(markdown.contains("| record | epoch |\n"));
        assert!(markdown.contains("| epoch | 31 |\n"));
        assert!(!markdown.contains("| epoch | 32 |"));
        assert!(markdown.ends_with("\n… 3 more `epoch` rows in the CSV and JSON output\n"));
        assert!(rows_markdown(&[]).is_empty());
    }

    #[test]
    fn figure_markdown_mentions_the_metric_and_config_count() {
        let results = small_results();
        let md = figure_markdown(&results, Metric::WinCount);
        assert!(md.contains("wins"));
        assert!(md.contains("2 configurations"));
        let md_time = figure_markdown(&results, Metric::TimeSeconds);
        assert!(md_time.contains("time_seconds"));
    }

    #[test]
    fn metric_labels_are_stable() {
        assert_eq!(Metric::NormalisedCost.label(), "normalised_cost");
        assert_eq!(Metric::WinCount.label(), "wins");
        assert_eq!(Metric::TimeSeconds.label(), "time_seconds");
        assert_eq!(Metric::RawCost.label(), "mean_cost");
    }

    #[test]
    fn artifacts_are_written_to_disk() {
        let dir =
            std::env::temp_dir().join(format!("rental-experiments-test-{}", std::process::id()));
        let path = write_artifact(&dir, "table3.csv", "rho,solver,split,cost\n").unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("rho,solver"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
