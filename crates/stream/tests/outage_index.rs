//! The indexed outage queries of `FailureTrace`, and the `OutageCursor`
//! that walks a trace forward with the clock, against the linear scans they
//! replaced, which this file keeps as the oracle.

use proptest::prelude::*;
use rental_core::TypeId;
use rental_stream::{FailureModel, FailureTrace, Outage, OutageCursor};

const HORIZON: f64 = 20.0;
const TYPES: usize = 3;
/// Slot prefixes queried: none, a few, and every slot.
const FIRST_N: [u64; 6] = [0, 1, 2, 3, 5, u64::MAX];

/// Machines of type `q` among the first `first_n` slots down at `t`: a scan
/// of every outage.
fn down_oracle(trace: &FailureTrace, q: TypeId, first_n: u64, t: f64) -> u64 {
    (trace.outages().iter())
        .filter(|o| o.type_id == q && o.machine < first_n && o.start <= t && t < o.end)
        .count() as u64
}

/// The peak of [`down_oracle`] over `[start, end)`: the count at the window
/// start and at every outage start inside the window.
fn peak_oracle(trace: &FailureTrace, q: TypeId, first_n: u64, start: f64, end: f64) -> u64 {
    let mut peak = down_oracle(trace, q, first_n, start);
    for o in trace.outages() {
        if o.type_id == q && o.machine < first_n && o.start >= start && o.start < end {
            peak = peak.max(down_oracle(trace, q, first_n, o.start));
        }
    }
    peak
}

/// An outage on a half-hour grid, so that equal starts, zero-length outages
/// and queries exactly on outage boundaries all occur. Ends clip at the
/// horizon.
fn outage((q, machine, start, length): (usize, u64, u32, u32)) -> Outage {
    let start = f64::from(start) * 0.5;
    Outage {
        type_id: TypeId(q),
        machine,
        start,
        end: (start + f64::from(length) * 0.5).min(HORIZON),
    }
}

fn grid_outages() -> impl Strategy<Value = Vec<Outage>> {
    proptest::collection::vec((0..TYPES, 0u64..6, 0u32..40, 0u32..12), 0..40)
        .prop_map(|raw| raw.into_iter().map(outage).collect())
}

/// Query times on the grid (outage boundaries) and just outside it.
fn grid_time() -> impl Strategy<Value = f64> {
    (-2i32..46).prop_map(|k| f64::from(k) * 0.5)
}

/// Checks every indexed query against the oracle at the given times.
fn check(trace: &FailureTrace, times: &[f64]) -> Result<(), TestCaseError> {
    for q in 0..=TYPES {
        let q = TypeId(q);
        for &first_n in &FIRST_N {
            for &t in times {
                prop_assert_eq!(
                    trace.machines_down_among(q, first_n, t),
                    down_oracle(trace, q, first_n, t),
                    "down {:?} first {} at {}",
                    q,
                    first_n,
                    t
                );
                for &end in times {
                    prop_assert_eq!(
                        trace.peak_down_among(q, first_n, t, end),
                        peak_oracle(trace, q, first_n, t, end),
                        "peak {:?} first {} over [{}, {})",
                        q,
                        first_n,
                        t,
                        end
                    );
                }
            }
        }
    }
    Ok(())
}

/// One query of a cursor: machines down at a time, or the peak over a
/// window.
#[derive(Debug, Clone, Copy)]
enum Query {
    At(f64),
    Over(f64, f64),
}

/// A fleet controller's bill over `epochs` epochs of length `epoch`: per
/// epoch, at the window's start, over the window, at its end — query times
/// that never go back.
fn bill_pattern(epochs: usize, epoch: f64) -> Vec<Query> {
    (0..epochs)
        .flat_map(|e| {
            let (start, end) = (e as f64 * epoch, (e + 1) as f64 * epoch);
            [Query::At(start), Query::Over(start, end), Query::At(end)]
        })
        .collect()
}

/// The static-headroom check at the end of a run: over each epoch's window.
fn finish_pattern(epochs: usize, epoch: f64) -> Vec<Query> {
    (0..epochs)
        .map(|e| Query::Over(e as f64 * epoch, (e + 1) as f64 * epoch))
        .collect()
}

/// Walks one new cursor per slot prefix through `queries`, every type at
/// every query, and checks each answer against the oracle.
fn check_cursor(trace: &FailureTrace, queries: &[Query]) -> Result<(), TestCaseError> {
    for &first_n in &FIRST_N {
        let mut cursor = OutageCursor::default();
        for &query in queries {
            for q in 0..=TYPES {
                let q = TypeId(q);
                match query {
                    Query::At(t) => prop_assert_eq!(
                        cursor.machines_down_among(trace, q, first_n, t),
                        down_oracle(trace, q, first_n, t),
                        "down {:?} first {} at {} in {:?}",
                        q,
                        first_n,
                        t,
                        queries
                    ),
                    Query::Over(start, end) => prop_assert_eq!(
                        cursor.peak_down_among(trace, q, first_n, start, end),
                        peak_oracle(trace, q, first_n, start, end),
                        "peak {:?} first {} over [{}, {}) in {:?}",
                        q,
                        first_n,
                        start,
                        end,
                        queries
                    ),
                }
            }
        }
    }
    Ok(())
}

fn query() -> impl Strategy<Value = Query> {
    (any::<bool>(), grid_time(), 0i32..12).prop_map(|(point, start, length)| {
        if point {
            Query::At(start)
        } else {
            Query::Over(start, start + f64::from(length) * 0.5)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cursors_match_the_linear_scan_on_the_bill_and_finish_patterns(
        outages in grid_outages(),
        half_hours in 1u32..6,
    ) {
        let trace = FailureTrace::new(outages, HORIZON);
        let epoch = f64::from(half_hours) * 0.5;
        let epochs = (HORIZON / epoch).ceil() as usize + 1;
        check_cursor(&trace, &bill_pattern(epochs, epoch))?;
        check_cursor(&trace, &finish_pattern(epochs, epoch))?;
    }

    #[test]
    fn cursors_match_the_linear_scan_when_queries_jump_back(
        outages in grid_outages(),
        queries in proptest::collection::vec(query(), 1..24),
    ) {
        let trace = FailureTrace::new(outages, HORIZON);
        check_cursor(&trace, &queries)?;
    }

    #[test]
    fn cursors_match_the_linear_scan_on_generated_traces(
        seed in any::<u64>(),
        mtbf in 2.0f64..30.0,
        repair in 0.0f64..6.0,
    ) {
        // The bill's walk, then a resumed walk from the middle, then the
        // end-of-run check from the start: two jumps back.
        let trace = FailureModel::new(mtbf, repair, seed).generate(&[4, 2, 3], 40.0);
        let mut queries = bill_pattern(40, 1.0);
        queries.extend(bill_pattern(40, 1.0).split_off(60));
        queries.extend(finish_pattern(40, 1.0));
        check_cursor(&trace, &queries)?;
    }

    #[test]
    fn indexed_queries_match_the_linear_scan_on_grid_traces(
        outages in grid_outages(),
        times in proptest::collection::vec(grid_time(), 1..10),
    ) {
        let trace = FailureTrace::new(outages, HORIZON);
        check(&trace, &times)?;
    }

    #[test]
    fn indexed_queries_match_the_linear_scan_at_every_boundary(outages in grid_outages()) {
        let trace = FailureTrace::new(outages, HORIZON);
        let mut times: Vec<f64> = (trace.outages().iter())
            .flat_map(|o| [o.start, o.end])
            .chain([0.0, HORIZON])
            .collect();
        times.sort_by(f64::total_cmp);
        times.dedup();
        check(&trace, &times)?;
    }

    #[test]
    fn indexed_queries_match_the_linear_scan_on_generated_traces(
        seed in any::<u64>(),
        mtbf in 2.0f64..30.0,
        repair in 0.0f64..6.0,
        times in proptest::collection::vec(-1.0f64..41.0, 1..8),
    ) {
        let trace = FailureModel::new(mtbf, repair, seed).generate(&[4, 2, 3], 40.0);
        check(&trace, &times)?;
    }
}

#[test]
fn hand_built_traces_are_sorted_by_the_constructor() {
    let late = Outage {
        type_id: TypeId(1),
        machine: 0,
        start: 9.0,
        end: 12.0,
    };
    let early = Outage {
        start: 1.0,
        end: 4.0,
        ..late
    };
    let trace = FailureTrace::new(vec![late, early], HORIZON);
    assert_eq!(trace.outages(), &[early, late]);
    assert_eq!(trace.machines_down(TypeId(1), 2.0), 1);
    assert_eq!(trace.peak_down_in_window(TypeId(1), 0.0, HORIZON), 1);
    assert_eq!(trace.machines_down(TypeId(0), 2.0), 0);
}
