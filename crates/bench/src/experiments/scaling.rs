//! Figure 10: the impact of query-processing parallelism — the whole
//! workload repeated 16 times, on 1 vs. 8 EC2 instances, large and
//! extra-large.

use crate::{corpus, strategy_warehouse, Scale, TextTable};
use amada_cloud::{InstanceType, SimDuration};
use amada_core::Pool;
use amada_index::Strategy;
use std::collections::HashMap;

/// The Figure 10 measurement grid: `(strategy, instance label, instance
/// count)` → total workload response time.
pub type ScalingGrid = HashMap<(Strategy, &'static str, usize), SimDuration>;

/// Runs the grid.
pub fn scaling_grid(scale: &Scale) -> ScalingGrid {
    let docs = corpus(scale);
    let queries = crate::workload();
    let mut cells = HashMap::new();
    for strategy in Strategy::ALL {
        let (mut w, _) = strategy_warehouse(strategy, &docs);
        for itype in [InstanceType::Large, InstanceType::ExtraLarge] {
            for count in [1usize, 8] {
                w.set_query_pool(Pool::new(count, itype));
                let report = w.run_workload(&queries, scale.workload_repeats);
                cells.insert((strategy, itype.label(), count), report.total_time);
            }
        }
    }
    cells
}

/// Paper Figure 10: workload time on 1 vs. 8 instances.
pub fn fig10(scale: &Scale) -> TextTable {
    let grid = scaling_grid(scale);
    render(&grid)
}

/// Renders an already-computed grid.
pub fn render(grid: &ScalingGrid) -> TextTable {
    let mut t = TextTable::new([
        "Strategy",
        "Instance",
        "1 instance (s)",
        "8 instances (s)",
        "Speed-up",
    ]);
    for itype in ["l", "xl"] {
        for s in Strategy::ALL {
            let one = grid[&(s, itype, 1)];
            let eight = grid[&(s, itype, 8)];
            t.row([
                s.name().to_string(),
                itype.to_uppercase(),
                format!("{:.2}", one.as_secs_f64()),
                format!("{:.2}", eight.as_secs_f64()),
                format!("{:.2}x", one.as_secs_f64() / eight.as_secs_f64().max(1e-9)),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_instances_help_significantly() {
        let grid = scaling_grid(&Scale::tiny());
        for itype in ["l", "xl"] {
            for s in Strategy::ALL {
                let one = grid[&(s, itype, 1)];
                let eight = grid[&(s, itype, 8)];
                assert!(
                    eight.micros() * 2 < one.micros(),
                    "{s}/{itype}: 8 instances {eight} vs 1 {one}"
                );
            }
        }
        assert_eq!(render(&grid).len(), 8);
    }
}
