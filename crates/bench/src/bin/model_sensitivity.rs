//! Cost-model sensitivity: the reproduction's headline orderings must not
//! be artifacts of the α–β network model. This exhibit recomputes the
//! Fig. 3-style partitioning comparison under three models — free (wall
//! time only), Omni-Path-like (the default), and a slow 10 GbE — and shows
//! the ordering is stable.

use cusp::{CuspConfig, GraphSource};
use cusp_bench::inputs::{drilldown_inputs, Scale};
use cusp_bench::report::{warn_if_debug, Table};
use cusp_bench::runner::{run_partition, Partitioner};
use cusp_bench::MAX_HOSTS;
use cusp_net::NetworkModel;

fn main() {
    warn_if_debug();
    let scale = Scale::from_env();
    let input = drilldown_inputs(scale)
        .into_iter()
        .find(|i| i.name == "cwx")
        .expect("cwx input");
    let models: [(&str, NetworkModel); 3] = [
        ("free", NetworkModel::free()),
        ("omni-path", NetworkModel::omni_path()),
        ("10GbE", NetworkModel::ten_gbe()),
    ];
    let mut table = Table::new(
        &format!("Model sensitivity — cwx @ {MAX_HOSTS} hosts, seconds under each network model"),
        &["partitioner", "wall(s)", "free", "omni-path", "10GbE"],
    );
    for p in Partitioner::figure3_set() {
        let run = run_partition(
            GraphSource::File(input.path.clone()),
            MAX_HOSTS,
            p,
            &CuspConfig::default(),
        );
        let wall = run.reported.as_secs_f64();
        let mut cells = vec![p.name().to_string(), format!("{wall:.3}")];
        for (_name, model) in &models {
            // Recompute the modeled network portion under this model over
            // the phases that count for the reported time.
            let prefix_time: f64 = match p {
                Partitioner::XtraPulp => run.stats.modeled_time_with_prefix(model, "xp:"),
                Partitioner::Cusp(_) => ["read", "master", "edge_assign", "alloc", "construct"]
                    .iter()
                    .filter_map(|ph| run.stats.phase(ph))
                    .map(|ph| ph.modeled_time(model))
                    .sum(),
            };
            cells.push(format!("{:.3}", wall + prefix_time + run.modeled_disk));
        }
        table.row(cells);
        eprintln!("done: {}", p.name());
    }
    table.emit("model_sensitivity");
}
