//! Farm connectivity planner: where should inference run, given the uplink
//! a farm actually has?
//!
//! §2.2.1 of the paper flags data transmission as the online scenario's
//! challenge; this example walks the edge-vs-cloud decision across realistic
//! farm uplinks — including the energy bill for each choice.
//!
//! ```text
//! cargo run --example farm_connectivity --release
//! ```

use harvest::core::continuum::{analyze, crossover_bandwidth_mbps, Placement};
use harvest::perf::EnergyModel;
use harvest::prelude::*;

fn main() {
    let model = ModelId::ResNet50;
    let cloud = PlatformId::MriA100;
    println!(
        "farm connectivity planner — {} served from {} or the Jetson\n",
        model.name(),
        cloud.name()
    );

    for dataset in [
        DatasetId::Fruits360,
        DatasetId::CornGrowthStage,
        DatasetId::Crsa,
    ] {
        let spec = DatasetSpec::get(dataset);
        println!("== {} ==", spec.name);
        println!(
            "{:<16} {:>11} {:>12} {:>11} {:>14} {:>12}",
            "uplink", "link img/s", "cloud img/s", "edge img/s", "cloud lat ms", "winner"
        );
        for link in NetworkLink::ALL {
            let a = analyze(model, dataset, link, cloud);
            let winner = match a.throughput_winner {
                Placement::Edge => "EDGE".to_string(),
                Placement::Cloud(p) => format!("CLOUD/{}", p.name()),
            };
            println!(
                "{:<16} {:>11.1} {:>12.1} {:>11.1} {:>14.1} {:>12}",
                link.name,
                a.uplink_rate,
                a.cloud_throughput,
                a.edge_throughput,
                a.cloud_latency_ms,
                winner
            );
        }
        let x = crossover_bandwidth_mbps(model, dataset, cloud);
        if x.is_finite() {
            println!("-> cloud wins on throughput above {x:.1} Mb/s uplink\n");
        } else {
            println!("-> the edge wins at any bandwidth (cloud pipeline is the bottleneck)\n");
        }
    }

    // The energy side of the same decision.
    println!("== energy per image at each end of the continuum ==");
    for platform in [PlatformId::JetsonOrinNano, cloud] {
        let e = EnergyModel::new(platform, model);
        let bs1 = e.point(1);
        let best = e.best_batch(platform.spec().batch_axis);
        println!(
            "  {:<7} single-frame {:>7.1} mJ/img; saturated {:>6.1} mJ/img @BS{}",
            platform.name(),
            bs1.mj_per_image,
            best.mj_per_image,
            best.batch
        );
    }
    println!("\nrule of thumb: real-time single frames -> edge (idle cloud watts dominate);");
    println!("bulk offline surveys on good links -> cloud (better FLOPS per watt saturated).");
}
