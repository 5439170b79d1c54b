//! Fig. 7: preprocessing latency and throughput per dataset × method ×
//! platform.

use harvest_data::ALL_DATASETS;
use harvest_hw::PlatformId;
use harvest_preproc::{PreprocCostModel, PreprocMethod};
use serde::Serialize;

/// One (dataset × method) cell: the two bars of Fig. 7.
#[derive(Clone, Debug, Serialize)]
pub struct Fig7Cell {
    /// Dataset name.
    pub dataset: String,
    /// Method label (figure x-axis).
    pub method: String,
    /// Request latency at the method's batch size, ms (upper panel).
    pub latency_ms: f64,
    /// Throughput, img/s (lower panel).
    pub throughput: f64,
}

/// One platform panel of Fig. 7.
#[derive(Clone, Debug, Serialize)]
pub struct Fig7Platform {
    /// Platform short name.
    pub platform: String,
    /// All dataset × method cells.
    pub cells: Vec<Fig7Cell>,
}

/// Regenerate one platform panel.
pub(crate) fn fig7_platform(platform: PlatformId) -> Fig7Platform {
    let model = PreprocCostModel::new(platform);
    let mut cells = Vec::new();
    for method in PreprocMethod::ALL {
        for spec in &ALL_DATASETS {
            let point = model.point(method, spec.id);
            cells.push(Fig7Cell {
                dataset: spec.name.to_string(),
                method: method.label().to_string(),
                latency_ms: point.latency_ms,
                throughput: point.throughput,
            });
        }
    }
    Fig7Platform {
        platform: platform.name().to_string(),
        cells,
    }
}

/// Regenerate all three panels.
pub fn fig7() -> Vec<Fig7Platform> {
    [
        PlatformId::MriA100,
        PlatformId::PitzerV100,
        PlatformId::JetsonOrinNano,
    ]
    .into_iter()
    .map(fig7_platform)
    .collect()
}

/// Helper: look up a cell.
pub fn cell<'a>(panel: &'a Fig7Platform, dataset: &str, method: &str) -> &'a Fig7Cell {
    panel
        .cells
        .iter()
        .find(|c| c.dataset.contains(dataset) && c.method == method)
        .expect("cell exists")
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_data::DatasetId;

    #[test]
    fn panel_has_30_cells() {
        for panel in fig7() {
            assert_eq!(panel.cells.len(), 5 * 6);
        }
    }

    #[test]
    fn dali_ordering_holds_for_every_dataset_and_platform() {
        for panel in fig7() {
            for spec in &ALL_DATASETS {
                let t224 = cell(&panel, spec.name, "DALI 224@BS64").throughput;
                let t96 = cell(&panel, spec.name, "DALI 96@BS64").throughput;
                let t32 = cell(&panel, spec.name, "DALI 32@BS64").throughput;
                assert!(t32 > t96 && t96 > t224, "{}/{}", panel.platform, spec.name);
            }
        }
    }

    #[test]
    fn a100_peak_near_12000_and_edge_panels_near_2500() {
        let panels = fig7();
        let peak = |panel: &Fig7Platform| {
            panel
                .cells
                .iter()
                .map(|c| c.throughput)
                .fold(f64::MIN, f64::max)
        };
        assert!(
            (9_000.0..16_000.0).contains(&peak(&panels[0])),
            "{}",
            peak(&panels[0])
        );
        assert!(peak(&panels[1]) < 4_000.0, "{}", peak(&panels[1]));
        assert!(peak(&panels[2]) < 4_000.0, "{}", peak(&panels[2]));
    }

    #[test]
    fn cv2_crsa_latency_is_hundreds_of_ms() {
        for panel in fig7() {
            let c = cell(&panel, "CRSA", "CV2@BS1");
            assert!(c.latency_ms > 100.0, "{}: {}", panel.platform, c.latency_ms);
        }
    }

    #[test]
    fn pytorch_baseline_varies_across_datasets() {
        // The per-dataset decode-format variance the paper attributes to
        // TIFF vs JPEG.
        let panels = fig7();
        let a100 = &panels[0];
        let lats: Vec<f64> = ALL_DATASETS
            .iter()
            .filter(|d| d.id != DatasetId::Crsa)
            .map(|d| cell(a100, d.name, "PyTorch@BS1").latency_ms)
            .collect();
        let max = lats.iter().cloned().fold(f64::MIN, f64::max);
        let min = lats.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max > 2.0 * min, "spread too small: {lats:?}");
    }

    #[test]
    fn fruits360_anomaly_is_not_reproduced() {
        // The paper reports an unexplained A100 Fruits-360 outlier "under
        // investigation"; our model intentionally does not inject it —
        // Fruits-360 (smallest JPEG images) is among the fastest datasets.
        let panels = fig7();
        let a100 = &panels[0];
        let fruits = cell(a100, "Fruits-360", "DALI 32@BS64").throughput;
        let corn = cell(a100, "Corn Growth Stage", "DALI 32@BS64").throughput;
        assert!(fruits >= corn, "fruits {fruits} vs corn {corn}");
    }
}
