//! Integration tests pinning the paper's headline numbers end to end —
//! every quantitative claim EXPERIMENTS.md records is asserted here, through
//! the public `harvest` facade.

use harvest::core::experiments as exp;
use harvest::prelude::*;

#[test]
fn table1_practical_tflops_and_efficiency() {
    let rows = exp::table1();
    let by_name = |n: &str| rows.iter().find(|r| r.platform.contains(n)).unwrap();
    let v100 = by_name("V100");
    assert!((v100.practical_tflops - 92.6).abs() / 92.6 < 0.05);
    let a100 = by_name("A100");
    assert!((a100.practical_tflops - 236.3).abs() / 236.3 < 0.05);
    let jetson = by_name("Jetson");
    assert!((jetson.practical_tflops - 11.4).abs() / 11.4 < 0.05);
}

#[test]
fn table2_matches_published_dataset_stats() {
    let rows = exp::table2();
    assert_eq!(rows.len(), 6);
    let pv = rows.iter().find(|r| r.dataset == "Plant Village").unwrap();
    assert_eq!((pv.classes, pv.samples), (Some(39), 43_430));
    let crsa = rows.iter().find(|r| r.dataset == "CRSA").unwrap();
    assert_eq!(crsa.samples, 992);
}

#[test]
fn table3_params_gflops_and_upper_bounds() {
    let rows = exp::table3();
    let get = |n: &str| rows.iter().find(|r| r.model == n).unwrap();
    // (model, params M, GFLOPs, UB A100, UB V100, UB Jetson)
    let expect = [
        ("ViT_Tiny", 5.39, 1.37, 172_508.0, 67_602.0, 8_322.0),
        ("ViT_Small", 21.40, 5.47, 43_214.0, 16_935.0, 2_085.0),
        ("ViT_Base", 85.80, 16.86, 14_013.0, 5_491.0, 676.0),
        ("ResNet50", 25.56, 4.09, 57_775.0, 22_641.0, 2_787.0),
    ];
    for (name, params, gflops, a100, v100, jetson) in expect {
        let r = get(name);
        assert!((r.params_m - params).abs() / params < 0.01, "{name} params");
        assert!(
            (r.gflops_per_image - gflops).abs() / gflops < 0.01,
            "{name} gflops"
        );
        assert!(
            (r.upper_bound_a100 - a100).abs() / a100 < 0.01,
            "{name} ub a100"
        );
        assert!(
            (r.upper_bound_v100 - v100).abs() / v100 < 0.01,
            "{name} ub v100"
        );
        assert!(
            (r.upper_bound_jetson - jetson).abs() / jetson < 0.01,
            "{name} ub jetson"
        );
    }
}

#[test]
fn section_4_0_2_compute_breakdown() {
    let rows = exp::table3();
    let tiny = rows.iter().find(|r| r.model == "ViT_Tiny").unwrap();
    assert!(
        (tiny.mlp_share_pct - 81.73).abs() < 0.5,
        "{}",
        tiny.mlp_share_pct
    );
    assert!(
        (tiny.attention_share_pct - 18.23).abs() < 0.5,
        "{}",
        tiny.attention_share_pct
    );
    let rn = rows.iter().find(|r| r.model == "ResNet50").unwrap();
    assert!(rn.conv_share_pct > 99.0, "{}", rn.conv_share_pct);
}

#[test]
fn fig5_peak_throughput_labels() {
    let panels = exp::fig5();
    let series = |p: usize, m: &str| panels[p].series.iter().find(|s| s.model == m).unwrap();
    // A100 panel (index 0).
    for (model, tput) in [
        ("ViT_Tiny", 22_879.3),
        ("ViT_Small", 9_344.2),
        ("ViT_Base", 4_095.9),
        ("ResNet50", 16_230.7),
    ] {
        let s = series(0, model);
        assert!(
            (s.peak_throughput - tput).abs() / tput < 0.001,
            "A100 {model}"
        );
        assert_eq!(s.peak_batch, 1024);
    }
    // V100 panel (index 1).
    for (model, tput) in [
        ("ViT_Tiny", 7_179.0),
        ("ViT_Small", 2_929.3),
        ("ViT_Base", 1_482.6),
        ("ResNet50", 8_107.3),
    ] {
        let s = series(1, model);
        assert!(
            (s.peak_throughput - tput).abs() / tput < 0.001,
            "V100 {model}"
        );
        assert_eq!(s.peak_batch, 1024, "V100 {model}");
    }
    // Jetson panel (index 2) — labels carry the OOM walls.
    for (model, tput, bs) in [
        ("ViT_Tiny", 1_170.1, 196),
        ("ViT_Small", 469.4, 64),
        ("ViT_Base", 201.0, 8),
        ("ResNet50", 842.9, 64),
    ] {
        let s = series(2, model);
        assert!(
            (s.peak_throughput - tput).abs() / tput < 0.001,
            "Jetson {model}"
        );
        assert_eq!(s.peak_batch, bs, "Jetson {model}");
    }
}

#[test]
fn fig6_operating_regions() {
    let panels = exp::fig6();
    // A100: every model clears 60 QPS beyond batch 16.
    for s in &panels[0].series {
        assert!(s.max_batch_60qps.unwrap() > 16, "A100 {}", s.model);
    }
    // V100 ViT-Base: batch 8 suffices, 16 does not.
    let base = panels[1]
        .series
        .iter()
        .find(|s| s.model == "ViT_Base")
        .unwrap();
    let p8 = base.points.iter().find(|p| p.batch == 8).unwrap();
    let p16 = base.points.iter().find(|p| p.batch == 16).unwrap();
    assert!(p8.latency_ms < 16.7 && p16.latency_ms > 16.7);
}

#[test]
fn fig7_gpu_preprocessing_wins() {
    let panels = exp::fig7();
    for panel in &panels {
        let dali = panel
            .cells
            .iter()
            .filter(|c| c.method.starts_with("DALI"))
            .map(|c| c.throughput)
            .fold(f64::MIN, f64::max);
        let cpu = panel
            .cells
            .iter()
            .filter(|c| !c.method.starts_with("DALI"))
            .map(|c| c.throughput)
            .fold(f64::MIN, f64::max);
        assert!(
            dali > 2.0 * cpu,
            "{}: DALI {dali} vs CPU {cpu}",
            panel.platform
        );
    }
}

#[test]
fn fig8_batch_annotations() {
    use harvest::perf::end_to_end_batch;
    for model in ALL_MODELS {
        assert_eq!(end_to_end_batch(PlatformId::MriA100, model), Some(64));
    }
    for platform in [PlatformId::PitzerV100, PlatformId::JetsonOrinNano] {
        assert_eq!(end_to_end_batch(platform, ModelId::VitTiny), Some(64));
        assert_eq!(end_to_end_batch(platform, ModelId::VitSmall), Some(32));
        assert_eq!(end_to_end_batch(platform, ModelId::VitBase), Some(2));
        assert_eq!(end_to_end_batch(platform, ModelId::ResNet50), Some(32));
    }
}

#[test]
fn conclusion_tradeoffs_hold() {
    // "a fundamental trade-off between throughput and batch size, forming a
    // performance roofline constrained by either compute saturation or
    // memory exhaustion."
    let perf = harvest::perf::EnginePerfModel::new(PlatformId::JetsonOrinNano, ModelId::VitSmall);
    // Diminishing returns: throughput gain from 32→64 is much smaller than
    // from 1→2.
    let gain_small = perf.throughput(2) / perf.throughput(1);
    let gain_large = perf.throughput(64) / perf.throughput(32);
    assert!(
        gain_small > 1.5 && gain_large < 1.2,
        "{gain_small} vs {gain_large}"
    );
    // Memory exhaustion ends the curve at 64 on the Jetson.
    let advisor = Advisor::new(PlatformId::JetsonOrinNano);
    assert!(advisor.max_feasible_batch(ModelId::VitSmall).unwrap() <= 64);
}
