//! Property-based tests for the preprocessing cost model and real path.

use harvest_data::{DatasetId, Sampler, ALL_DATASETS};
use harvest_hw::PlatformId;
use harvest_imaging::RgbImage;
use harvest_preproc::real::{NORM_MEAN, NORM_STD};
use harvest_preproc::{preprocess_decoded, run_real, PreprocCostModel, PreprocMethod};
use harvest_tensor::{hwc_u8_to_chw, normalize_chw, resize_bilinear, resize_normalize_hwc_u8};
use proptest::prelude::*;

/// The transform as three passes over a full-size float image — what the
/// fused kernel replaced, and still what the perspective branch runs.
fn three_pass(pixels: &[u8], h: usize, w: usize, oh: usize, ow: usize, resize: bool) -> Vec<f32> {
    let mut chw = hwc_u8_to_chw(pixels, h, w, 3);
    if resize {
        chw = resize_bilinear(&chw, 3, h, w, oh, ow);
    }
    normalize_chw(&mut chw, 3, &NORM_MEAN, &NORM_STD);
    chw
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn any_dataset() -> impl Strategy<Value = DatasetId> {
    (0usize..6).prop_map(|i| ALL_DATASETS[i].id)
}

fn any_platform() -> impl Strategy<Value = PlatformId> {
    prop_oneof![
        Just(PlatformId::MriA100),
        Just(PlatformId::PitzerV100),
        Just(PlatformId::JetsonOrinNano)
    ]
}

fn any_method() -> impl Strategy<Value = PreprocMethod> {
    (0usize..5).prop_map(|i| PreprocMethod::ALL[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn costs_are_positive_and_finite(
        platform in any_platform(),
        method in any_method(),
        dataset in any_dataset(),
    ) {
        let m = PreprocCostModel::new(platform);
        let per_image = m.per_image_s(method, dataset);
        prop_assert!(per_image > 0.0 && per_image.is_finite());
        let point = m.point(method, dataset);
        prop_assert!(point.latency_ms > 0.0);
        prop_assert!(point.throughput > 0.0);
        // latency(batch) and throughput are consistent with per-image time.
        let expected_latency = per_image * method.batch() as f64 * 1e3;
        prop_assert!((point.latency_ms - expected_latency).abs() < 1e-9);
    }

    #[test]
    fn bigger_output_never_cheaper(
        platform in any_platform(),
        dataset in any_dataset(),
    ) {
        let m = PreprocCostModel::new(platform);
        let t224 = m.per_image_s(PreprocMethod::Dali224, dataset);
        let t96 = m.per_image_s(PreprocMethod::Dali96, dataset);
        let t32 = m.per_image_s(PreprocMethod::Dali32, dataset);
        prop_assert!(t224 > t96 && t96 > t32);
    }

    #[test]
    fn a100_gpu_path_is_fastest(
        method in any_method(),
        dataset in any_dataset(),
    ) {
        prop_assume!(method.is_gpu());
        let a100 = PreprocCostModel::new(PlatformId::MriA100).per_image_s(method, dataset);
        let v100 = PreprocCostModel::new(PlatformId::PitzerV100).per_image_s(method, dataset);
        let jetson =
            PreprocCostModel::new(PlatformId::JetsonOrinNano).per_image_s(method, dataset);
        prop_assert!(a100 < v100);
        prop_assert!(a100 < jetson);
    }

    #[test]
    fn real_preproc_output_always_matches_target(
        index in 0u32..40,
        out_res in prop_oneof![Just(32usize), Just(96), Just(224)],
    ) {
        // Small-image dataset keeps the property test fast.
        let sampler = Sampler::new(DatasetId::SpittleBug, 99);
        let sample = sampler.encode(index);
        let out = run_real(sampler.spec(), &sample, out_res).unwrap();
        prop_assert_eq!(out.tensor.shape(), &[3, out_res, out_res]);
        prop_assert!(out.tensor.data().iter().all(|v| v.is_finite()));
        prop_assert!(out.total_s() > 0.0);
    }

    #[test]
    fn fused_transform_is_the_three_pass_transform_bit_for_bit(
        (h, w, oh, ow) in prop_oneof![
            (1usize..40, 1usize..40, 1usize..40, 1usize..40), // any mix, non-square
            (24usize..40, 24usize..40, 1usize..12, 1usize..12), // down
            (1usize..8, 1usize..8, 16usize..40, 16usize..40), // up
            (1usize..40, 1usize..40).prop_map(|(h, w)| (h, w, h, w)), // identity
        ],
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let pixels: Vec<u8> = (0..h * w * 3)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                // Extremes often: 0 and 255 are where a lerp can misround.
                [0, 255, (state >> 32) as u8, (state >> 40) as u8][(state & 3) as usize]
            })
            .collect();
        let fused = resize_normalize_hwc_u8(&pixels, h, w, oh, ow, &NORM_MEAN, &NORM_STD);
        let want = three_pass(&pixels, h, w, oh, ow, true);
        prop_assert!(bits(&fused) == bits(&want), "{}x{} -> {}x{}", h, w, oh, ow);
        if (h, w) == (oh, ow) {
            // Where the old path skipped the resize, skipping changes nothing.
            prop_assert!(bits(&fused) == bits(&three_pass(&pixels, h, w, oh, ow, false)));
        }
        if oh == ow {
            let img = RgbImage::from_raw(w, h, pixels.clone());
            let tensor = preprocess_decoded(&img, oh);
            prop_assert_eq!(tensor.shape(), &[3, oh, ow]);
            prop_assert!(bits(tensor.data()) == bits(&want));
        }
    }
}
