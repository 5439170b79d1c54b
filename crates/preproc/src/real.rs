//! Real CPU preprocessing: decode → (perspective) → resize → normalize →
//! CHW tensor, timed on the host.
//!
//! This is the executable counterpart of the `PyTorch@BS1` / `CV2@BS1`
//! baselines: the same stages, run for real through the AJPG/RTIF codecs
//! and the `harvest-tensor` image kernels. The benches report these
//! measured host numbers alongside the modelled platform numbers.

use harvest_data::{DatasetSpec, EncodedSample};
use harvest_imaging::{decode_auto, AjpgGrid, RgbImage};
use harvest_tensor::{
    bilinear_taps, hwc_u8_to_chw, normalize_chw, perspective_warp, resize_bilinear,
    resize_normalize_hwc_u8, sample_normalize_hwc_u8, Homography, Tensor,
};
use std::cell::RefCell;
use std::time::Instant;

/// ImageNet-style normalization constants (what torchvision applies).
pub const NORM_MEAN: [f32; 3] = [0.485, 0.456, 0.406];
/// ImageNet-style per-channel std.
pub const NORM_STD: [f32; 3] = [0.229, 0.224, 0.225];

/// Output of a real preprocessing run.
#[derive(Debug)]
pub struct RealPreprocResult {
    /// The model-ready tensor, `[3, out, out]`.
    pub tensor: Tensor,
    /// Time spent decoding, seconds.
    pub decode_s: f64,
    /// Time spent in dataset-specific preprocessing (perspective), seconds.
    pub dataset_stage_s: f64,
    /// Time spent in the model transform (resize+normalize+layout), seconds.
    pub transform_s: f64,
}

impl RealPreprocResult {
    /// Total wall time, seconds.
    pub fn total_s(&self) -> f64 {
        self.decode_s + self.dataset_stage_s + self.transform_s
    }
}

/// Model transform for an already-decoded image: resize to `out_res` →
/// ImageNet normalization → `[3, out_res, out_res]` CHW tensor, in one pass
/// over the source pixels the resize samples.
///
/// This is the transform stage of [`run_real`] for every dataset without a
/// dataset stage, and of [`ingest`] for bodies it decodes in full.
pub fn preprocess_decoded(img: &RgbImage, out_res: usize) -> Tensor {
    let (h, w, res) = (img.height(), img.width(), out_res);
    let chw = resize_normalize_hwc_u8(img.data(), h, w, res, res, &NORM_MEAN, &NORM_STD);
    Tensor::from_vec(&[3, res, res], chw)
}

thread_local! {
    /// The sampled decode's buffers, kept for the thread's next body.
    static GRID: RefCell<AjpgGrid> = RefCell::default();
}

/// A request body straight to the model-ready `[3, out_res, out_res]`
/// tensor (`out_res` positive): the wire's one ingest entry. The format is
/// sniffed as [`decode_auto`] sniffs it, with the same `Ok`/`Err` and error
/// text for every body, and the tensor is bit-identical to
/// [`preprocess_decoded`] of that decode.
///
/// An AJPG body is decoded only at the pixels the resize's bilinear taps
/// read ([`AjpgGrid::decode`]), into buffers the calling thread keeps, so a
/// steady stream of bodies allocates nothing the size of an image; the
/// taps, re-pointed at that grid, resize and normalize it in
/// [`resize_normalize_hwc_u8`]'s order. RTIF bodies decode in full.
pub fn ingest(bytes: &[u8], out_res: usize) -> Result<Tensor, String> {
    if bytes.get(..4) != Some(b"AJPG".as_slice()) {
        return decode_auto(bytes).map(|img| preprocess_decoded(&img, out_res));
    }
    GRID.with_borrow_mut(|grid| {
        let mut taps = None;
        grid.decode(bytes, |w, h| {
            let (ys, xs) = taps.insert((bilinear_taps(h, out_res), bilinear_taps(w, out_res)));
            (sources(ys), sources(xs))
        })?;
        let (mut ys, mut xs) = taps.expect("the header passed");
        repoint(&mut ys, |y| grid.row(y));
        repoint(&mut xs, |x| grid.column(x));
        let chw =
            sample_normalize_hwc_u8(grid.rgb(), grid.width(), &ys, &xs, &NORM_MEAN, &NORM_STD);
        Ok(Tensor::from_vec(&[3, out_res, out_res], chw))
    })
}

/// Both source indices of every tap.
fn sources(taps: &[(usize, usize, f32)]) -> impl Iterator<Item = usize> + '_ {
    taps.iter().flat_map(|&(i0, i1, _)| [i0, i1])
}

/// Both source indices of every tap, through `at`.
fn repoint(taps: &mut [(usize, usize, f32)], at: impl Fn(usize) -> usize) {
    for (i0, i1, _) in taps {
        (*i0, *i1) = (at(*i0), at(*i1));
    }
}

/// Run the full real preprocessing pipeline on one encoded sample. The
/// three stage times partition the call: each starts where the last ended.
pub fn run_real(
    spec: &DatasetSpec,
    sample: &EncodedSample,
    out_res: usize,
) -> Result<RealPreprocResult, String> {
    // Stage 1: decode.
    let start = Instant::now();
    let img: RgbImage = spec.format.decode(&sample.bytes)?;
    let decoded = Instant::now();

    let (tensor, staged) = if spec.needs_perspective {
        // Stage 2: dataset-specific preprocessing (CRSA perspective
        // correction), which works on CHW floats.
        let (h, w) = (img.height(), img.width());
        let chw = hwc_u8_to_chw(img.data(), h, w, 3);
        let hmg = Homography::ground_vehicle_tilt(0.35, h);
        let mut chw = perspective_warp(&chw, 3, h, w, h, w, &hmg);
        let staged = Instant::now();
        // Stage 3: model transform — resize to the model input, normalize.
        if (h, w) != (out_res, out_res) {
            chw = resize_bilinear(&chw, 3, h, w, out_res, out_res);
        }
        normalize_chw(&mut chw, 3, &NORM_MEAN, &NORM_STD);
        (Tensor::from_vec(&[3, out_res, out_res], chw), staged)
    } else {
        (preprocess_decoded(&img, out_res), decoded)
    };
    let done = Instant::now();

    Ok(RealPreprocResult {
        tensor,
        decode_s: (decoded - start).as_secs_f64(),
        dataset_stage_s: (staged - decoded).as_secs_f64(),
        transform_s: (done - staged).as_secs_f64(),
    })
}

/// Preprocess a whole batch of encoded samples, one pool task per image.
///
/// Images are completely independent (decode → warp → resize → normalize
/// touches nothing shared), so this is the textbook fan-out: results come
/// back in input order and each tensor is bit-identical to what
/// [`run_real`] produces for the same sample at any thread count. The
/// per-stage timings are still measured per image — on a loaded pool they
/// reflect wall time on that worker, which is what an edge-node capacity
/// model wants.
pub fn run_real_batch(
    spec: &DatasetSpec,
    samples: &[EncodedSample],
    out_res: usize,
) -> Vec<Result<RealPreprocResult, String>> {
    harvest_threads::par_map(samples.len(), |i| run_real(spec, &samples[i], out_res))
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_data::{DatasetId, Sampler};

    #[test]
    fn batch_matches_single_image_results_at_any_thread_count() {
        let sampler = Sampler::new(DatasetId::PlantVillage, 5);
        let samples: Vec<_> = (0..4).map(|i| sampler.encode(i)).collect();
        let singles: Vec<_> = samples
            .iter()
            .map(|s| run_real(sampler.spec(), s, 64).expect("single"))
            .collect();
        for threads in [1, 2, 4] {
            let batch = harvest_threads::with_threads(threads, || {
                run_real_batch(sampler.spec(), &samples, 64)
            });
            assert_eq!(batch.len(), samples.len());
            for (single, out) in singles.iter().zip(&batch) {
                let out = out.as_ref().expect("batch");
                assert_eq!(out.tensor.shape(), &[3, 64, 64]);
                assert_eq!(
                    single.tensor.data(),
                    out.tensor.data(),
                    "threads={threads}: batch must be bit-identical to single-image"
                );
            }
        }
    }

    #[test]
    fn preprocess_decoded_matches_run_real_without_dataset_stage() {
        // Plant Village has no perspective stage, so decoding its sample
        // and running the decoded-image path must reproduce run_real's
        // tensor bit for bit.
        let sampler = Sampler::new(DatasetId::PlantVillage, 13);
        let sample = sampler.encode(2);
        let full = run_real(sampler.spec(), &sample, 64).expect("full pipeline");
        let img = sampler.spec().format.decode(&sample.bytes).expect("decode");
        let direct = preprocess_decoded(&img, 64);
        assert_eq!(direct.shape(), &[3, 64, 64]);
        assert_eq!(direct.data(), full.tensor.data(), "paths must agree");
        // Identity resolution skips the resize without changing layout.
        let native = preprocess_decoded(&img, img.height());
        assert_eq!(native.shape(), &[3, img.height(), img.width()]);
    }

    #[test]
    fn plant_village_preprocesses_to_224() {
        let sampler = Sampler::new(DatasetId::PlantVillage, 7);
        let sample = sampler.encode(0);
        let out = run_real(sampler.spec(), &sample, 224).expect("preproc");
        assert_eq!(out.tensor.shape(), &[3, 224, 224]);
        assert_eq!(
            out.dataset_stage_s, 0.0,
            "no dataset stage for Plant Village"
        );
        assert!(out.decode_s > 0.0);
        assert!(out.tensor.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn spittle_bug_upsamples_to_32() {
        let sampler = Sampler::new(DatasetId::SpittleBug, 7);
        let sample = sampler.encode(1);
        let out = run_real(sampler.spec(), &sample, 32).expect("preproc");
        assert_eq!(out.tensor.shape(), &[3, 32, 32]);
    }

    #[test]
    fn crsa_runs_the_perspective_stage() {
        // Use a small synthetic ground-feed-style stand-in by sampling the
        // real CRSA spec but checking the stage is charged.
        let sampler = Sampler::new(DatasetId::Crsa, 7);
        let sample = sampler.encode(0);
        let out = run_real(sampler.spec(), &sample, 224).expect("preproc");
        assert!(out.dataset_stage_s > 0.0, "perspective stage must run");
        assert_eq!(out.tensor.shape(), &[3, 224, 224]);
    }

    #[test]
    fn normalized_output_is_centred() {
        let sampler = Sampler::new(DatasetId::Fruits360, 3);
        let sample = sampler.encode(2);
        let out = run_real(sampler.spec(), &sample, 96).expect("preproc");
        // ImageNet normalization of a bright studio image: values in a
        // plausible few-sigma band, not raw [0,1].
        let mean: f32 = out.tensor.data().iter().sum::<f32>() / out.tensor.len() as f32;
        assert!(mean.abs() < 3.0, "mean {mean}");
        let min = out.tensor.data().iter().cloned().fold(f32::MAX, f32::min);
        let max = out.tensor.data().iter().cloned().fold(f32::MIN, f32::max);
        assert!(min < 0.0 || max > 1.0, "normalization must shift the range");
    }

    #[test]
    fn decode_touches_every_pixel_and_the_transform_only_its_taps() {
        // Why a full decode dominates a JPEG-like source at a small output:
        // it produces every source pixel (as `run_real`'s does), while the
        // transform reads only the pixels bilinear sampling names — at most
        // 4 per output pixel. That gap is what `ingest` closes.
        let sampler = Sampler::new(DatasetId::PlantVillage, 11);
        let sample = sampler.encode(3);
        let img = sampler.spec().format.decode(&sample.bytes).expect("decode");
        let decoded = img.pixels();
        assert_eq!(decoded, 256 * 256);
        let out_res = 32;
        let axis = |n| {
            let taps = harvest_tensor::bilinear_taps(n, out_res);
            let touched: std::collections::BTreeSet<usize> =
                taps.iter().flat_map(|&(i0, i1, _)| [i0, i1]).collect();
            touched.len()
        };
        let sampled = axis(img.height()) * axis(img.width());
        assert!(sampled <= 4 * out_res * out_res, "sampled {sampled}");
        assert!(decoded >= 16 * sampled, "decoded {decoded} vs {sampled}");
    }
}
