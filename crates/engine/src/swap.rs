//! Hot-swappable weight generations: serialized artifacts, integrity-gated
//! loads, and the double-buffered generation cell.
//!
//! Production serving replaces models without restarts. The mechanism here
//! is deliberately boring and fully checkable:
//!
//! * [`encode_artifact`] / [`decode_artifact`] — a length-framed byte
//!   format for a whole [`MaterializedWeights`]: magic + version header, a
//!   per-tensor manifest (stable tensor id, element count, FNV-1a checksum
//!   from [`harvest_tensor::integrity`]) followed by the raw f32
//!   little-endian bits, and a trailing whole-artifact checksum. Decoding
//!   verifies **everything before anything is published**: framing,
//!   manifest compatibility with the target graph, every per-tensor
//!   checksum, and the whole-artifact sum. Any corruption or truncation is
//!   a typed [`ArtifactError`], never a panic and never a partially
//!   applied load — the staging copy is simply dropped.
//! * [`Generation`] — one verified weight set behind an `Arc`, tagged with
//!   a monotonically increasing number and the weights' fingerprint. An
//!   executor that pinned a generation's `Arc` keeps computing on it even
//!   after a newer generation is published (the in-flight batch finishes
//!   on the generation it started with).
//! * [`WeightsCell`] — the double buffer: the current generation plus the
//!   retained previous one, so a post-publication failure (an activation
//!   sentinel firing on the new weights) can roll back in O(1) and
//!   quarantine the bad generation. It is also the one place a
//!   generation's lifecycle is decided, for every batching core:
//!   [`WeightsCell::load`] verifies and publishes (or rejects),
//!   [`WeightsCell::guard`] hands out the swap sentinel while the current
//!   generation is fresh, and [`WeightsCell::settle`] turns a batch's
//!   verdict into "proven" or into the weights to reinstall. Swap /
//!   rollback / rejected-load counters feed the `/metrics` snapshot.

use crate::exec::ActivationGuard;
use crate::weights::{MaterializedWeights, WeightStore};
use harvest_models::Graph;
use harvest_tensor::integrity::{checksum_bytes, checksum_f32};
use std::sync::Arc;

/// First bytes of every weight artifact.
pub(crate) const ARTIFACT_MAGIC: [u8; 4] = *b"HVWA";
/// Current artifact format version.
pub(crate) const ARTIFACT_VERSION: u32 = 1;

/// Why an artifact was rejected before publication. Every variant leaves
/// the previously serving generation untouched.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArtifactError {
    /// The byte stream ends before the declared structure does.
    Truncated {
        /// Bytes the next field needed.
        needed: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// The first four bytes are not `ARTIFACT_MAGIC` (`HVWA`).
    BadMagic,
    /// Unknown format version.
    BadVersion {
        /// The version the artifact declared.
        got: u32,
    },
    /// The artifact's tensor count differs from the target graph's.
    TensorCount {
        /// Tensors the graph materializes.
        expected: u64,
        /// Tensors the artifact carries.
        got: u64,
    },
    /// A tensor's id or element count does not match the target graph's
    /// manifest at the same position.
    ManifestMismatch {
        /// Position in enumeration order.
        index: u64,
        /// `(id, elements)` the graph expects there.
        expected: (u64, u64),
        /// `(id, elements)` the artifact declared.
        got: (u64, u64),
    },
    /// A tensor's payload bits do not hash to its declared checksum.
    TensorChecksum {
        /// Stable tensor id (`node << 3 | role`) of the corrupt tensor.
        tensor: u64,
    },
    /// The trailing whole-artifact checksum does not match (header or
    /// manifest corruption).
    ArtifactChecksum,
    /// Bytes remain after the framed structure ended.
    TrailingBytes {
        /// How many.
        extra: usize,
    },
    /// The loader crashed mid-load (simulated via a crash point): some
    /// tensors were applied to the *staging* copy, which is discarded.
    CrashedMidLoad {
        /// Tensors applied before the crash.
        applied: u64,
        /// Tensors the artifact carries.
        total: u64,
    },
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Truncated { needed, have } => {
                write!(f, "artifact truncated: needed {needed} bytes, have {have}")
            }
            ArtifactError::BadMagic => write!(f, "not a weight artifact (bad magic)"),
            ArtifactError::BadVersion { got } => write!(f, "unknown artifact version {got}"),
            ArtifactError::TensorCount { expected, got } => {
                write!(
                    f,
                    "tensor count mismatch: graph has {expected}, artifact {got}"
                )
            }
            ArtifactError::ManifestMismatch {
                index,
                expected,
                got,
            } => write!(
                f,
                "manifest mismatch at tensor {index}: expected {expected:?}, got {got:?}"
            ),
            ArtifactError::TensorChecksum { tensor } => {
                write!(f, "tensor {tensor:#x} failed its checksum")
            }
            ArtifactError::ArtifactChecksum => write!(f, "whole-artifact checksum mismatch"),
            ArtifactError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the framed artifact")
            }
            ArtifactError::CrashedMidLoad { applied, total } => {
                write!(f, "loader crashed after applying {applied}/{total} tensors")
            }
        }
    }
}

impl std::error::Error for ArtifactError {}

/// Serialize `weights` into the length-framed artifact format.
pub fn encode_artifact(weights: &MaterializedWeights) -> Vec<u8> {
    let mut count = 0u64;
    weights.for_each_buffer(|_, _| count += 1);
    let mut out = Vec::new();
    out.extend_from_slice(&ARTIFACT_MAGIC);
    out.extend_from_slice(&ARTIFACT_VERSION.to_le_bytes());
    out.extend_from_slice(&count.to_le_bytes());
    weights.for_each_buffer(|id, buf| {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&(buf.len() as u64).to_le_bytes());
        out.extend_from_slice(&checksum_f32(buf).to_le_bytes());
        for v in buf {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    });
    let sum = checksum_bytes(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Verify and materialize an artifact against `graph`: the no-crash-point
/// entry of the staged decode behind [`WeightsCell::load`].
pub fn decode_artifact(
    bytes: &[u8],
    graph: &Graph,
    int8_linears: bool,
) -> Result<MaterializedWeights, ArtifactError> {
    decode_artifact_staged(bytes, graph, int8_linears, None)
}

/// Verify `bytes` and build a fresh [`MaterializedWeights`] for `graph`
/// from it. The artifact is checked completely — framing, per-tensor
/// checksums, manifest compatibility, whole-artifact sum — before the
/// result is handed back; a failure at any point returns a typed error and
/// nothing else. `crash_after` simulates a loader crash after that many
/// tensors were applied to the staging copy (the copy is dropped, proving
/// a mid-load crash can never corrupt the serving weights).
fn decode_artifact_staged(
    bytes: &[u8],
    graph: &Graph,
    int8_linears: bool,
    crash_after: Option<u64>,
) -> Result<MaterializedWeights, ArtifactError> {
    let mut cur = Cursor { bytes, pos: 0 };
    let magic = cur.take(4)?;
    if magic != ARTIFACT_MAGIC {
        return Err(ArtifactError::BadMagic);
    }
    let version = u32::from_le_bytes(cur.take(4)?.try_into().expect("4 bytes"));
    if version != ARTIFACT_VERSION {
        return Err(ArtifactError::BadVersion { got: version });
    }
    let count = cur.u64()?;

    let mut tensors: Vec<(u64, Vec<f32>)> = Vec::new();
    for _ in 0..count {
        let id = cur.u64()?;
        let len = cur.u64()?;
        let declared_sum = cur.u64()?;
        // Bound the allocation by what the bytes can actually back.
        let need = (len as usize)
            .checked_mul(4)
            .ok_or(ArtifactError::Truncated {
                needed: usize::MAX,
                have: cur.remaining(),
            })?;
        let raw = cur.take(need)?;
        let mut data = Vec::with_capacity(len as usize);
        for chunk in raw.chunks_exact(4) {
            data.push(f32::from_bits(u32::from_le_bytes(
                chunk.try_into().expect("4 bytes"),
            )));
        }
        if checksum_f32(&data) != declared_sum {
            return Err(ArtifactError::TensorChecksum { tensor: id });
        }
        tensors.push((id, data));
    }
    let trailer = cur.u64()?;
    if cur.remaining() != 0 {
        return Err(ArtifactError::TrailingBytes {
            extra: cur.remaining(),
        });
    }
    if checksum_bytes(&bytes[..bytes.len() - 8]) != trailer {
        return Err(ArtifactError::ArtifactChecksum);
    }

    // Manifest check against the target graph, then overwrite a staging
    // copy. The template's random init is throwaway: every buffer is
    // either fully overwritten or the whole copy is dropped.
    let mut staging = MaterializedWeights::new(graph, &WeightStore::new(0), int8_linears);
    let mut manifest: Vec<(u64, u64)> = Vec::new();
    staging.for_each_buffer(|id, buf| manifest.push((id, buf.len() as u64)));
    if manifest.len() as u64 != count {
        return Err(ArtifactError::TensorCount {
            expected: manifest.len() as u64,
            got: count,
        });
    }
    for (i, ((id, data), (want_id, want_len))) in tensors.iter().zip(&manifest).enumerate() {
        if id != want_id || data.len() as u64 != *want_len {
            return Err(ArtifactError::ManifestMismatch {
                index: i as u64,
                expected: (*want_id, *want_len),
                got: (*id, data.len() as u64),
            });
        }
    }

    let mut applied = 0u64;
    let crash = crash_after.filter(|k| *k < count);
    let mut i = 0usize;
    staging.for_each_buffer_mut(|_, buf| {
        if crash.is_some_and(|k| applied >= k) {
            return;
        }
        buf.copy_from_slice(&tensors[i].1);
        i += 1;
        applied += 1;
    });
    if let Some(k) = crash {
        return Err(ArtifactError::CrashedMidLoad {
            applied: k,
            total: count,
        });
    }
    staging.rebuild_derived();
    Ok(staging)
}

struct Cursor<'b> {
    bytes: &'b [u8],
    pos: usize,
}

impl<'b> Cursor<'b> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'b [u8], ArtifactError> {
        if self.remaining() < n {
            return Err(ArtifactError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u64(&mut self) -> Result<u64, ArtifactError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
}

/// One verified weight set: a monotonically numbered, fingerprinted,
/// shared-ownership [`MaterializedWeights`].
#[derive(Clone)]
pub struct Generation {
    number: u64,
    fingerprint: u64,
    weights: Arc<MaterializedWeights>,
}

impl Generation {
    /// Monotonic generation number (0 = the booted weights).
    pub fn number(&self) -> u64 {
        self.number
    }

    /// The weights' [`MaterializedWeights::fingerprint`], taken at
    /// publication.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// A shared handle to the generation's weights.
    pub fn weights(&self) -> Arc<MaterializedWeights> {
        Arc::clone(&self.weights)
    }
}

/// The sentinel a fresh generation's first batch runs under: NaN/Inf or any
/// activation beyond this magnitude is a violation. Logits keep their bits:
/// a guarded run only scans.
const SWAP_GUARD: ActivationGuard = ActivationGuard {
    range_limit: Some(1e6),
};

/// The double-buffered generation cell: current + retained previous, plus
/// the ledger of swaps, rollbacks, rejected loads, and quarantined
/// generations.
pub struct WeightsCell {
    current: Generation,
    previous: Option<Generation>,
    /// `(number, fingerprint)` of every generation rolled back and barred
    /// from serving again.
    quarantined: Vec<(u64, u64)>,
    swaps: u64,
    rollbacks: u64,
    rejected_loads: u64,
    /// Next number to assign — strictly monotonic even across rollbacks,
    /// so a quarantined number is never reused.
    next_number: u64,
    /// A freshly published generation has not yet proven itself on live
    /// traffic; a post-publication detector firing while fresh triggers
    /// rollback rather than rematerialization.
    fresh: bool,
}

impl WeightsCell {
    /// A cell serving `initial` as generation 0 (the booted, already
    /// trusted weights — not fresh).
    pub fn new(initial: Arc<MaterializedWeights>) -> Self {
        let fingerprint = initial.fingerprint();
        WeightsCell {
            current: Generation {
                number: 0,
                fingerprint,
                weights: initial,
            },
            previous: None,
            quarantined: Vec::new(),
            swaps: 0,
            rollbacks: 0,
            rejected_loads: 0,
            next_number: 1,
            fresh: false,
        }
    }

    /// The generation currently serving.
    pub fn current(&self) -> &Generation {
        &self.current
    }

    /// The retained prior generation, if any.
    pub fn previous(&self) -> Option<&Generation> {
        self.previous.as_ref()
    }

    /// Verify `bytes` as an artifact for `graph` and, when every check
    /// passes, publish it as the next generation (fresh until a batch
    /// settles it). A failure is a typed error, counts as a rejected load
    /// and leaves the serving generation untouched. `crash_after`
    /// simulates a loader crash after that many tensors were applied to
    /// the staging copy. Returns the new generation number.
    pub fn load(
        &mut self,
        bytes: &[u8],
        graph: &Graph,
        int8_linears: bool,
        crash_after: Option<u64>,
    ) -> Result<u64, ArtifactError> {
        match decode_artifact_staged(bytes, graph, int8_linears, crash_after) {
            Ok(weights) => {
                // The old current becomes the retained previous.
                let next = Generation {
                    number: self.next_number,
                    fingerprint: weights.fingerprint(),
                    weights: Arc::new(weights),
                };
                self.next_number += 1;
                self.previous = Some(std::mem::replace(&mut self.current, next));
                self.swaps += 1;
                self.fresh = true;
                Ok(self.current.number)
            }
            Err(e) => {
                self.rejected_loads += 1;
                Err(e)
            }
        }
    }

    /// The swap sentinel while the current generation is fresh (published
    /// and not yet settled), `None` once it has proven itself or been
    /// rolled back. A core runs the fresh generation's first batch under
    /// it and hands the verdict to [`Self::settle`].
    pub fn guard(&self) -> Option<ActivationGuard> {
        self.fresh.then_some(SWAP_GUARD)
    }

    /// Settle a batch's verdict on the current generation. A clean batch
    /// proves it and returns `None`. A violation returns the weights every
    /// executor must install: on a fresh generation, the retained previous
    /// one it rolls back to, quarantining the bad one (an artifact that
    /// passed its checksums but computes garbage); on a proven generation,
    /// the pristine copy of the current one (in-memory corruption: the
    /// cell's copy is never injection-targeted, so reinstalling it is the
    /// rematerialization).
    pub fn settle(&mut self, violated: bool) -> Option<Arc<MaterializedWeights>> {
        let fresh = std::mem::replace(&mut self.fresh, false);
        if !violated {
            return None;
        }
        if fresh {
            // Publication retained the predecessor; it serves again.
            if let Some(prev) = self.previous.take() {
                let bad = std::mem::replace(&mut self.current, prev);
                self.quarantined.push((bad.number, bad.fingerprint));
                self.rollbacks += 1;
            }
        }
        Some(self.current.weights())
    }

    /// Completed swaps (publications).
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    /// Automatic rollbacks taken.
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks
    }

    /// Artifacts rejected before publication.
    pub fn rejected_loads(&self) -> u64 {
        self.rejected_loads
    }

    /// `(number, fingerprint)` of every quarantined generation.
    pub fn quarantined(&self) -> &[(u64, u64)] {
        &self.quarantined
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;
    use harvest_models::{vit, VitConfig};
    use harvest_tensor::Tensor;

    fn small_vit() -> Graph {
        vit(
            "swap-vit",
            &VitConfig {
                dim: 32,
                depth: 1,
                heads: 2,
                patch: 4,
                img: 16,
                mlp_ratio: 2,
                classes: 4,
            },
        )
    }

    fn weights_for(g: &Graph, seed: u64) -> MaterializedWeights {
        MaterializedWeights::new(g, &WeightStore::new(seed), false)
    }

    #[test]
    fn artifact_round_trips_bit_identically() {
        let g = small_vit();
        let w = weights_for(&g, 99);
        let bytes = encode_artifact(&w);
        let decoded = decode_artifact(&bytes, &g, false).expect("clean artifact loads");
        assert_eq!(decoded.fingerprint(), w.fingerprint());
        assert!(decoded.verify_integrity().is_ok());
        // And the decoded weights compute the same logits.
        let mut exec = Executor::new(&g, 7);
        let x = Tensor::random(&[3, 16, 16], 5, 1.0);
        exec.install_weights(Arc::new(decoded));
        let swapped = exec.forward(&x);
        let mut direct = Executor::new(&g, 7);
        direct.install_weights(Arc::new(weights_for(&g, 99)));
        assert_eq!(swapped.data(), direct.forward(&x).data());
    }

    #[test]
    fn int8_round_trip_requantizes_the_cache() {
        let g = small_vit();
        let w = MaterializedWeights::new(&g, &WeightStore::new(31), true);
        let bytes = encode_artifact(&w);
        let decoded = decode_artifact(&bytes, &g, true).expect("loads");
        let mut a = Executor::new_int8(&g, 1);
        let mut b = Executor::new_int8(&g, 31);
        a.install_weights(Arc::new(decoded));
        b.install_weights(Arc::new(MaterializedWeights::new(
            &g,
            &WeightStore::new(31),
            true,
        )));
        let x = Tensor::random(&[3, 16, 16], 9, 1.0);
        assert_eq!(a.forward(&x).data(), b.forward(&x).data());
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let g = small_vit();
        let bytes = encode_artifact(&weights_for(&g, 3));
        // Sample cut points across the whole artifact (every prefix is too
        // slow for the large payload section).
        let cuts: Vec<usize> = (0..64)
            .map(|i| i * bytes.len() / 64)
            .chain([bytes.len() - 1])
            .collect();
        for cut in cuts {
            let err = decode_artifact(&bytes[..cut], &g, false)
                .expect_err("truncated artifact must not load");
            assert!(
                matches!(
                    err,
                    ArtifactError::Truncated { .. } | ArtifactError::BadMagic
                ),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn bit_flips_anywhere_are_rejected() {
        let g = small_vit();
        let bytes = encode_artifact(&weights_for(&g, 3));
        // Flip one bit at positions spread across header, manifest, payload
        // and trailer; every flip must be caught by some checksum.
        for i in (0..bytes.len()).step_by(bytes.len() / 97 + 1) {
            let mut bad = bytes.clone();
            bad[i] ^= 1 << (i % 8);
            assert!(
                decode_artifact(&bad, &g, false).is_err(),
                "flip at byte {i} loaded"
            );
        }
    }

    #[test]
    fn wrong_graph_is_a_manifest_error() {
        let g = small_vit();
        let other = vit(
            "bigger",
            &VitConfig {
                dim: 64,
                depth: 1,
                heads: 2,
                patch: 4,
                img: 16,
                mlp_ratio: 2,
                classes: 4,
            },
        );
        let bytes = encode_artifact(&weights_for(&other, 3));
        let err = decode_artifact(&bytes, &g, false).expect_err("shape mismatch must reject");
        assert!(
            matches!(
                err,
                ArtifactError::ManifestMismatch { .. } | ArtifactError::TensorCount { .. }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn crash_points_drop_the_staging_copy() {
        let g = small_vit();
        let bytes = encode_artifact(&weights_for(&g, 3));
        for k in [0u64, 1, 5] {
            let err = decode_artifact_staged(&bytes, &g, false, Some(k))
                .expect_err("crash point must abort the load");
            assert_eq!(
                err,
                ArtifactError::CrashedMidLoad {
                    applied: k,
                    total: match err {
                        ArtifactError::CrashedMidLoad { total, .. } => total,
                        _ => unreachable!(),
                    }
                }
            );
        }
        // A crash point past the end is a no-op: the load completes.
        assert!(decode_artifact_staged(&bytes, &g, false, Some(u64::MAX)).is_ok());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let g = small_vit();
        let mut bytes = encode_artifact(&weights_for(&g, 3));
        bytes.push(0);
        assert_eq!(
            decode_artifact(&bytes, &g, false).err(),
            Some(ArtifactError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn cell_load_guard_settle_and_ledger() {
        let g = small_vit();
        let w0 = Arc::new(weights_for(&g, 1));
        let fp = |seed| weights_for(&g, seed).fingerprint();
        let artifact = |seed| encode_artifact(&weights_for(&g, seed));
        let mut cell = WeightsCell::new(Arc::clone(&w0));
        assert_eq!(cell.current().number(), 0);
        assert!(cell.guard().is_none(), "the booted generation is trusted");

        // A rejected load counts, publishes nothing and arms no guard.
        let mut corrupt = artifact(2);
        corrupt[40] ^= 1;
        assert!(cell.load(&corrupt, &g, false, None).is_err());
        let crashed = cell.load(&artifact(2), &g, false, Some(1));
        assert!(matches!(crashed, Err(ArtifactError::CrashedMidLoad { .. })));
        assert_eq!((cell.swaps(), cell.rejected_loads()), (0, 2));
        assert_eq!(cell.current().number(), 0);
        assert!(cell.guard().is_none());

        // A clean load publishes a fresh generation under the sentinel.
        assert_eq!(cell.load(&artifact(2), &g, false, None), Ok(1));
        let guard = cell.guard().expect("a fresh generation is guarded");
        assert_eq!(guard.range_limit, Some(1e6));
        assert_eq!(cell.current().fingerprint(), fp(2));
        assert_eq!(cell.previous().map(|p| p.fingerprint()), Some(fp(1)));

        // Its violation rolls back: generation 0's weights, to install
        // everywhere, and generation 1 quarantined.
        let back = cell.settle(true).expect("a violation reinstalls");
        assert!(Arc::ptr_eq(&back, &w0));
        assert_eq!(cell.current().number(), 0);
        assert!(cell.previous().is_none());
        assert_eq!(cell.quarantined(), &[(1, fp(2))]);
        assert_eq!((cell.swaps(), cell.rollbacks()), (1, 1));
        assert!(cell.guard().is_none());

        // Numbers stay monotonic across a rollback: the quarantined
        // number 1 is never reused. A clean verdict proves the generation.
        assert_eq!(cell.load(&artifact(3), &g, false, None), Ok(2));
        assert!(cell.settle(false).is_none());
        assert!(cell.guard().is_none(), "proven: no sentinel");

        // A violation on a proven generation rematerializes it: the
        // cell's pristine copy of the same generation, no rollback.
        let pristine = cell.settle(true).expect("a violation reinstalls");
        assert_eq!(pristine.fingerprint(), fp(3));
        assert_eq!(cell.current().number(), 2);
        assert_eq!(cell.previous().map(|p| p.number()), Some(0));
        assert_eq!(cell.rollbacks(), 1);
    }

    #[test]
    fn fingerprints_separate_generations() {
        let g = small_vit();
        assert_ne!(
            weights_for(&g, 1).fingerprint(),
            weights_for(&g, 2).fingerprint()
        );
        assert_eq!(
            weights_for(&g, 1).fingerprint(),
            weights_for(&g, 1).fingerprint()
        );
    }
}
