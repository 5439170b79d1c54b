//! The artifact codec as it was before the loader hashed each byte once:
//! `encode_artifact` hashing each tensor with `checksum_f32` while it wrote
//! the payload four bytes at a time, and `decode_artifact_staged` building
//! an intermediate `Vec<f32>` per tensor, hashing it, hashing the whole
//! artifact again, building a random template with the seed-0 store and
//! overwriting it. Verbatim but for the one crate-private call noted where
//! it stood, and the two format constants, copied here.

use harvest_engine::{ArtifactError, MaterializedWeights, WeightStore};
use harvest_models::Graph;
use harvest_tensor::integrity::{checksum_bytes, checksum_f32};

/// First bytes of every weight artifact.
pub(crate) const ARTIFACT_MAGIC: [u8; 4] = *b"HVWA";
/// Current artifact format version.
pub(crate) const ARTIFACT_VERSION: u32 = 1;

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
pub fn decode_artifact_staged(
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
    // The library's `staging.rebuild_derived();` stood here: it re-took
    // every checksum and re-quantized the cached INT8 weights from the new
    // bits. It is crate-private, so the suite takes both from the bits of
    // the copy returned (`fingerprint_of_bits`, an INT8 forward).
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
