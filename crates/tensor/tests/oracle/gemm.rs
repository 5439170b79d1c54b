//! The f32 GEMM loop body as it stood before it became the register-tiled
//! FMA chain (PR 20), verbatim: the unfused `c += x0*b0 + x1*b1 + x2*b2 +
//! x3*b3` accumulation in 4-way groups that every logits fingerprint was
//! pinned to until then. `kernel_conformance.rs` holds the shipped kernel
//! within `1e-5·k` of it; the two do not agree bit for bit and are not
//! meant to.

#![allow(dead_code)]

/// Cache-block sizes. Chosen for typical x86-64 L1/L2; correctness does not
/// depend on them, and perf only weakly (the benches sweep them).
const MC: usize = 64;
const KC: usize = 256;
const NC: usize = 512;

/// The blocked kernel's one loop body, compiled once per lane tier.
///
/// The micro-kernel is register-blocked over four rows of C: one pass over
/// the packed B panel feeds four output rows, quartering panel traffic and
/// giving the vectorizer four independent accumulator streams. Each row's
/// k-accumulation order is identical to the single-row kernel (same 4-way
/// groups in the same sequence), so results are bit-identical regardless of
/// how rows are grouped — the property the batched executor's
/// batch-equals-single guarantee rests on.
#[inline(always)]
pub fn gemm_blocked_acc_body(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let mut jc = 0;
    while jc < n {
        let nb = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kb = KC.min(k - pc);
            let mut ic = 0;
            while ic < m {
                let mb = MC.min(m - ic);
                let mut i = ic;
                // 4-row micro-tile over the (mb × nb) block of C.
                while i + 4 <= ic + mb {
                    let a0_row = &a[i * k + pc..i * k + pc + kb];
                    let a1_row = &a[(i + 1) * k + pc..(i + 1) * k + pc + kb];
                    let a2_row = &a[(i + 2) * k + pc..(i + 2) * k + pc + kb];
                    let a3_row = &a[(i + 3) * k + pc..(i + 3) * k + pc + kb];
                    let (c0, rest) = c[i * n..(i + 4) * n].split_at_mut(n);
                    let (c1, rest) = rest.split_at_mut(n);
                    let (c2, c3) = rest.split_at_mut(n);
                    let c0 = &mut c0[jc..jc + nb];
                    let c1 = &mut c1[jc..jc + nb];
                    let c2 = &mut c2[jc..jc + nb];
                    let c3 = &mut c3[jc..jc + nb];
                    // 4-way unrolled accumulation over the K panel.
                    let mut p = 0;
                    while p + 4 <= kb {
                        let b0 = &b[(pc + p) * n + jc..(pc + p) * n + jc + nb];
                        let b1 = &b[(pc + p + 1) * n + jc..(pc + p + 1) * n + jc + nb];
                        let b2 = &b[(pc + p + 2) * n + jc..(pc + p + 2) * n + jc + nb];
                        let b3 = &b[(pc + p + 3) * n + jc..(pc + p + 3) * n + jc + nb];
                        let (x00, x01, x02, x03) =
                            (a0_row[p], a0_row[p + 1], a0_row[p + 2], a0_row[p + 3]);
                        let (x10, x11, x12, x13) =
                            (a1_row[p], a1_row[p + 1], a1_row[p + 2], a1_row[p + 3]);
                        let (x20, x21, x22, x23) =
                            (a2_row[p], a2_row[p + 1], a2_row[p + 2], a2_row[p + 3]);
                        let (x30, x31, x32, x33) =
                            (a3_row[p], a3_row[p + 1], a3_row[p + 2], a3_row[p + 3]);
                        for j in 0..nb {
                            let (b0j, b1j, b2j, b3j) = (b0[j], b1[j], b2[j], b3[j]);
                            c0[j] += x00 * b0j + x01 * b1j + x02 * b2j + x03 * b3j;
                            c1[j] += x10 * b0j + x11 * b1j + x12 * b2j + x13 * b3j;
                            c2[j] += x20 * b0j + x21 * b1j + x22 * b2j + x23 * b3j;
                            c3[j] += x30 * b0j + x31 * b1j + x32 * b2j + x33 * b3j;
                        }
                        p += 4;
                    }
                    while p < kb {
                        let b_row = &b[(pc + p) * n + jc..(pc + p) * n + jc + nb];
                        let (x0, x1, x2, x3) = (a0_row[p], a1_row[p], a2_row[p], a3_row[p]);
                        for j in 0..nb {
                            let bj = b_row[j];
                            c0[j] += x0 * bj;
                            c1[j] += x1 * bj;
                            c2[j] += x2 * bj;
                            c3[j] += x3 * bj;
                        }
                        p += 1;
                    }
                    i += 4;
                }
                // Remainder rows (mb % 4) through the single-row kernel.
                while i < ic + mb {
                    let a_row = &a[i * k + pc..i * k + pc + kb];
                    let c_row = &mut c[i * n + jc..i * n + jc + nb];
                    let mut p = 0;
                    while p + 4 <= kb {
                        let a0 = a_row[p];
                        let a1 = a_row[p + 1];
                        let a2 = a_row[p + 2];
                        let a3 = a_row[p + 3];
                        let b0 = &b[(pc + p) * n + jc..(pc + p) * n + jc + nb];
                        let b1 = &b[(pc + p + 1) * n + jc..(pc + p + 1) * n + jc + nb];
                        let b2 = &b[(pc + p + 2) * n + jc..(pc + p + 2) * n + jc + nb];
                        let b3 = &b[(pc + p + 3) * n + jc..(pc + p + 3) * n + jc + nb];
                        for j in 0..nb {
                            c_row[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
                        }
                        p += 4;
                    }
                    while p < kb {
                        let ap = a_row[p];
                        let b_row = &b[(pc + p) * n + jc..(pc + p) * n + jc + nb];
                        for j in 0..nb {
                            c_row[j] += ap * b_row[j];
                        }
                        p += 1;
                    }
                    i += 1;
                }
                ic += mb;
            }
            pc += kb;
        }
        jc += nb;
    }
}
