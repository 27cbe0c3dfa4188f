//! MM — dense matrix multiplication (`C = A·B`), the paper's primary
//! benchmark (Table 1 sweeps 256²/512²/1024² over 1/2/4 nodes).
//!
//! The outermost `I` loop is parallel; with the default block schedule
//! each rank owns a band of rows of `C` (and reads the matching band
//! of `A` plus all of `B`). In the paper's column-major layout a row
//! band is a strided region — one contiguous run per column — which is
//! exactly the shape the fine/middle/coarse granularity levels tell
//! apart.

use crate::{idx2, Workload};

/// F77-mini source.
pub const SOURCE: &str = r"
      PROGRAM MM
      PARAMETER (N = 64)
      REAL A(N,N), B(N,N), C(N,N)
      INTEGER I, J, K
      DO I = 1, N
        DO J = 1, N
          A(I,J) = REAL(I+J) / REAL(N)
          B(I,J) = REAL(I-J) / REAL(N)
        ENDDO
      ENDDO
      DO I = 1, N
        DO J = 1, N
          C(I,J) = 0.0
          DO K = 1, N
            C(I,J) = C(I,J) + A(I,K) * B(K,J)
          ENDDO
        ENDDO
      ENDDO
      END
";

/// Workload descriptor (the paper's largest size is 1024).
pub const WORKLOAD: Workload = Workload {
    name: "MM",
    source: SOURCE,
    size_param: "N",
    paper_size: 1024,
};

/// Native reference: returns `(A, B, C)` in column-major order with
/// the same initialisation the F77 source uses.
pub fn reference(n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut a = vec![0.0; n * n];
    let mut b = vec![0.0; n * n];
    let mut c = vec![0.0; n * n];
    for i in 1..=n {
        for j in 1..=n {
            a[idx2(i, j, n)] = (i + j) as f64 / n as f64;
            b[idx2(i, j, n)] = (i as f64 - j as f64) / n as f64;
        }
    }
    // Column by column, K outer and I inner: A is read down its
    // columns, and every C(I,J) still takes 0.0 + A(I,1)·B(1,J) + … in
    // K order — the source's fold, hence its bits.
    for j in 1..=n {
        for k in 1..=n {
            let bkj = b[idx2(k, j, n)];
            for i in 1..=n {
                c[idx2(i, j, n)] += a[idx2(i, k, n)] * bkj;
            }
        }
    }
    (a, b, c)
}

/// Floating-point operations of the multiply kernel (2·N³).
pub fn flops(n: u64) -> u64 {
    2 * n * n * n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_small_case_by_hand() {
        // n = 2: A = [[1, 1.5],[1.5, 2]], B = [[0, -0.5],[0.5, 0]].
        let (_, _, c) = reference(2);
        // C(1,1) = 1*0 + 1.5*0.5 = 0.75
        assert!((c[idx2(1, 1, 2)] - 0.75).abs() < 1e-12);
        // C(1,2) = 1*(-0.5) + 1.5*0 = -0.5
        assert!((c[idx2(1, 2, 2)] - (-0.5)).abs() < 1e-12);
        // C(2,1) = 1.5*0 + 2*0.5 = 1.0
        assert!((c[idx2(2, 1, 2)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reference_is_symmetric_in_the_expected_way() {
        // With A symmetric and B antisymmetric, C should be
        // antisymmetric up to rounding: C^T = (AB)^T = B^T A^T = -BA.
        // Not exactly -C, so just sanity-check magnitudes instead.
        let (_, _, c) = reference(8);
        assert!(c.iter().all(|x| x.is_finite()));
        assert!(c.iter().any(|&x| x != 0.0));
    }

    #[test]
    fn reference_folds_each_element_from_zero_in_k_order() {
        // The source's order, element by element: the bits `Full`
        // execution of MM must reproduce.
        let n = 37;
        let (a, b, c) = reference(n);
        for i in 1..=n {
            for j in 1..=n {
                let dot = (1..=n).fold(0.0, |s, k| s + a[idx2(i, k, n)] * b[idx2(k, j, n)]);
                assert_eq!(c[idx2(i, j, n)].to_bits(), dot.to_bits(), "C({i},{j})");
            }
        }
    }

    #[test]
    fn flop_count() {
        assert_eq!(flops(10), 2000);
    }
}
