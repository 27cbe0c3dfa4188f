//! CFFT2INIT — the trig-table initialisation of the NASA TFFT code
//! (the paper runs it with `M = 11`, i.e. 2¹¹-point tables).
//!
//! The loop writes four stride-2 regions — the forward and inverse
//! twiddle tables interleave cosine and sine values — which is the
//! access shape behind the paper's observation: "there exist several
//! LMADs with the stride of 2 in the subroutine. Although 50% of
//! communication was used to transfer redundant data, we were still
//! able to reduce the overall communication time" at middle grain.

use crate::Workload;

/// F77-mini source.
pub const SOURCE: &str = r"
      PROGRAM CFFTI
      PARAMETER (M = 5, N = 2**M)
      REAL W(2*N), WINV(2*N)
      INTEGER I
      REAL PI, ANG
      PI = 3.141592653589793
      DO I = 1, N
        ANG = 2.0 * PI * REAL(I-1) / REAL(N)
        W(2*I-1) = COS(ANG)
        W(2*I) = SIN(ANG)
        WINV(2*I-1) = COS(ANG)
        WINV(2*I) = 0.0 - SIN(ANG)
      ENDDO
      END
";

/// Workload descriptor: the paper's `M = 11`.
pub const WORKLOAD: Workload = Workload {
    name: "CFFT2INIT",
    source: SOURCE,
    size_param: "M",
    paper_size: 11,
};

/// Native reference: `(W, WINV)` for `n = 2^m` points.
pub fn reference(m: u32) -> (Vec<f64>, Vec<f64>) {
    let n = 1usize << m;
    let mut w = vec![0.0; 2 * n];
    let mut winv = vec![0.0; 2 * n];
    #[allow(clippy::approx_constant)] // mirrors the F77 source literal exactly
    let pi = 3.141592653589793_f64;
    for i in 1..=n {
        let ang = 2.0 * pi * (i as f64 - 1.0) / n as f64;
        w[2 * i - 2] = ang.cos();
        w[2 * i - 1] = ang.sin();
        winv[2 * i - 2] = ang.cos();
        // `0.0 - SIN(ANG)`, as the source says: at ANG = 0 it is +0.0,
        // where `-ang.sin()` would be -0.0.
        winv[2 * i - 1] = 0.0 - ang.sin();
    }
    (w, winv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_first_twiddle_is_unity() {
        let (w, winv) = reference(4);
        assert!((w[0] - 1.0).abs() < 1e-12);
        assert!(w[1].abs() < 1e-12);
        assert_eq!(w[0], winv[0]);
    }

    #[test]
    fn inverse_table_conjugates() {
        let (w, winv) = reference(5);
        for i in 0..w.len() / 2 {
            assert_eq!(w[2 * i], winv[2 * i], "cos parts equal");
            assert_eq!(w[2 * i + 1], -winv[2 * i + 1], "sin parts negated");
        }
    }

    #[test]
    fn table_walks_the_unit_circle() {
        let (w, _) = reference(6);
        for i in 0..w.len() / 2 {
            let mag = w[2 * i] * w[2 * i] + w[2 * i + 1] * w[2 * i + 1];
            assert!((mag - 1.0).abs() < 1e-12);
        }
    }
}
