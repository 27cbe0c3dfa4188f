//! End-to-end front-end tests on the paper's three benchmark shapes:
//! matrix multiplication (MM), the SWIM shallow-water stencils, and
//! the CFFT2INIT trig-table initialisation.

use polaris_fe::analysis::Region;
use polaris_fe::compile;

const MM: &str = r"
      PROGRAM MM
      PARAMETER (N = 16)
      REAL A(N,N), B(N,N), C(N,N)
      INTEGER I, J, K
      DO I = 1, N
        DO J = 1, N
          A(I,J) = REAL(I+J)
          B(I,J) = REAL(I-J)
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

const CFFT: &str = r"
      PROGRAM CFFTI
      PARAMETER (M = 5, N = 2**M)
      REAL W(2*N)
      INTEGER I
      REAL PI
      PI = 3.141592653589793
      DO I = 1, N
        ANG = PI * REAL(I-1) / REAL(N)
        W(2*I-1) = COS(ANG)
        W(2*I) = SIN(ANG)
      ENDDO
      END
";

const SWIM_CALC1: &str = r"
      PROGRAM CALC1
      PARAMETER (N = 16)
      REAL P(N,N), U(N,N), V(N,N)
      REAL CU(N,N), CV(N,N), Z(N,N), H(N,N)
      REAL FSDX, FSDY
      FSDX = 4.0
      FSDY = 4.0
      DO J = 1, N
        DO I = 1, N
          P(I,J) = 2.0
          U(I,J) = 1.0
          V(I,J) = 0.5
        ENDDO
      ENDDO
      DO J = 1, N - 1
        DO I = 1, N - 1
          CU(I+1,J) = 0.5 * (P(I+1,J) + P(I,J)) * U(I+1,J)
          CV(I,J+1) = 0.5 * (P(I,J+1) + P(I,J)) * V(I,J+1)
          Z(I+1,J+1) = (FSDX * (V(I+1,J+1) - V(I,J+1)) - FSDY *
     & (U(I+1,J+1) - U(I+1,J))) / (P(I,J) + P(I+1,J) + P(I+1,J+1) + P(I,J+1))
          H(I,J) = P(I,J) + 0.25 * (U(I+1,J) * U(I+1,J) + U(I,J) * U(I,J)
     & + V(I,J+1) * V(I,J+1) + V(I,J) * V(I,J))
        ENDDO
      ENDDO
      END
";

#[test]
fn mm_both_loops_parallel() {
    let a = compile(MM, &[]).unwrap();
    assert_eq!(a.num_parallel(), 2, "serial reasons: {:?}", a.serial_reasons);
}

#[test]
fn mm_refs_have_expected_shape() {
    let a = compile(MM, &[]).unwrap();
    // Second parallel region: the multiply loop (I parallel).
    let p = a
        .regions
        .iter()
        .filter_map(|r| match r {
            Region::Parallel(p) => Some(p),
            _ => None,
        })
        .nth(1)
        .unwrap();
    assert_eq!(p.trips, 16);
    // C is written with coeff 1 (row index in a column-major array).
    let c_id = a.symbols.array_id("C").unwrap();
    let w = p
        .analysis
        .refs
        .iter()
        .find(|r| r.is_write && r.array.0 == c_id)
        .unwrap();
    assert_eq!(w.coeff, 1);
    // Inner J dim strides by N=16.
    assert!(w.inner.iter().any(|d| d.stride == 16 && d.count == 16));
    // B(K,J) is read with coeff 0 (parallel-invariant): every slave
    // needs all of B.
    let b_id = a.symbols.array_id("B").unwrap();
    let b = p
        .analysis
        .refs
        .iter()
        .find(|r| r.array.0 == b_id)
        .unwrap();
    assert_eq!(b.coeff, 0);
    assert!(!b.is_write);
}

#[test]
fn mm_parameter_override_scales() {
    let a = compile(MM, &[("N", 64)]).unwrap();
    assert_eq!(a.symbols.arrays[0].len, 64 * 64);
    let p = a
        .regions
        .iter()
        .find_map(|r| match r {
            Region::Parallel(p) => Some(p),
            _ => None,
        })
        .unwrap();
    assert_eq!(p.trips, 64);
}

#[test]
fn cfft_loop_parallel_with_stride2_writes() {
    let a = compile(CFFT, &[]).unwrap();
    assert_eq!(a.num_parallel(), 1, "serial reasons: {:?}", a.serial_reasons);
    let p = a
        .regions
        .iter()
        .find_map(|r| match r {
            Region::Parallel(p) => Some(p),
            _ => None,
        })
        .unwrap();
    // ANG is privatized.
    assert_eq!(p.analysis.private_scalars.len(), 1);
    // Two stride-2 writes (the paper: "several LMADs with the stride
    // of 2 in the subroutine").
    let writes: Vec<_> = p.analysis.refs.iter().filter(|r| r.is_write).collect();
    assert_eq!(writes.len(), 2);
    assert!(writes.iter().all(|w| w.coeff == 2));
    assert_eq!(writes[0].base, 0); // W(2I-1) -> offset 0 at I=1
    assert_eq!(writes[1].base, 1); // W(2I)   -> offset 1 at I=1
    // PI is a shared scalar the master must ship.
    assert_eq!(p.analysis.shared_scalars.len(), 1);
}

#[test]
fn swim_stencil_loops_parallel() {
    let a = compile(SWIM_CALC1, &[]).unwrap();
    assert_eq!(a.num_parallel(), 2, "serial reasons: {:?}", a.serial_reasons);
    let calc1 = a
        .regions
        .iter()
        .filter_map(|r| match r {
            Region::Parallel(p) => Some(p),
            _ => None,
        })
        .nth(1)
        .unwrap();
    // Writes to CU go at column J (coeff = N = 16), reads of P at
    // J and J+1.
    let cu = a.symbols.array_id("CU").unwrap();
    let w = calc1
        .analysis
        .refs
        .iter()
        .find(|r| r.is_write && r.array.0 == cu)
        .unwrap();
    assert_eq!(w.coeff, 16);
    assert!(!calc1.analysis.triangular);
}

#[test]
fn serial_loop_reported_with_reason() {
    let src = r"
      PROGRAM REC
      PARAMETER (N = 16)
      REAL A(N)
      INTEGER I
      DO I = 2, N
        A(I) = A(I-1) + 1.0
      ENDDO
      END
";
    let a = compile(src, &[]).unwrap();
    assert_eq!(a.num_parallel(), 0);
    assert_eq!(a.serial_reasons.len(), 1);
    assert!(a.serial_reasons[0].1.contains("dependence"));
}

#[test]
fn triangular_loop_detected() {
    let src = r"
      PROGRAM TRI
      PARAMETER (N = 16)
      REAL A(N,N)
      INTEGER I, J
      DO I = 1, N
        DO J = I, N
          A(J,I) = 1.0
        ENDDO
      ENDDO
      END
";
    let a = compile(src, &[]).unwrap();
    assert_eq!(a.num_parallel(), 1, "reasons: {:?}", a.serial_reasons);
    let p = a
        .regions
        .iter()
        .find_map(|r| match r {
            Region::Parallel(p) => Some(p),
            _ => None,
        })
        .unwrap();
    assert!(p.analysis.triangular, "DO J = I, N varies with I");
}

#[test]
fn sum_reduction_loop_parallel() {
    let src = r"
      PROGRAM DOT
      PARAMETER (N = 32)
      REAL A(N), B(N)
      REAL S
      INTEGER I
      DO I = 1, N
        A(I) = 1.0
        B(I) = 2.0
      ENDDO
      S = 0.0
      DO I = 1, N
        S = S + A(I) * B(I)
      ENDDO
      END
";
    let a = compile(src, &[]).unwrap();
    assert_eq!(a.num_parallel(), 2, "reasons: {:?}", a.serial_reasons);
    let p = a
        .regions
        .iter()
        .filter_map(|r| match r {
            Region::Parallel(p) => Some(p),
            _ => None,
        })
        .nth(1)
        .unwrap();
    assert_eq!(p.analysis.reductions.len(), 1);
}

#[test]
fn region_read_write_sets() {
    let a = compile(MM, &[]).unwrap();
    let c_id = a.symbols.array_id("C").unwrap();
    let mult = a
        .regions
        .iter()
        .filter_map(|r| match r {
            Region::Parallel(p) => Some(p),
            _ => None,
        })
        .nth(1)
        .unwrap();
    assert!(mult.analysis.writes.iter().any(|a| a.0 == c_id));
    assert_eq!(mult.analysis.reads.len(), 3, "A, B and C(I,J) re-read");
}

#[test]
fn figure5_summary_sets() {
    // The paper's Figure 5: a triply nested loop writing A(I,J,K) and
    // reading B(I,2*J,K+1), with J the parallel loop. The summary set
    // must classify A as WriteFirst and B as ReadOnly, with the
    // J-strides the figure shows (100 elements for A, 200 for B in
    // column-major linearisation).
    let src = r"
      PROGRAM FIG5
      PARAMETER (N = 100)
      REAL A(N,N,N), B(N,2*N,N+1)
      INTEGER I, J, K
      DO J = 1, N
        DO K = 1, N
          DO I = 1, N
            A(I,J,K) = B(I,2*J,K+1) + 1.0
          ENDDO
        ENDDO
      ENDDO
      END
";
    let analyzed = compile(src, &[]).unwrap();
    assert_eq!(analyzed.num_parallel(), 1, "{:?}", analyzed.serial_reasons);
    let p = analyzed
        .regions
        .iter()
        .find_map(|r| match r {
            Region::Parallel(p) => Some(p),
            _ => None,
        })
        .unwrap();
    let a_id = analyzed.symbols.array_id("A").unwrap();
    let b_id = analyzed.symbols.array_id("B").unwrap();

    let a_write = p
        .analysis
        .refs
        .iter()
        .find(|r| r.is_write && r.array.0 == a_id)
        .unwrap();
    // A(I,J,K): per-iteration-of-J stride = 100 (the second dimension's
    // column-major multiplier), inner dims I (stride 1, 100) and K
    // (stride 10000, 100).
    assert_eq!(a_write.coeff, 100);
    assert!(a_write.inner.contains(&lmad::Dim::new(1, 100)));
    assert!(a_write.inner.contains(&lmad::Dim::new(10000, 100)));

    let b_read = p
        .analysis
        .refs
        .iter()
        .find(|r| !r.is_write && r.array.0 == b_id)
        .unwrap();
    // B(I,2*J,K+1): J contributes 2*100 = 200 per iteration; the K+1
    // subscript shifts the base by one plane (100*200 = 20000).
    assert_eq!(b_read.coeff, 200);
    assert_eq!(b_read.base % 20000, 100, "2*J-1 column at J=1, K plane shift");

    // Summary classification drives §5.4: A -> collect only,
    // B -> scatter only.
    use lmad::AccessClass;
    assert_eq!(
        p.analysis.summary.class_of(lmad::ArrayId(a_id)),
        Some(AccessClass::WriteFirst)
    );
    assert_eq!(
        p.analysis.summary.class_of(lmad::ArrayId(b_id)),
        Some(AccessClass::ReadOnly)
    );
}
