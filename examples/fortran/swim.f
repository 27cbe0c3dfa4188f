C     SWIM, one time step -- the SPEC shallow-water stencil chain.
C     Run: vpcec examples/fortran/swim.f --param N=400 --nodes 16 --lint
      PROGRAM SWIM
      PARAMETER (N = 32)
      REAL U(N,N), V(N,N), P(N,N)
      REAL UNEW(N,N), VNEW(N,N), PNEW(N,N)
      REAL CU(N,N), CV(N,N), Z(N,N), H(N,N)
      REAL FSDX, FSDY, TDTS8, TDTSDX, TDTSDY
      INTEGER I, J
      FSDX = 4.0 / 0.25
      FSDY = 4.0 / 0.25
      TDTS8 = 90.0 / 8.0
      TDTSDX = 90.0 / 0.25
      TDTSDY = 90.0 / 0.25
      DO J = 1, N
        DO I = 1, N
          U(I,J) = SIN(REAL(I) / REAL(N)) * 0.5
          V(I,J) = COS(REAL(J) / REAL(N)) * 0.5
          P(I,J) = 2.0 + SIN(REAL(I+J) / REAL(N))
        ENDDO
      ENDDO
      DO J = 1, N - 1
        DO I = 1, N - 1
          CU(I+1,J) = 0.5 * (P(I+1,J) + P(I,J)) * U(I+1,J)
          CV(I,J+1) = 0.5 * (P(I,J+1) + P(I,J)) * V(I,J+1)
          Z(I+1,J+1) = (FSDX * (V(I+1,J+1) - V(I,J+1)) - FSDY *
     & (U(I+1,J+1) - U(I+1,J))) /
     & (P(I,J) + P(I+1,J) + P(I+1,J+1) + P(I,J+1))
          H(I,J) = P(I,J) + 0.25 * (U(I+1,J) * U(I+1,J)
     & + U(I,J) * U(I,J)
     & + V(I,J+1) * V(I,J+1) + V(I,J) * V(I,J))
        ENDDO
      ENDDO
      DO J = 1, N - 2
        DO I = 1, N - 2
          UNEW(I+1,J) = U(I+1,J) + TDTS8 * (Z(I+1,J+1) + Z(I+1,J)) *
     & (CV(I+1,J+1) + CV(I,J+1) + CV(I,J) + CV(I+1,J))
     & - TDTSDX * (H(I+1,J) - H(I,J))
          VNEW(I,J+1) = V(I,J+1) - TDTS8 * (Z(I+1,J+1) + Z(I,J+1)) *
     & (CU(I+1,J+1) + CU(I,J+1) + CU(I,J) + CU(I+1,J))
     & - TDTSDY * (H(I,J+1) - H(I,J))
          PNEW(I,J) = P(I,J) - TDTSDX * (CU(I+1,J) - CU(I,J))
     & - TDTSDY * (CV(I,J+1) - CV(I,J))
        ENDDO
      ENDDO
      DO J = 1, N - 2
        DO I = 1, N - 2
          U(I,J) = UNEW(I,J)
          V(I,J) = VNEW(I,J)
          P(I,J) = PNEW(I,J)
        ENDDO
      ENDDO
      END
