C     A read through aliasing subscripts: every element of A is read
C     by many iterations, so rank 1's scatter of A at fine grain is
C     N*N overlapping column pieces of one band (one VPCE101 warning,
C     its same-origin PUTs overlap).
C     Run: vpcec examples/fortran/alias.f --param N=100 --nodes 2
C          --grain fine --lint
      PROGRAM ALIAS
      PARAMETER (N = 16)
      REAL A(3*N), B(N,N,N)
      INTEGER I, J, K
      DO I = 1, N
        DO J = 1, N
          DO K = 1, N
            B(I,J,K) = A(I+J+K)
          ENDDO
        ENDDO
      ENDDO
      END
