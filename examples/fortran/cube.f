C     One store over a cube: each rank's band of I is N*N column
C     pieces, a plan of a million messages at N = 1025 and 2 ranks.
C     Run: vpcec examples/fortran/cube.f --param N=1100 --nodes 2
C          --grain fine --analytic
      PROGRAM CUBE
      PARAMETER (N = 16)
      REAL A(N,N,N)
      INTEGER I, J, K
      DO I = 1, N
        DO J = 1, N
          DO K = 1, N
            A(I,J,K) = 1.0
          ENDDO
        ENDDO
      ENDDO
      END
