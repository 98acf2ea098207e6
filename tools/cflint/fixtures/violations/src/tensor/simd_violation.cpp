// R15 fixture: a hand-vectorized kernel that pulls in the intrinsics
// header and a target attribute outside the dispatched SHA-256 unit, so
// nothing checks the CPU before the AVX2 path runs.
#include <immintrin.h>

__attribute__((target("avx2"))) void add8(float* out, const float* a,
                                          const float* b) {
  _mm256_storeu_ps(out, _mm256_add_ps(_mm256_loadu_ps(a), _mm256_loadu_ps(b)));
}
