// R15 fixture: the exemption annotation suppresses a deliberate intrinsics
// include and target attribute; other attributes and a variable named
// `target` are never ISA-specific.
// R15-exempt: fixture proves the exemption path
#include <immintrin.h>

// R15-exempt: ditto
__attribute__((target("avx2"))) void add8(float* out, const float* a,
                                          const float* b) {
  _mm256_storeu_ps(out, _mm256_add_ps(_mm256_loadu_ps(a), _mm256_loadu_ps(b)));
}

__attribute__((always_inline)) inline int pick(int target) { return target; }
