// lint-fixture: expect(ffp-contract)
// Listed with -ffp-contract=off in the top-level fixture CMakeLists.txt but
// missing from perfbench/CMakeLists.txt: the benchmark build compiles it
// without the flag.
#include <immintrin.h>
