// lint-fixture: expect(ffp-contract)
// A library TU that uses intrinsics directly, without the shared kernel
// body, and has no set_source_files_properties entry in either library
// build: it compiles with the default contraction setting, and the
// benchmark build never gives it its ISA flag.
#include <immintrin.h>
