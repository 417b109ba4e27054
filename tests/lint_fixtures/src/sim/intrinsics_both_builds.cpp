// Positive control (no expected finding): an intrinsics TU listed with
// -ffp-contract=off in both library builds, the layout of the real kernel
// tiers. The ffp-contract rule must stay silent here.
#include <immintrin.h>
