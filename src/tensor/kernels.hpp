#pragma once
// Runtime-dispatched kernel tiers: one KernelTable per instruction-set
// tier (scalar, AVX2, AVX-512), all implementing the two matmul kernel
// families of tensor/contract.hpp -- one plain kernel per rung of the
// tsr::matmul_shape ladder, and the gather-table variant -- and the
// state-vector kernel families
// (1- and 2-qubit gate application, the CX permutation, the fused Kraus
// apply + renormalization, the out-of-place 2-qubit apply) with
// BIT-IDENTICAL results.
//
// The bit-identity contract: every matmul kernel writes out = a * b over
// the whole output (no caller zero-fills), and every tier computes each
// output element as the scalar reference does -- start at +0.0, then add
// the product of each nonzero a(i, kk) in ascending k -- with the complex
// multiply-accumulate as the same sequence of IEEE double operations (mul,
// mul, sub/add, add -- never contracted into FMA). The scalar tier zeroes
// its output and accumulates in memory; the SIMD tiers hold each output
// tile in registers seeded with +0.0 and store it once. The state-vector
// families likewise run, per amplitude, the scalar tier's exact operation
// sequence (coefficient-times-amplitude as mul, mul, sub/add; row sums left
// to right). Lane-wise the arithmetic is
// the scalar arithmetic, so the tier choice NEVER changes bits -- the
// determinism contract of the plan executor (replay == recontract,
// batched == per-term, any thread count) and of the trajectory samplers
// survives dispatch, and a GPU or remote executor can later slot in behind
// the same reference path by satisfying the same table interface.
//
// Tier selection happens once at startup from cpuid, overridable with
// NOISIM_KERNELS={auto,scalar,avx2,avx512}: an unknown value throws
// LinalgError naming the variable; requesting a tier the host (or build)
// lacks falls back to the best supported tier with a one-time warning.

#include <cstddef>
#include <string_view>

#include "tensor/contract.hpp"

namespace noisim::tsr {

/// Instruction-set tiers, ordered: a host supporting a tier supports every
/// lower one.
enum class KernelTier { Scalar = 0, Avx2 = 1, Avx512 = 2 };

inline constexpr std::size_t kNumKernelTiers = 3;

namespace detail {

using GatheredFn = void (*)(const cplx* a, const std::uint32_t* a_idx, const cplx* b,
                            const std::uint32_t* b_idx, cplx* out, std::size_t m, std::size_t k,
                            std::size_t n);

// State-vector families (signatures and scalar semantics in
// tensor/contract.hpp, sv_*).
using Sv1Fn = void (*)(cplx* v, std::size_t size, std::size_t bit, const cplx* m);
using Sv2Fn = void (*)(cplx* v, std::size_t size, std::size_t bit_a, std::size_t bit_b,
                       const cplx* m);
using SvCxFn = void (*)(cplx* v, std::size_t size, std::size_t bit_a, std::size_t bit_b);
using SvKraus1Fn = void (*)(cplx* v, std::size_t size, std::size_t bit, const cplx* m,
                            double scale);
using Sv2IntoFn = void (*)(const cplx* src, cplx* dst, std::size_t size, std::size_t bit_a,
                           std::size_t bit_b, const cplx* m);

}  // namespace detail

/// One tier's implementation of the matmul and state-vector kernel
/// families. The plan executors, tsr::contract and the state-vector engine
/// (sim/statevector.hpp) call kernels exclusively through a table (the
/// executor seam): replacing the table replaces the device the plan
/// replays on, which is the shape batched-contraction offload interfaces
/// (cuTensorNet-style) expose. `matmul` holds every plain product, one
/// kernel per rung of matmul_shape: an executor calls kt.matmul[step.shape]
/// with the rung compiled into the step, resolving the table itself once
/// per traversal so cached plans follow tier switches. Any table slotted in
/// must honor the bit-identity contract above to keep replays
/// interchangeable with the CPU reference path.
struct KernelTable {
  detail::MatmulKernels matmul;   // the plain kernel per MatmulShape
  detail::GatheredFn gathered;    // permutation-fused gather-table variant
  detail::Sv1Fn sv_dense1;        // 2x2 on one qubit
  detail::Sv1Fn sv_diag1;         // diagonal 2x2 on one qubit
  detail::Sv2Fn sv_dense2;        // 4x4 on two qubits
  detail::Sv2Fn sv_diag2;         // diagonal 4x4 on two qubits
  detail::SvCxFn sv_cx;           // |10> <-> |11> block swap
  detail::SvKraus1Fn sv_kraus1;   // 2x2 apply fused with a real rescale
  detail::Sv2IntoFn sv_dense2_into;  // out-of-place 4x4 apply
  KernelTier tier;
  const char* name;
};

/// Best tier the running CPU supports (cpuid), independent of any
/// NOISIM_KERNELS override.
KernelTier detected_kernel_tier();

/// Tier table, or nullptr when the tier is unsupported on this host or was
/// not compiled into this build. Scalar is always available.
const KernelTable* kernel_table(KernelTier tier);

/// Highest supported tier <= `requested` (what an unsupported request
/// falls back to).
KernelTier resolve_kernel_tier(KernelTier requested);

/// Parse a NOISIM_KERNELS value ("auto" resolves to the detected tier).
/// Throws LinalgError naming NOISIM_KERNELS on anything else.
KernelTier parse_kernel_tier(std::string_view value);

/// The dispatched table every execution path uses by default: resolved
/// once from cpuid + NOISIM_KERNELS on first use, then constant unless
/// set_kernel_tier intervenes. Thread-safe.
const KernelTable& active_kernels();

/// Tier of active_kernels().
KernelTier active_kernel_tier();

/// Force the active tier (tests, benchmarks). An unsupported request
/// resolves to the best supported tier with a one-time warning, mirroring
/// the NOISIM_KERNELS fallback. Returns the PREVIOUS active tier so
/// callers can restore it. Not intended to race concurrent executions:
/// switch tiers only between runs (any interleaving is still safe and
/// still bit-exact -- all tables compute identical bits -- but a run's
/// reported dispatch counters would straddle tiers).
KernelTier set_kernel_tier(KernelTier tier);

const char* kernel_tier_name(KernelTier tier);

}  // namespace noisim::tsr
