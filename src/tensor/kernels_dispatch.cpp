#include "tensor/kernels.hpp"

#include <atomic>
#include <cstdio>
#include <string>

#include "support/env.hpp"

namespace noisim::tsr {

namespace detail {

// Defined in contract.cpp (the scalar reference, always present) and
// kernels_avx2.cpp / kernels_avx512.cpp; each SIMD table is nullptr when
// its TU was compiled without the matching ISA (non-x86 targets, or a
// toolchain lacking the flag).
const KernelTable* scalar_table();
const KernelTable* avx2_table();
const KernelTable* avx512_table();

}  // namespace detail

namespace {

bool cpu_supports_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") > 0;
#else
  return false;
#endif
}

bool cpu_supports_avx512f() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512f") > 0;
#else
  return false;
#endif
}

void warn_fallback_once(KernelTier requested, KernelTier got) {
  static std::atomic<bool> warned{false};
  if (warned.exchange(true)) return;
  std::fprintf(stderr,
               "noisim: kernel tier \"%s\" is not supported on this host/build; "
               "falling back to \"%s\"\n",
               kernel_tier_name(requested), kernel_tier_name(got));
}

/// Resolve cpuid + NOISIM_KERNELS once; later set_kernel_tier calls swap
/// the pointer atomically.
std::atomic<const KernelTable*> g_active{nullptr};

const KernelTable* initial_table() {
  KernelTier requested = detected_kernel_tier();
  if (const char* env = support::env_get("NOISIM_KERNELS")) requested = parse_kernel_tier(env);
  const KernelTier tier = resolve_kernel_tier(requested);
  if (tier != requested) warn_fallback_once(requested, tier);
  return kernel_table(tier);
}

}  // namespace

KernelTier detected_kernel_tier() {
  // Require the tier's table to exist too: a build without the AVX-512 TU
  // must not "detect" a tier it cannot execute.
  if (cpu_supports_avx512f() && detail::avx512_table()) return KernelTier::Avx512;
  if (cpu_supports_avx2() && detail::avx2_table()) return KernelTier::Avx2;
  return KernelTier::Scalar;
}

const KernelTable* kernel_table(KernelTier tier) {
  switch (tier) {
    case KernelTier::Scalar:
      return detail::scalar_table();
    case KernelTier::Avx2:
      return cpu_supports_avx2() ? detail::avx2_table() : nullptr;
    case KernelTier::Avx512:
      return cpu_supports_avx512f() ? detail::avx512_table() : nullptr;
  }
  return nullptr;
}

KernelTier resolve_kernel_tier(KernelTier requested) {
  for (int t = static_cast<int>(requested); t > 0; --t)
    if (kernel_table(static_cast<KernelTier>(t))) return static_cast<KernelTier>(t);
  return KernelTier::Scalar;
}

KernelTier parse_kernel_tier(std::string_view value) {
  if (value == "auto") return detected_kernel_tier();
  if (value == "scalar") return KernelTier::Scalar;
  if (value == "avx2") return KernelTier::Avx2;
  if (value == "avx512") return KernelTier::Avx512;
  throw LinalgError("NOISIM_KERNELS: unknown kernel tier \"" + std::string(value) +
                    "\" (expected auto, scalar, avx2, or avx512)");
}

const KernelTable& active_kernels() {
  const KernelTable* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    table = initial_table();
    const KernelTable* expected = nullptr;
    // First resolver wins; racing threads resolve to the same table anyway
    // (env + cpuid are stable), so the losing store is dropped harmlessly.
    g_active.compare_exchange_strong(expected, table, std::memory_order_acq_rel);
  }
  return *table;
}

KernelTier active_kernel_tier() { return active_kernels().tier; }

KernelTier set_kernel_tier(KernelTier tier) {
  const KernelTier previous = active_kernel_tier();
  const KernelTier resolved = resolve_kernel_tier(tier);
  if (resolved != tier) warn_fallback_once(tier, resolved);
  g_active.store(kernel_table(resolved), std::memory_order_release);
  return previous;
}

const char* kernel_tier_name(KernelTier tier) {
  switch (tier) {
    case KernelTier::Scalar:
      return "scalar";
    case KernelTier::Avx2:
      return "avx2";
    case KernelTier::Avx512:
      return "avx512";
  }
  return "unknown";
}

}  // namespace noisim::tsr
