#include "kernel/dispatch.hh"

#include <atomic>
#include <cstdlib>

#include "kernel/simd/bpm_simd.hh"

namespace gmx::kernel {

namespace {

// Test override: -1 = follow the environment, 0/1 = pinned.
std::atomic<int> g_force_override{-1};

bool
envForceScalar()
{
    static const bool cached = [] {
        const char *v = std::getenv("GMX_FORCE_SCALAR");
        return v && *v && !(v[0] == '0' && v[1] == '\0');
    }();
    return cached;
}

} // namespace

bool
cpuHasAvx2()
{
#if defined(__x86_64__) || defined(__i386__)
    static const bool cached = __builtin_cpu_supports("avx2");
    return cached;
#else
    return false;
#endif
}

bool
forceScalar()
{
    const int o = g_force_override.load(std::memory_order_relaxed);
    if (o >= 0)
        return o != 0;
    return envForceScalar();
}

void
setForceScalarForTest(int force)
{
    g_force_override.store(force, std::memory_order_relaxed);
}

bool
simdDispatchEnabled()
{
    return simd::builtWithAvx2() && cpuHasAvx2() && !forceScalar();
}

std::string_view
dispatchKernel(std::string_view name)
{
    return name;
}

} // namespace gmx::kernel
