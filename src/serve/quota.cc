#include "serve/quota.hh"

#include <algorithm>

namespace gmx::serve {

QuotaRegistry::QuotaRegistry(QuotaConfig config) : config_(config)
{
    if (config_.burst < 1)
        config_.burst = 1;
}

bool
QuotaRegistry::admit(const std::string &client_id, double now_s)
{
    if (config_.tokens_per_sec <= 0)
        return true;
    std::lock_guard<std::mutex> lk(mu_);
    auto [it, fresh] = buckets_.try_emplace(client_id);
    Bucket &b = it->second;
    if (fresh) {
        b.tokens = config_.burst; // a new client gets its full burst
        b.last_s = now_s;
    }
    // Refill for elapsed time; a stepped/backwards clock refills nothing.
    const double dt = now_s - b.last_s;
    if (dt > 0)
        b.tokens = std::min(config_.burst,
                            b.tokens + dt * config_.tokens_per_sec);
    b.last_s = now_s;
    if (b.tokens >= 1.0) {
        b.tokens -= 1.0;
        return true;
    }
    return false;
}

} // namespace gmx::serve
