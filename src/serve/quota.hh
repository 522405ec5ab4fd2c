/**
 * @file
 * Per-client admission quotas for the align server.
 *
 * A serving front door cannot let one chatty client starve the rest:
 * every client id gets a token bucket (burst capacity + steady refill
 * rate), and a request is admitted only if its client's bucket holds a
 * token. Exhausted buckets answer Overloaded immediately — cheaper for
 * both sides than queueing work that would be shed later.
 *
 * Time is passed in by the caller (monotonic seconds) rather than read
 * here, so tests drive the refill math deterministically and the server
 * pays one clock read per request, not one per layer.
 */

#ifndef GMX_SERVE_QUOTA_HH
#define GMX_SERVE_QUOTA_HH

#include <mutex>
#include <string>
#include <unordered_map>

namespace gmx::serve {

/** Token-bucket parameters applied to every client id. */
struct QuotaConfig
{
    /** Steady-state requests/second per client (0 = quotas disabled). */
    double tokens_per_sec = 0;

    /** Bucket capacity: the burst a client may spend at once. */
    double burst = 64;
};

/**
 * Registry of per-client token buckets. Thread-safe; one instance per
 * AlignServer. Buckets are created on first sight of a client id and
 * start full (a new client gets its burst).
 */
class QuotaRegistry
{
  public:
    explicit QuotaRegistry(QuotaConfig config = {});

    /**
     * Take one token for @p client_id at time @p now_s (monotonic
     * seconds). True = admitted. Always true when quotas are disabled.
     */
    bool admit(const std::string &client_id, double now_s);

    const QuotaConfig &config() const { return config_; }

  private:
    struct Bucket
    {
        double tokens = 0;
        double last_s = 0;
    };

    QuotaConfig config_;
    std::mutex mu_;
    std::unordered_map<std::string, Bucket> buckets_;
};

} // namespace gmx::serve

#endif // GMX_SERVE_QUOTA_HH
