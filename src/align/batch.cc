#include "align/batch.hh"

#include "common/logging.hh"

namespace gmx::align {

Status
validatePair(const seq::SequencePair &pair, const InputLimits &limits)
{
    return validatePair(pair, limits, LengthClass::Short);
}

Status
validatePair(const seq::SequencePair &pair, const InputLimits &limits,
             LengthClass klass)
{
    const size_t n = pair.pattern.size();
    const size_t m = pair.text.size();
    if (limits.reject_empty && (n == 0 || m == 0))
        return Status::invalidInput(n == 0 ? "empty pattern sequence"
                                           : "empty text sequence");
    if (limits.reject_non_acgt &&
        (pair.pattern.hadNonAcgt() || pair.text.hadNonAcgt())) {
        return Status::invalidInput("sequence contains non-ACGT bytes");
    }
    if (klass == LengthClass::Long) {
        // Long-class pairs stream through O(window) state, so the
        // short-class length and skew limits do not apply; only the
        // long class's own wall-clock/frame-size cap does.
        if (limits.max_long_pair_bases != 0 &&
            n + m > limits.max_long_pair_bases) {
            return Status::invalidInput(detail::format(
                "long-class pair of %zu bases exceeds the %zu-base "
                "admission limit",
                n + m, limits.max_long_pair_bases));
        }
        return Status();
    }
    if (limits.max_pair_bases != 0 && n + m > limits.max_pair_bases) {
        return Status::invalidInput(detail::format(
            "pair of %zu bases exceeds the %zu-base admission limit",
            n + m, limits.max_pair_bases));
    }
    const size_t skew = n > m ? n - m : m - n;
    if (limits.max_length_skew != 0 && skew > limits.max_length_skew) {
        return Status::invalidInput(detail::format(
            "length mismatch of %zu exceeds the %zu-base skew limit", skew,
            limits.max_length_skew));
    }
    return Status();
}

} // namespace gmx::align
