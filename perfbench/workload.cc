#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "align/nw.hh"
#include "align/verify.hh"
#include "perfbench.hh"
#include "sequence/generator.hh"

namespace perfbench {

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
rssPeakMiB()
{
    // VmHWM rather than ru_maxrss: Linux carries ru_maxrss across exec,
    // so it would report the launching process's peak when that is larger.
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    const size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    if (v.size() % 2 == 1)
        return v[mid];
    const double hi = v[mid];
    return (*std::max_element(v.begin(), v.begin() + mid) + hi) / 2.0;
}

// ---------------------------------------------------------------- workloads

namespace {

/** One class of generated pairs. */
struct PairClass
{
    size_t length;
    double error;
    bool want_cigar;
};

/** Fill @p w's pool with @p per_class pairs of each class, interleaved. */
void
generate(Workload &w, const std::vector<PairClass> &classes, size_t per_class)
{
    gmx::seq::Generator gen(w.seed * 0x9e3779b97f4a7c15ull + w.name.size());
    for (size_t i = 0; i < per_class; ++i) {
        for (const PairClass &c : classes) {
            w.pairs.push_back(gen.pair(c.length, c.error));
            w.want_cigar.push_back(c.want_cigar ? 1 : 0);
        }
    }
    w.expected.reserve(w.pairs.size());
    for (const auto &p : w.pairs)
        w.expected.push_back(gmx::align::nwDistance(p.pattern, p.text));
}

} // namespace

Workload
makeWorkload(const std::string &name, u64 seed, bool smoke)
{
    Workload w;
    w.name = name;
    w.seed = seed;
    const size_t shrink = smoke ? 32 : 1;
    if (name == "short_screen") {
        w.outstanding = 256;
        generate(w, {{150, 0.02, false}}, 8192 / shrink);
    } else if (name == "cascade_mix") {
        w.outstanding = 256;
        generate(w,
                 {{150, 0.02, true}, {300, 0.15, false}, {300, 0.15, true}},
                 1024 / shrink);
    } else if (name == "wire_dedup") {
        w.wire = true;
        w.outstanding = 128;
        // 4x the router's default cache capacity (4096 entries).
        generate(w, {{150, 0.02, false}}, 16384 / shrink);
        const double s = 0.8;
        w.zipf_cdf.resize(w.pairs.size());
        double sum = 0.0;
        for (size_t r = 0; r < w.zipf_cdf.size(); ++r) {
            sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
            w.zipf_cdf[r] = sum;
        }
        for (double &c : w.zipf_cdf)
            c /= sum;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

Draw::Draw(const Workload &w) : w_(w), prng_(w.seed ^ 0x5bd1e995u) {}

u32
Draw::next()
{
    if (w_.zipf_cdf.empty())
        return static_cast<u32>(i_++ % w_.pairs.size());
    const double u = prng_.uniform();
    const auto it =
        std::lower_bound(w_.zipf_cdf.begin(), w_.zipf_cdf.end(), u);
    return static_cast<u32>(std::min<size_t>(
        static_cast<size_t>(it - w_.zipf_cdf.begin()), w_.pairs.size() - 1));
}

double
repeatRatio(const Workload &w, u64 n)
{
    if (n == 0)
        return 0.0;
    Draw draw(w);
    std::vector<u8> seen(w.pairs.size(), 0);
    u64 repeats = 0;
    for (u64 i = 0; i < n; ++i) {
        u8 &s = seen[draw.next()];
        repeats += s;
        s = 1;
    }
    return static_cast<double>(repeats) / static_cast<double>(n);
}

// ---------------------------------------------------------- correctness gate

bool
Gate::check(u32 pair, const gmx::Result<gmx::align::AlignResult> &r,
            const char *where)
{
    if (r.ok())
        return check(pair, *r, where);
    ++attempted_;
    ++failed_;
    return true;
}

bool
Gate::check(u32 pair, const gmx::align::AlignResult &r, const char *where)
{
    if (!checkDistance(pair, r.distance, where))
        return false;
    if (!w_.want_cigar[pair])
        return true;
    const auto &p = w_.pairs[pair];
    if (!r.has_cigar) {
        fail(std::string(where) + ": pair " + std::to_string(pair) +
             " wanted a CIGAR and got none");
        return false;
    }
    const auto v = gmx::align::verifyResult(p.pattern, p.text, r);
    if (!v.ok) {
        fail(std::string(where) + ": pair " + std::to_string(pair) +
             " CIGAR rejected: " + v.error);
        return false;
    }
    return true;
}

bool
Gate::checkDistance(u32 pair, i64 distance, const char *where)
{
    ++attempted_;
    if (distance == w_.expected[pair])
        return true;
    fail(std::string(where) + ": pair " + std::to_string(pair) +
         " distance " + std::to_string(distance) + " != nwDistance " +
         std::to_string(w_.expected[pair]));
    return false;
}

void
Gate::fail(const std::string &what)
{
    if (error_.empty())
        error_ = "workload " + w_.name + ": " + what;
}

// ---------------------------------------------------------------- histogram

namespace {
const double kLogStep = std::log(1.01);
}

void
LogHist::add(double ns)
{
    size_t b = 0;
    if (ns > kMinNs) // NaN compares false and lands in bucket 0
        b = std::min(kBuckets - 1,
                     static_cast<size_t>(std::log(ns / kMinNs) / kLogStep) +
                         1);
    ++counts_[b];
    ++total_;
}

double
LogHist::quantileNs(double q) const
{
    if (total_ == 0)
        return 0.0;
    const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(total_);
    double below = 0.0;
    for (size_t b = 0; b < kBuckets; ++b) {
        const double c = static_cast<double>(counts_[b]);
        if (c > 0 && below + c >= rank) {
            const double lo =
                b == 0 ? 0.0 : kMinNs * std::exp(kLogStep * (b - 1));
            const double hi = kMinNs * std::exp(kLogStep * b);
            return lo + (hi - lo) * ((rank - below) / c);
        }
        below += c;
    }
    return kMinNs * std::exp(kLogStep * (kBuckets - 1));
}

// ---------------------------------------------------------------- loop result

u64
LoopResult::attempted() const
{
    u64 n = 0;
    for (const Slice &s : slices)
        n += s.done;
    return n;
}

u64
LoopResult::failed() const
{
    u64 n = 0;
    for (const Slice &s : slices)
        n += s.failed;
    return n;
}

double
LoopResult::pairsPerSecond() const
{
    std::vector<double> rates;
    for (const Slice &s : slices)
        if (s.wall_s > 0)
            rates.push_back(static_cast<double>(s.done - s.failed) / s.wall_s);
    return median(rates);
}

} // namespace perfbench
