/**
 * @file
 * Shared helpers for the test suite: deterministic random pairs and a
 * parameter grid for property-style differential tests.
 */

#ifndef GMX_TESTS_TEST_UTIL_HH
#define GMX_TESTS_TEST_UTIL_HH

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "sequence/generator.hh"

namespace gmx::test {

/** Length/error grid point for parameterized differential tests. */
struct PairParams
{
    size_t length;
    double error_rate;
    gmx::u64 seed;
};

inline std::string
paramName(const PairParams &p)
{
    return "len" + std::to_string(p.length) + "_err" +
           std::to_string(static_cast<int>(p.error_rate * 100)) + "_seed" +
           std::to_string(p.seed);
}

/** Standard grid used by the differential tests of every aligner. */
inline std::vector<PairParams>
standardGrid()
{
    std::vector<PairParams> grid;
    for (size_t len : {1u, 7u, 33u, 64u, 65u, 100u, 257u, 600u}) {
        for (double err : {0.0, 0.05, 0.2}) {
            grid.push_back({len, err, 1000 + len * 7 +
                                      static_cast<gmx::u64>(err * 100)});
        }
    }
    return grid;
}

/** Deterministic pair for a grid point. */
inline seq::SequencePair
makePair(const PairParams &p)
{
    seq::Generator gen(p.seed);
    return gen.pair(p.length, p.error_rate);
}

/**
 * An OpenMetrics exposition as its family blocks (a `# TYPE` line plus
 * its samples), sorted, without the `# EOF` trailer: two renders with
 * the same families in any order compare equal.
 */
inline std::vector<std::string>
familyBlocks(const std::string &text)
{
    std::vector<std::string> blocks;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty() || line == "# EOF")
            continue;
        if (line.rfind("# TYPE ", 0) == 0 || blocks.empty())
            blocks.emplace_back();
        blocks.back() += line + "\n";
    }
    std::sort(blocks.begin(), blocks.end());
    return blocks;
}

} // namespace gmx::test

#endif // GMX_TESTS_TEST_UTIL_HH
