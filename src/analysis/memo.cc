#include "src/analysis/memo.h"

#include <vector>

#include "src/obs/metrics.h"

namespace exo2 {

namespace {

bool g_enabled = true;

const obs::StatsView<AnalysisMemoStats> g_counters{
    {"analysis.affine_hits", &AnalysisMemoStats::affine_hits},
    {"analysis.affine_misses", &AnalysisMemoStats::affine_misses},
    {"analysis.linear_hits", &AnalysisMemoStats::linear_hits},
    {"analysis.linear_misses", &AnalysisMemoStats::linear_misses},
    {"analysis.effects_hits", &AnalysisMemoStats::effects_hits},
    {"analysis.effects_misses", &AnalysisMemoStats::effects_misses},
};

std::vector<void (*)()>&
clearers()
{
    static std::vector<void (*)()> v;
    return v;
}

}  // namespace

namespace memo_internal {

void
register_clearer(void (*fn)())
{
    clearers().push_back(fn);
}

}  // namespace memo_internal

bool
analysis_memo_enabled()
{
    return g_enabled;
}

void
set_analysis_memo_enabled(bool on)
{
    if (g_enabled && !on)
        clear_analysis_memo();
    g_enabled = on;
}

void
clear_analysis_memo()
{
    for (auto fn : clearers())
        fn();
}

AnalysisMemoStats
analysis_memo_stats()
{
    return g_counters.read();
}

void
reset_analysis_memo_stats()
{
    g_counters.reset();
}

}  // namespace exo2
