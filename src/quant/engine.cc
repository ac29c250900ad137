#include "quant/engine.hh"

#include <atomic>
#include <string>

#include "common/env.hh"
#include "common/logging.hh"

namespace mokey
{

namespace
{

IndexEngine
engineFromEnv()
{
    const std::string s = lowercasedEnv("MOKEY_ENGINE");
    if (s.empty())
        return IndexEngine::Mag;
    if (s == "mag")
        return IndexEngine::Mag;
    if (s == "count" || s == "counting")
        return IndexEngine::Count;
    if (s == "auto")
        return IndexEngine::Auto;
    fatal("MOKEY_ENGINE must be 'mag', 'count' or 'auto', got '%s'",
          s.c_str());
}

std::atomic<IndexEngine> &
engineSlot()
{
    static std::atomic<IndexEngine> slot{engineFromEnv()};
    return slot;
}

} // anonymous namespace

IndexEngine
indexEngine()
{
    return engineSlot().load(std::memory_order_relaxed);
}

void
setIndexEngine(IndexEngine engine)
{
    engineSlot().store(engine, std::memory_order_relaxed);
}

const char *
indexEngineName(IndexEngine engine)
{
    switch (engine) {
    case IndexEngine::Mag:
        return "mag";
    case IndexEngine::Count:
        return "count";
    case IndexEngine::Auto:
        return "auto";
    }
    return "?";
}

PlaneSet
enginePlaneSet(IndexEngine engine)
{
    return engine == IndexEngine::Mag ? PlaneSet::Mag
                                      : PlaneSet::Bytes;
}

IndexEngine
autoEngineChoice(size_t aRows, size_t wRows, size_t k,
                 const PlanesFootprint &weight)
{
    const size_t mag_stream_bytes =
        (aRows + wRows) * k * sizeof(double);
    if (mag_stream_bytes > kAutoMagBudgetBytes)
        return IndexEngine::Count;
    if (weight.resident && weight.magResident)
        return IndexEngine::Mag;
    return IndexEngine::Count;
}

IndexEngine
resolveIndexEngine(const QuantizedTensor &a, const QuantizedTensor &wt)
{
    const IndexEngine e = indexEngine();
    if (e != IndexEngine::Auto)
        return e;
    return autoEngineChoice(a.rows(), wt.rows(), a.cols(),
                            wt.planesFootprint());
}

PlaneSet
weightPlaneSet(IndexEngine engine, size_t wRows, size_t k)
{
    if (engine != IndexEngine::Auto)
        return enginePlaneSet(engine);
    // Pin mag only when this weight's own plane leaves room for an
    // activation-side stream of similar K inside the budget;
    // otherwise serving GEMMs will route to counting anyway, so the
    // byte planes are the right residents.
    return wRows * k * sizeof(double) * 2 <= kAutoMagBudgetBytes
        ? PlaneSet::Mag
        : PlaneSet::Bytes;
}

} // namespace mokey
