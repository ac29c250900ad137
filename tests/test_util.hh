/**
 * @file
 * Shared RAII guards for tests that mutate process-wide knobs: the
 * destructors restore the prior value even when an ASSERT_* bails
 * out of the test body mid-sweep, so one failing parity test cannot
 * leak an engine selection or pool size into every later test in
 * the binary.
 */

#ifndef MOKEY_TESTS_TEST_UTIL_HH
#define MOKEY_TESTS_TEST_UTIL_HH

#include <string>

#include "common/fault.hh"
#include "common/parallel.hh"
#include "quant/engine.hh"

namespace mokey
{

/** Restores the pool size even when an assertion fails out. */
struct ThreadCountGuard
{
    size_t prior = threadCount();
    ~ThreadCountGuard() { setThreadCount(prior); }
};

/** Restores the engine selection even when an assertion fails out. */
struct EngineGuard
{
    IndexEngine prior = indexEngine();
    ~EngineGuard() { setIndexEngine(prior); }
};

/**
 * Arms the process-wide fault injector for one test — unless the
 * environment (a CI chaos sweep via MOKEY_FAULT) already armed it,
 * in which case the env spec describes the whole binary's fault plan
 * and wins. `owned` tells the test whether its own spec is in force
 * (strong, seed-specific assertions hold) or an arbitrary env spec
 * is (only survival invariants hold).
 */
struct FaultArmGuard
{
    explicit FaultArmGuard(const std::string &spec)
    {
        if (!faultsArmed()) {
            FaultInjector::instance().configure(spec);
            owned = true;
        }
    }
    ~FaultArmGuard()
    {
        if (owned)
            FaultInjector::instance().disarm();
    }
    FaultArmGuard(const FaultArmGuard &) = delete;
    FaultArmGuard &operator=(const FaultArmGuard &) = delete;

    bool owned = false;
};

} // namespace mokey

#endif // MOKEY_TESTS_TEST_UTIL_HH
