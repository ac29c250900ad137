/**
 * @file
 * Deterministic fault injection for chaos testing the serving stack.
 *
 * A fault SITE is a named seam in production code (engine dispatch,
 * forwardStep, the scheduler dispatch loops, socket read/write).
 * Each site can be armed with a firing rate and a seed; an armed
 * site fires pseudo-randomly but DETERMINISTICALLY: the k-th check
 * of a site fires iff a seeded hash of k lands under the rate, so
 * the exact fault pattern of a run is a pure function of
 * (seed, rate, check order) and a test can predict — not just
 * observe — which requests fail.
 *
 * Sites are armed either programmatically (tests, the bench chaos
 * phase) or from the environment:
 *
 *   MOKEY_FAULT=<site>:<rate>:<seed>[,<site>:<rate>:<seed>...]
 *
 * e.g. MOKEY_FAULT=engine:0.1:42 fires the engine-dispatch throw on
 * ~10% of weight-site GEMM dispatches, deterministically for seed
 * 42. Rate is a decimal in (0, 1]; seed is a non-negative integer. A
 * malformed spec is a fatal config error naming the variable (the
 * same contract as every other MOKEY_* knob).
 *
 * Cost when unset: every seam compiles to one relaxed atomic load
 * and a predicted-not-taken branch (faultFire() below) — no locks,
 * no clock reads, no allocation.
 *
 * What each site does when it fires:
 *   engine     a forward pass's weight-site GEMM dispatch throws
 *   step       QuantizedTransformer::forwardStep() throws
 *   stepdelay  forwardStep() sleeps ~2 ms (latency, not failure)
 *   sched      scheduler dispatch/step loop sleeps ~2 ms
 *   sockread   socket server recv() artificially short (7 bytes)
 *   sockwrite  socket server send() artificially short (3 bytes)
 *   sockreset  socket server drops the connection on read-ready
 *
 * Throw sites (engine, step, sockreset) fail requests; delay/short
 * sites only perturb timing and I/O boundaries and must never change
 * any result byte.
 */

#ifndef MOKEY_COMMON_FAULT_HH
#define MOKEY_COMMON_FAULT_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace mokey
{

/** The named seams fault injection can perturb. */
enum class FaultSite : size_t {
    EngineDispatch, ///< "engine": weight-site GEMM dispatch throws
    StepThrow,      ///< "step": forwardStep throws
    StepDelay,      ///< "stepdelay": forwardStep sleeps
    SchedDelay,     ///< "sched": scheduler loop sleeps
    SockRead,       ///< "sockread": short socket read
    SockWrite,      ///< "sockwrite": short socket write
    SockReset,      ///< "sockreset": connection dropped on read
    Count_
};

inline constexpr size_t kFaultSiteCount =
    static_cast<size_t>(FaultSite::Count_);

namespace detail
{
/** True while ANY site is armed — the only state the hot path
 *  reads. Lives in fault.cc; do not touch directly. */
extern std::atomic<bool> g_faultsArmed;
} // namespace detail

/** One relaxed load: false (the common case) means every site is
 *  disarmed and faultFire() short-circuits. */
inline bool
faultsArmed()
{
    return detail::g_faultsArmed.load(std::memory_order_relaxed);
}

/**
 * Per-site deterministic injector. Production code uses the free
 * helpers below; tests may construct private instances to exercise
 * the spec parser without touching the process-wide singleton.
 */
class FaultInjector
{
  public:
    FaultInjector() = default;

    /** The process-wide injector (MOKEY_FAULT arms it at startup). */
    static FaultInjector &instance();

    /**
     * Arm sites from a spec string (the MOKEY_FAULT grammar above).
     * Throws std::invalid_argument on junk — the env path converts
     * that into a fatal config error.
     */
    void configure(const std::string &spec);

    /** Arm one site: fire on ~rate of checks, seeded. */
    void arm(FaultSite site, double rate, uint64_t seed);

    /** Disarm every site and reset counters (tests, bench phases). */
    void disarm();

    /** True when this injector has any armed site. */
    bool armed() const;

    /** True when @p site is armed. */
    bool armed(FaultSite site) const;

    /**
     * Count one check of @p site; true when the fault fires. The
     * per-site check counter makes the fire pattern deterministic:
     * check k fires iff wouldFire(rate, seed, k).
     */
    bool shouldFire(FaultSite site);

    /** Fires so far at @p site (tests map faults to failures). */
    uint64_t fired(FaultSite site) const;

    /** Checks so far at @p site. */
    uint64_t checks(FaultSite site) const;

    /**
     * The pure firing predicate: would check number @p n (0-based)
     * of a site armed with (@p rate, @p seed) fire? Exposed so tests
     * can PREDICT the fault pattern instead of observing it.
     */
    static bool wouldFire(double rate, uint64_t seed, uint64_t n);

    /** Canonical spec name of @p site ("engine", "sockread", ...). */
    static const char *name(FaultSite site);

    /** Parse a spec site name; false when unknown. */
    static bool parseSite(const std::string &name, FaultSite &out);

  private:
    struct Site
    {
        std::atomic<bool> on{false};
        std::atomic<uint64_t> thresh{0}; ///< fire when hash32 < this
        std::atomic<uint64_t> seed{0};
        std::atomic<uint64_t> nChecks{0};
        std::atomic<uint64_t> nFired{0};
    };

    std::array<Site, kFaultSiteCount> sites;
};

/**
 * Throw-type seam: when @p site is armed and fires, throws
 * std::runtime_error("injected fault: <site>"). No-op otherwise.
 */
void faultThrowIfFired(FaultSite site); // fault.cc (throws)

inline void
faultPoint(FaultSite site)
{
    if (faultsArmed())
        faultThrowIfFired(site);
}

/** Delay-type seam: when armed and fired, sleeps ~2 ms. */
void faultDelayIfFired(FaultSite site); // fault.cc (sleeps)

inline void
faultDelayPoint(FaultSite site)
{
    if (faultsArmed())
        faultDelayIfFired(site);
}

/** Boolean seam (I/O shortening): true when armed and fired. */
inline bool
faultFire(FaultSite site)
{
    return faultsArmed() &&
           FaultInjector::instance().shouldFire(site);
}

} // namespace mokey

#endif // MOKEY_COMMON_FAULT_HH
