/**
 * @file
 * Shared-memory parallelism substrate: a multi-lane work-sharing
 * executor.
 *
 * One process-wide worker set services several *lanes*. Each lane is
 * an independent submission queue: a top-level parallelFor() tagged
 * with a Lane publishes its loop into that lane's job slot, and every
 * worker round-robins chunks across all lanes with active jobs — so N
 * concurrent callers (one per batch lane in the serving engine) make
 * progress simultaneously instead of serializing on a single FIFO.
 * Loops submitted to the *same* lane still run one at a time, in
 * submission order, which keeps each lane's view of the pool exactly
 * what the single-lane design provided.
 *
 * On top of the shared worker set sits *work stealing* (on by
 * default, see setLaneStealing): jobs hand out chunks from both ends
 * of their range, workers stay affine to one lane and front-claim its
 * chunks in order, and a thread with nothing left on its own lane
 * back-claims ("steals") chunks from the tail of the busiest other
 * active lane — including the lane *owner* while it waits for its
 * final chunks to retire elsewhere, so imbalanced lanes donate work
 * instead of idling. Per-lane steals/donated counters surface in
 * laneStats().
 *
 * Design constraints, in priority order:
 *
 *  1. *Determinism.* Results must be bit-identical for any thread
 *     count and any lane assignment. Chunk boundaries are a pure
 *     function of (range, grain, thread count) — never of timing or
 *     lanes. Only *which* worker executes a chunk, and how chunks of
 *     concurrent lanes interleave in time, is timing-dependent.
 *     Callers keep each output element's computation entirely inside
 *     one iteration.
 *  2. *Nesting safety.* A parallelFor() issued from inside a worker
 *     (or from a lane owner draining its own loop) runs inline
 *     instead of deadlocking the pool — outer loops parallelize,
 *     inner loops degrade gracefully.
 *  3. *Cheap dispatch.* Ranges below the grain threshold (or a
 *     1-thread pool) bypass the executor entirely. A submitted loop
 *     completes as soon as its iterations have all *executed* — the
 *     owner drains its own lane and never waits for worker wake-up
 *     acknowledgements, so small-loop dispatch stays cheap even when
 *     workers are parked.
 *
 * Thread count defaults to std::thread::hardware_concurrency() and
 * can be overridden by the MOKEY_THREADS environment variable or
 * setThreadCount() (tests use the latter to sweep 1/2/N). Workers
 * normally park on a condition variable when idle; persistent-wave
 * mode (setWaveSpin() / MOKEY_WAVE_US) makes them spin briefly first,
 * which trades idle CPU for lower chunk pick-up latency in
 * many-small-loop patterns.
 */

#ifndef MOKEY_COMMON_PARALLEL_HH
#define MOKEY_COMMON_PARALLEL_HH

#include <cstddef>
#include <cstdint>
#include <functional>

namespace mokey
{

/** Body signature for chunked loops: process indexes [lo, hi). */
using RangeBody = std::function<void(size_t lo, size_t hi)>;

/** Number of executor lanes (lane 0 is the shared default lane). */
constexpr size_t kLaneCount = 16;

/**
 * Handle to one executor lane. Value type: copy freely, pass by
 * value. The default-constructed Lane is the shared lane 0 that all
 * untagged loops use — callers that never touch lanes get exactly
 * the old single-queue behaviour. Components that want their own
 * lane (one per scheduler dispatcher, say) take one via acquire().
 */
class Lane
{
  public:
    /** The shared default lane (id 0). */
    Lane() = default;

    /**
     * Hand out a lane in round-robin order over lanes 1..kLaneCount-1
     * (never the shared default lane). Successive acquires within a
     * window of kLaneCount-1 calls are pairwise distinct, so up to 15
     * concurrent components get private lanes before any sharing
     * starts. Sharing a lane is safe — same-lane loops serialize.
     */
    static Lane acquire();

    /** Deterministic lane for index @p i: 1 + i % (kLaneCount - 1). */
    static Lane ofIndex(size_t i);

    size_t id() const { return id_; }
    bool operator==(const Lane &o) const { return id_ == o.id_; }

  private:
    explicit Lane(size_t id) : id_(id) {}
    size_t id_ = 0;
};

/** Cumulative per-lane counters (monotonic; snapshot via laneStats). */
struct LaneStats
{
    uint64_t loops = 0;  ///< top-level loops submitted to the lane
    uint64_t chunks = 0; ///< chunks executed on behalf of the lane
    uint64_t steals = 0; ///< chunks this lane's threads stole elsewhere
    uint64_t donated = 0; ///< chunks of this lane's jobs taken by thieves
};

/** Snapshot of @p lane's counters. */
LaneStats laneStats(Lane lane);

/**
 * Work-stealing knob. When on (the default; MOKEY_STEAL overrides), a
 * worker that has drained its own lane's queue steals whole chunks
 * from the *tail* of the busiest other active lane instead of
 * round-robin sharing, and a lane owner whose range is fully claimed
 * but not yet finished assists other lanes instead of idling. Chunk
 * boundaries stay a pure function of (range, grain, thread count), so
 * results are bit-identical with stealing on or off — only the
 * chunk→thread assignment changes. Off restores the PR 3 round-robin
 * work-sharing schedule exactly.
 */
void setLaneStealing(bool on);

/** Current work-stealing setting. */
bool laneStealing();

/** Number of threads the pool currently runs (>= 1). */
size_t threadCount();

/**
 * Resize the pool to exactly @p n threads (clamped to >= 1).
 * Blocks until no loop is in flight on any lane; intended for
 * startup and tests.
 */
void setThreadCount(size_t n);

/**
 * Persistent-wave knob: idle workers spin for @p micros microseconds
 * looking for new lane jobs before parking on the condition variable.
 * 0 (the default) parks immediately. Initialized from MOKEY_WAVE_US.
 */
void setWaveSpin(size_t micros);

/** Current wave-spin window in microseconds. */
size_t waveSpin();

/**
 * Run @p body over [begin, end) split into contiguous chunks, on the
 * shared default lane.
 *
 * Chunk boundaries are a pure function of (range, grain, thread
 * count); which worker executes which chunk is unspecified, so the
 * body must only write state owned by its own indexes.
 *
 * @param begin first index
 * @param end   one past the last index
 * @param grain minimum indexes per chunk (>= 1); ranges not larger
 *              than @p grain run inline on the calling thread
 * @param body  chunk handler, called as body(lo, hi)
 */
void parallelForRange(size_t begin, size_t end, size_t grain,
                      const RangeBody &body);

/**
 * Lane-tagged variant: the loop occupies @p lane, runs concurrently
 * with loops on other lanes, and serializes (FIFO) with loops on the
 * same lane. Results are bit-identical to the default-lane variant.
 */
void parallelForRange(Lane lane, size_t begin, size_t end, size_t grain,
                      const RangeBody &body);

/** Per-index convenience wrapper over parallelForRange(). */
void parallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t i)> &body);

/** Lane-tagged per-index wrapper. */
void parallelFor(Lane lane, size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t i)> &body);

/**
 * Grain for a loop whose indexes each cost @p work multiply-adds:
 * a chunk carries at least ~32k of them, so tiny loops run inline on
 * the calling thread.
 */
size_t grainFor(size_t work);

/** Body of parallelForTiles(): rows [i0, i1) x columns [j0, j1). */
using TileBody =
    std::function<void(size_t i0, size_t i1, size_t j0, size_t j1)>;

/**
 * Run @p body over the (rows x cols) output of a GEMM whose outputs
 * each cost @p k multiply-adds — the one partition of every
 * weight-site GEMM, a 2-D grid of (row band x column tile) cells.
 *
 * Bands are ceil(rows / (4 * threads)) rows high, so a prefill GEMM
 * keeps ~4 bands per thread and each weight tile is reused by every
 * row of its band. Tiles are @p tileCols wide, so a 1-row decode GEMM
 * still spreads its weight columns over the pool. The cells are
 * numbered band-major and fanned out by parallelForRange() with a
 * grainFor() grain, so tiny GEMMs run inline. A chunk reaches @p body
 * as at most three rectangles: its run of whole bands as one
 * rectangle across all columns (an inline GEMM is a single
 * rectangle), and a partial band at either end. A rectangle's j0 is
 * a multiple of @p tileCols, and its j1 is one too unless it is
 * @p cols.
 *
 * Every (row, column) lands in exactly one rectangle, and the
 * rectangles are a pure function of (rows, cols, tileCols, k, thread
 * count). Two rectangles may share a row, so @p body writes only its
 * own elements.
 */
void parallelForTiles(Lane lane, size_t rows, size_t cols,
                      size_t tileCols, size_t k, const TileBody &body);

} // namespace mokey

#endif // MOKEY_COMMON_PARALLEL_HH
