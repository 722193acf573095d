/**
 * @file
 * lbp::obs::prof — a signal-driven sampling self-profiler for the
 * host process, answering "where do the *host* cycles go" (decoded
 * dispatch vs trace replay vs decode vs compile vs bench harness)
 * with the same attribution discipline the simulator applies to the
 * modeled loop buffer.
 *
 * Mechanism: RAII ScopedRegion markers in the hot layers push a
 * region id onto a small TLS stack. Each registered thread owns a
 * POSIX per-thread CPU-time timer (timer_create on the thread's CPU
 * clock, SIGEV_THREAD_ID → SIGPROF) so samples land on the thread
 * that is actually burning cycles; the SIGPROF handler packs the TLS
 * stack into a 64-bit path key and bumps a slot in the thread's
 * fixed-size lock-free sample table. Snapshots aggregate the tables
 * into labeled paths (collapsed-stack / flamegraph format) and
 * leaf-region counts.
 *
 * Signal-safety rules (DESIGN.md §13): the handler touches only the
 * owning thread's ThreadState — relaxed atomics with signal fences,
 * no locks, no allocation, no label strings. Thread states are
 * heap-allocated, registered once under a mutex, and never freed
 * (leak-by-design, bounded by peak thread count) so a snapshot can
 * outlive the threads it profiles.
 *
 * Overhead contract: runtime-off until Profiler::start(); an idle
 * ScopedRegion is two relaxed stores. The profiler never writes any
 * sim/registry counter, so profiled and unprofiled runs are
 * bit-identical — tests/test_obs_prof.cc proves it.
 */

#ifndef LBP_OBS_PROF_HH
#define LBP_OBS_PROF_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace lbp
{
namespace obs
{
namespace prof
{

/**
 * Static region tags for the hot layers. Values below Count are
 * compile-time; internRegion() hands out dynamic ids above it (e.g.
 * one per compile phase name).
 */
enum class Region : std::uint8_t
{
    None,         ///< empty stack — reported as "untracked"
    Compile,      ///< compileProgram pipeline
    Decode,       ///< buildDecodedImage / predecode
    SimDispatch,  ///< decoded executor general path
    SimReplay,    ///< trace-cache replay loop
    TraceBuild,   ///< trace-cache build + gating
    SimReference, ///< reference interpreter
    Bench,        ///< bench / CLI driver harness
    SimAccount,   ///< activation-stream accountant (no execution)
    Count,        ///< first dynamic (interned) id
};

/** Region ids: static enumerators plus interned labels. */
constexpr std::size_t kMaxRegions = 64;
/** Stack levels encoded per sample path (deeper nests truncate). */
constexpr std::size_t kMaxPathDepth = 7;
/** Distinct paths recorded per thread before samples drop. */
constexpr std::size_t kPathTableSize = 64;
/** Default sampling rate; prime, to dodge lockstep with timers. */
constexpr unsigned kDefaultHz = 997;

/** Stable label for a static region ("simDispatch", "bench", ...). */
const char *regionName(Region r);

/** One sampled call path, outermost region first. */
struct PathCount
{
    std::vector<std::uint8_t> ids;
    std::string label;        ///< ids joined with ';' ("untracked" if empty)
    std::uint64_t count = 0;
};

/** Leaf-attributed (innermost region) sample total. */
struct RegionCount
{
    std::string label;
    std::uint64_t count = 0;
};

/** Aggregated sample state across all registered threads. */
struct Snapshot
{
    std::uint64_t samples = 0;   ///< recorded ticks (incl. untracked)
    std::uint64_t untracked = 0; ///< ticks with an empty region stack
    std::uint64_t dropped = 0;   ///< ticks lost to a full path table
    std::vector<PathCount> paths;     ///< count-descending
    std::vector<RegionCount> regions; ///< count-descending

    /** Recorded-in-named-region fraction of all ticks taken. */
    double attributedFraction() const
    {
        const std::uint64_t total = samples + dropped;
        if (total == 0)
            return 0.0;
        return static_cast<double>(samples - untracked) /
               static_cast<double>(total);
    }
};

/** flamegraph.pl input: one "a;b;c <count>" line per path. */
std::string collapsedStacks(const Snapshot &s);

/**
 * Region-transition observer: called by ScopedRegion with the new
 * innermost region id after every push and pop on the calling
 * thread. One consumer (obs/pmu reads hardware counters on each
 * transition); installing a second overwrites the first. The hook
 * runs on the transitioning thread, outside any profiler lock, and
 * must not construct ScopedRegions. When no hook is installed the
 * cost per transition is one relaxed load and a predicted branch.
 */
using RegionHook = void (*)(std::uint8_t innermost);

/** Install (or clear, with nullptr) the region-transition hook. */
void setRegionHook(RegionHook hook);

/**
 * Test-only: cap the SIGPROF handler's path-table probe at @p n
 * slots (0 restores kPathTableSize) so a unit test can force the
 * dropped-sample path without generating 64 distinct stacks.
 */
void setPathTableLimitForTest(std::size_t n);

/**
 * Intern @p label as a dynamic region id (idempotent per label).
 * Falls back to Region::None's id when the kMaxRegions table is
 * full. Never call from a signal handler.
 */
std::uint8_t internRegion(const std::string &label);

/** Label for any region id, static or interned. */
std::string regionLabel(std::uint8_t id);

/**
 * RAII region marker: pushes on construction, pops on destruction.
 * Cost when the profiler is idle: two relaxed TLS stores each way.
 * First use on a thread registers it with the profiler (and arms a
 * per-thread timer if sampling is already running).
 */
class ScopedRegion
{
  public:
    explicit ScopedRegion(Region r)
        : ScopedRegion(static_cast<std::uint8_t>(r))
    {
    }
    explicit ScopedRegion(std::uint8_t id);
    ~ScopedRegion();

    ScopedRegion(const ScopedRegion &) = delete;
    ScopedRegion &operator=(const ScopedRegion &) = delete;
};

/** Process-wide sampler control. All methods are thread-safe. */
class Profiler
{
  public:
    static Profiler &instance();

    /**
     * Install the SIGPROF handler and arm a CPU-time timer on every
     * registered thread (threads registering later are armed as they
     * appear). False if already running or the timers cannot be
     * created. Sample tables are reset on start.
     */
    bool start(unsigned hz = kDefaultHz);

    /** Disarm and delete all timers; tables keep their samples. */
    void stop();

    bool running() const;

    /** Zero every thread's sample table (interned labels survive). */
    void reset();

    /** Aggregate all threads' tables; callable while running. */
    Snapshot snapshot() const;

  private:
    Profiler() = default;
};

} // namespace prof
} // namespace obs
} // namespace lbp

#endif // LBP_OBS_PROF_HH
