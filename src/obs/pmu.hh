/**
 * @file
 * lbp::obs::pmu — host hardware-counter attribution over the
 * self-profiler's region markers. Where obs/prof answers "where do
 * the host cycles go" by sampling, this module answers "why are they
 * slow there": per-region IPC, branch-miss rate, and cache-miss rate
 * read from the CPU's performance monitoring unit via
 * perf_event_open(2).
 *
 * Mechanism: a PmuSession opens one per-thread counter fd per
 * PmuCounter (independent events, never a group — eight hardware
 * events rarely co-schedule, and independent fds let the kernel
 * multiplex each on its own) and installs the obs/prof region hook.
 * On every ScopedRegion push/pop the hook reads the thread's
 * counters and charges the deltas to the region being left, scaled
 * by time_enabled/time_running when the kernel multiplexed the
 * event. Attribution therefore rides the *existing* markers — the
 * same interned region names the sampler reports — with no new
 * instrumentation sites.
 *
 * Graceful unavailability is part of the contract: on hosts without
 * the syscall, without a hardware PMU (containers, VMs), or with a
 * restrictive kernel.perf_event_paranoid, Snapshot::available is
 * false and Snapshot::reason says why — callers publish
 * pmu.available=0 and keep running, never fail (DESIGN.md §15).
 *
 * Overhead contract (mirrors obs/prof): runtime-off until
 * PmuSession::start(); while off the only cost is the profiler's
 * relaxed hook-pointer load per region transition. The session never
 * writes any sim/registry counter, so counted and uncounted runs are
 * bit-identical (tests/test_obs_pmu.cc).
 */

#ifndef LBP_OBS_PMU_HH
#define LBP_OBS_PMU_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace lbp
{
namespace obs
{

class Json;

namespace pmu
{

/**
 * The counter set every session requests. Cycles is the anchor: if
 * it cannot be opened the session is unavailable; any other counter
 * failing to open (odd PMUs, paranoid sub-policies) is marked absent
 * in Snapshot::counterPresent and simply reported as missing.
 */
enum class PmuCounter : std::uint8_t
{
    Cycles,          ///< PERF_COUNT_HW_CPU_CYCLES
    Instructions,    ///< PERF_COUNT_HW_INSTRUCTIONS
    Branches,        ///< PERF_COUNT_HW_BRANCH_INSTRUCTIONS
    BranchMisses,    ///< PERF_COUNT_HW_BRANCH_MISSES
    CacheReferences, ///< PERF_COUNT_HW_CACHE_REFERENCES
    CacheMisses,     ///< PERF_COUNT_HW_CACHE_MISSES
    StalledFrontend, ///< PERF_COUNT_HW_STALLED_CYCLES_FRONTEND
    StalledBackend,  ///< PERF_COUNT_HW_STALLED_CYCLES_BACKEND
    Count,
};

constexpr std::size_t kNumPmuCounters =
    static_cast<std::size_t>(PmuCounter::Count);

/** Stable key segment for a counter ("cycles", "branchMisses", ...). */
const char *pmuCounterName(PmuCounter c);

using CounterRow = std::array<std::uint64_t, kNumPmuCounters>;

/** One region's accumulated counter deltas, all threads summed. */
struct PmuRegion
{
    std::string label; ///< same interned name obs/prof reports
    CounterRow counts{};
};

/** Aggregated session state; taken any time after start(). */
struct Snapshot
{
    bool available = false; ///< counters opened and attributable
    std::string reason;     ///< why not, when !available
    std::array<bool, kNumPmuCounters> counterPresent{};
    std::vector<PmuRegion> regions; ///< cycle-descending, named only
    CounterRow total{};     ///< named regions + untracked
    CounterRow untracked{}; ///< charged while no region was open

    /** Fraction of measured cycles charged to named regions. */
    double attributedCycleFraction() const
    {
        const std::uint64_t cyc =
            total[static_cast<std::size_t>(PmuCounter::Cycles)];
        if (cyc == 0)
            return 0.0;
        const std::uint64_t un =
            untracked[static_cast<std::size_t>(PmuCounter::Cycles)];
        return static_cast<double>(cyc - un) /
               static_cast<double>(cyc);
    }
};

/**
 * A snapshot as the shared "pmu" JSON block (bench documents,
 * `lbp_stats pmu --json`): "available" plus either "reason" or the
 * per-region raw counts and derived rates.
 */
Json snapshotJson(const Snapshot &s);

/**
 * Human table of per-region host counters: cycles share, IPC,
 * branch-miss %, cache MPKI per region, then untracked and total
 * rows. Prints the unavailability reason instead when !available.
 */
void printSnapshotTable(std::ostream &os, const Snapshot &s);

/**
 * Process-wide counter session. All methods are thread-safe; at most
 * one session runs at a time. Threads join lazily: the first region
 * transition a thread makes while the session runs opens its own
 * counter fds (closed again when the thread exits).
 */
class PmuSession
{
  public:
    static PmuSession &instance();

    /**
     * Open the calling thread's counters, install the region hook,
     * and start charging deltas. False — with @p whyNot filled when
     * given — if already running or the cycles counter cannot be
     * opened (no syscall, no hardware PMU, perf_event_paranoid);
     * the failure reason is also kept for snapshot().reason.
     * Accumulated counts are reset on start.
     */
    bool start(std::string *whyNot = nullptr);

    /** Uninstall the hook and flush the calling thread's tail. */
    void stop();

    bool running() const;

    /** Zero accumulated counts; the session may keep running. */
    void reset();

    /** Aggregate all threads' per-region counts. */
    Snapshot snapshot() const;

  private:
    PmuSession() = default;
};

} // namespace pmu
} // namespace obs
} // namespace lbp

#endif // LBP_OBS_PMU_HH
