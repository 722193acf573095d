/**
 * @file
 * perf_event_open backend internals. Concurrency mirrors obs/prof:
 * each thread owns its counter fds and last-read values (only the
 * owning thread touches them, from the region hook), per-region
 * accumulators are relaxed atomics snapshot() reads cross-thread,
 * and thread states are heap-allocated, registered under a mutex,
 * and never freed so a snapshot can outlive a pool thread.
 */

#include "obs/pmu.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <ostream>
#include <vector>

#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>

#include "obs/json.hh"
#include "obs/prof.hh"

namespace lbp
{
namespace obs
{
namespace pmu
{

const char *
pmuCounterName(PmuCounter c)
{
    switch (c) {
      case PmuCounter::Cycles: return "cycles";
      case PmuCounter::Instructions: return "instructions";
      case PmuCounter::Branches: return "branches";
      case PmuCounter::BranchMisses: return "branchMisses";
      case PmuCounter::CacheReferences: return "cacheReferences";
      case PmuCounter::CacheMisses: return "cacheMisses";
      case PmuCounter::StalledFrontend: return "stalledFrontend";
      case PmuCounter::StalledBackend: return "stalledBackend";
      case PmuCounter::Count: break;
    }
    return "?";
}

namespace
{

constexpr std::size_t kCyc =
    static_cast<std::size_t>(PmuCounter::Cycles);
constexpr std::size_t kIns =
    static_cast<std::size_t>(PmuCounter::Instructions);
constexpr std::size_t kBr =
    static_cast<std::size_t>(PmuCounter::Branches);
constexpr std::size_t kBrM =
    static_cast<std::size_t>(PmuCounter::BranchMisses);
constexpr std::size_t kCaM =
    static_cast<std::size_t>(PmuCounter::CacheMisses);

Json
rowJson(const Snapshot &s, const CounterRow &row)
{
    Json j = Json::object();
    for (std::size_t i = 0; i < kNumPmuCounters; ++i) {
        if (!s.counterPresent[i])
            continue;
        j.set(pmuCounterName(static_cast<PmuCounter>(i)),
              Json::uinteger(row[i]));
    }
    if (s.counterPresent[kIns] && row[kCyc] > 0)
        j.set("ipc", Json::number(static_cast<double>(row[kIns]) /
                                  static_cast<double>(row[kCyc])));
    if (s.counterPresent[kBr] && s.counterPresent[kBrM] &&
        row[kBr] > 0)
        j.set("branchMissPct",
              Json::number(100.0 *
                           static_cast<double>(row[kBrM]) /
                           static_cast<double>(row[kBr])));
    if (s.counterPresent[kCaM] && s.counterPresent[kIns] &&
        row[kIns] > 0)
        j.set("cacheMpki",
              Json::number(1000.0 *
                           static_cast<double>(row[kCaM]) /
                           static_cast<double>(row[kIns])));
    return j;
}

} // namespace

Json
snapshotJson(const Snapshot &s)
{
    Json j = Json::object();
    j.set("available", Json::boolean(s.available));
    if (!s.available) {
        j.set("reason", Json::str(s.reason));
        return j;
    }
    j.set("attributedCycleFraction",
          Json::number(s.attributedCycleFraction()));
    Json counters = Json::array();
    for (std::size_t i = 0; i < kNumPmuCounters; ++i)
        if (s.counterPresent[i])
            counters.push(Json::str(
                pmuCounterName(static_cast<PmuCounter>(i))));
    j.set("counters", std::move(counters));
    Json regions = Json::object();
    for (const PmuRegion &r : s.regions)
        regions.set(r.label, rowJson(s, r.counts));
    j.set("regions", std::move(regions));
    j.set("untracked", rowJson(s, s.untracked));
    j.set("total", rowJson(s, s.total));
    return j;
}

void
printSnapshotTable(std::ostream &os, const Snapshot &s)
{
    if (!s.available) {
        os << "host pmu unavailable: " << s.reason << "\n";
        return;
    }
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%-22s %14s %7s %6s %9s %9s\n", "region",
                  "cycles", "share%", "ipc", "br-miss%",
                  "cache-mpki");
    os << line;
    const double totalCyc =
        static_cast<double>(s.total[kCyc]);
    auto printRow = [&](const std::string &label,
                        const CounterRow &row) {
        char cell[4][16];
        auto fmt = [&](int c, bool have, double v,
                       const char *spec) {
            if (have)
                std::snprintf(cell[c], sizeof(cell[c]), spec, v);
            else
                std::snprintf(cell[c], sizeof(cell[c]), "-");
        };
        fmt(0, totalCyc > 0,
            totalCyc > 0 ? 100.0 * static_cast<double>(row[kCyc]) /
                               totalCyc
                         : 0.0,
            "%.1f");
        fmt(1, s.counterPresent[kIns] && row[kCyc] > 0,
            row[kCyc] > 0 ? static_cast<double>(row[kIns]) /
                                static_cast<double>(row[kCyc])
                          : 0.0,
            "%.2f");
        fmt(2,
            s.counterPresent[kBr] && s.counterPresent[kBrM] &&
                row[kBr] > 0,
            row[kBr] > 0 ? 100.0 * static_cast<double>(row[kBrM]) /
                               static_cast<double>(row[kBr])
                         : 0.0,
            "%.2f");
        fmt(3,
            s.counterPresent[kCaM] && s.counterPresent[kIns] &&
                row[kIns] > 0,
            row[kIns] > 0 ? 1000.0 *
                                static_cast<double>(row[kCaM]) /
                                static_cast<double>(row[kIns])
                          : 0.0,
            "%.2f");
        std::snprintf(line, sizeof(line),
                      "%-22s %14" PRIu64 " %7s %6s %9s %9s\n",
                      label.c_str(), row[kCyc], cell[0], cell[1],
                      cell[2], cell[3]);
        os << line;
    };
    for (const PmuRegion &r : s.regions)
        printRow(r.label, r.counts);
    printRow("untracked", s.untracked);
    printRow("total", s.total);
    std::snprintf(line, sizeof(line),
                  "attributed to named regions: %.1f%% of cycles\n",
                  100.0 * s.attributedCycleFraction());
    os << line;
}

namespace
{

/** Hardware-event config for each PmuCounter, enum order. */
constexpr std::uint64_t kHwConfig[kNumPmuCounters] = {
    PERF_COUNT_HW_CPU_CYCLES,
    PERF_COUNT_HW_INSTRUCTIONS,
    PERF_COUNT_HW_BRANCH_INSTRUCTIONS,
    PERF_COUNT_HW_BRANCH_MISSES,
    PERF_COUNT_HW_CACHE_REFERENCES,
    PERF_COUNT_HW_CACHE_MISSES,
    PERF_COUNT_HW_STALLED_CYCLES_FRONTEND,
    PERF_COUNT_HW_STALLED_CYCLES_BACKEND,
};

/**
 * All mutable session state one thread owns. The owning thread is
 * the only reader/writer of the fds and last-read values (the region
 * hook runs on the transitioning thread); the per-region counts are
 * relaxed atomics for snapshot()'s cross-thread reads.
 */
struct PmuThreadState
{
    int fd[kNumPmuCounters];
    std::uint64_t lastRaw[kNumPmuCounters];
    std::uint64_t lastEnabled[kNumPmuCounters];
    std::uint64_t lastRunning[kNumPmuCounters];
    std::uint8_t current = 0;  ///< region charged by the next delta
    std::uint32_t gen = 0;     ///< session generation last joined
    bool ok = false;           ///< cycles fd live, deltas charging
    std::atomic<std::uint64_t>
        counts[prof::kMaxRegions][kNumPmuCounters];

    PmuThreadState()
    {
        for (std::size_t i = 0; i < kNumPmuCounters; ++i) {
            fd[i] = -1;
            lastRaw[i] = lastEnabled[i] = lastRunning[i] = 0;
        }
        for (auto &row : counts)
            for (auto &c : row)
                c.store(0, std::memory_order_relaxed);
    }
};

std::mutex gMu;
/** Leak-by-design registry, immortalized like prof's (see prof.cc). */
std::vector<PmuThreadState *> &gStates =
    *new std::vector<PmuThreadState *>;
bool gRunning = false;                          ///< guarded by gMu
std::string gReason = "session never started";  ///< guarded by gMu
bool gAvailable = false;                        ///< guarded by gMu
/** Which counters opened on the session-starting thread. Written
 * under gMu before gActive's release store; hook threads read it
 * after the acquire load, so no further synchronization needed. */
bool gPresent[kNumPmuCounters] = {};
/** Hook-side fast flag: true between start() and stop(). */
std::atomic<bool> gActive{false};
/**
 * Session generation, bumped by every start(). A thread whose state
 * carries an older generation rebaselines (and reopens, if needed)
 * on its own next transition instead of start() mutating foreign
 * per-thread state — the fds and baselines stay single-writer.
 */
std::atomic<std::uint32_t> gGen{1};

thread_local PmuThreadState *tlsPmu = nullptr;

long
perfEventOpen(perf_event_attr *attr)
{
    return ::syscall(SYS_perf_event_open, attr, 0, -1, -1, 0);
}

/** Open one self-monitoring, userspace-only counter; -1 on failure. */
int
openCounter(std::size_t idx)
{
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof(attr));
    attr.size = sizeof(attr);
    attr.type = PERF_TYPE_HARDWARE;
    attr.config = kHwConfig[idx];
    attr.disabled = 0;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    attr.read_format = PERF_FORMAT_TOTAL_TIME_ENABLED |
                       PERF_FORMAT_TOTAL_TIME_RUNNING;
    const long fd = perfEventOpen(&attr);
    return fd < 0 ? -1 : static_cast<int>(fd);
}

/** Human-readable open failure, with the paranoid level when the
 * kernel's policy is the likely cause. */
std::string
openFailureReason(int err)
{
    std::string why = "perf_event_open: ";
    why += std::strerror(err);
    if (err == EACCES || err == EPERM) {
        long level = -1;
        if (std::FILE *f = std::fopen(
                "/proc/sys/kernel/perf_event_paranoid", "r")) {
            if (std::fscanf(f, "%ld", &level) != 1)
                level = -1;
            std::fclose(f);
        }
        if (level >= 0)
            why += " (kernel.perf_event_paranoid=" +
                   std::to_string(level) + ")";
    } else if (err == ENOENT) {
        why += " (no hardware PMU exposed on this host)";
    } else if (err == ENOSYS) {
        why += " (kernel lacks the syscall)";
    }
    return why;
}

/**
 * Open the calling thread's counters per the session's present
 * mask. @p primary (the session-starting thread) decides that mask
 * and reports the anchor failure; later threads just take what
 * opens. Caller holds gMu.
 */
bool
openThreadCounters(PmuThreadState *ts, bool primary,
                   std::string *whyNot)
{
    for (std::size_t i = 0; i < kNumPmuCounters; ++i) {
        if (!primary && !gPresent[i])
            continue;
        ts->fd[i] = openCounter(i);
        if (primary)
            gPresent[i] = ts->fd[i] >= 0;
    }
    const std::size_t cyc =
        static_cast<std::size_t>(PmuCounter::Cycles);
    if (ts->fd[cyc] < 0) {
        if (primary && whyNot)
            *whyNot = openFailureReason(errno);
        for (std::size_t i = 0; i < kNumPmuCounters; ++i) {
            if (ts->fd[i] >= 0)
                ::close(ts->fd[i]);
            ts->fd[i] = -1;
        }
        return false;
    }
    ts->ok = true;
    return true;
}

/** Re-read every counter as the new delta baseline. Owning thread. */
void
rebaseline(PmuThreadState *ts)
{
    for (std::size_t i = 0; i < kNumPmuCounters; ++i) {
        if (ts->fd[i] < 0)
            continue;
        std::uint64_t buf[3] = {0, 0, 0};
        if (::read(ts->fd[i], buf, sizeof(buf)) ==
            static_cast<ssize_t>(sizeof(buf))) {
            ts->lastRaw[i] = buf[0];
            ts->lastEnabled[i] = buf[1];
            ts->lastRunning[i] = buf[2];
        }
    }
}

/**
 * Read the thread's counters and charge the deltas since the last
 * read to the region it is leaving. Multiplexed windows are scaled
 * by time_enabled/time_running, the standard perf estimate. Owning
 * thread only.
 */
void
chargeDeltas(PmuThreadState *ts)
{
    const std::uint8_t region =
        ts->current < prof::kMaxRegions ? ts->current : 0;
    for (std::size_t i = 0; i < kNumPmuCounters; ++i) {
        if (ts->fd[i] < 0)
            continue;
        std::uint64_t buf[3] = {0, 0, 0};
        if (::read(ts->fd[i], buf, sizeof(buf)) !=
            static_cast<ssize_t>(sizeof(buf)))
            continue;
        const std::uint64_t dRaw = buf[0] - ts->lastRaw[i];
        const std::uint64_t dEna = buf[1] - ts->lastEnabled[i];
        const std::uint64_t dRun = buf[2] - ts->lastRunning[i];
        ts->lastRaw[i] = buf[0];
        ts->lastEnabled[i] = buf[1];
        ts->lastRunning[i] = buf[2];
        std::uint64_t charge = dRaw;
        if (dRun != 0 && dRun != dEna)
            charge = static_cast<std::uint64_t>(std::llround(
                static_cast<double>(dRaw) *
                (static_cast<double>(dEna) /
                 static_cast<double>(dRun))));
        if (charge != 0)
            ts->counts[region][i].fetch_add(
                charge, std::memory_order_relaxed);
    }
}

void
threadExiting(PmuThreadState *ts)
{
    std::lock_guard<std::mutex> lk(gMu);
    // Flush only a thread that actually joined the running session;
    // a stale-generation baseline spans sessions and must not charge.
    if (ts->ok && gActive.load(std::memory_order_relaxed) &&
        ts->gen == gGen.load(std::memory_order_relaxed))
        chargeDeltas(ts);
    for (std::size_t i = 0; i < kNumPmuCounters; ++i) {
        if (ts->fd[i] >= 0)
            ::close(ts->fd[i]);
        ts->fd[i] = -1;
    }
    ts->ok = false;
    tlsPmu = nullptr;
}

/** Closes the thread's fds before they leak; counts stay readable. */
struct TlsGuard
{
    PmuThreadState *ts = nullptr;
    ~TlsGuard()
    {
        if (ts != nullptr)
            threadExiting(ts);
    }
};
thread_local TlsGuard tlsGuard;

/**
 * The prof region-transition hook: charge what ran since the last
 * transition to the region being left, then aim at the new one. A
 * thread's first transition under a running session opens its own
 * counters (pool threads join lazily, like prof's timer arming).
 */
void
regionHook(std::uint8_t innermost)
{
    if (!gActive.load(std::memory_order_acquire))
        return;
    const std::uint32_t gen = gGen.load(std::memory_order_relaxed);
    PmuThreadState *ts = tlsPmu;
    if (ts == nullptr) {
        ts = new PmuThreadState;
        {
            std::lock_guard<std::mutex> lk(gMu);
            gStates.push_back(ts);
            openThreadCounters(ts, /*primary=*/false, nullptr);
        }
        rebaseline(ts);
        ts->gen = gen;
        ts->current = innermost;
        tlsPmu = ts;
        tlsGuard.ts = ts;
        return;
    }
    if (ts->gen != gen) {
        // First transition under this session: rejoin. Counters that
        // survived an earlier session only need a fresh baseline;
        // threads whose open failed before try once more.
        if (!ts->ok) {
            std::lock_guard<std::mutex> lk(gMu);
            openThreadCounters(ts, /*primary=*/false, nullptr);
        }
        rebaseline(ts);
        ts->gen = gen;
        ts->current = innermost;
        return;
    }
    if (!ts->ok) {
        ts->current = innermost;
        return;
    }
    chargeDeltas(ts);
    ts->current = innermost;
}

/** Caller holds gMu. */
void
resetCountsLocked()
{
    for (PmuThreadState *ts : gStates)
        for (auto &row : ts->counts)
            for (auto &c : row)
                c.store(0, std::memory_order_relaxed);
}

} // namespace

PmuSession &
PmuSession::instance()
{
    static PmuSession s;
    return s;
}

bool
PmuSession::start(std::string *whyNot)
{
    std::lock_guard<std::mutex> lk(gMu);
    if (gRunning) {
        if (whyNot)
            *whyNot = "pmu session already running";
        return false;
    }
    // The starting thread is the availability probe: if its cycles
    // counter cannot open, no thread's will.
    PmuThreadState *ts = tlsPmu;
    if (ts == nullptr) {
        ts = new PmuThreadState;
        gStates.push_back(ts);
        tlsPmu = ts;
        tlsGuard.ts = ts;
    } else {
        // Re-probe from scratch: the present mask is re-decided.
        ts->ok = false;
        for (std::size_t i = 0; i < kNumPmuCounters; ++i) {
            if (ts->fd[i] >= 0)
                ::close(ts->fd[i]);
            ts->fd[i] = -1;
        }
    }
    for (std::size_t i = 0; i < kNumPmuCounters; ++i)
        gPresent[i] = false;
    std::string why;
    if (!openThreadCounters(ts, /*primary=*/true, &why)) {
        gAvailable = false;
        gReason = why;
        if (whyNot)
            *whyNot = why;
        return false;
    }
    resetCountsLocked();
    // Other live threads rejoin lazily: the new generation makes
    // their next transition rebaseline (and reopen if needed) on
    // their own thread, keeping all fd state single-writer.
    const std::uint32_t gen =
        gGen.fetch_add(1, std::memory_order_relaxed) + 1;
    ts->gen = gen;
    rebaseline(ts);
    ts->current = 0;
    gAvailable = true;
    gReason.clear();
    gRunning = true;
    gActive.store(true, std::memory_order_release);
    prof::setRegionHook(&regionHook);
    return true;
}

void
PmuSession::stop()
{
    std::lock_guard<std::mutex> lk(gMu);
    if (!gRunning)
        return;
    prof::setRegionHook(nullptr);
    // Flush the calling thread's tail before the flag drops; other
    // threads' windows since their last transition stay unmeasured,
    // which also keeps them out of the attribution denominator.
    if (PmuThreadState *ts = tlsPmu)
        if (ts->ok)
            chargeDeltas(ts);
    gActive.store(false, std::memory_order_release);
    gRunning = false;
}

bool
PmuSession::running() const
{
    std::lock_guard<std::mutex> lk(gMu);
    return gRunning;
}

void
PmuSession::reset()
{
    std::lock_guard<std::mutex> lk(gMu);
    resetCountsLocked();
    if (PmuThreadState *ts = tlsPmu)
        if (ts->ok)
            rebaseline(ts);
}

Snapshot
PmuSession::snapshot() const
{
    std::map<std::uint8_t, CounterRow> byRegion;
    Snapshot s;
    {
        std::lock_guard<std::mutex> lk(gMu);
        s.available = gAvailable;
        s.reason = gReason;
        for (std::size_t i = 0; i < kNumPmuCounters; ++i)
            s.counterPresent[i] = gPresent[i];
        for (const PmuThreadState *ts : gStates) {
            for (std::size_t r = 0; r < prof::kMaxRegions; ++r) {
                CounterRow row{};
                bool any = false;
                for (std::size_t i = 0; i < kNumPmuCounters; ++i) {
                    row[i] = ts->counts[r][i].load(
                        std::memory_order_relaxed);
                    any = any || row[i] != 0;
                }
                if (!any)
                    continue;
                auto &acc =
                    byRegion[static_cast<std::uint8_t>(r)];
                for (std::size_t i = 0; i < kNumPmuCounters; ++i)
                    acc[i] += row[i];
            }
        }
    }
    // Label lookup takes prof's lock; do it outside ours.
    for (const auto &[id, row] : byRegion) {
        for (std::size_t i = 0; i < kNumPmuCounters; ++i)
            s.total[i] += row[i];
        if (id == 0) {
            s.untracked = row;
            continue;
        }
        PmuRegion pr;
        pr.label = prof::regionLabel(id);
        pr.counts = row;
        s.regions.push_back(std::move(pr));
    }
    const std::size_t cyc =
        static_cast<std::size_t>(PmuCounter::Cycles);
    std::sort(s.regions.begin(), s.regions.end(),
              [cyc](const PmuRegion &a, const PmuRegion &b) {
                  if (a.counts[cyc] != b.counts[cyc])
                      return a.counts[cyc] > b.counts[cyc];
                  return a.label < b.label;
              });
    return s;
}

} // namespace pmu
} // namespace obs
} // namespace lbp
