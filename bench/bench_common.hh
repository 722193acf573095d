/**
 * @file
 * Shared helpers for the figure/table reproduction benches: compile a
 * workload under both configurations (cached), run the simulator
 * across buffer sizes, and format result tables.
 */

#ifndef LBP_BENCH_COMMON_HH
#define LBP_BENCH_COMMON_HH

#include <string>
#include <vector>

#include "core/compiler.hh"
#include "core/metrics.hh"
#include "obs/cycle_stack.hh"
#include "obs/json.hh"
#include "power/fetch_energy.hh"
#include "sim/trace_cache.hh"
#include "sim/vliw_sim.hh"
#include "workloads/registry.hh"

namespace lbp
{
namespace bench
{

/** Flags a bench accepts — the parseBenchOptions mask. */
enum BenchFlag : unsigned
{
    kBenchFlagQuick = 1u << 0,   ///< --quick
    kBenchFlagJson = 1u << 1,    ///< --json[=PATH]
    kBenchFlagHistory = 1u << 2, ///< --history[=PATH] (implies json)
    kBenchFlagLoops = 1u << 3,   ///< --loops
    kBenchFlagThreads = 1u << 4, ///< --threads=N
    kBenchFlagProf = 1u << 5,    ///< --prof
};

/**
 * The flag set shared by the JSON-emitting benches, parsed once by
 * parseBenchOptions instead of per-main copies of the argv loop.
 */
struct BenchOptions
{
    bool quick = false;
    bool json = false;
    bool loops = false;
    bool prof = false;
    int threads = 0;         ///< 0 = hardware concurrency
    std::string jsonPath;    ///< parseBenchOptions seeds the default
    std::string historyPath; ///< empty = no history append
};

/**
 * Parse argv against the flags named in @p mask (BenchFlag bits).
 * `--history` implies `--json`. On an unknown or unaccepted flag,
 * prints a usage line derived from the mask to stderr and returns
 * false — callers `return 2`, the benches' historical usage exit
 * code.
 */
bool parseBenchOptions(int argc, char **argv, unsigned mask,
                       const std::string &defaultJsonPath,
                       BenchOptions &o);

/** The buffer sizes swept by Figure 7. */
const std::vector<int> &figureBufferSizes();

/**
 * Compile one workload at one level (verifying checksums), memoized
 * on (name, level, predication scheme): identical programs are
 * compiled once per process no matter how many sweep points reuse
 * them, so reallocateBuffers is the only per-sweep-point work. The
 * `mode` argument selects the compilation that matches the intended
 * simulation PredMode (REGISTER simulation requires slot lowering
 * off; it only affects the cache key at OptLevel::Aggressive where
 * slot lowering runs). The returned result is shared — callers that
 * resize its buffers (simulate does) must not race on the same cache
 * key from two threads. Acquiring distinct entries concurrently is
 * safe.
 */
CompileResult &compileBench(const std::string &name, OptLevel level,
                            PredMode mode = PredMode::SLOT);

/**
 * Simulate with a buffer size; checks the checksum. When @p tcOut is
 * given and the run had a trace cache, the run's TraceCacheStats are
 * accumulated into it (accumulateTraceCacheStats — pass a freshly
 * zeroed struct for a per-run copy, reuse one across a sweep for the
 * aggregate); it is left untouched otherwise. @p csOut, when given,
 * receives the run's closed per-loop cycle stack.
 */
SimStats simulate(CompileResult &cr, int bufferOps,
                  PredMode mode = PredMode::SLOT,
                  SimEngine engine = SimEngine::DECODED,
                  TraceCacheStats *tcOut = nullptr,
                  obs::CycleStack *csOut = nullptr);

/**
 * Batched-sweep variant of simulate: run the decoded engine over a
 * caller-owned shared predecode of @p cr instead of re-decoding
 * inside the VliwSim constructor. @p img must have been built from
 * @p cr.code (buildDecodedImage); this call reallocates the buffers
 * to @p bufferOps and rebinds the image's allocation-dependent
 * fields, so one decode serves a whole buffer-size sweep. @p tcOut
 * accumulates trace-cache counters as in simulate.
 */
SimStats simulateShared(CompileResult &cr, DecodedImage &img,
                        int bufferOps, PredMode mode = PredMode::SLOT,
                        TraceCacheStats *tcOut = nullptr,
                        obs::CycleStack *csOut = nullptr);

/** The Table-1 benchmark names. */
std::vector<std::string> benchNames();

/**
 * The "cycle_stack" block shared by every cycle-accounting bench
 * document (schema v4): one key per obs::CycleClass in enum order,
 * zeros included, plus "total" — their sum, equal to the simulated
 * cycles the block accounts for. All counters, held exactly by the
 * history gate.
 */
obs::Json cycleStackJson(const obs::CycleRow &row);

/** Print a horizontal rule. */
void rule(char c = '-', int n = 78);

/**
 * Start a machine-readable bench document. Every BENCH_*.json shares
 * this header so the regression gate can diff them uniformly:
 *
 *   schema_version   2 (obs::Json emitter with machine/config blocks)
 *   bench            the bench's short name ("fig7", "sim_fastpath")
 *   machine          host identity (concurrency, compiler, pointer
 *                    width) — identity, not data; diffs ignore it
 *
 * Callers add their own "config" block and result sections.
 */
obs::Json benchJsonDoc(const std::string &benchName);

/** Write a bench document to @p path; exits the process on I/O error. */
void writeBenchJson(const std::string &path, const obs::Json &doc);

/**
 * The `--history[=PATH]` hook shared by every JSON-emitting bench:
 * flatten @p doc into an obs::HistoryRecord and append it to the
 * jsonl store at @p historyPath (default BENCH_history.jsonl), so all
 * benches feed the timeline with one schema. Exits on I/O error.
 */
void appendBenchHistory(const std::string &historyPath,
                        const obs::Json &doc);

/**
 * Compile (cached) + simulate one workload and print its per-loop
 * scorecard (obs::buildLoopScorecard join of the compiler decision
 * log with simulator residency). The scorecard's internal invariant
 * — per-loop buffer ops summing to sim.opsFromBuffer — is asserted.
 */
void dumpLoopScorecard(const std::string &workload, OptLevel level,
                       int bufferOps);

/** `dumpLoopScorecard` over every registered workload. */
void dumpLoopScorecards(OptLevel level, int bufferOps);

} // namespace bench
} // namespace lbp

#endif // LBP_BENCH_COMMON_HH
