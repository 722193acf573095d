/**
 * @file
 * Adapters that publish the repo's existing statistics structs —
 * SimStats/LoopStats from the simulator, FetchEnergy from the power
 * model, CompileResult from the pipeline — into an obs::Registry, so
 * every bench harness, tool, and test serializes through the one
 * registry path instead of hand-formatting fields.
 */

#ifndef LBP_OBS_PUBLISH_HH
#define LBP_OBS_PUBLISH_HH

#include <string>

#include "obs/registry.hh"
#include "power/fetch_energy.hh"
#include "sim/vliw_sim.hh"

namespace lbp
{

struct CompileResult;
struct TraceCacheStats;

namespace obs
{

/**
 * Publish every SimStats field under @p prefix: scalars as
 * "<prefix>.<field>", return values as "<prefix>.returns.<i>", and
 * per-loop counters as "<prefix>.loop.<id3>.<field>" (zero-padded
 * dense loop id so name order equals loop order).
 */
void publishSimStats(Registry &r, const SimStats &s,
                     const std::string &prefix = "sim");

/**
 * Publish the decoded engine's trace-cache side counters under
 * "<prefix>.{builds,replays,bailouts,invalidations,...}". These live
 * outside SimStats (the reference engine never replays), so they get
 * their own publish path; the per-loop replay split is carried by the
 * loop scorecard instead.
 */
void publishTraceCacheStats(Registry &r, const TraceCacheStats &s,
                            const std::string &prefix
                            = "sim.trace_cache");

/**
 * Publish the workload-level cycle stack under
 * "<prefix>.<class>" (one Exact-classed counter per CycleClass,
 * zeros included so the key set is stable) plus "<prefix>.total".
 * The closed-sum invariant makes <prefix>.total equal sim.cycles.
 */
void publishCycleStack(Registry &r, const CycleStack &cs,
                       const std::string &prefix = "sim.cycles");

/** Publish one FetchEnergy breakdown under @p prefix. */
void publishFetchEnergy(Registry &r, const FetchEnergy &e,
                        const std::string &prefix = "power");

/**
 * Publish the pipeline's per-stage statistics and code-size summary
 * under @p prefix (phase timings are published separately by the
 * ScopedPhase timers inside compileProgram).
 */
void publishCompileResult(Registry &r, const CompileResult &cr,
                          const std::string &prefix = "compile");

/**
 * Field-by-field comparison of two SimStats via the registry diff:
 * returns an empty string when identical, otherwise one line per
 * differing field plus a summary naming the first diverging loop id.
 * Used by the engine-differential test for actionable failures.
 */
std::string diffSimStats(const SimStats &a, const SimStats &b,
                         const std::string &labelA = "reference",
                         const std::string &labelB = "decoded");

} // namespace obs
} // namespace lbp

#endif // LBP_OBS_PUBLISH_HH
