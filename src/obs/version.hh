/**
 * @file
 * Build identity for every emitted observability document. The git
 * SHA is captured at CMake configure time (`git describe --always
 * --dirty`) and compiled into exactly one translation unit; each
 * emitter stamps it into its JSON so a record in BENCH_history.jsonl
 * or a generated report is traceable to the commit that produced it.
 *
 * The schema version constants for every document family live here
 * too, so `lbp_stats --version` can print the full contract in one
 * place:
 *
 *   registry dump    obs::kRegistrySchemaVersion (registry.hh)
 *   bench document   kBenchSchemaVersion (bench_common's
 *                    benchJsonDoc layout)
 *   history record   kHistorySchemaVersion (history.hh's jsonl line)
 */

#ifndef LBP_OBS_VERSION_HH
#define LBP_OBS_VERSION_HH

#include <string>

namespace lbp
{
namespace obs
{

class Json;

/** benchJsonDoc layout version. History:
 *    1  ad-hoc fprintf layouts, one per bench
 *    2  shared obs::Json emitter; adds "machine" and "config"
 *    3  adds the "git_sha" build-identity stamp
 *    4  adds the "cycle_stack" closed cycle-accounting block
 *    5  adds the host hardware-counter block (PerPoint: recorded,
 *       never gated) and its build config bool
 *    6  sim_fastpath: adds trace_cache.pred_replay.* counters, the
 *       trace_cache.per_workload.* coverage split (PerPoint), and
 *       the nestedLoop/multiBackedge bailout reasons
 *    7  drops the host hardware-counter block
 */
constexpr int kBenchSchemaVersion = 7;

/** BENCH_history.jsonl record layout version (see history.hh). */
constexpr int kHistorySchemaVersion = 1;

/**
 * Abbreviated git SHA of the checkout this binary was configured
 * from, with a "-dirty" suffix for uncommitted changes; "unknown"
 * when built outside a git work tree. Configure-time, so a rebuild
 * without re-running CMake can lag the head commit.
 */
const char *gitSha();

/** One-line identity: sha + every schema version. */
std::string versionString();

/** Set the "git_sha" key on a JSON document (diffs treat it as
 *  identity, like the "machine" block, never as data). */
void stampVersion(Json &doc);

} // namespace obs
} // namespace lbp

#endif // LBP_OBS_VERSION_HH
