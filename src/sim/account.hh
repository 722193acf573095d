/**
 * @file
 * Activation-stream recording, sim-private: the recorder the decoded
 * engine drives while a run fills a DecodedImage's memo slot.
 *
 * The recorder is called at control-event sites only — loop entry,
 * backedges, exits, cancellations, arrivals at a live loop's head
 * block, and once per trace-replay engagement — never per bundle.
 * The head-block issue between two events is read off counters the
 * engine keeps anyway: every bundle is either a head-block bundle of
 * the innermost live activation (charged to that loop's row) or is
 * charged IssueFromMemory to the outside row, so
 *
 *   head bundles = SimStats::bundles - outside row IssueFromMemory
 *
 * and the head ops are the innermost loop's opsFromBuffer +
 * opsFromCache. Retirement moves neither, and between two events
 * only the innermost live activation (across call frames) issues
 * head bundles, so each delta belongs to exactly one activation.
 */

#ifndef LBP_SIM_ACCOUNT_HH
#define LBP_SIM_ACCOUNT_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/cycle_stack.hh"
#include "sim/decoded.hh"

namespace lbp
{

class ActivationRecorder
{
  public:
    ActivationRecorder(const SimStats &stats, const obs::CycleStack &cs,
                       ActivationStream &out)
        : stats_(stats), cs_(cs), out_(out)
    {
    }

    /** REC/EXEC op @p op of function @p f started loop @p loopId. */
    void enter(FuncId f, std::uint32_t op, int loopId,
               std::int64_t count);

    /** Fetch reached the innermost loop's head bundle 0. */
    void arrive(bool side);

    /** A taken backedge of the innermost loop. */
    void back();

    /**
     * @p n whole replayed iterations of @p bundles bundles and
     * @p ops ops, each ending in a taken backedge.
     */
    void loopBacks(std::uint64_t n, std::uint64_t bundles,
                   std::uint64_t ops);

    /** The innermost loop's counted or while exit. */
    void exit(bool counted, bool side = false);

    /**
     * A plain taken branch ends this bundle: mark an exit recorded
     * in the same bundle as a side exit.
     */
    void sideExitAfterExit();

    /** A taken transfer out of the head cancelled the innermost loop. */
    void cancel();

    /** A redirect charged outside any loop (its class). */
    void plainRedirect(obs::CycleClass cls);

    /** Close the stream and copy the size-independent totals. */
    void finish();

  private:
    /** Head-block bundles issued so far, over all loops. */
    std::uint64_t headBundlesNow() const;
    /** Head-block ops issued so far by the innermost live loop. */
    std::uint64_t topOpsNow() const;
    /** Fill @p e with the head issue since the last event. */
    void take(ActivationEvent &e);
    /** Append @p e, first collapsing the previous event into its run. */
    void push(const ActivationEvent &e);

    const SimStats &stats_;
    const obs::CycleStack &cs_;
    ActivationStream &out_;
    std::vector<int> stack_;          ///< live loop ids, all frames
    std::uint64_t snapBundles_ = 0;
    std::uint64_t snapOps_ = 0;
    std::size_t lastExit_ = static_cast<std::size_t>(-1);
    std::uint64_t lastExitBundle_ = 0;
};

} // namespace lbp

#endif // LBP_SIM_ACCOUNT_HH
