#include "obs/publish.hh"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "core/compiler.hh"
#include "sim/trace_cache.hh"

namespace lbp
{
namespace obs
{

namespace
{

std::string
loopPrefix(const std::string &prefix, std::size_t id)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%03zu", id);
    return prefix + ".loop." + buf + ".";
}

} // namespace

void
publishSimStats(Registry &r, const SimStats &s,
                const std::string &prefix)
{
    r.counter(prefix + ".cycles").set(s.cycles);
    r.counter(prefix + ".bundles").set(s.bundles);
    r.counter(prefix + ".opsFetched").set(s.opsFetched);
    r.counter(prefix + ".opsFromBuffer").set(s.opsFromBuffer);
    r.counter(prefix + ".opsNullified").set(s.opsNullified);
    r.counter(prefix + ".opsSensitive").set(s.opsSensitive);
    r.counter(prefix + ".branches").set(s.branches);
    r.counter(prefix + ".branchesTaken").set(s.branchesTaken);
    r.counter(prefix + ".branchPenaltyCycles")
        .set(s.branchPenaltyCycles);
    r.counter(prefix + ".checksum").set(s.checksum);
    r.gauge(prefix + ".bufferFraction").set(s.bufferFraction());
    r.counter(prefix + ".returns.count").set(s.returns.size());
    for (std::size_t i = 0; i < s.returns.size(); ++i)
        r.intGauge(prefix + ".returns." + std::to_string(i))
            .set(s.returns[i]);

    // Distribution views over the per-loop table (deterministic:
    // every input is a sim counter). bodyOps weights each loop's
    // image size by how often it was activated — the p50/p95 answer
    // "what loop-body size dominates buffer traffic"; tripCount bins
    // the mean iterations per activation, the quantity the §4 peeling
    // heuristics reason about.
    Histogram &bodyOps = r.histogram(prefix + ".loop.bodyOps");
    Histogram &tripCount = r.histogram(prefix + ".loop.tripCount");
    for (const auto &ls : s.loops) {
        if (ls.activations == 0)
            continue;
        bodyOps.add(static_cast<std::int64_t>(ls.imageOps),
                    static_cast<double>(ls.activations));
        tripCount.add(static_cast<std::int64_t>(ls.iterations /
                                                ls.activations),
                      static_cast<double>(ls.activations));
    }

    for (std::size_t id = 0; id < s.loops.size(); ++id) {
        const LoopStats &ls = s.loops[id];
        const std::string p = loopPrefix(prefix, id);
        r.info(p + "name", ls.name);
        r.intGauge(p + "imageOps").set(ls.imageOps);
        r.intGauge(p + "bufAddr").set(ls.bufAddr);
        r.counter(p + "activations").set(ls.activations);
        r.counter(p + "recordings").set(ls.recordings);
        r.counter(p + "evictions").set(ls.evictions);
        r.counter(p + "iterations").set(ls.iterations);
        r.counter(p + "bufferIterations").set(ls.bufferIterations);
        r.counter(p + "opsFromBuffer").set(ls.opsFromBuffer);
        r.counter(p + "opsFromCache").set(ls.opsFromCache);
    }
}

void
publishTraceCacheStats(Registry &r, const TraceCacheStats &s,
                       const std::string &prefix)
{
    r.counter(prefix + ".builds").set(s.builds);
    r.counter(prefix + ".replays").set(s.replays);
    r.counter(prefix + ".bailouts").set(s.bailouts);
    r.counter(prefix + ".invalidations").set(s.invalidations);
    r.counter(prefix + ".replayedIterations")
        .set(s.replayedIterations);
    r.counter(prefix + ".replayedOps").set(s.replayedOps);
    // Predicated-trace split: traces with a guarded backedge or side
    // exits (zeros included for a stable key set).
    const std::string pp = prefix + ".pred_replay";
    r.counter(pp + ".builds").set(s.predReplay.builds);
    r.counter(pp + ".replays").set(s.predReplay.replays);
    r.counter(pp + ".iterations").set(s.predReplay.iterations);
    r.counter(pp + ".ops").set(s.predReplay.ops);
    r.counter(pp + ".sideExits").set(s.predReplay.sideExits);
    r.counter(pp + ".backedgeFallthroughs")
        .set(s.predReplay.backedgeFallthroughs);
    // Per-reason bailout split (sums to .bailouts). Every real
    // reason is published, zeros included, so the bench-diff and
    // history gates see a stable key set; None is the "traceable"
    // verdict and never a bailout.
    for (std::size_t i =
             static_cast<std::size_t>(TraceBailoutReason::Unknown);
         i < static_cast<std::size_t>(TraceBailoutReason::Count);
         ++i) {
        r.counter(prefix + ".bailout." +
                  traceBailoutReasonName(
                      static_cast<TraceBailoutReason>(i)))
            .set(s.bailoutsBy[i]);
    }
}

void
publishCycleStack(Registry &r, const CycleStack &cs,
                  const std::string &prefix)
{
    // Every class is published, zeros included, so the bench-diff and
    // history gates see a stable key set (the trace-cache bailout
    // split follows the same rule).
    const CycleRow totals = cs.totals();
    std::uint64_t sum = 0;
    for (std::size_t k = 0; k < kNumCycleClasses; ++k) {
        r.counter(prefix + "." +
                  cycleClassName(static_cast<CycleClass>(k)))
            .set(totals[k]);
        sum += totals[k];
    }
    r.counter(prefix + ".total").set(sum);
}

void
publishFetchEnergy(Registry &r, const FetchEnergy &e,
                   const std::string &prefix)
{
    r.gauge(prefix + ".totalNj").set(e.totalNj);
    r.gauge(prefix + ".memoryNj").set(e.memoryNj);
    r.gauge(prefix + ".bufferNj").set(e.bufferNj);
    r.counter(prefix + ".opsFromMemory").set(e.opsFromMemory);
    r.counter(prefix + ".opsFromBuffer").set(e.opsFromBuffer);
}

void
publishCompileResult(Registry &r, const CompileResult &cr,
                     const std::string &prefix)
{
    auto c = [&](const std::string &n, std::int64_t v) {
        r.intGauge(prefix + "." + n).set(v);
    };
    c("originalOps", cr.originalOps);
    c("finalOps", cr.finalOps);
    c("scheduledOps", cr.scheduledOps);
    c("moduloLoops", cr.moduloLoops);
    c("simpleLoops", cr.simpleLoops);
    r.counter(prefix + ".goldenChecksum").set(cr.goldenChecksum);

    c("inline.sitesInlined", cr.inlineStats.sitesInlined);
    c("inline.opsAdded", cr.inlineStats.opsAdded);
    c("peel.loopsPeeled", cr.peelStats.loopsPeeled);
    c("peel.opsAdded", cr.peelStats.opsAdded);
    c("ifConvert.loopsConverted", cr.ifConvertStats.loopsConverted);
    c("ifConvert.blocksMerged", cr.ifConvertStats.blocksMerged);
    c("ifConvert.predDefsInserted",
      cr.ifConvertStats.predDefsInserted);
    c("ifConvert.sideExits", cr.ifConvertStats.sideExits);
    c("collapse.loopsCollapsed", cr.collapseStats.loopsCollapsed);
    c("collapse.outerOpsPulledIn",
      cr.collapseStats.outerOpsPulledIn);
    c("branchCombine.loopsCombined",
      cr.branchCombineStats.loopsCombined);
    c("branchCombine.exitsCombined",
      cr.branchCombineStats.exitsCombined);
    c("promote.promoted", cr.promoteStats.promoted);
    c("promote.speculativeLoads", cr.promoteStats.speculativeLoads);
    c("reassociate.chainsRebalanced",
      cr.reassocStats.chainsRebalanced);
    c("reassociate.opsInChains", cr.reassocStats.opsInChains);
    c("countedLoop.cloops", cr.countedLoopStats.cloops);
    c("countedLoop.wloops", cr.countedLoopStats.wloops);
    c("slot.blocksAttempted", cr.slotStats.blocksAttempted);
    c("slot.blocksLowered", cr.slotStats.blocksLowered);
    c("slot.definesRewritten", cr.slotStats.definesRewritten);
    c("slot.sensitiveOps", cr.slotStats.sensitiveOps);
    c("slot.predsKeptInRegisters",
      cr.slotStats.predsKeptInRegisters);
    c("buffer.loopsBuffered", cr.bufferAlloc.buffered);
    c("buffer.loopsUnbuffered", cr.bufferAlloc.unbuffered);
}

std::string
diffSimStats(const SimStats &a, const SimStats &b,
             const std::string &labelA, const std::string &labelB)
{
    Registry ra, rb;
    publishSimStats(ra, a);
    publishSimStats(rb, b);
    const auto diffs = diffRegistries(ra.toJson(), rb.toJson());
    if (diffs.empty())
        return "";

    std::ostringstream os;
    os << diffs.size() << " field(s) differ (" << labelA << " vs "
       << labelB << "):\n";
    int firstLoop = -1;
    for (const auto &d : diffs) {
        os << "  " << d.key << ": " << d.a << " vs " << d.b << "\n";
        // Keys look like "sim.loop.<id3>.<field>".
        const auto pos = d.key.find(".loop.");
        if (pos != std::string::npos) {
            const int id = std::atoi(d.key.c_str() + pos + 6);
            if (firstLoop < 0 || id < firstLoop)
                firstLoop = id;
        }
    }
    if (firstLoop >= 0) {
        os << "first diverging loop id: " << firstLoop;
        if (static_cast<std::size_t>(firstLoop) < a.loops.size())
            os << " (" << a.loops[firstLoop].name << ")";
        os << "\n";
    }
    return os.str();
}

} // namespace obs
} // namespace lbp
