#include "analysis/dependence.hh"

#include <algorithm>

#include "analysis/liveness.hh"
#include "support/logging.hh"

namespace lbp
{

void
DepGraph::addEdge(int from, int to, DepKind kind, int latency,
                  int distance)
{
    // Deduplicate: keep the strongest (max latency) edge per
    // (from, to, distance).
    for (int e : succIdx_[from]) {
        DepEdge &ex = edges_[e];
        if (ex.to == to && ex.distance == distance) {
            ex.latency = std::max(ex.latency, latency);
            return;
        }
    }
    const int idx = static_cast<int>(edges_.size());
    edges_.push_back({from, to, kind, latency, distance});
    succIdx_[from].push_back(idx);
    predIdx_[to].push_back(idx);
}

DepGraph::DepGraph(const BasicBlock &bb, bool loopCarried)
{
    numOps_ = static_cast<int>(bb.ops.size());
    succIdx_.assign(numOps_, {});
    predIdx_.assign(numOps_, {});

    // --- Register dependences (general + predicate) ---
    // Track last writer and readers-since-last-write per register.
    struct Accesses
    {
        int lastWriter = -1;
        std::vector<int> readersSince;
        std::vector<int> upwardReaders; // readers before any write
    };
    // Access records of the ids the block touches, indexed through
    // an id-indexed slot table; ids() lists them in ascending order.
    struct Table
    {
        std::vector<int> slotOf; // id -> index into recs, -1 = none
        std::vector<Accesses> recs;
        std::vector<std::uint32_t> touched;

        Accesses &operator[](std::uint32_t id)
        {
            if (id >= slotOf.size())
                slotOf.resize(id + 1, -1);
            if (slotOf[id] < 0) {
                slotOf[id] = static_cast<int>(recs.size());
                recs.emplace_back();
                touched.push_back(id);
            }
            return recs[slotOf[id]];
        }

        const std::vector<std::uint32_t> &ids()
        {
            std::sort(touched.begin(), touched.end());
            return touched;
        }
    };
    Table regs, preds;

    for (int i = 0; i < numOps_; ++i) {
        const Operation &op = bb.ops[i];

        // Reads.
        auto doRead = [&](Accesses &a, int latency) {
            if (a.lastWriter >= 0)
                addEdge(a.lastWriter, i, DepKind::TRUE_, latency, 0);
            else
                a.upwardReaders.push_back(i);
            a.readersSince.push_back(i);
        };
        Liveness::forEachUse(op, [&](RegId r) {
            Accesses &a = regs[r];
            doRead(a, a.lastWriter >= 0 ? latencyOf(bb.ops[a.lastWriter].op)
                                        : 0);
        });
        // Predicate generation has a 1-cycle path to the consumer's
        // squash input (paper §7.3).
        Liveness::forEachPredUse(op,
                                 [&](PredId p) { doRead(preds[p], 1); });

        // Writes.
        auto doWrite = [&](Accesses &a) {
            for (int rd : a.readersSince) {
                if (rd != i)
                    addEdge(rd, i, DepKind::ANTI, 0, 0);
            }
            if (a.lastWriter >= 0 && a.lastWriter != i)
                addEdge(a.lastWriter, i, DepKind::OUTPUT, 1, 0);
            a.readersSince.clear();
            a.lastWriter = i;
        };
        Liveness::forEachDef(op, [&](RegId r) { doWrite(regs[r]); });
        Liveness::forEachPredDef(op, [&](PredId p) { doWrite(preds[p]); });
    }

    // --- Memory ordering with base+offset disambiguation ---
    // Two accesses are provably independent when they share the same
    // base register *version* (no intervening write to the base) and
    // their [offset, offset+size) ranges are disjoint — the
    // lightweight fruit of the pointer analysis the paper calls
    // "important to optimization and instruction scheduling".
    struct MemAccess
    {
        int op;
        bool isSt;
        RegId base = 0;
        bool baseValid = false; // reg base with immediate offset
        int version = 0;
        std::int64_t off = 0;
        int size = 0;
    };
    std::vector<MemAccess> accesses;
    // Every register write advances its version; a register with a
    // nonzero final version is written in the block.
    std::vector<int> regVersion(regs.slotOf.size(), 0);

    auto accessSize = [](Opcode oc) {
        switch (oc) {
          case Opcode::LD_B: case Opcode::ST_B: return 1;
          case Opcode::LD_H: case Opcode::ST_H: return 2;
          default: return 4;
        }
    };
    auto mayAlias = [&](const MemAccess &a, const MemAccess &b,
                        bool crossIteration) {
        if (!a.baseValid || !b.baseValid)
            return true;
        if (a.base != b.base || a.version != b.version)
            return true;
        // Cross-iteration comparisons additionally require the base
        // to be loop-invariant over the whole body.
        if (crossIteration && regVersion[a.base] != 0)
            return true;
        return a.off < b.off + b.size && b.off < a.off + a.size;
    };

    std::vector<int> stores_all;
    for (int i = 0; i < numOps_; ++i) {
        const Operation &op = bb.ops[i];
        const Opcode oc = op.op;
        if (isLoad(oc) || isStore(oc)) {
            MemAccess ma;
            ma.op = i;
            ma.isSt = isStore(oc);
            ma.size = accessSize(oc);
            if (op.srcs[0].isReg() && op.srcs[1].isImm()) {
                ma.base = op.srcs[0].asReg();
                ma.baseValid = true;
                ma.version = regVersion[ma.base];
                ma.off = op.srcs[1].value;
            }
            for (const auto &prev : accesses) {
                if (!prev.isSt && !ma.isSt)
                    continue; // load-load never conflicts
                if (mayAlias(prev, ma, /*crossIteration=*/false)) {
                    // store->load / store->store need a cycle; a
                    // store may issue in a load's cycle (reads
                    // precede writes within a bundle).
                    addEdge(prev.op, i, DepKind::MEM,
                            prev.isSt ? 1 : 0, 0);
                }
            }
            accesses.push_back(ma);
            if (ma.isSt)
                stores_all.push_back(i);
        }
        // Every register write (memory op or not) advances base
        // versions, invalidating offset comparisons across it.
        Liveness::forEachDef(op, [&](RegId r) { ++regVersion[r]; });
    }

    // --- Control: branches are position barriers ---
    for (int i = 0; i < numOps_; ++i) {
        if (!bb.ops[i].isBranchOp() && bb.ops[i].op != Opcode::CALL &&
            bb.ops[i].op != Opcode::RET && !isBufferOp(bb.ops[i].op)) {
            continue;
        }
        for (int j = 0; j < i; ++j)
            addEdge(j, i, DepKind::CONTROL, 0, 0);
        for (int j = i + 1; j < numOps_; ++j)
            addEdge(i, j, DepKind::CONTROL, 1, 0);
    }

    if (!loopCarried)
        return;

    // --- Loop-carried register dependences (distance 1), in
    //     ascending id order ---
    for (std::uint32_t r : regs.ids()) {
        const Accesses &a = regs[r];
        if (a.lastWriter < 0)
            continue;
        for (int rd : a.upwardReaders) {
            addEdge(a.lastWriter, rd, DepKind::TRUE_,
                    latencyOf(bb.ops[a.lastWriter].op), 1);
        }
    }
    for (std::uint32_t p : preds.ids()) {
        const Accesses &a = preds[p];
        if (a.lastWriter < 0)
            continue;
        for (int rd : a.upwardReaders)
            addEdge(a.lastWriter, rd, DepKind::TRUE_, 1, 1);
    }

    // --- Loop-carried memory (distance 1), disambiguated ---
    for (const auto &a : accesses) {
        if (!a.isSt)
            continue;
        for (const auto &b : accesses) {
            if (!a.isSt && !b.isSt)
                continue;
            if (mayAlias(a, b, /*crossIteration=*/true))
                addEdge(a.op, b.op, DepKind::MEM, 1, 1);
        }
    }

    // --- Loop-carried control: an exit whose outcome is not known in
    //     advance (while-loop back branch, conditional exits) limits
    //     store speculation in the next iteration. Counted-loop
    //     branches (BR_CLOOP) impose no such constraint: the trip
    //     count is known to the fetch hardware.
    for (int i = 0; i < numOps_; ++i) {
        const Opcode oc = bb.ops[i].op;
        if (oc != Opcode::BR_WLOOP && oc != Opcode::BR &&
            oc != Opcode::JUMP) {
            continue;
        }
        for (int st : stores_all)
            addEdge(i, st, DepKind::CONTROL, 1, 1);
    }
}

std::vector<int>
DepGraph::heights() const
{
    std::vector<int> h(numOps_, 0);
    // Ops are in program order; distance-0 edges always go forward
    // (by construction), so a reverse sweep computes longest paths.
    for (int i = numOps_ - 1; i >= 0; --i) {
        for (int e : succIdx_[i]) {
            const DepEdge &ed = edges_[e];
            if (ed.distance != 0)
                continue;
            h[i] = std::max(h[i], ed.latency + h[ed.to]);
        }
    }
    return h;
}

int
DepGraph::recMII() const
{
    // Find the smallest II such that the graph with edge weights
    // (latency - II * distance) has no positive-weight cycle.
    auto hasPositiveCycle = [&](int ii) {
        std::vector<double> dist(numOps_, 0.0);
        for (int iter = 0; iter <= numOps_; ++iter) {
            bool relaxed = false;
            for (const auto &e : edges_) {
                const double w =
                    e.latency - static_cast<double>(ii) * e.distance;
                if (dist[e.from] + w > dist[e.to]) {
                    dist[e.to] = dist[e.from] + w;
                    relaxed = true;
                }
            }
            if (!relaxed)
                return false;
        }
        return true;
    };

    int lo = 1, hi = 1;
    for (const auto &e : edges_)
        hi = std::max(hi, e.latency + 1);
    hi = std::max(hi, numOps_ + 1);
    while (hasPositiveCycle(hi))
        hi *= 2;
    while (lo < hi) {
        const int mid = (lo + hi) / 2;
        if (hasPositiveCycle(mid))
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

} // namespace lbp
