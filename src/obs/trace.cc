#include "obs/trace.hh"

#include <algorithm>
#include <map>

#include "obs/json.hh"
#include "support/logging.hh"

namespace lbp
{
namespace obs
{

const char *
traceKindName(TraceKind k)
{
    switch (k) {
      case TraceKind::Fetch: return "fetch";
      case TraceKind::BufHit: return "buffer_hit";
      case TraceKind::LoopEnter: return "loop_enter";
      case TraceKind::LoopRecord: return "loop_record";
      case TraceKind::LoopExit: return "loop_exit";
      case TraceKind::Branch: return "branch";
      case TraceKind::Penalty: return "penalty";
      case TraceKind::Nullify: return "nullify";
    }
    return "?";
}

TraceSink::TraceSink(std::size_t capacity, std::uint64_t samplePeriod)
    : capacity_(std::max<std::size_t>(capacity, 1)),
      samplePeriod_(std::max<std::uint64_t>(samplePeriod, 1))
{
}

std::vector<TraceEvent>
TraceSink::snapshot() const
{
    std::vector<TraceEvent> out;
    out.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i)
        out.push_back(ring_[(head_ + i) % capacity_]);
    return out;
}

void
TraceSink::clear()
{
    ring_.clear();
    head_ = 0;
    size_ = 0;
    sampleSeq_ = 0;
    dropped_ = 0;
    sampledOut_ = 0;
    for (int i = 0; i < kTraceKindCount; ++i) {
        counts_[i] = 0;
        sumA_[i] = 0;
    }
}

std::vector<ResidencySpan>
residencyTimeline(const TraceSink &sink)
{
    const auto events = sink.snapshot();
    std::vector<ResidencySpan> spans;
    // Per-loop stack of open activations (indices into `spans`).
    std::map<std::int32_t, std::vector<std::size_t>> open;
    std::uint64_t lastCycle = 0;

    for (const auto &e : events) {
        lastCycle = std::max(lastCycle, e.cycle);
        switch (e.kind) {
          case TraceKind::LoopEnter: {
            ResidencySpan s;
            s.loopId = e.loopId;
            s.enterCycle = e.cycle;
            s.exitCycle = e.cycle;
            s.fromBuffer = e.b != 0;
            open[e.loopId].push_back(spans.size());
            spans.push_back(s);
            break;
          }
          case TraceKind::LoopRecord: {
            auto it = open.find(e.loopId);
            if (it != open.end() && !it->second.empty())
                spans[it->second.back()].recorded = true;
            break;
          }
          case TraceKind::LoopExit: {
            auto it = open.find(e.loopId);
            if (it == open.end() || it->second.empty())
                break;   // exit whose enter fell out of the ring
            ResidencySpan &s = spans[it->second.back()];
            it->second.pop_back();
            s.exitCycle = e.cycle;
            s.iterations = static_cast<std::uint64_t>(e.a);
            s.fromBuffer = e.b != 0;
            break;
          }
          default:
            break;
        }
    }
    // Close any span left open (truncated trace).
    for (auto &kv : open)
        for (std::size_t idx : kv.second)
            spans[idx].exitCycle =
                std::max(spans[idx].enterCycle, lastCycle);
    return spans;
}

namespace
{

Json
chromeEvent(const char *name, const char *cat, const char *ph,
            std::uint64_t ts, int tid)
{
    Json e = Json::object();
    e.set("name", Json::str(name));
    e.set("cat", Json::str(cat));
    e.set("ph", Json::str(ph));
    e.set("ts", Json::uinteger(ts));
    e.set("pid", Json::integer(1));
    e.set("tid", Json::integer(tid));
    return e;
}

Json
threadName(int tid, const std::string &name)
{
    Json e = Json::object();
    e.set("name", Json::str("thread_name"));
    e.set("ph", Json::str("M"));
    e.set("pid", Json::integer(1));
    e.set("tid", Json::integer(tid));
    Json args = Json::object();
    args.set("name", Json::str(name));
    e.set("args", std::move(args));
    return e;
}

// Track layout: 0 = fetch stream, 1 = control, 2+loopId = one track
// per static loop.
constexpr int kFetchTid = 0;
constexpr int kControlTid = 1;
constexpr int kLoopTidBase = 2;

} // namespace

void
writeChromeTrace(std::ostream &os, const TraceSink &sink,
                 const std::vector<std::string> &loopNames,
                 const std::string &processName)
{
    auto events = sink.snapshot();
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent &x, const TraceEvent &y) {
                         return x.cycle < y.cycle;
                     });

    auto loopName = [&](std::int32_t id) -> std::string {
        if (id >= 0 && static_cast<std::size_t>(id) < loopNames.size()
            && !loopNames[id].empty())
            return loopNames[id];
        return "loop" + std::to_string(id);
    };

    // The document is written as it is produced: the header, each
    // event as a small Json object, then the footer. The layout is
    // exactly what Json::write gives the whole document (one array
    // element per line at indent 2), without holding it in memory.
    os << "{\n  \"traceEvents\": [";
    bool firstEvent = true;
    auto emit = [&](const Json &e) {
        os << (firstEvent ? "\n    " : ",\n    ");
        firstEvent = false;
        e.write(os, 2);
    };

    {
        Json proc = Json::object();
        proc.set("name", Json::str("process_name"));
        proc.set("ph", Json::str("M"));
        proc.set("pid", Json::integer(1));
        Json args = Json::object();
        args.set("name", Json::str(processName));
        proc.set("args", std::move(args));
        emit(proc);
    }
    emit(threadName(kFetchTid, "fetch"));
    emit(threadName(kControlTid, "control"));

    std::vector<bool> namedLoop;
    auto nameLoopTrack = [&](std::int32_t id) {
        if (id < 0)
            return;
        if (static_cast<std::size_t>(id) >= namedLoop.size())
            namedLoop.resize(id + 1, false);
        if (namedLoop[id])
            return;
        namedLoop[id] = true;
        emit(threadName(kLoopTidBase + id, "loop:" + loopName(id)));
    };

    // Loop activations render as duration spans; recover them first.
    const auto spans = residencyTimeline(sink);
    for (const auto &s : spans) {
        nameLoopTrack(s.loopId);
        Json e = chromeEvent(loopName(s.loopId).c_str(), "loop", "X",
                             s.enterCycle, kLoopTidBase + s.loopId);
        e.set("dur", Json::uinteger(
                         std::max<std::uint64_t>(
                             s.exitCycle - s.enterCycle, 1)));
        Json args = Json::object();
        args.set("iterations", Json::uinteger(s.iterations));
        args.set("fromBuffer", Json::boolean(s.fromBuffer));
        args.set("recorded", Json::boolean(s.recorded));
        e.set("args", std::move(args));
        emit(e);
    }

    for (const auto &ev : events) {
        switch (ev.kind) {
          case TraceKind::Fetch:
          case TraceKind::BufHit: {
            Json e = chromeEvent(traceKindName(ev.kind), "fetch", "i",
                                 ev.cycle, kFetchTid);
            e.set("s", Json::str("t"));
            Json args = Json::object();
            args.set("ops", Json::integer(ev.a));
            args.set("block", Json::integer(ev.b));
            if (ev.loopId >= 0)
                args.set("loop", Json::str(loopName(ev.loopId)));
            e.set("args", std::move(args));
            emit(e);
            break;
          }
          case TraceKind::LoopRecord: {
            nameLoopTrack(ev.loopId);
            Json e = chromeEvent("record", "loop", "i", ev.cycle,
                                 kLoopTidBase + ev.loopId);
            e.set("s", Json::str("t"));
            Json args = Json::object();
            args.set("bufAddr", Json::integer(ev.a));
            args.set("imageOps", Json::integer(ev.b));
            e.set("args", std::move(args));
            emit(e);
            break;
          }
          case TraceKind::Branch: {
            Json e = chromeEvent("branch", "control", "i", ev.cycle,
                                 kControlTid);
            e.set("s", Json::str("t"));
            Json args = Json::object();
            args.set("taken", Json::boolean(ev.a != 0));
            if (ev.b)
                args.set("nullified", Json::boolean(true));
            e.set("args", std::move(args));
            emit(e);
            break;
          }
          case TraceKind::Penalty: {
            // Render the stall as a span covering the cycles it
            // added (the event is emitted after the cycle bump).
            const std::uint64_t dur =
                static_cast<std::uint64_t>(ev.a);
            Json e = chromeEvent("penalty", "control", "X",
                                 ev.cycle >= dur ? ev.cycle - dur : 0,
                                 kControlTid);
            e.set("dur", Json::uinteger(std::max<std::uint64_t>(
                             dur, 1)));
            Json args = Json::object();
            const char *why = "branch";
            switch (ev.b) {
              case kPenaltyCall: why = "call"; break;
              case kPenaltyReturn: why = "return"; break;
              case kPenaltyWloopExit: why = "wloop-exit"; break;
              default: break;
            }
            args.set("why", Json::str(why));
            e.set("args", std::move(args));
            emit(e);
            break;
          }
          case TraceKind::Nullify: {
            Json e = chromeEvent("nullify", "issue", "i", ev.cycle,
                                 kControlTid);
            e.set("s", Json::str("t"));
            Json args = Json::object();
            args.set("opcode", Json::integer(ev.a));
            args.set("slot", Json::integer(ev.b));
            e.set("args", std::move(args));
            emit(e);
            break;
          }
          case TraceKind::LoopEnter:
          case TraceKind::LoopExit:
            // Represented by the residency spans above.
            break;
        }
    }

    Json other = Json::object();
    other.set("schema_version", Json::integer(kTraceSchemaVersion));
    other.set("cycleUnit", Json::str("1 cycle = 1 us"));
    other.set("dropped", Json::uinteger(sink.dropped()));
    other.set("sampledOut", Json::uinteger(sink.sampledOut()));
    other.set("samplePeriod", Json::uinteger(sink.samplePeriod()));
    os << "\n  ],\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": ";
    other.write(os, 1);
    os << "\n}\n";
}

} // namespace obs
} // namespace lbp
